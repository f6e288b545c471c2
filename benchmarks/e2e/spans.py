"""In-memory span recorder for the traced pass.

Spans are recorded by the harness *around* calls into each layer's public
functions (the library itself carries no timers yet).  A span is
``[name, start, end, parent, iteration]``; ``parent`` is the index of the
enclosing span, so a layer's self time is its duration minus the part its
child spans cover.  Nothing is written while the benchmark runs: the span
list is dumped once, when the child ends.

Spans keep raw ``perf_counter`` readings.  ``scale`` holds, per iteration, the
factor that states its seconds at the quiet machine's speed (calibration.py);
:meth:`Tracer.durations` and :meth:`Tracer.totals` apply it.
"""

import json
import statistics
import time
from contextlib import contextmanager

#: Wraps work the traced replay does *in addition* to the workload (a second
#: search to split search from validation, a jobs=1 reference run): excluded
#: from the traced iteration time, so ``harness.tracing_overhead`` compares
#: equal work.
EXTRA = "harness.extra"

#: The root span of one traced iteration.
ITERATION = "iteration"


class Tracer:
    """Nested spans on ``time.perf_counter``, grouped by iteration."""

    def __init__(self):
        self.spans = []
        self.iteration = None
        self.scale = {}
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.iteration]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def iterations(self):
        """The iteration labels seen, in first-seen order."""
        seen = []
        for span in self.spans:
            if span[4] is not None and span[4] not in seen:
                seen.append(span[4])
        return seen

    def durations(self, name, iteration=None):
        """Durations of every span called ``name`` (of one iteration, if given)."""
        return [
            (end - start) * self.scale.get(span_iteration, 1.0)
            for span_name, start, end, _parent, span_iteration in self.spans
            if span_name == name and (iteration is None or span_iteration == iteration)
        ]

    def totals(self, prefix):
        """Per iteration, the summed duration of spans named ``prefix`` or ``prefix.*``."""
        dotted = prefix + "."
        return [
            self.scale.get(iteration, 1.0)
            * sum(
                end - start
                for name, start, end, _parent, span_iteration in self.spans
                if span_iteration == iteration and (name == prefix or name.startswith(dotted))
            )
            for iteration in self.iterations()
        ]

    def median_total(self, prefix):
        """Median over iterations of :meth:`totals` (0.0 when never recorded)."""
        totals = self.totals(prefix)
        return statistics.median(totals) if totals else 0.0

    def replay_seconds(self):
        """Per iteration, the replay's own seconds: the root span minus the extra work."""
        return [
            total - extra for total, extra in zip(self.totals(ITERATION), self.totals(EXTRA))
        ]

    def self_times(self):
        """Self time per span index: duration minus its direct children's durations."""
        self_time = [end - start for _name, start, end, _parent, _iteration in self.spans]
        for _name, start, end, parent, _iteration in self.spans:
            if parent is not None:
                self_time[parent] -= end - start
        return self_time

    def dump(self, path, **header):
        """Write the span list (with self times) as one JSON document."""
        self_time = self.self_times()
        document = dict(header)
        document["scale"] = {str(iteration): factor for iteration, factor in self.scale.items()}
        document["columns"] = ["name", "start", "end", "parent", "iteration", "self_s"]
        document["spans"] = [span + [self_time[index]] for index, span in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
            handle.write("\n")
