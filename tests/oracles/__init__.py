"""Reference implementations the production decision layer is checked against.

``src/repro`` keeps one implementation per concept, all of it on
:class:`~repro.graph.BitsetDiGraph` masks.  The slow, obviously-correct
versions it replaced live here, as a test-side package (not under ``src/``,
not installed): the differential batteries in ``tests/`` and the speedup
benchmarks in ``benchmarks/`` import them via their conftests.

Everything in this package is written on the set-based container and
functions of :mod:`oracles.graph` only.  It must never
import :mod:`repro.graph.bitset`, :mod:`repro.montecarlo.bitsampler` or any
mask-level helper — an oracle that shares code with what it checks checks
nothing (``tests/test_surface.py`` enforces this).

* :mod:`oracles.graph` — its own ``SetGraph`` container, a system's network
  read from its serialized form, set-based reachability, Tarjan SCCs,
  condensation and the mutual-reachability predicates;
* :mod:`oracles.predicates` — the two availability predicates of §3, the
  set-based Definition 2 validator, the QS+ validator of §1 and the
  component ``U_f``;
* :mod:`oracles.discovery` — Tarjan-based candidate enumeration, the
  prefix-only backtracker and the exponential brute-forcer;
* :mod:`oracles.failures` — the island patterns of the zoned and multi-region
  families as channel lists, against the rows they are born as;
* :mod:`oracles.render` — the reports and serializations sorted by ``repr``
  from decoded sets, against the bit-order decodes of the process index;
* :mod:`oracles.montecarlo` — object-per-pattern samplers (the admissibility
  sweep's ``sample_fail_prone_system`` among them) and shards, run through the
  production spec builders and merge functions.

Two oracles belong to other layers.  :mod:`oracles.linearizability` holds
what the one Wing–Gong search of :mod:`repro.checkers` is compared with — the
permutation brute-forcers for registers and snapshots, the scan-ordering
check ``scans_totally_ordered`` and the streaming forward-closure register
checker — and imports nothing of the search itself.
:mod:`oracles.sim` carries the single-heap ``Event`` scheduler and the
poll-after-every-delivery delivery path that :mod:`repro.sim` replaced, with
a context manager that swaps them in, and the traffic tap that counts each
process's sent and delivered copies for the differential battery.  Its rule is the same in spirit —
it imports nothing from :mod:`repro.sim.events`.
"""
