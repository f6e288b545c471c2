#!/usr/bin/env python3
"""How much fault tolerance does the GQS relaxation buy?  A Monte Carlo study.

Two quantitative questions around the paper's headline result:

1. *Admissibility*: out of randomly drawn fail-prone systems (processes crash,
   channels disconnect), what fraction admits a classical quorum system, a
   strongly connected quorum system (QS+), and a generalized quorum system?
   (This is experiment E6 of docs/experiments.md.)

2. *Reliability of a fixed design*: take the Figure 1 quorum families and make
   processes/channels fail independently at random — how often does each
   availability notion still hold?

Run with:  python examples/reliability_study.py [--jobs N]

``--jobs`` shards the sample budgets across worker processes via
``repro.engine``; the tables are identical for every value.
"""

from __future__ import annotations

import argparse

from repro.analysis import figure1_quorum_system
from repro.montecarlo import (
    admissibility_sweep,
    admissibility_table,
    gqs_strictly_weaker_examples,
    reliability_sweep,
    reliability_table,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    def jobs_value(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("jobs must be non-negative (0 means one per CPU)")
        return value

    parser.add_argument(
        "--jobs",
        type=jobs_value,
        default=1,
        help="worker processes for the Monte Carlo sweeps (1 = serial, 0 = one per CPU)",
    )
    args = parser.parse_args()

    print("1. Admissibility of the three quorum conditions (random fail-prone systems)")
    print("   n=5 processes, 3 failure patterns per system, 40 samples per point\n")
    points = admissibility_sweep(
        disconnect_probs=(0.0, 0.1, 0.2, 0.3, 0.5),
        n=5,
        num_patterns=3,
        crash_prob=0.2,
        samples=40,
        seed=0,
        jobs=args.jobs,
    )
    print(admissibility_table(points))
    print()

    print("2. Availability of the fixed Figure 1 quorum families under i.i.d. failures\n")
    estimates = reliability_sweep(
        figure1_quorum_system(),
        disconnect_probs=(0.0, 0.1, 0.2, 0.3, 0.5),
        crash_prob=0.1,
        samples=200,
        seed=1,
        jobs=args.jobs,
    )
    print(reliability_table(estimates))
    print()

    print("3. Witnesses that the GQS condition is *strictly* weaker than QS+")
    witnesses = gqs_strictly_weaker_examples(n=5, num_patterns=3, samples=150, seed=2)
    print("   found {} asymmetric-partition fail-prone systems admitting a GQS but no QS+".format(len(witnesses)))
    for system in witnesses[:3]:
        print("   -", system.describe().splitlines()[0])


if __name__ == "__main__":
    main()
