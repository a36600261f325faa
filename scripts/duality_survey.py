#!/usr/bin/env python3
"""Survey v (max independent ones) against w (max zero-block weight).

Samples random 0/1 matrices, tabulates how often the two-sided zero block
reaches the one-sided bound m + n - v, and prints the distribution of the
gap. The duality rules are rechecked on every sample; a violation would
raise inside duality_report.
"""

import argparse
import random
from collections import Counter

from pglatin import BinaryMatrix, duality_report


def run_survey(samples: int, max_side: int, density: float, seed: int) -> None:
    rng = random.Random(seed)
    gaps: Counter[int] = Counter()
    full_rank = 0
    no_zero = 0
    for _ in range(samples):
        rows = rng.randint(1, max_side)
        cols = rng.randint(1, max_side)
        data = tuple(1 if rng.random() < density else 0 for _ in range(rows * cols))
        report = duality_report(BinaryMatrix(rows, cols, data))
        if report.v == min(rows, cols):
            full_rank += 1
        if report.w_witness is None:
            no_zero += 1
            continue
        gaps[report.dual_bound - report.w] += 1

    print(f"samples: {samples} (max side {max_side}, density {density}, seed {seed})")
    print(f"v reached min(m, n) in {full_rank} samples")
    print(f"matrices without a single zero: {no_zero}")
    print("gap (m + n - v) - w for the rest:")
    for gap in sorted(gaps):
        bar = "#" * max(1, round(40 * gaps[gap] / samples))
        print(f"  {gap:2d}: {gaps[gap]:6d}  {bar}")
    if any(g > 0 for g in gaps):
        print(
            "\npositive gaps only ever show up when v = min(m, n): with a row or\n"
            "column side fully matched, the best zero selection can be forced to\n"
            "stay one-sided, and requiring both sides nonempty then costs weight."
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=20000)
    parser.add_argument("--max-side", type=int, default=7)
    parser.add_argument("--density", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run_survey(args.samples, args.max_side, args.density, args.seed)


if __name__ == "__main__":
    main()
