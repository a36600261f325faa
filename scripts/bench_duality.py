#!/usr/bin/env python3
"""Time duality_report in-process and count the matchings it solves.

Three groups: a seeded population of 160 random matrices with sides
16..40, 40 at each density 0.1 / 0.3 / 0.5 / 0.7; 1,000 random matrices
with sides 2..8 taking the densities in turn, shaped like perfbench's
small survey tier; and seeded relabellings of PG(2, q) for q = 9, 16, 25.
Each group is timed as one loop over its inputs, and the median of
REPEATS runs (one with --quick) is reported.
Matchings are counted by wrapping matching.bipartite_matching, the name
every matching the search solves goes through, in a separate untimed pass.

The result is printed as JSON; with --out it is also stored in that file
under --label, next to the labels already there, so one file can hold a
parent and a change measured on the same host.
"""

import argparse
import json
import platform
import random
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

import pglatin
from pglatin import matching
from pglatin.binmat import BinaryMatrix, Permutation, permute
from pglatin.planes import build_pg2

DENSITIES = (0.1, 0.3, 0.5, 0.7)
REPEATS = 3


def random_matrix(rng: random.Random, low: int, high: int, density: float) -> BinaryMatrix:
    m, n = rng.randint(low, high), rng.randint(low, high)
    return BinaryMatrix(m, n, tuple(int(rng.random() < density) for _ in range(m * n)))


def random_group(per_density: int, seed: int) -> list[BinaryMatrix]:
    rng = random.Random(seed)
    return [random_matrix(rng, 16, 40, density) for density in DENSITIES for _ in range(per_density)]


def small_group(count: int, seed: int) -> list[BinaryMatrix]:
    rng = random.Random(seed)
    return [random_matrix(rng, 2, 8, DENSITIES[k % len(DENSITIES)]) for k in range(count)]


def relabelled_plane(q: int, rng: random.Random) -> BinaryMatrix:
    incidence = build_pg2(q).incidence
    rows, cols = list(range(incidence.rows)), list(range(incidence.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return permute(incidence, Permutation(tuple(rows)), Permutation(tuple(cols)))


def matchings_per_report(group: list[BinaryMatrix]) -> float:
    calls = 0
    solve = matching.bipartite_matching

    def counted(*args):
        nonlocal calls
        calls += 1
        return solve(*args)

    matching.bipartite_matching = counted
    try:
        for f in group:
            matching.duality_report(f)
    finally:
        matching.bipartite_matching = solve
    return calls / len(group)


def measure(group: list[BinaryMatrix], repeats: int) -> dict:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        for f in group:
            matching.duality_report(f)
        times.append(perf_counter() - start)
    return {
        "inputs": len(group),
        "median_s": round(statistics.median(times), 4),
        "times_s": [round(t, 4) for t in times],
        "matchings_per_report": matchings_per_report(group),
    }


def source_sha() -> str | None:
    """HEAD of the git checkout the imported package lives in, marked when src/ has edits."""
    where = Path(pglatin.__file__).resolve().parent
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=where, capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "."], cwd=where, capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return sha.stdout.strip() + ("+edits" if dirty.stdout.strip() else "")


def store(path: Path, label: str, result: dict) -> None:
    """Write result into the JSON file at path under label, keeping its other labels."""
    stored = json.loads(path.read_text()) if path.exists() else {}
    stored[label] = result
    path.write_text(json.dumps(stored, indent=2) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true", help="8 + 20 random matrices, q = 2 and 3, one run each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--label", default="current")
    parser.add_argument("--out", type=Path, default=None, metavar="BENCH.json")
    args = parser.parse_args()
    per_density, small, orders, repeats = (2, 20, (2, 3), 1) if args.quick else (40, 1000, (9, 16, 25), REPEATS)
    rng = random.Random(args.seed)
    groups = {"random 16-40": random_group(per_density, args.seed), "random 2-8": small_group(small, args.seed)}
    groups.update((f"PG(2, {q})", [relabelled_plane(q, rng)]) for q in orders)
    result = {
        "git_sha": source_sha(),
        "python": platform.python_version(),
        "seed": args.seed,
        "repeats": repeats,
        "groups": {name: measure(group, repeats) for name, group in groups.items()},
    }
    print(json.dumps(result, indent=2))
    if args.out is not None:
        store(args.out, args.label, result)


if __name__ == "__main__":
    main()
