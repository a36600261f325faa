#!/usr/bin/env python3
"""Time duality_report in a child process and count the matchings it solves.

Three groups: a seeded population of 160 random matrices with sides
16..40, 40 at each density 0.1 / 0.3 / 0.5 / 0.7; 1,000 random matrices
with sides 2..8 taking the densities in turn, shaped like perfbench's
small survey tier; and seeded relabellings of PG(2, q) for q = 9, 16, 25.
Each group is timed as one loop over its inputs, and the median of
REPEATS runs (one with --quick) is reported.
Matchings are counted by wrapping matching.bipartite_matching, the name
every matching the search solves goes through, in a separate untimed pass.

Each tree is timed in a child process that runs this script on the same
inputs with --serve. With --against DIR, the package under DIR/src and this
one take turns for PAIRS rounds (two with --quick), the first tree of a
round alternating, so host drift reaches both alike; DIR's result is
labelled "parent".

The result is printed as JSON; with --out it is also stored in that file
under --label (and "parent"), next to the labels already there, so one file
can hold a parent and a change measured on the same host.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter

import pglatin
from pglatin import matching
from pglatin.binmat import BinaryMatrix, Permutation, permute
from pglatin.planes import build_pg2

DENSITIES = (0.1, 0.3, 0.5, 0.7)
REPEATS = 3
PAIRS = 10


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


def time_once(group: list[BinaryMatrix]) -> float:
    start = perf_counter()
    for f in group:
        matching.duality_report(f)
    return perf_counter() - start


def summary(inputs: int, times: list[float], matchings: float) -> dict:
    return {
        "inputs": inputs,
        "median_s": round(statistics.median(times), 4),
        "times_s": [round(t, 4) for t in times],
        "matchings_per_report": matchings,
    }


def provenance() -> dict:
    return {"git_sha": source_sha(), "python": platform.python_version()}


def serve(groups: dict[str, list[BinaryMatrix]]) -> None:
    """The child side: first the provenance and matchings, then one timed run per line read."""
    counts = {name: matchings_per_report(group) for name, group in groups.items()}
    print(json.dumps({**provenance(), "matchings_per_report": counts}), flush=True)
    for _ in sys.stdin:
        print(json.dumps({name: time_once(group) for name, group in groups.items()}), flush=True)


def alternate(groups: dict[str, list[BinaryMatrix]], other: Path | None, rounds: int, child_args: list[str]) -> dict:
    """Per side, "parent" (the tree at other, if any) and this tree, its provenance and groups timed over rounds.

    Each side runs in its own --serve child, so both are timed the same way;
    with two sides, the first of a round alternates.
    """
    this = Path(pglatin.__file__).resolve().parent.parent
    sources = {"this": this} if other is None else {"parent": other / "src", "this": this}
    cmd = [sys.executable, __file__, *child_args, "--serve"]
    with ExitStack() as stack:
        children = {}
        for side, src in sources.items():
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
            popen = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            children[side] = stack.enter_context(popen)

        def reply(side: str) -> dict:
            line = children[side].stdout.readline()
            if not line:
                raise SystemExit(f"error: the run of {sources[side]} stopped; its error is above")
            return json.loads(line)

        def run_round(side: str) -> dict[str, float]:
            children[side].stdin.write("\n")
            children[side].stdin.flush()
            return reply(side)

        sides = {side: reply(side) for side in sources}
        counts = {side: source.pop("matchings_per_report") for side, source in sides.items()}
        times = {side: {name: [] for name in groups} for side in sides}
        for k in range(rounds):
            for side in reversed(sources) if k % 2 == 0 else sources:
                for name, seconds in run_round(side).items():
                    times[side][name].append(seconds)
    return {
        side: (sides[side], {name: summary(len(group), times[side][name], counts[side][name])
                             for name, group in groups.items()})
        for side in sides
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
    parser.add_argument("--against", type=Path, default=None, metavar="DIR", help="alternate with DIR/src, as parent")
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.against is not None and (args.label == "parent" or not (args.against / "src" / "pglatin").is_dir()):
        parser.error("--against needs a checkout with src/pglatin and a --label other than parent")
    per_density, small, orders, repeats = (2, 20, (2, 3), 1) if args.quick else (40, 1000, (9, 16, 25), REPEATS)
    rng = random.Random(args.seed)
    groups = {"random 16-40": random_group(per_density, args.seed), "random 2-8": small_group(small, args.seed)}
    groups.update((f"PG(2, {q})", [relabelled_plane(q, rng)]) for q in orders)
    if args.serve:
        serve(groups)
        return
    if args.against is not None:
        repeats = 2 if args.quick else PAIRS
    child_args = ["--seed", str(args.seed), *(["--quick"] if args.quick else [])]
    sides = alternate(groups, args.against, repeats, child_args)
    meta = {"seed": args.seed, "repeats": repeats, "alternated": args.against is not None}
    results = {
        args.label if side == "this" else side: {**source, **meta, "groups": timed}
        for side, (source, timed) in sides.items()
    }
    print(json.dumps(results[args.label] if args.against is None else results, indent=2))
    if args.out is not None:
        for label, result in results.items():
            store(args.out, label, result)


if __name__ == "__main__":
    main()
