#!/usr/bin/env python3
"""Time duality_report and the README round trip, each tree in its own child process.

Each round times three suites:

- Duality groups: duality_report over 160 seeded random matrices with
  sides 16..40, 40 at each density 0.1 / 0.3 / 0.5 / 0.7; over 1,000 random
  matrices with sides 2..8 taking the densities in turn, shaped like
  perfbench's small survey tier; and over a seeded relabelling of PG(2, q)
  for q = 9, 16, 25 (a plane's report takes seconds at q = 32). Each group
  is timed as one loop over its inputs. The matchings each report solves
  are counted in a separate untimed pass, by wrapping
  matching.bipartite_matching, the name every matching of the search goes
  through.
- In-process stages at q = 9, 16, 25, 32, in pipeline order: build_field
  and build_pg2; to_inc_text and from_inc_text on the plane's incidence
  matrix; geometry_from_incidence and plane_check on the matrix read back;
  canonicalize on the seeded relabelling; extract_mpls, verify_mpls and
  reconstruct on its canonical form. Every run checks its results: the
  matrix reads back unchanged, the plane passes both definitions with order
  q, the square set is complete, and reconstruct gives back the canonical
  matrix. total_s is the sum of a round's stages.
- Cold-start steps at the same orders: the README chain (gen-plane, canon,
  extract, verify-mpls, reconstruct, verify-plane) run step by step as
  `python -m pglatin.cli` in a fresh interpreter, on the src/ the child
  imports, with PYTHONDONTWRITEBYTECODE=1 so that no step leaves bytecode
  for the next (bytecode already cached under src/ is still read). Every
  step must exit 0 and the rebuilt r.inc must equal c.inc. The
  `interpreter` row, a bare `python -c pass`, is the floor every step pays.

--quick takes 8 + 20 random matrices and q = 2, 3 for every suite.

Every number is timed inside a child that runs this script with --serve on
the same inputs; this process only schedules the rounds. Alone, this tree
runs REPEATS rounds (one with --quick). With --against DIR, the package
under DIR/src and this one take turns for PAIRS rounds (two with --quick),
the first tree of a round alternating, so host drift reaches both alike;
DIR's result is labelled "parent".

Every timed row holds median_s and times_s, its time in each round, so that
two sides can be compared round by round. The result is printed as JSON;
with --out it is also stored in that file under --label (and "parent"),
next to the labels already there, so one file can hold a parent and a
change measured on the same host.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter

import pglatin
from pglatin import matching
from pglatin.binmat import BinaryMatrix, Permutation, from_inc_text, permute, to_inc_text
from pglatin.canonical import canonicalize, extract_mpls, reconstruct
from pglatin.geometry import plane_check
from pglatin.latin import verify_mpls
from pglatin.planes import build_field, build_pg2, geometry_from_incidence

DENSITIES = (0.1, 0.3, 0.5, 0.7)
REPEATS = 3
PAIRS = 10


def random_matrix(rng: random.Random, low: int, high: int, density: float) -> BinaryMatrix:
    m, n = rng.randint(low, high), rng.randint(low, high)
    return BinaryMatrix(m, n, tuple(int(rng.random() < density) for _ in range(m * n)))


def relabelled_plane(q: int, rng: random.Random) -> BinaryMatrix:
    incidence = build_pg2(q).incidence
    rows, cols = list(range(incidence.rows)), list(range(incidence.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return permute(incidence, Permutation(tuple(rows)), Permutation(tuple(cols)))


def inputs(quick: bool, seed: int) -> tuple[dict[str, list[BinaryMatrix]], dict[int, BinaryMatrix]]:
    """The duality groups, and the relabelled plane of each pipeline order."""
    if quick:
        per_density, small, duality_orders, orders = 2, 20, (2, 3), (2, 3)
    else:
        per_density, small, duality_orders, orders = 40, 1000, (9, 16, 25), (9, 16, 25, 32)
    large_rng, small_rng, plane_rng = (random.Random(seed) for _ in range(3))
    planes = {q: relabelled_plane(q, plane_rng) for q in orders}
    groups = {
        "random 16-40": [random_matrix(large_rng, 16, 40, d) for d in DENSITIES for _ in range(per_density)],
        "random 2-8": [random_matrix(small_rng, 2, 8, DENSITIES[k % len(DENSITIES)]) for k in range(small)],
    }
    groups.update((f"PG(2, {q})", [planes[q]]) for q in duality_orders)
    return groups, planes


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


def time_group(group: list[BinaryMatrix]) -> float:
    start = perf_counter()
    for f in group:
        matching.duality_report(f)
    return perf_counter() - start


def time_stages(q: int, relabelled: BinaryMatrix) -> dict[str, float]:
    times = {}

    def timed(stage, fn, *args):
        start = perf_counter()
        value = fn(*args)
        times[stage] = perf_counter() - start
        return value

    timed("build_field", build_field, q)
    bundle = timed("build_pg2", build_pg2, q)
    text = timed("to_inc_text", to_inc_text, bundle.incidence)
    matrix = timed("from_inc_text", from_inc_text, text)
    geometry = timed("geometry_from_incidence", geometry_from_incidence, matrix)
    verdict = timed("plane_check", plane_check, geometry)
    form = timed("canonicalize", canonicalize, relabelled)
    squares = timed("extract_mpls", extract_mpls, form)
    report = timed("verify_mpls", verify_mpls, squares)
    rebuilt = timed("reconstruct", reconstruct, squares)
    if matrix != bundle.incidence or verdict.order != q or not report.is_complete or rebuilt != form.matrix:
        raise SystemExit(f"wrong result at q = {q}")
    return times


def time_cold_start(q: int) -> dict[str, float]:
    env = {**os.environ, "PYTHONPATH": str(Path(pglatin.__file__).resolve().parent.parent),
           "PYTHONDONTWRITEBYTECODE": "1"}
    cli = ["-m", "pglatin.cli"]
    steps = {
        "interpreter": ["-c", "pass"],
        "gen-plane": [*cli, "gen-plane", "--order", str(q), "--out", "p.inc"],
        "canon": [*cli, "canon", "--in", "p.inc", "--out", "c.inc", "--meta", "m.json"],
        "extract": [*cli, "extract", "--in", "c.inc", "--out-dir", "sq"],
        "verify-mpls": [*cli, "verify-mpls", "--in-dir", "sq"],
        "reconstruct": [*cli, "reconstruct", "--in-dir", "sq", "--out", "r.inc"],
        "verify-plane": [*cli, "verify-plane", "--in", "r.inc"],
    }
    times = {}
    with tempfile.TemporaryDirectory() as workdir:
        for step, args in steps.items():
            start = perf_counter()
            proc = subprocess.run([sys.executable, *args], cwd=workdir, env=env, capture_output=True, text=True)
            times[step] = perf_counter() - start
            if proc.returncode != 0:
                raise SystemExit(f"{step} at q = {q} exited {proc.returncode}: {proc.stderr.strip()}")
        if Path(workdir, "r.inc").read_bytes() != Path(workdir, "c.inc").read_bytes():
            raise SystemExit(f"rebuilt matrix differs from the canonical one at q = {q}")
    return times


def serve(groups: dict[str, list[BinaryMatrix]], planes: dict[int, BinaryMatrix]) -> None:
    """The child side: first the provenance and the untimed counts, then one timed round per line read."""
    print(json.dumps({
        "git_sha": source_sha(),
        "python": platform.python_version(),
        "groups": {name: {"inputs": len(group), "matchings_per_report": matchings_per_report(group)}
                   for name, group in groups.items()},
        "orders": {f"PG(2, {q})": {"n": q * q + q + 1} for q in planes},
    }), flush=True)
    for _ in sys.stdin:
        orders = {}
        timed_groups = {name: time_group(group) for name, group in groups.items()}
        for q, relabelled in planes.items():
            stages = time_stages(q, relabelled)
            orders[f"PG(2, {q})"] = {"stages_s": stages, "total_s": sum(stages.values()),
                                     "cold_start_s": time_cold_start(q)}
        print(json.dumps({"groups": timed_groups, "orders": orders}), flush=True)


def rows(rounds: list, untimed: dict) -> dict:
    """untimed, with each leaf of the per-round results, nested alike, as a row: its median and every round's time."""
    if not isinstance(rounds[0], dict):
        return {**untimed, "median_s": round(statistics.median(rounds), 5), "times_s": [round(t, 5) for t in rounds]}
    timed = {key: rows([result[key] for result in rounds], untimed.get(key, {})) for key in rounds[0]}
    return {**untimed, **timed}


def alternate(sources: dict[str, Path], rounds: int, child_args: list[str]) -> dict[str, dict]:
    """Per label, the result of the package under its src/, timed for rounds in a --serve child.

    With two sources the first of a round alternates.
    """
    cmd = [sys.executable, __file__, *child_args, "--serve"]
    with ExitStack() as stack:
        children = {}
        for label, src in sources.items():
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
            popen = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            children[label] = stack.enter_context(popen)

        def reply(label: str) -> dict:
            line = children[label].stdout.readline()
            if not line:
                for child in children.values():
                    child.kill()  # so that the others stop without a broken-pipe error of their own
                raise SystemExit(f"error: the run of {sources[label]} stopped; its error is above")
            return json.loads(line)

        untimed = {label: reply(label) for label in sources}
        timed = {label: [] for label in sources}
        for k in range(rounds):
            for label in reversed(sources) if k % 2 == 0 else sources:
                children[label].stdin.write("\n")
                children[label].stdin.flush()
                timed[label].append(reply(label))
    return {label: rows(timed[label], untimed[label]) for label in sources}


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
    parser.add_argument("--quick", action="store_true", help="8 + 20 random matrices, q = 2 and 3, fewer rounds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--label", default="current")
    parser.add_argument("--out", type=Path, default=None, metavar="BENCH.json")
    parser.add_argument("--against", type=Path, default=None, metavar="DIR", help="alternate with DIR/src, as parent")
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.against is not None and (args.label == "parent" or not (args.against / "src" / "pglatin").is_dir()):
        parser.error("--against needs a checkout with src/pglatin and a --label other than parent")
    if args.serve:
        serve(*inputs(args.quick, args.seed))
        return
    this = Path(pglatin.__file__).resolve().parent.parent
    if args.against is None:
        sources, rounds = {args.label: this}, 1 if args.quick else REPEATS
    else:
        sources, rounds = {"parent": args.against / "src", args.label: this}, 2 if args.quick else PAIRS
    child_args = ["--seed", str(args.seed), *(["--quick"] if args.quick else [])]
    meta = {"seed": args.seed, "repeats": rounds, "alternated": args.against is not None}
    results = {label: {**meta, **result} for label, result in alternate(sources, rounds, child_args).items()}
    print(json.dumps(results[args.label] if args.against is None else results, indent=2))
    if args.out is not None:
        for label, result in results.items():
            store(args.out, label, result)


if __name__ == "__main__":
    main()
