#!/usr/bin/env python3
"""Time the stages of the README round trip in-process at fixed plane orders.

For each q in 9, 16, 25, 32 the stages run in pipeline order, REPEATS
times (once with --quick, which takes q = 2 and 3), and the median wall
time of each stage is reported:

- build_field and build_pg2
- to_inc_text and from_inc_text on the plane's incidence matrix
- geometry_from_incidence and plane_check on the matrix read back
- canonicalize on a seeded relabelling of the plane
- extract_mpls, verify_mpls and reconstruct on that canonical form

Every run checks its results: the matrix reads back unchanged, the plane
passes both definitions with order q, the square set is complete, and
reconstruct gives back the canonical matrix.

Each order also gets cold-start rows: the README chain (gen-plane, canon,
extract, verify-mpls, reconstruct, verify-plane) run step by step as
`python -m pglatin.cli` in a fresh interpreter, on the same src/ this
script imports, with PYTHONDONTWRITEBYTECODE=1 so that no step leaves
bytecode for the next (bytecode already cached under src/ is still read);
the rebuilt matrix must equal the canonical one.
The `interpreter` row, a bare `python -c pass`, is the floor every step
pays. Each row is the median of the same repeats.

The result is printed as JSON; with --out it is also stored in that file
under --label, next to the labels already there, as bench_duality.py does.
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
from pathlib import Path
from time import perf_counter

import pglatin
from bench_duality import relabelled_plane, source_sha, store
from pglatin.binmat import from_inc_text, to_inc_text
from pglatin.canonical import canonicalize, extract_mpls, reconstruct
from pglatin.geometry import plane_check
from pglatin.latin import verify_mpls
from pglatin.planes import build_field, build_pg2, geometry_from_incidence

REPEATS = 3


def run_once(q: int, relabelled) -> dict[str, float]:
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


def cold_start_once(q: int, workdir: Path) -> dict[str, float]:
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
    for step, args in steps.items():
        start = perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=workdir, env=env, capture_output=True, text=True)
        times[step] = perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"{step} at q = {q} exited {proc.returncode}: {proc.stderr.strip()}")
    if (workdir / "r.inc").read_bytes() != (workdir / "c.inc").read_bytes():
        raise SystemExit(f"rebuilt matrix differs from the canonical one at q = {q}")
    return times


def medians(runs: list[dict[str, float]]) -> dict[str, float]:
    return {stage: round(statistics.median(run[stage] for run in runs), 5) for stage in runs[0]}


def measure(q: int, rng: random.Random, repeats: int) -> dict:
    relabelled = relabelled_plane(q, rng)
    stages = medians([run_once(q, relabelled) for _ in range(repeats)])
    with tempfile.TemporaryDirectory() as workdir:
        cold = medians([cold_start_once(q, Path(workdir)) for _ in range(repeats)])
    return {"n": q * q + q + 1, "stages_s": stages, "total_s": round(sum(stages.values()), 5), "cold_start_s": cold}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true", help="q = 2 and 3, one run each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--label", default="current")
    parser.add_argument("--out", type=Path, default=None, metavar="BENCH.json")
    args = parser.parse_args()
    orders, repeats = ((2, 3), 1) if args.quick else ((9, 16, 25, 32), REPEATS)
    rng = random.Random(args.seed)
    result = {
        "git_sha": source_sha(),
        "python": platform.python_version(),
        "seed": args.seed,
        "repeats": repeats,
        "orders": {f"PG(2, {q})": measure(q, rng, repeats) for q in orders},
    }
    print(json.dumps(result, indent=2))
    if args.out is not None:
        store(args.out, args.label, result)


if __name__ == "__main__":
    main()
