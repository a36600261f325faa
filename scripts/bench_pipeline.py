#!/usr/bin/env python3
"""Time duality_report and the README round trip, alternating two trees call by call in one process.

Each round times four suites and checks every result:

- Duality groups: duality_report over 160 seeded random matrices with
  sides 16..40 (40 at each density 0.1 / 0.3 / 0.5 / 0.7), over 1,000 with
  sides 2..8 taking the densities in turn (perfbench's small survey tier)
  and over a seeded relabelling of PG(2, q) for q = 9, 16, 25, 32, each
  group timed as one loop. An untimed pass counts the matchings each report
  solves, by wrapping the tree's matching.bipartite_matching.
- The round trip's stages in-process at the same orders, in pipeline order:
  build_field, build_pg2, to_inc_text, from_inc_text, and
  geometry_from_incidence and plane_check on the matrix read back;
  canonicalize on the relabelling, then extract_mpls, verify_mpls and
  reconstruct. The matrix must read back unchanged, the plane must pass both
  definitions with order q, the square set must be complete and reconstruct
  must give back the canonical matrix. total_s is the sum of the stages.
- decompose_regular on the relabelling, kept out of total_s. It must return
  q + 1 permutation matrices whose rows sum to the relabelling's rows (q + 1
  powers of two sum to a (q + 1)-bit row only when they are distinct).
- The README chain (gen-plane, canon, extract, verify-mpls, reconstruct,
  verify-plane) at the same orders, step by step as `python -m pglatin.cli`
  in a fresh interpreter on the tree's src/, next to a bare `python -c pass`
  row. Each step must exit 0 and r.inc must equal c.inc. An untimed chain
  first compiles what the steps import into the tree's own temporary
  PYTHONPYCACHEPREFIX, and the timed steps write no bytecode, so a fresh
  clone and a tree with stale bytecode under src/ start alike.

This process imports this tree as `pglatin` and, with --against DIR, the
package under DIR/src as `parent_pglatin`, whose modules import each other
within that copy, and labels its result "parent". Each timed call (a group,
a stage, a decomposition, a cold-start step) runs on the two trees back to
back, each after a full collection and on inputs the tree rebuilds from the
shared row masks before the clock starts; the first tree alternates from
round to round. REPEATS rounds alone, PAIRS with --against; --quick takes
8 + 20 random matrices, q = 2, 3 and one round (two with --against). An
error in a tree, a failed check included, stops the run and names its src/.
Every timed row holds median_s and times_s, its time in each round. The
result is printed as JSON; --out also stores it in that file under --label
(and "parent"), keeping the labels already there.
"""

import argparse
import gc
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections.abc import Iterator
from contextlib import suppress
from pathlib import Path
from time import perf_counter

import pglatin
from pglatin.binmat import BinaryMatrix, Permutation, permute
from pglatin.planes import build_pg2

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
        per_density, small, orders = 2, 20, (2, 3)
    else:
        per_density, small, orders = 40, 1000, (9, 16, 25, 32)
    large_rng, small_rng, plane_rng = (random.Random(seed) for _ in range(3))
    planes = {q: relabelled_plane(q, plane_rng) for q in orders}
    groups = {
        "random 16-40": [random_matrix(large_rng, 16, 40, d) for d in DENSITIES for _ in range(per_density)],
        "random 2-8": [random_matrix(small_rng, 2, 8, DENSITIES[k % len(DENSITIES)]) for k in range(small)],
    }
    groups.update((f"PG(2, {q})", [planes[q]]) for q in orders)
    return groups, planes


class Tree:
    """A package under test: its src/, the package imported from there, and its cold-start steps' environment."""

    def __init__(self, src: Path, pkg, prefix: str):
        self.src, self.pkg = src, pkg
        # an empty PYTHONDONTWRITEBYTECODE lets the untimed chain write bytecode
        self.env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=prefix, PYTHONDONTWRITEBYTECODE="")


def load(name: str, src: Path):
    """The package in src/pglatin imported as name, its relative and in-function imports staying in that copy."""
    path = src / "pglatin"
    spec = importlib.util.spec_from_file_location(name, path / "__init__.py", submodule_search_locations=[str(path)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def run(src: Path, fn, *args):
    """fn(*args); any error it raises, with its traceback, ends the run, naming the tree whose src/ raised it."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        raise SystemExit(f"error: the run of {src} stopped; its error is above") from None


def on_each(trees: dict[str, Tree], order: list[str], fn, *args) -> dict:
    """Per label, what the generator fn(tree, *args) yields last (None before); its steps run on the trees in turn."""
    steps, values = {label: fn(trees[label], *args) for label in order}, dict.fromkeys(order)
    while None in values.values():
        for label in order:
            gc.collect()  # so that a step meets the collector in the same state on both trees
            values[label] = run(trees[label].src, next, steps[label])
    return values


def fresh(pkg, m: BinaryMatrix):
    """m rebuilt by pkg's BinaryMatrix without what m has cached, so a timed call derives that as a new input does."""
    return pkg.BinaryMatrix.from_masks(m.cols, m.masks)


def matchings_per_report(tree: Tree, group: list[BinaryMatrix]) -> float:
    matching, calls = tree.pkg.matching, []
    solve = matching.bipartite_matching

    def counted(*args):
        calls.append(None)
        return solve(*args)

    matching.bipartite_matching = counted
    try:
        for f in group:
            matching.duality_report(fresh(tree.pkg, f))
    finally:
        matching.bipartite_matching = solve
    return len(calls) / len(group)


def time_group(tree: Tree, group: list[BinaryMatrix]) -> Iterator[float]:
    report, group = tree.pkg.duality_report, [fresh(tree.pkg, f) for f in group]
    start = perf_counter()
    for f in group:
        report(f)
    yield perf_counter() - start


def time_stages(tree: Tree, q: int, relabelled: BinaryMatrix) -> Iterator[dict[str, float] | None]:
    pkg, times = tree.pkg, {}

    def timed(stage, fn, *args):
        start = perf_counter()
        value = fn(*args)
        times[stage] = perf_counter() - start
        yield
        return value

    yield from timed("build_field", pkg.build_field, q)
    bundle = yield from timed("build_pg2", pkg.build_pg2, q)
    text = yield from timed("to_inc_text", pkg.to_inc_text, bundle.incidence)
    matrix = yield from timed("from_inc_text", pkg.from_inc_text, text)
    geometry = yield from timed("geometry_from_incidence", pkg.geometry_from_incidence, matrix)
    verdict = yield from timed("plane_check", pkg.plane_check, geometry)
    form = yield from timed("canonicalize", pkg.canonicalize, fresh(pkg, relabelled))
    squares = yield from timed("extract_mpls", pkg.extract_mpls, form)
    report = yield from timed("verify_mpls", pkg.verify_mpls, squares)
    rebuilt = yield from timed("reconstruct", pkg.reconstruct, squares)
    if matrix != bundle.incidence or verdict.order != q or not report.is_complete or rebuilt != form.matrix:
        raise RuntimeError(f"wrong result at q = {q}")
    yield times


def time_decompose(tree: Tree, q: int, relabelled: BinaryMatrix) -> Iterator[float]:
    decompose, relabelled = tree.pkg.decompose_regular, fresh(tree.pkg, relabelled)
    start = perf_counter()
    parts = decompose(relabelled, q + 1)
    elapsed = perf_counter() - start
    sums = [sum(row) for row in zip(*(part.masks for part in parts))]
    if len(parts) != q + 1 or not all(map(tree.pkg.is_permutation_matrix, parts)) or sums != list(relabelled.masks):
        raise RuntimeError(f"wrong decomposition at q = {q}")
    yield elapsed


def time_cold_start(tree: Tree, q: int) -> Iterator[dict[str, float] | None]:
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
            proc = subprocess.run([sys.executable, *args], cwd=workdir, env=tree.env, capture_output=True, text=True)
            times[step] = perf_counter() - start
            if proc.returncode != 0:
                raise RuntimeError(f"{step} at q = {q} exited {proc.returncode}: {proc.stderr.strip()}")
            yield
        if Path(workdir, "r.inc").read_bytes() != Path(workdir, "c.inc").read_bytes():
            raise RuntimeError(f"rebuilt matrix differs from the canonical one at q = {q}")
    yield times


def describe(tree: Tree, groups: dict[str, list[BinaryMatrix]], planes: dict[int, BinaryMatrix]) -> dict:
    """The tree's provenance and matching counts; first its one untimed chain, writing the bytecode the steps read."""
    with suppress(RuntimeError):  # a step that fails here fails again in the first round, where it is checked
        for _ in time_cold_start(tree, min(planes)):
            pass
    tree.env["PYTHONDONTWRITEBYTECODE"] = "1"
    return {
        "git_sha": source_sha(tree.src),
        "python": platform.python_version(),
        "groups": {name: {"inputs": len(group), "matchings_per_report": matchings_per_report(tree, group)}
                   for name, group in groups.items()},
        "orders": {f"PG(2, {q})": {"n": q * q + q + 1} for q in planes},
    }


def rows(rounds: list, untimed: dict) -> dict:
    """untimed, with each leaf of the per-round results, nested alike, as a row: its median and every round's time."""
    if not isinstance(rounds[0], dict):
        return {**untimed, "median_s": round(statistics.median(rounds), 7), "times_s": [round(t, 7) for t in rounds]}
    timed = {key: rows([result[key] for result in rounds], untimed.get(key, {})) for key in rounds[0]}
    return {**untimed, **timed}


def alternate(trees: dict[str, Tree], rounds: int, groups: dict, planes: dict) -> dict[str, dict]:
    """Per label, its tree's result over rounds; each row runs on the trees back to back, the first alternating."""
    fixed = {label: run(tree.src, describe, tree, groups, planes) for label, tree in trees.items()}
    timed = {label: [{"groups": {}, "orders": {}} for _ in range(rounds)] for label in trees}
    for k in range(rounds):
        order = list(reversed(trees)) if k % 2 == 0 else list(trees)
        for name, group in groups.items():
            for label, elapsed in on_each(trees, order, time_group, group).items():
                timed[label][k]["groups"][name] = elapsed
        for q, relabelled in planes.items():
            stages = on_each(trees, order, time_stages, q, relabelled)
            decompose = on_each(trees, order, time_decompose, q, relabelled)
            cold = on_each(trees, order, time_cold_start, q)
            for label in trees:
                timed[label][k]["orders"][f"PG(2, {q})"] = {
                    "stages_s": stages[label], "total_s": sum(stages[label].values()),
                    "decompose_regular_s": decompose[label], "cold_start_s": cold[label]}
    return {label: rows(timed[label], fixed[label]) for label in trees}


def source_sha(src: Path) -> str | None:
    """HEAD of the git checkout src/ lives in, marked when its package has edits."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=src, capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "pglatin"], cwd=src, capture_output=True, text=True)
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
    args = parser.parse_args()
    if args.against is not None and (args.label == "parent" or not (args.against / "src" / "pglatin").is_dir()):
        parser.error("--against needs a checkout with src/pglatin and a --label other than parent")
    groups, planes = inputs(args.quick, args.seed)
    with tempfile.TemporaryDirectory() as prefixes:
        trees = {args.label: Tree(Path(pglatin.__file__).resolve().parent.parent, pglatin, f"{prefixes}/pglatin")}
        rounds = 1 if args.quick else REPEATS
        if args.against is not None:
            src, rounds = args.against.resolve() / "src", 2 if args.quick else PAIRS
            trees = {"parent": Tree(src, run(src, load, "parent_pglatin", src), f"{prefixes}/parent"), **trees}
        meta = {"seed": args.seed, "repeats": rounds, "alternated": args.against is not None}
        results = {label: {**meta, **result} for label, result in alternate(trees, rounds, groups, planes).items()}
    print(json.dumps(results[args.label] if args.against is None else results, indent=2))
    if args.out is not None:
        for label, result in results.items():
            store(args.out, label, result)


if __name__ == "__main__":
    main()
