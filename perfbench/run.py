#!/usr/bin/env python3
"""pglatin benchmark: CLI round trip, plane matching and duality survey.

Run from the root of a checkout:

    python3 perfbench/run.py --workload roundtrip --seed 0 --seconds 30 --trace 0

`--workload all` runs every workload in turn. With `--trace 0` the run
reports the end-to-end metrics; with `--trace 1` it alternates plain and
traced passes and reports per-layer self times and counts, the tracing
overhead and the share of operation time no layer span covers. The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; a copy with the run's provenance goes to perfbench/results/.
perfbench/NOTES.md says why each workload exists and what each metric
should move.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "_work"

# Set-up is timed in two batches, before and after the passes, so that its
# median spans the run as the passes do. A batch repeats until it has 2
# samples and 1 s of them (9 samples at most).
SETUP_MIN_SAMPLES, SETUP_MIN_S, SETUP_MAX_SAMPLES = 2, 1.0, 9
CALIB_REPEATS = 3
STARTUP_REPEATS = 5
OP_TIMEOUT_S = 120
DENSITIES = [0.1, 0.3, 0.5, 0.7]
SURVEY_POPULATION_SEED = 0

END_TO_END = {"setup_s": "s", "small_s": "s", "large_s": "s", "peak_rss_mb": "MB"}

CLI_LABELS = (
    "gen-plane", "canon", "extract", "verify-mpls", "verify-mpls-bad",
    "reconstruct", "verify-plane", "matching", "decompose",
)
SPAN_SECONDS = (
    "planes.build_pg2", "planes.build_field", "planes.geometry_from_incidence",
    "geometry.validate_geometry", "geometry.plane_check",
    "canonical.canonicalize", "canonical.extract_mpls", "canonical.reconstruct",
    "canonical.verify_block_form",
    "binmat.permute", "binmat.block", "binmat.assemble", "binmat.from_inc_text", "binmat.to_inc_text",
    "latin.verify_mpls", "latin.from_ls_text", "latin.to_ls_text",
    "matching.max_zero_submatrix", "matching.bipartite_matching", "matching.decompose_regular",
    "matching.max_independent_ones", "matching.duality_report",
)
SPAN_CALLS = ("canonical.verify_block_form", "binmat.block", "latin.verify_mpls", "matching.bipartite_matching")

PER_LAYER = {
    "host.calib_s": "s",
    "trace.overhead": "ratio",
    "trace.uncovered_share": "ratio",
    "cli.startup_s": "s",
    **{f"cli.{label}_s": "s" for label in CLI_LABELS},
    **{f"{module}.s": "s" for module in tracing.MODULES},
    **{f"{module}.calls": "count" for module in tracing.MODULES},
    **{f"{name}.s": "s" for name in SPAN_SECONDS},
    **{f"{name}.calls": "count" for name in SPAN_CALLS},
    "binmat.inc_bytes": "bytes",
    "matching.matchings_per_zero_block": "count",
    "matching.zero_block_fast_share": "ratio",
}


# ---------------------------------------------------------------- operations


@dataclass
class Op:
    """One timed call into the program and the check of what it produced.

    `prepare` is untimed work the benchmark does first (relabelling an
    input, corrupting a square set); `check` returns a problem or None.
    """

    label: str
    run: Callable[[Launcher], Any]
    check: Callable[[Any], str | None]
    prepare: Callable[[], None] | None = None


class Launcher:
    """How one pass launches the CLI: plainly, or through the traced launcher."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.span_lists: list[list[list]] = []
        self._pending: Path | None = None

    def cli(self, cwd: Path, argv: list[str]) -> subprocess.CompletedProcess:
        if self.traced:
            self._pending = cwd / "spans.json"
            cmd = [sys.executable, str(HERE / "launch.py"), str(self._pending), *argv]
        else:
            cmd = [sys.executable, "-m", "pglatin.cli", *argv]
        return run_child(cmd, cwd)

    def collect(self) -> None:
        if self._pending is not None:
            path, self._pending = self._pending, None
            if path.exists():
                self.span_lists.append(json.loads(path.read_text()))
                path.unlink()


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_child(cmd: list[str], cwd: Path | None = None) -> subprocess.CompletedProcess:
    """Run a child with `src` on its path; kill it if it outlives OP_TIMEOUT_S.

    Not `subprocess.run(timeout=...)`: with a timeout, waiting for the exit
    polls with sleeps of up to 50 ms, which made a 0.11 s child read 0.115
    or 0.165 s. A timer that kills the child leaves the wait blocking.
    """
    with subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def cli_op(label, cwd, argv, expect_rc, check, prepare=None) -> Op:
    """A CLI call that must exit with `expect_rc`, print no traceback and one JSON report."""

    def judge(proc: subprocess.CompletedProcess) -> str | None:
        if proc.returncode != expect_rc:
            return f"exit {proc.returncode}, expected {expect_rc}: {proc.stderr.strip()[-300:]}"
        if "Traceback" in proc.stderr:
            return "traceback on stderr"
        try:
            payload = json.loads(proc.stdout)
        except ValueError:
            return "stdout is not one JSON report"
        return check(payload)

    return Op(label, lambda launcher: launcher.cli(cwd, [str(a) for a in argv]), judge, prepare)


def expect(payload: dict, **want) -> str | None:
    for key, value in want.items():
        if payload.get(key) != value:
            return f"{key} is {payload.get(key)!r}, expected {value!r}"
    return None


def invert(perm: list[int]) -> list[int]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


def permute_rows(lines: list[str], row_perm: list[int], col_perm: list[int]) -> list[str]:
    """.inc body rows with cell (r, c) moved to (row_perm[r], col_perm[c])."""
    col_src = invert(col_perm)
    out = [""] * len(lines)
    for r, line in enumerate(lines):
        tokens = line.split()
        out[row_perm[r]] = " ".join([tokens[c] for c in col_src])
    return out


def read_inc(path: Path) -> tuple[str, list[str]]:
    header, *body = path.read_text().split("\n")
    if body and body[-1] == "":
        body.pop()
    return header, body


def write_inc(path: Path, header: str, body: list[str]) -> None:
    path.write_text("\n".join([header, *body]) + "\n")


def shuffled(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def ones_by_row(body: list[str]) -> list[set[int]]:
    return [{c for c, tok in enumerate(line.split()) if tok == "1"} for line in body]


# ------------------------------------------------------------------ roundtrip


def roundtrip_tier(d: Path, q: int, rng: random.Random) -> list[Op]:
    """gen-plane, relabel, canon, extract, verify-mpls, reconstruct + cmp, verify-plane,
    and verify-mpls on a set with one square replaced by a copy of another."""
    n = q * q + q + 1
    d.mkdir(parents=True)
    row_perm, col_perm = shuffled(n, rng), shuffled(n, rng)
    copied, source = rng.sample(range(1, q), 2)
    relabelled: list[str] = []

    def relabel() -> None:
        header, body = read_inc(d / "p.inc")
        relabelled[:] = permute_rows(body, row_perm, col_perm)
        write_inc(d / "rl.inc", header, relabelled)

    def check_canon(payload: dict) -> str | None:
        problem = expect(payload, order=q)
        if problem:
            return problem
        meta = json.loads((d / "m.json").read_text())
        rows, cols = meta["row_perm"], meta["col_perm"]
        if sorted(rows) != list(range(n)) or sorted(cols) != list(range(n)):
            return "meta permutations are not permutations"
        header, body = read_inc(d / "c.inc")
        if header != f"{n} {n}" or body != permute_rows(relabelled, rows, cols):
            return "canonical matrix is not the input under the meta permutations"
        return None

    def check_extract(payload: dict) -> str | None:
        problem = expect(payload, count=q - 1, order=q)
        for i in range(1, q):
            if problem:
                break
            problem = latin_problem(d / "sq" / f"L{i}.ls", q)
        return problem

    def check_rebuilt(payload: dict) -> str | None:
        problem = expect(payload, size=n)
        if not problem and (d / "r.inc").read_bytes() != (d / "c.inc").read_bytes():
            problem = "rebuilt matrix differs from the canonical one"
        return problem

    def corrupt() -> None:
        shutil.rmtree(d / "bad", ignore_errors=True)
        shutil.copytree(d / "sq", d / "bad")
        shutil.copyfile(d / "sq" / f"L{source}.ls", d / "bad" / f"L{copied}.ls")

    def check_bad(payload: dict) -> str | None:
        problem = expect(payload, count=q - 1, order=q, is_mpls=False, is_complete=False)
        if not problem and len(payload["violations"]) != q * q:
            problem = f"{len(payload['violations'])} violations, expected {q * q}"
        return problem

    return [
        cli_op("gen-plane", d, ["gen-plane", "--order", q, "--out", "p.inc"], 0,
               lambda p: expect(p, b=n, v=n, order=q)),
        cli_op("canon", d, ["canon", "--in", "rl.inc", "--out", "c.inc", "--meta", "m.json"], 0,
               check_canon, prepare=relabel),
        cli_op("extract", d, ["extract", "--in", "c.inc", "--out-dir", "sq"], 0, check_extract),
        cli_op("verify-mpls", d, ["verify-mpls", "--in-dir", "sq"], 0,
               lambda p: expect(p, count=q - 1, order=q, is_mpls=True, is_complete=True, violations=[])),
        cli_op("reconstruct", d, ["reconstruct", "--in-dir", "sq", "--out", "r.inc"], 0, check_rebuilt),
        cli_op("verify-plane", d, ["verify-plane", "--in", "r.inc"], 0,
               lambda p: expect(p, first_def=True, second_def=True, order=q, v=n, b=n)),
        cli_op("verify-mpls-bad", d, ["verify-mpls", "--in-dir", "bad"], 1, check_bad, prepare=corrupt),
    ]


def latin_problem(path: Path, q: int) -> str | None:
    header, *body = path.read_text().split("\n")
    rows = [[int(tok) for tok in line.split()] for line in body if line]
    symbols = list(range(1, q + 1))
    if header != str(q) or len(rows) != q:
        return f"{path.name} does not hold an order-{q} square"
    if any(sorted(row) != symbols for row in rows) or any(sorted(col) != symbols for col in zip(*rows)):
        return f"{path.name} is not a Latin square"
    if any(rows[i][i] != 1 for i in range(q)):
        return f"{path.name} has no unit diagonal"
    return None


def setup_roundtrip(workdir: Path, spec: dict, rng: random.Random, pglatin) -> dict[str, list[Op]]:
    return {tier: roundtrip_tier(workdir / tier, spec[tier]["q"], rng) for tier in ("small", "large")}


# ------------------------------------------------------------- plane-matching


def plane_file(pglatin, d: Path, q: int, rng: random.Random) -> list[set[int]]:
    """Write a seeded relabelling of PG(2, q) to d/pq.inc; return its ones per row."""
    n = q * q + q + 1
    header, *body = pglatin.to_inc_text(pglatin.build_pg2(q).incidence).rstrip("\n").split("\n")
    body = permute_rows(body, shuffled(n, rng), shuffled(n, rng))
    write_inc(d / f"p{q}.inc", header, body)
    return ones_by_row(body)


def matching_op(d: Path, q: int, ones: list[set[int]]) -> Op:
    n = len(ones)

    def check(payload: dict) -> str | None:
        problem = expect(payload, rows=n, cols=n, v=n, w=q * q + 1)
        if problem:
            return problem
        pairs = payload["v_witness"]
        if (len(pairs) != n or len({r for r, _ in pairs}) != n or len({c for _, c in pairs}) != n
                or any(c not in ones[r] for r, c in pairs)):
            return "v witness is not n independent ones"
        block = payload["w_witness"]
        rows, cols = block["rows"], block["cols"]
        if not rows or not cols or len(set(rows)) + len(set(cols)) != q * q + 1:
            return "w witness does not have weight w"
        if any(c in ones[r] for r in rows for c in cols):
            return "w witness is not all zero in the input"
        return None

    return cli_op("matching", d, ["matching", "--in", f"p{q}.inc"], 0, check)


def decompose_op(d: Path, q: int, ones: list[set[int]]) -> Op:
    n = len(ones)
    out = f"parts{q}"

    def check(payload: dict) -> str | None:
        problem = expect(payload, count=q + 1)
        if problem:
            return problem
        covered: list[set[int]] = [set() for _ in range(n)]
        for idx in range(1, q + 2):
            header, body = read_inc(d / out / f"P{idx}.inc")
            cols = set()
            for r, line in enumerate(body):
                if line.count("1") != 1 or len(line) != 2 * n - 1:
                    return f"row {r} of P{idx}.inc is not a permutation row"
                c = line.index("1") // 2
                cols.add(c)
                covered[r].add(c)
            if header != f"{n} {n}" or len(body) != n or len(cols) != n:
                return f"P{idx}.inc is not an {n}x{n} permutation matrix"
        if covered != ones:
            return "the parts do not sum to the input"
        return None

    return cli_op("decompose", d, ["decompose", "--in", f"p{q}.inc", "--out-dir", out], 0, check)


def setup_plane_matching(workdir: Path, spec: dict, rng: random.Random, pglatin) -> dict[str, list[Op]]:
    tiers = {}
    for tier in ("small", "large"):
        d = workdir / tier
        d.mkdir(parents=True)
        mq, dq = spec[tier]["matching_q"], spec[tier]["decompose_q"]
        tiers[tier] = [
            matching_op(d, mq, plane_file(pglatin, d, mq, rng)),
            decompose_op(d, dq, plane_file(pglatin, d, dq, rng)),
        ]
    return tiers


# --------------------------------------------------------------------- survey


def load_oracles():
    path = ROOT / "tests" / "oracles.py"
    if not path.is_file():
        raise SystemExit(f"error: the survey's oracle {path} is missing")
    spec = importlib.util.spec_from_file_location("pglatin_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def survey_op(pglatin, m: int, n: int, cells: tuple[int, ...], oracle=None) -> Op:
    """duality_report on one matrix, called through the package namespace as
    scripts/duality_survey.py does; with an oracle, v and w must also match it."""
    matrix = pglatin.BinaryMatrix(m, n, cells)
    expected: list[tuple[int, int]] = []

    def check(report) -> str | None:
        pairs = report.v_witness.pairs
        if (report.v != len(pairs) or len({r for r, _ in pairs}) != len(pairs)
                or len({c for _, c in pairs}) != len(pairs) or any(not cells[r * n + c] for r, c in pairs)):
            return "v witness is not v independent ones"
        block = report.w_witness
        if block is None:
            if report.w != 0 or 0 in cells:
                return "no w witness although the matrix has a zero"
        elif (len(block.rows) + len(block.cols) != report.w
                or any(cells[r * n + c] for r in block.rows for c in block.cols)):
            return "w witness is not an all-zero block of weight w"
        if report.w > m + n - report.v:
            return "w exceeds the duality bound m + n - v"
        if oracle is not None:
            if not expected:
                expected.append((oracle.brute_max_independent_ones(m, n, cells),
                                 oracle.brute_max_zero_weight(m, n, cells)))
            if (report.v, report.w) != expected[0]:
                return f"(v, w) = {(report.v, report.w)}, oracle says {expected[0]}"
        return None

    return Op("duality_report", lambda launcher: pglatin.duality_report(matrix), check)


def survey_matrix(population: random.Random, rng: random.Random, sides, density: float):
    """A matrix drawn from the fixed population, its rows and columns shuffled by the seed.

    Drawing fresh matrices per seed made the large tier's cost differ by 20%
    (quartile spread over 8 seeds) from the inputs alone; relabelling keeps
    v, w and the fast-path share of each matrix and moves the cost by 5%.
    """
    m, n = population.randint(*sides), population.randint(*sides)
    cells = [1 if population.random() < density else 0 for _ in range(m * n)]
    rows, cols = shuffled(m, rng), shuffled(n, rng)
    return m, n, tuple(cells[r * n + c] for r in rows for c in cols)


def setup_survey(workdir: Path, spec: dict, rng: random.Random, pglatin) -> dict[str, list[Op]]:
    oracle = load_oracles()
    population = random.Random(SURVEY_POPULATION_SEED)
    small, large = spec["small"], spec["large"]
    densities = small["densities"]
    small_ops = [
        survey_op(pglatin, *survey_matrix(population, rng, small["sides"], densities[idx % len(densities)]),
                  oracle)
        for idx in range(small["count"])
    ]
    large_ops = [
        survey_op(pglatin, *survey_matrix(population, rng, large["sides"], density))
        for density in large["densities"]
        for _ in range(large["per_density"])
    ]
    return {"small": small_ops, "large": large_ops}


# ------------------------------------------------------------------ workloads


@dataclass(frozen=True)
class Workload:
    why: str
    setup: Callable[..., dict[str, list[Op]]]
    rss: str  # whose peak memory counts: CLI "children" or the benchmark process "self"
    tiers: dict


WORKLOADS = {
    "roundtrip": Workload(
        "README chain through the CLI on a seeded relabelled plane: planes, geometry, canonical,"
        " latin and binmat text io do the work, matching none",
        setup_roundtrip, "children", {"small": {"q": 9, "rounds": 10}, "large": {"q": 32, "rounds": 2}},
    ),
    "plane-matching": Workload(
        "pglatin matching and decompose on seeded relabelled planes: matching does almost all the"
        " work, through the per-zero-cell search and through a few large perfect matchings",
        setup_plane_matching, "children",
        {"small": {"matching_q": 5, "decompose_q": 9, "rounds": 10},
         "large": {"matching_q": 8, "decompose_q": 25, "rounds": 1}},
    ),
    "survey": Workload(
        "in-process duality_report on seeded relabellings of random matrices: the matching layer"
        " again, but a measured share of inputs bypasses the per-zero-cell search",
        setup_survey, "self",
        {"small": {"count": 1000, "sides": [2, 8], "densities": DENSITIES, "rounds": 7},
         "large": {"per_density": 40, "sides": [16, 40], "densities": DENSITIES, "rounds": 1}},
    ),
}


# ---------------------------------------------------------------- measurement


@dataclass
class PassResult:
    traced: bool
    # per tier, one list per round holding each operation's seconds
    op_times: dict[str, list[list[float]]] = field(default_factory=lambda: defaultdict(list))
    op_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    span_lists: list[list[list]] = field(default_factory=list)

    @property
    def op_total(self) -> float:
        return sum(t for rounds in self.op_times.values() for times in rounds for t in times)


def run_op(op: Op, launcher: Launcher) -> tuple[float, str | None]:
    seconds = 0.0
    try:
        if op.prepare is not None:
            op.prepare()
        start = perf_counter()
        outcome = op.run(launcher)
        seconds = perf_counter() - start
        launcher.collect()
        return seconds, op.check(outcome)
    except Exception as exc:  # an op, preparation or check that raises is one failed op
        return seconds, f"{type(exc).__name__}: {exc}"


def run_pass(tiers: dict[str, list[Op]], rounds: dict[str, int], traced: bool) -> PassResult:
    """`rounds[tier]` rounds of every tier's ops, one op at a time.

    The large tier runs op by op and the small tier's rounds are spread
    evenly between those ops, so both tiers sample the whole pass and a
    slow phase of the host does not fall on one tier alone.
    """
    result = PassResult(traced)
    launcher = Launcher(traced)
    recorder = tracing.Recorder()
    undo = tracing.install(recorder) if traced else None

    def run_ops(tier: str, ops: list[Op], times: list[float]) -> None:
        for op in ops:
            seconds, problem = run_op(op, launcher)
            times.append(seconds)
            result.op_s[op.label] += seconds
            result.attempted += 1
            if problem is not None:
                result.failed += 1
                result.problems.append(f"{tier} {op.label}: {problem}")

    def small_round() -> None:
        result.op_times["small"].append([])
        run_ops("small", small, result.op_times["small"][-1])

    small, large = tiers.get("small", []), tiers.get("large", [])
    small_rounds = rounds.get("small", 0) if small else 0
    slots = rounds.get("large", 0) * len(large)
    try:
        for slot in range(slots):
            while len(result.op_times["small"]) * slots < slot * small_rounds:
                small_round()
            if slot % len(large) == 0:
                result.op_times["large"].append([])
            run_ops("large", [large[slot % len(large)]], result.op_times["large"][-1])
        while len(result.op_times["small"]) < small_rounds:
            small_round()
    finally:
        if undo is not None:
            undo()
    result.span_lists = launcher.span_lists + ([recorder.spans] if recorder.spans else [])
    return result


def calibrate() -> float:
    """A fixed pure-Python loop: tells host speed drift apart from a regression."""
    start = perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return perf_counter() - start


def time_startup() -> float:
    start = perf_counter()
    proc = run_child([sys.executable, "-c", "import pglatin.cli"])
    proc.check_returncode()
    return perf_counter() - start


def load_pglatin():
    """Import the package from this checkout's src/ and nowhere else."""
    package_dir = SRC / "pglatin"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no pglatin package at {package_dir}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pglatin

    if Path(pglatin.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"error: imported pglatin from {pglatin.__file__}, not {package_dir}")
    return pglatin


def setup(workload: Workload, tiers: dict, seed: int, pglatin) -> tuple[Path, dict[str, list[Op]]]:
    """Untimed preparation: a fresh work dir, seeded inputs and a warm-up CLI import."""
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    ops = workload.setup(workdir, tiers, random.Random(seed), pglatin)
    time_startup()
    return workdir, ops


def setup_batch(workload: Workload, tiers: dict, seed: int, pglatin, times: list[float]):
    """Set up repeatedly, adding each duration to `times`; keep only the last set-up."""
    batch: list[float] = []
    workdir = None
    while len(batch) < SETUP_MIN_SAMPLES or (sum(batch) < SETUP_MIN_S and len(batch) < SETUP_MAX_SAMPLES):
        if workdir is not None:
            shutil.rmtree(workdir)
        start = perf_counter()
        workdir, ops = setup(workload, tiers, seed, pglatin)
        batch.append(perf_counter() - start)
    times.extend(batch)
    return workdir, ops


def measure(name: str, seed: int, seconds: float, trace: bool, tiers: dict | None = None) -> dict:
    """One run of one workload; returns the report and its provenance."""
    pglatin = load_pglatin()
    workload = WORKLOADS[name]
    tiers = tiers or workload.tiers
    rounds = {tier: spec["rounds"] for tier, spec in tiers.items()}
    setup_times: list[float] = []
    workdir = None
    try:
        workdir, ops = setup_batch(workload, tiers, seed, pglatin, setup_times)
        calib = [calibrate() for _ in range(CALIB_REPEATS)]
        # One pass at least (two with tracing: one plain, one traced); another
        # only while the last pass's duration still fits in the time left.
        passes: list[PassResult] = []
        start = perf_counter()
        while True:
            pass_start = perf_counter()
            passes.append(run_pass(ops, rounds, traced=trace and len(passes) % 2 == 1))
            now = perf_counter()
            if now + (now - pass_start) - start > seconds and (not trace or len(passes) >= 2):
                break
        calib += [calibrate() for _ in range(CALIB_REPEATS)]
        shutil.rmtree(workdir)
        workdir, _ = setup_batch(workload, tiers, seed, pglatin, setup_times)
        startup = [time_startup() for _ in range(STARTUP_REPEATS)] if trace else []
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    who = resource.RUSAGE_CHILDREN if workload.rss == "children" else resource.RUSAGE_SELF
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if trace:
        values = layer_metrics(passes, statistics.median(calib), statistics.median(startup))
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "small_s": tier_seconds(passes, "small"),
            "large_s": tier_seconds(passes, "large"),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        units = END_TO_END
    return {
        "report": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
        },
        "provenance": {
            "workload": name,
            "why": workload.why,
            "tiers": tiers,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "host.calib_s": statistics.median(calib),
            "fail_ratio": failed / attempted,
            "passes": [{"traced": p.traced, "op_times": p.op_times, "op_s": dict(p.op_s)} for p in passes],
            "setup_s_samples": setup_times,
            "problems": [msg for p in passes for msg in p.problems][:20],
        },
    }


def tier_seconds(passes: list[PassResult], tier: str) -> float:
    """A tier's round time: the mean wall time of its rounds over the whole run.

    Not each op's fastest time nor its median: this host switches between
    speeds 1.3-1.5x apart, for seconds to minutes at a time. Over four sets
    of ten runs per workload the mean spread least in the worst set (20%,
    against 25% for the fastest times and 23% for the medians).
    """
    return statistics.fmean(sum(times) for p in passes for times in p.op_times[tier])


def layer_metrics(passes: list[PassResult], calib: float, startup: float) -> dict[str, float]:
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    values = {
        "host.calib_s": calib,
        "cli.startup_s": startup,
        "trace.overhead": statistics.median(p.op_total for p in traced)
        / statistics.median(p.op_total for p in plain) - 1,
    }
    for label in CLI_LABELS:
        values[f"cli.{label}_s"] = statistics.median(p.op_s.get(label, 0.0) for p in plain)
    per_pass = [span_metrics(p) for p in traced]
    for key in per_pass[0]:
        values[key] = statistics.median(d[key] for d in per_pass)
    return values


def span_metrics(p: PassResult) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    summary = tracing.summarize(p.span_lists)
    none = [0, 0.0, 0]
    values: dict[str, float] = {}
    for name in SPAN_SECONDS:
        values[f"{name}.s"] = summary.get(name, none)[1]
    for name in SPAN_CALLS:
        values[f"{name}.calls"] = summary.get(name, none)[0]
    for module in tracing.MODULES:
        mine = [entry for name, entry in summary.items() if name.startswith(module + ".")]
        values[f"{module}.s"] = sum(entry[1] for entry in mine)
        values[f"{module}.calls"] = sum(entry[0] for entry in mine)
    values["binmat.inc_bytes"] = sum(e[2] for n, e in summary.items() if n.startswith("binmat."))
    blocks = tracing.zero_block_matchings(p.span_lists)
    values["matching.matchings_per_zero_block"] = sum(blocks) / len(blocks) if blocks else 0.0
    values["matching.zero_block_fast_share"] = blocks.count(1) / len(blocks) if blocks else 0.0
    covered = sum(entry[1] for entry in summary.values())
    values["trace.uncovered_share"] = 1 - covered / p.op_total
    return values


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def print_summary(run: dict) -> None:
    report, prov = run["report"], run["provenance"]
    print(f"# {prov['workload']}  seed {prov['seed']}  trace {prov['trace']}  passes {len(prov['passes'])}"
          f"  python {prov['python']}  nproc {prov['nproc']}  git {prov['git_sha']}")
    print(f"fail_ratio {prov['fail_ratio']:.4f} ({report['failed']} of {report['attempted']} operations failed)")
    if "host.calib_s" not in report["metrics"]:
        print(f"host.calib_s {prov['host.calib_s']:.6g} s")
    for name, metric in report["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for problem in prov["problems"]:
        print(f"problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = [measure(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    RESULTS.mkdir(exist_ok=True)
    for run in runs:
        print_summary(run)
        out = RESULTS / f"{run['provenance']['workload']}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(run, indent=2) + "\n")
    if len(runs) == 1:
        final = runs[0]["report"]
    else:
        final = {
            "correct": all(r["report"]["correct"] for r in runs),
            "attempted": sum(r["report"]["attempted"] for r in runs),
            "failed": sum(r["report"]["failed"] for r in runs),
            "metrics": {f"{r['provenance']['workload']}.{k}": v
                        for r in runs for k, v in r["report"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
