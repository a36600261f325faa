import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args], env=env, capture_output=True, text=True, timeout=60
    )


def run_script(script, args):
    proc = run(script, args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "script, args, line",
    [
        ("order5_walkthrough.py", ["--order", "3"], "plane of order 3: v = b = 13"),
        ("duality_survey.py", ["--samples", "200", "--seed", "1"], "samples: 200 (max side 7, density 0.5, seed 1)"),
    ],
)
def test_script_runs(script, args, line):
    assert line in run_script(script, args).splitlines()


def check_duality_groups(side, rounds):
    """The duality groups of one tree's result from a --quick run of bench_pipeline.py timed over rounds."""
    assert side["python"] and side["repeats"] == rounds
    groups = side["groups"]
    assert list(groups) == ["random 16-40", "random 2-8", "PG(2, 2)", "PG(2, 3)"]
    assert groups["random 16-40"]["inputs"] == 8 and groups["random 16-40"]["matchings_per_report"] > 1
    assert groups["random 2-8"]["inputs"] == 20
    # a plane's report solves its global matching and one forced cell
    assert groups["PG(2, 3)"]["matchings_per_report"] == 2
    assert all(len(row["times_s"]) == rounds and "median_s" in row for row in groups.values())


def check_pipeline_orders(side, rounds):
    """The round-trip stages and cold-start steps of one tree's result from a --quick run timed over rounds."""
    assert side["python"] and side["repeats"] == rounds
    orders = side["orders"]
    assert list(orders) == ["PG(2, 2)", "PG(2, 3)"] and orders["PG(2, 3)"]["n"] == 13
    for order in orders.values():
        assert list(order["stages_s"]) == [
            "build_field",
            "build_pg2",
            "to_inc_text",
            "from_inc_text",
            "geometry_from_incidence",
            "plane_check",
            "canonicalize",
            "extract_mpls",
            "verify_mpls",
            "reconstruct",
        ]
        cold = order["cold_start_s"]
        assert list(cold) == [
            "interpreter", "gen-plane", "canon", "extract", "verify-mpls", "reconstruct", "verify-plane"
        ]
        assert all(row["median_s"] > 0 for row in cold.values())
        timed = [*order["stages_s"].values(), order["total_s"], *cold.values()]
        assert all(len(row["times_s"]) == rounds and "median_s" in row for row in timed)


def check_bench_side(side, rounds):
    check_duality_groups(side, rounds)
    check_pipeline_orders(side, rounds)


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One --quick run of bench_pipeline.py on this tree, stored under "change" next to an earlier "parent"."""
    out = tmp_path_factory.mktemp("bench") / "BENCH.json"
    out.write_text('{"parent": {}}\n')
    result = json.loads(run_script("bench_pipeline.py", ["--quick", "--label", "change", "--out", str(out)]))
    return result, json.loads(out.read_text())


def test_bench_duality_quick_run(quick_run):
    result, stored = quick_run
    check_duality_groups(result, 1)
    assert set(stored) == {"parent", "change"}


def test_bench_pipeline_quick_run(quick_run):
    result, stored = quick_run
    check_pipeline_orders(result, 1)
    assert not result["alternated"] and set(stored) == {"parent", "change"}


def test_bench_pipeline_against_a_tree(tmp_path):
    out = tmp_path / "BENCH.json"
    args = ["--quick", "--against", str(ROOT), "--label", "change", "--out", str(out)]
    result = json.loads(run_script("bench_pipeline.py", args))
    assert list(result) == ["parent", "change"] and json.loads(out.read_text()) == result
    for side in result.values():
        check_bench_side(side, 2)
        assert side["alternated"]
    # the same tree on both sides solves the same matchings
    parent, change = ({name: g["matchings_per_report"] for name, g in result[side]["groups"].items()}
                      for side in ("parent", "change"))
    assert parent == change


def test_bench_pipeline_stops_when_a_child_dies(tmp_path):
    package = tmp_path / "src" / "pglatin"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('raise RuntimeError("this tree cannot be imported")\n')
    proc = run("bench_pipeline.py", ["--quick", "--against", str(tmp_path)])
    assert proc.returncode != 0
    assert f"the run of {tmp_path / 'src'} stopped" in proc.stderr
