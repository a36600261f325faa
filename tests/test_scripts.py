import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args], env=env, capture_output=True, text=True, timeout=60
    )
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


def test_bench_duality_quick_run(tmp_path):
    out = tmp_path / "BENCH.json"
    out.write_text('{"parent": {}}\n')
    result = json.loads(run_script("bench_duality.py", ["--quick", "--label", "change", "--out", str(out)]))
    groups = result["groups"]
    assert list(groups) == ["random 16-40", "random 2-8", "PG(2, 2)", "PG(2, 3)"]
    assert groups["random 16-40"]["inputs"] == 8 and groups["random 16-40"]["matchings_per_report"] > 1
    assert groups["random 2-8"]["inputs"] == 20
    # a plane's report solves its global matching and one forced cell
    assert groups["PG(2, 3)"]["matchings_per_report"] == 2
    assert result["python"] and set(json.loads(out.read_text())) == {"parent", "change"}


def test_bench_duality_against_a_tree(tmp_path):
    out = tmp_path / "BENCH.json"
    args = ["--quick", "--against", str(ROOT), "--label", "change", "--out", str(out)]
    result = json.loads(run_script("bench_duality.py", args))
    assert list(result) == ["parent", "change"] and json.loads(out.read_text()) == result
    for side in result.values():
        assert side["alternated"] and side["repeats"] == 2 and side["python"]
        assert list(side["groups"]) == ["random 16-40", "random 2-8", "PG(2, 2)", "PG(2, 3)"]
        assert all(len(group["times_s"]) == 2 for group in side["groups"].values())
    # the same tree on both sides solves the same matchings
    parent, change = ({name: g["matchings_per_report"] for name, g in result[side]["groups"].items()}
                      for side in ("parent", "change"))
    assert parent == change and change["PG(2, 3)"] == 2


def test_bench_pipeline_quick_run(tmp_path):
    out = tmp_path / "BENCH.json"
    out.write_text('{"parent": {}}\n')
    result = json.loads(run_script("bench_pipeline.py", ["--quick", "--label", "change", "--out", str(out)]))
    assert list(result["orders"]) == ["PG(2, 2)", "PG(2, 3)"]
    stages = result["orders"]["PG(2, 3)"]["stages_s"]
    assert list(stages) == [
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
    assert result["orders"]["PG(2, 3)"]["n"] == 13 and result["repeats"] == 1
    for order in result["orders"].values():
        cold = order["cold_start_s"]
        assert list(cold) == [
            "interpreter", "gen-plane", "canon", "extract", "verify-mpls", "reconstruct", "verify-plane"
        ]
        assert all(seconds > 0 for seconds in cold.values())
    assert result["python"] and set(json.loads(out.read_text())) == {"parent", "change"}
