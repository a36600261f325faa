import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, line",
    [
        ("order5_walkthrough.py", ["--order", "3"], "plane of order 3: v = b = 13"),
        ("duality_survey.py", ["--samples", "200", "--seed", "1"], "samples: 200 (max side 7, density 0.5, seed 1)"),
    ],
)
def test_script_runs(script, args, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
