import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
SRC_DIR = DEMO_DIR.parent / "src"


@pytest.mark.parametrize(
    "script",
    [
        "state_space_toolkit.py",
        "delay_patterns_and_qi.py",
        "chain_three_player.py",
        "increasing_delays.py",
    ],
)
def test_demo_runs_clean(script, tmp_path):
    # the demos run from an empty directory, so a relative PYTHONPATH=src
    # would not resolve; put the absolute source path first
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMO_DIR / script)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
