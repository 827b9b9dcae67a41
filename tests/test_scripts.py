"""The helper scripts under scripts/ run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pmcpower as pp

ROOT = Path(__file__).resolve().parents[1]


def test_search_compare_prints_one_row_per_algorithm():
    env = dict(os.environ, PYTHONPATH=str(Path(pp.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "search_compare.py"), "--cases", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = [line.split()[0] for line in done.stdout.splitlines()[2:]]
    assert rows == list(pp.SEARCH_ALGORITHMS)
