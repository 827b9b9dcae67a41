"""The helper scripts under scripts/ run end to end."""

import json
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


def test_bench_pairs_summarises_one_smoke_pair(tmp_path):
    # one pair with the same checkout on both sides: the summary has the
    # BENCH_*.json shape, one run per side and tied accuracy
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
         "--parent", str(ROOT), "--change", str(ROOT), "--workloads", "oracle",
         "--seeds", "1", "--seconds", "0", "--size", "smoke",
         "--claim", "oracle:pipeline_s", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(out.read_text())
    assert summary["src_sha256"]["parent"] == summary["src_sha256"]["change"]
    assert summary["environment"]["blas_pins"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"
    }
    oracle = summary["workloads"]["oracle"]
    assert oracle["seeds"] == [1]
    assert oracle["failed"] == {"parent": [0], "change": [0]}
    assert set(oracle["metrics"]) == {
        "pipeline_s", "setup_s", "peak_rss_mb", "holdout_mape_pct", "train_s"
    }
    for metric in oracle["metrics"].values():
        assert len(metric["parent"]["runs"]) == len(metric["change"]["runs"]) == 1
    assert oracle["metrics"]["holdout_mape_pct"]["ties"] == 1
    (claim,) = summary["claims"]
    assert claim["workload"] == "oracle" and claim["metric"] == "pipeline_s"
    assert claim["rule"].startswith("change lower in at least 1 of 1 pairs")
    assert isinstance(claim["met"], bool)
