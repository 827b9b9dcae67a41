"""The helper scripts under scripts/ run end to end."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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
    # each run's picks, per side and pair, and the pairs that picked alike
    picks = oracle["selected"]["parent"]
    assert oracle["selected"]["change"] == picks
    assert len(picks) == 1 and set(picks[0]) == {"exhaustive"}
    assert picks[0]["exhaustive"] and all(c.startswith("C") for c in picks[0]["exhaustive"])
    assert oracle["same_selected_pairs"] == 1
    assert set(oracle["metrics"]) == {
        "pipeline_s", "setup_s", "peak_rss_mb", "holdout_mape_pct", "train_s"
    }
    for metric in oracle["metrics"].values():
        assert len(metric["parent"]["runs"]) == len(metric["change"]["runs"]) == 1
    assert oracle["metrics"]["holdout_mape_pct"]["ties"] == 1
    # every end-to-end metric of BENCHMARK.json states its no-regression verdict
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for spec in benchmark["end_to_end"]:
        metric = oracle["metrics"][spec["name"]]
        assert metric["bound"] == spec["bound"]
        want = metric["change"]["median"] <= metric["parent"]["median"] * (1 + spec["bound"])
        assert metric["within_bound"] is want
    assert "within_bound" not in oracle["metrics"]["train_s"]
    assert oracle["metrics"]["holdout_mape_pct"]["within_bound"] is True
    (claim,) = summary["claims"]
    assert claim["workload"] == "oracle" and claim["metric"] == "pipeline_s"
    assert claim["rule"].startswith("change lower in at least 1 of 1 pairs")
    assert isinstance(claim["met"], bool)


@pytest.mark.parametrize(
    "claim", ["oracle-pipeline_s", "select:pipeline_s", "oracle:wall_s", "oracle:pipeline_s:x"]
)
def test_bench_pairs_refuses_a_bad_claim_before_any_run(tmp_path, claim):
    # a missing parent checkout would fail the first run; a bad claim is a
    # usage error before it
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
         "--parent", str(tmp_path / "missing"), "--change", str(ROOT),
         "--workloads", "oracle", "--seeds", "1", "--seconds", "0", "--size", "smoke",
         "--claim", "oracle:pipeline_s", "--claim", claim, "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert f"--claim {claim!r} is not WORKLOAD:METRIC" in done.stderr
    assert not out.exists()


def _same_outputs(parent, change, *flags):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "same_outputs.py"),
         "--parent", str(parent), "--change", str(change), "--size", "smoke", *flags],
        capture_output=True, text=True, timeout=300,
    )


def test_same_outputs_finds_one_checkout_identical_to_itself():
    done = _same_outputs(ROOT, ROOT, "--seed", "3")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["apply", "select", "oracle"]
    assert all(line.endswith("artifacts byte-identical") for line in lines)


def test_same_outputs_lists_what_a_changed_watt_format_writes(tmp_path):
    # display watts with 5 significant digits instead of 6: the fit traces
    # and predictions differ, the synced datasets (repr floats) do not
    copy = tmp_path / "copy"
    ignore = shutil.ignore_patterns("__pycache__", "out")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, copy / part, ignore=ignore)
    regress = copy / "src" / "pmcpower" / "regress.py"
    text = regress.read_text()
    assert text.count('WATTS_SPEC = "%.6g"') == 1
    regress.write_text(text.replace('WATTS_SPEC = "%.6g"', 'WATTS_SPEC = "%.5g"'))
    done = _same_outputs(ROOT, copy, "--workloads", "apply")
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    differs = {line.split()[1] for line in lines if line.endswith(" differs")}
    assert {f"pass/{kind}_r{r}.csv" for kind in ("fit", "pred") for r in (0, 1)} <= differs
    assert not any(name.startswith(("inputs/", "pass/ds_")) for name in differs)
