"""The helper scripts under scripts/ run end to end."""

import importlib.util
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


@pytest.mark.parametrize(
    "script, flags, message",
    [
        ("search_compare.py", ["--cases", "0"], "--cases must be >= 1"),
        ("bench_pairs.py", ["--parent", str(ROOT), "--change", str(ROOT), "--seeds", "5-1"],
         "empty seed range '5-1'"),
    ],
)
def test_scripts_refuse_an_empty_run_as_a_usage_error(tmp_path, script, flags, message):
    # a run over no cases or no seeds has nothing to summarise: a usage
    # error, not a traceback
    env = dict(os.environ, PYTHONPATH=str(Path(pp.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *flags],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert done.returncode == 2, done.stderr
    assert message in done.stderr
    assert "Traceback" not in done.stderr


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


def _same_outputs(parent, change, *flags, env=None):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "same_outputs.py"),
         "--parent", str(parent), "--change", str(change), "--size", "smoke", *flags],
        capture_output=True, text=True, timeout=300, env=env,
    )


def test_same_outputs_finds_one_checkout_identical_to_itself():
    done = _same_outputs(ROOT, ROOT, "--seed", "3")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["apply", "select", "oracle"]
    assert all(line.endswith("artifacts byte-identical") for line in lines)


def test_same_outputs_memory_gives_each_stage_kinds_traced_peak(tmp_path):
    # a copy with no bytecode cache, and none written, so every child
    # compiles pmcpower from source: a train stage that loaded search.py
    # itself would read about the import's own peak (2.4 MB, printed to
    # 0.01 MB), not its data (0.2 MB), so it is held to half that peak
    copy = tmp_path / "copy"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, copy / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    code = ("import tracemalloc; from pmcpower import cli; tracemalloc.start(); "
            "from pmcpower import search; print(tracemalloc.get_traced_memory()[1])")
    imported = subprocess.run(
        [sys.executable, "-c", code], env=dict(env, PYTHONPATH=str(copy / "src")),
        capture_output=True, text=True, timeout=60, check=True,
    )
    import_mb = int(imported.stdout) / 1e6
    done = _same_outputs(copy, copy, "--workloads", "apply,select", "--memory", env=env)
    assert done.returncode == 0, done.stderr
    peaks = [line for line in done.stdout.splitlines() if "traced peak MB" in line]
    assert len(peaks) == 2
    for line, name, kinds in zip(peaks, ("apply", "select"),
                                 (["gen", "sync", "validate", "predict"],
                                  ["gen", "sync", "train", "validate"])):
        workload, cells = line.split(": traced peak MB, parent -> change: ")
        assert workload == name
        stages = [cell.split() for cell in cells.split(", ")]
        assert [stage[0] for stage in stages] == kinds
        for kind, parent, arrow, change in stages:
            assert arrow == "->" and float(parent) > 0 and float(change) > 0
            if kind == "train":
                assert max(float(parent), float(change)) < import_mb / 2, (line, import_mb)


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


def test_same_outputs_summarises_json_that_moves_only_in_rounding(tmp_path):
    # search reports with every score scaled by 1 + 2^-50: both reports
    # differ, in float leaves only, by about 8.9e-16 relative, and the
    # models, whose JSON is written without those scores, do not
    copy = tmp_path / "copy"
    ignore = shutil.ignore_patterns("__pycache__", "out")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, copy / part, ignore=ignore)
    search_py = copy / "src" / "pmcpower" / "search.py"
    text = search_py.read_text()
    old = "return v if math.isfinite(v) else None"
    assert text.count(old) == 1
    search_py.write_text(text.replace(old, "return v * (1 + 2**-50) if math.isfinite(v) else None"))
    done = _same_outputs(ROOT, copy, "--workloads", "select")
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    differs = [line.split()[1] for line in lines if line.endswith(" differs")]
    assert differs == ["pass/report_bottom_up.json", "pass/report_top_down.json"]
    for name in differs:
        (line,) = [line for line in lines if line.startswith(f"select: {name}: ")]
        leaves, rest = line.removeprefix(f"select: {name}: ").split(" differing leaves, ")
        kind, gap = rest.split(", largest relative float gap ")
        assert int(leaves) > 0 and kind == "all floats"
        assert 8e-16 < float(gap) < 1e-15


def test_json_gaps_tell_rounding_from_other_changes():
    spec = importlib.util.spec_from_file_location(
        "same_outputs", ROOT / "scripts" / "same_outputs.py"
    )
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    gaps = same_outputs.json_gaps
    assert gaps({"a": [1.0, "x"], "b": None}, {"a": [1.0, "x"], "b": None}) == (0, True, 0.0)
    leaves, floats, gap = gaps({"a": [1.0, 3.0], "b": 2}, {"a": [1.0 + 2**-52, 3.0], "b": 2})
    assert (leaves, floats) == (1, True) and gap == pytest.approx(2**-52, rel=1e-6)
    # an int that became a float, a null, a missing key, a longer list
    for parent, change in [({"a": 1}, {"a": 1.0}), ({"a": None}, {"a": 2.0}),
                           ({"a": 1.0}, {}), ([1.0], [1.0, 2.0])]:
        assert gaps(parent, change)[:2] == (1, False), (parent, change)
