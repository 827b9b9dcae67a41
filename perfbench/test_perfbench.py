"""Tests of the benchmark itself: ``python -m pytest perfbench`` from the
repository root.  The smoke runs use ``--size smoke``, so every workload,
traced and untraced, runs end to end in a few seconds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import pmcpower as pp  # noqa: E402
from pmcpower import search  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    listed = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name
    if trace == "0":
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "apply", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _tiny_dataset():
    model = pp.PowerModel(intercept_w=2.0, terms=(("C1", 1e-6), ("C3", 2e-6)))
    spec = pp.GenSpec(
        true_model=model, n_samples=21, n_runs=10, noise_rel=0.02, seed=5,
        counter_ranges={f"C{i}": (0, 500_000) for i in range(5)},
    )
    return pp.generate(spec).dataset


@pytest.mark.parametrize("algorithm", search.SEARCH_ALGORITHMS)
def test_candidate_count_from_report_is_exact(algorithm, tmp_path, monkeypatch):
    calls = []
    original = search._CvEvaluator.score_or_inf

    def counting(self, selection):
        calls.append(tuple(selection))
        return original(self, selection)

    monkeypatch.setattr(search._CvEvaluator, "score_or_inf", counting)
    report = search.run_search(_tiny_dataset(), search.SearchConfig(algorithm=algorithm))
    path = tmp_path / "report.json"
    search.write_report(report, path)
    assert checks.candidate_counts(path) == (len(calls), 0)


def test_tracer_restores_the_program_after_an_error():
    tracer = spans.Tracer(pp)
    before = {(m, a): getattr(getattr(pp, m), a) for m, a, _ in spans.TARGETS}
    with pytest.raises(pp.SearchError):
        with tracer.trace("t"):
            pp.search.kfold_split(_tiny_dataset(), 1)
    assert {(m, a): getattr(getattr(pp, m), a) for m, a, _ in spans.TARGETS} == before
    assert [s["name"] for s in tracer.spans] == ["search.kfold_split"]


def _smoke_pass(workload, tmp_path):
    """Generate smoke inputs and run one pass in-process."""
    import run
    from pmcpower import cli
    from workloads import Layout, spec_dict, true_counters

    w = WORKLOADS[workload]
    size = w.size(smoke=True)
    layout = Layout(tmp_path / "inputs")
    layout.root.mkdir()
    for holdout in (False, True):
        layout.spec(holdout).write_text(json.dumps(spec_dict(w, size, 3, holdout)))
        assert cli.main(["gen", "--spec", str(layout.spec(holdout)),
                         "--out-prefix", str(layout.prefix(holdout))]) == 0
    out = tmp_path / "pass"
    out.mkdir()
    res = w.run_pass(run.Stages(cli.main, run.Tally()), layout, size, out)
    return checks.Truth(layout, true_counters(size), holdout=True), size, res


def _failed(results):
    return [name for name, ok, _ in results if not ok]


def test_gate_catches_a_wrong_synced_row(tmp_path):
    truth, _, res = _smoke_pass("select", tmp_path)
    assert _failed(checks.check_synced(truth, res.synced)) == []
    lines = res.synced[1].read_text().splitlines()
    cells = lines[2].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-12))
    lines[2] = ",".join(cells)
    res.synced[1].write_text("\n".join(lines) + "\n")
    assert _failed(checks.check_synced(truth, res.synced)) == ["sync r1 equals generator rows"]


def test_gate_catches_a_wrong_cv_score_and_argmin(tmp_path):
    truth, size, res = _smoke_pass("oracle", tmp_path)
    (train,) = res.trains
    assert _failed(checks.check_train(truth, size.n_runs, train)[0]) == []
    report = json.loads(train.report.read_text())
    report["final_cv_mape_pct"] *= 1 + 1e-6
    report["subset_scores"][""] = -1.0
    train.report.write_text(json.dumps(report))
    assert _failed(checks.check_train(truth, size.n_runs, train)[0]) == [
        "exhaustive final CV MAPE matches lstsq recompute",
        "exhaustive final subset is the argmin",
    ]
