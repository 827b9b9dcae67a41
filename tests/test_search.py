"""Fold assignment, CV scoring and the three subset-search strategies."""


import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pmcpower as pp

from conftest import make_dataset, linear_dataset

TRUE_MODEL = pp.PowerModel(
    intercept_w=1.5, terms=(("CPU_OP", 2.0e-06), ("MEM_ACC", 5.0e-07))
)
RANGES3 = {
    "CPU_OP": (0, 400000),
    "MEM_ACC": (0, 150000),
    "IO_EVT": (0, 50000),
}


def _assert_partition(folds, n):
    joined = np.concatenate(folds)
    assert len(joined) == n
    assert np.array_equal(np.sort(joined), np.arange(n))


def test_kfold_contiguous_blocks_when_few_runs():
    ds = make_dataset(37, 2, seed=0, n_runs=2)
    folds = pp.kfold_split(ds, 4)
    _assert_partition(folds, 37)
    sizes = sorted(len(f) for f in folds)
    assert max(sizes) - min(sizes) <= 1
    for f in folds:  # contiguous
        assert np.array_equal(f, np.arange(f[0], f[-1] + 1))


def test_kfold_aligns_to_runs():
    ds = make_dataset(100, 2, seed=1, n_runs=50)
    folds = pp.kfold_split(ds, 50)
    _assert_partition(folds, 100)
    for f in folds:
        assert len({ds.run_ids[i] for i in f}) == 1
    folds5 = pp.kfold_split(ds, 5, seed=2)
    _assert_partition(folds5, 100)
    for f in folds5:
        assert len({ds.run_ids[i] for i in f}) == 10


def test_kfold_never_splits_a_run_across_folds():
    ds = make_dataset(60, 2, seed=3, n_runs=6)
    folds = pp.kfold_split(ds, 3, seed=9)
    run_to_fold = {}
    for fi, f in enumerate(folds):
        for i in f:
            run = ds.run_ids[i]
            assert run_to_fold.setdefault(run, fi) == fi


def test_kfold_deterministic_per_seed():
    ds = make_dataset(80, 2, seed=5, n_runs=20)
    a = pp.kfold_split(ds, 4, seed=7)
    b = pp.kfold_split(ds, 4, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = pp.kfold_split(ds, 4, seed=8)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_kfold_errors():
    ds = make_dataset(4, 1, seed=0)
    with pytest.raises(pp.SearchError, match="5 folds exceed the 4 assignable"):
        pp.kfold_split(ds, 5)
    with pytest.raises(pp.SearchError, match="folds must be >= 2"):
        pp.kfold_split(ds, 1)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(6, 60),
    k=st.integers(2, 6),
    n_runs=st.integers(1, 8),
    seed=st.integers(0, 1000),
)
def test_kfold_partition_property(n, k, n_runs, seed):
    assume(n >= k and n_runs <= n)
    ds = make_dataset(n, 2, seed=seed, n_runs=n_runs)
    folds = pp.kfold_split(ds, k, seed=seed)
    _assert_partition(folds, n)
    assert all(len(f) > 0 for f in folds)


def test_cv_score_hand_example_two_folds():
    # one run, k=2: blocks (0,1) and (2,3); intercept-only fit is the
    # training mean, so the fold MAPEs are 162.5 and 56.25
    ds = pp.Dataset(
        counters=("A",),
        time_keys=np.array([1, 2, 3, 4], dtype=np.uint64),
        run_ids=("r0",) * 4,
        power_w=np.array([1.0, 2.0, 3.0, 4.0]),
        deltas=np.zeros((4, 1), dtype=np.uint64),
    )
    got = pp.cv_score(ds, (), 2)
    assert got == pytest.approx((162.5 + 56.25) / 2, rel=1e-12)


def test_cv_score_zero_noise_is_zero():
    ds = linear_dataset(TRUE_MODEL, 150, RANGES3, seed=11, n_runs=5)
    got = pp.cv_score(ds, ("CPU_OP", "MEM_ACC"), 5)
    assert got == pytest.approx(0.0, abs=1e-8)


def test_cv_score_unknown_predictor():
    ds = make_dataset(20, 2)
    with pytest.raises(pp.SearchError, match="predictors not in dataset"):
        pp.cv_score(ds, ("NOPE",), 2)


def test_cv_score_deterministic():
    ds = make_dataset(60, 3, seed=2, n_runs=6)
    assert pp.cv_score(ds, ("C1", "C3"), 3, seed=5) == pp.cv_score(
        ds, ("C1", "C3"), 3, seed=5
    )


def test_cv_fold_failure_names_the_fold():
    base = make_dataset(20, 1, seed=6)
    ds = pp.Dataset(
        counters=("A", "B"),
        time_keys=base.time_keys,
        run_ids=base.run_ids,
        power_w=base.power_w,
        deltas=np.repeat(base.deltas, 2, axis=1),  # B duplicates A
    )
    with pytest.raises(pp.FitError, match="fold 0:"):
        pp.cv_score(ds, ("A", "B"), 2)


# ---------------------------------------------------------------------------
# greedy searches
# ---------------------------------------------------------------------------


def _noisy_ds(seed=21, n=160, n_runs=4, noise=0.01):
    return linear_dataset(
        TRUE_MODEL, n, RANGES3, seed=seed, n_runs=n_runs, noise_rel=noise
    )


def test_search_config_validation():
    with pytest.raises(ValueError, match="unknown search algorithm"):
        pp.SearchConfig(algorithm="beam")
    with pytest.raises(ValueError, match="folds"):
        pp.SearchConfig(algorithm="bottom_up", folds=1)
    with pytest.raises(ValueError, match="max_events"):
        pp.SearchConfig(algorithm="bottom_up", max_events=-1)
    with pytest.raises(ValueError):
        pp.SearchConfig(algorithm="bottom_up", initial_set=("TIME",))


def test_bottom_up_recovers_true_counters():
    ds = _noisy_ds(noise=0.0)
    cfg = pp.SearchConfig(algorithm="bottom_up", folds=4)
    report = pp.bottom_up(ds, cfg)
    assert set(report.final_model.counter_names) == {"CPU_OP", "MEM_ACC"}
    assert report.stop_reason in ("converged", "pool_exhausted")
    assert report.final_cv_mape_pct == pytest.approx(0.0, abs=1e-8)
    # terms appear in selection order, biggest single improvement first
    assert report.final_model.counter_names[0] == report.iterations[0].counter


def test_bottom_up_max_events_zero_gives_intercept_only():
    ds = _noisy_ds()
    cfg = pp.SearchConfig(algorithm="bottom_up", folds=4, max_events=0)
    report = pp.bottom_up(ds, cfg)
    assert report.final_model.terms == ()
    assert report.stop_reason == "max_events"
    assert report.iterations == ()
    assert report.final_cv_mape_pct == report.initial_cv_mape_pct
    assert report.final_model.intercept_w == pytest.approx(
        float(np.mean(ds.power_w)), rel=1e-12
    )


def test_bottom_up_max_events_caps_model_size():
    ds = _noisy_ds()
    cfg = pp.SearchConfig(algorithm="bottom_up", folds=4, max_events=1)
    report = pp.bottom_up(ds, cfg)
    assert len(report.final_model.terms) == 1
    assert report.stop_reason == "max_events"


def test_bottom_up_tie_breaks_to_lower_pool_index():
    base = linear_dataset(
        pp.PowerModel(intercept_w=2.0, terms=(("A", 1e-06),)),
        80,
        {"A": (0, 300000)},
        seed=3,
        noise_rel=0.005,
    )
    ds = pp.Dataset(
        counters=("A", "B"),
        time_keys=base.time_keys,
        run_ids=base.run_ids,
        power_w=base.power_w,
        deltas=np.repeat(base.deltas, 2, axis=1),  # B is a byte-for-byte copy
    )
    report = pp.bottom_up(ds, pp.SearchConfig(algorithm="bottom_up", folds=4))
    first = report.iterations[0]
    assert first.candidate_scores["A"] == first.candidate_scores["B"]
    assert first.counter == "A"
    assert report.final_model.counter_names == ("A",)


def test_bottom_up_respects_initial_set():
    ds = _noisy_ds()
    cfg = pp.SearchConfig(
        algorithm="bottom_up", folds=4, initial_set=("IO_EVT",)
    )
    report = pp.bottom_up(ds, cfg)
    assert report.final_model.counter_names[0] == "IO_EVT"
    with pytest.raises(pp.SearchError, match="not in candidate pool"):
        pp.bottom_up(
            ds,
            pp.SearchConfig(
                algorithm="bottom_up",
                folds=4,
                initial_set=("IO_EVT",),
                candidate_pool=("CPU_OP", "MEM_ACC"),
            ),
        )


def test_bottom_up_candidate_scores_cover_remaining_pool():
    ds = _noisy_ds()
    report = pp.bottom_up(ds, pp.SearchConfig(algorithm="bottom_up", folds=4))
    assert set(report.iterations[0].candidate_scores) == set(ds.counters)


def test_search_rejects_mismatched_config():
    ds = _noisy_ds()
    cfg = pp.SearchConfig(algorithm="top_down")
    with pytest.raises(pp.SearchError, match="not bottom_up"):
        pp.bottom_up(ds, cfg)
    with pytest.raises(pp.SearchError, match="not exhaustive"):
        pp.exhaustive(ds, cfg)
    with pytest.raises(pp.SearchError, match="not top_down"):
        pp.top_down(ds, pp.SearchConfig(algorithm="exhaustive"))


def test_search_rejects_unknown_pool_counters():
    ds = _noisy_ds()
    cfg = pp.SearchConfig(
        algorithm="bottom_up", folds=4, candidate_pool=("CPU_OP", "GHOST")
    )
    with pytest.raises(pp.SearchError, match="pool counters not in dataset"):
        pp.bottom_up(ds, cfg)


def test_training_meta_filled_in():
    ds = _noisy_ds()
    report = pp.bottom_up(ds, pp.SearchConfig(algorithm="bottom_up", folds=4))
    meta = report.final_model.training
    assert meta.algorithm == "bottom_up"
    assert meta.folds == 4
    assert meta.cv_mape_pct == report.final_cv_mape_pct
    assert meta.train_mape_pct >= 0.0


def test_top_down_drops_the_junk_counter():
    ds = _noisy_ds(noise=0.0)
    report = pp.top_down(ds, pp.SearchConfig(algorithm="top_down", folds=4))
    assert report.iterations[0].counter == "IO_EVT"
    assert report.iterations[0].action == "remove"
    # terms stay in pool order after elimination
    assert report.final_model.counter_names == ("CPU_OP", "MEM_ACC")
    assert report.stop_reason == "converged"


def test_top_down_default_initial_is_whole_pool():
    ds = _noisy_ds(noise=0.0)
    report = pp.top_down(ds, pp.SearchConfig(algorithm="top_down", folds=4))
    assert set(report.iterations[0].candidate_scores) == set(ds.counters)


def test_top_down_can_empty_the_model():
    # every counter column is zero: any fit with a counter is rank-deficient
    # (scores +inf), the intercept-only model is exact
    ds = pp.Dataset(
        counters=("A", "B"),
        time_keys=np.arange(1, 13, dtype=np.uint64),
        run_ids=("r0",) * 12,
        power_w=np.full(12, 2.5),
        deltas=np.zeros((12, 2), dtype=np.uint64),
    )
    report = pp.top_down(ds, pp.SearchConfig(algorithm="top_down", folds=3))
    assert report.stop_reason == "emptied"
    assert report.final_model.terms == ()
    assert report.initial_cv_mape_pct == np.inf
    assert report.final_cv_mape_pct == pytest.approx(0.0, abs=1e-9)
    assert len(report.iterations) == 2


def test_exhaustive_single_counter_pool():
    ds = linear_dataset(
        pp.PowerModel(intercept_w=2.0, terms=(("A", 1e-06),)),
        60,
        {"A": (0, 300000)},
        seed=4,
    )
    report = pp.exhaustive(ds, pp.SearchConfig(algorithm="exhaustive", folds=3))
    assert set(report.subset_scores) == {"", "A"}
    assert report.final_model.counter_names == ("A",)
    assert report.stop_reason == "enumerated"


def test_exhaustive_scores_every_subset():
    ds = _noisy_ds()
    report = pp.exhaustive(ds, pp.SearchConfig(algorithm="exhaustive", folds=4))
    assert len(report.subset_scores) == 2**3
    assert "CPU_OP+MEM_ACC+IO_EVT" in report.subset_scores
    assert report.subset_scores[""] == report.initial_cv_mape_pct
    best = min(report.subset_scores.values())
    assert report.final_cv_mape_pct == best


def test_exhaustive_prefers_smaller_subset_on_ties():
    base = linear_dataset(
        pp.PowerModel(intercept_w=2.0, terms=(("A", 1e-06),)),
        60,
        {"A": (0, 300000)},
        seed=5,
        noise_rel=0.01,
    )
    ds = pp.Dataset(
        counters=("A", "B"),
        time_keys=base.time_keys,
        run_ids=base.run_ids,
        power_w=base.power_w,
        deltas=np.repeat(base.deltas, 2, axis=1),
    )
    report = pp.exhaustive(ds, pp.SearchConfig(algorithm="exhaustive", folds=3))
    assert report.subset_scores["A"] == report.subset_scores["B"]
    assert report.subset_scores["A+B"] == np.inf
    assert report.final_model.counter_names == ("A",)


def test_exhaustive_max_events_caps_subset_size():
    ds = _noisy_ds()
    report = pp.exhaustive(
        ds, pp.SearchConfig(algorithm="exhaustive", folds=4, max_events=1)
    )
    assert len(report.subset_scores) == 4  # {} plus the three singletons


def test_exhaustive_pool_limit():
    ds = make_dataset(30, 21, seed=1)
    with pytest.raises(pp.SearchError, match="too large for exhaustive"):
        pp.exhaustive(ds, pp.SearchConfig(algorithm="exhaustive", folds=2))


def test_run_search_dispatch():
    ds = _noisy_ds()
    for algorithm in pp.SEARCH_ALGORITHMS:
        report = pp.run_search(
            ds, pp.SearchConfig(algorithm=algorithm, folds=4)
        )
        assert report.algorithm == algorithm
        assert (report.subset_scores is not None) == (
            algorithm == "exhaustive"
        )


def test_report_round_trip(tmp_path):
    ds = _noisy_ds()
    for algorithm in pp.SEARCH_ALGORITHMS:
        report = pp.run_search(ds, pp.SearchConfig(algorithm=algorithm, folds=4))
        path = tmp_path / f"{algorithm}.json"
        pp.write_report(report, path)
        assert pp.read_report(path) == report


def test_report_round_trip_with_infinities(tmp_path):
    ds = pp.Dataset(
        counters=("A",),
        time_keys=np.arange(1, 9, dtype=np.uint64),
        run_ids=("r0",) * 8,
        power_w=np.full(8, 2.5),
        deltas=np.zeros((8, 1), dtype=np.uint64),
    )
    report = pp.top_down(ds, pp.SearchConfig(algorithm="top_down", folds=2))
    assert report.initial_cv_mape_pct == np.inf
    path = tmp_path / "inf.json"
    pp.write_report(report, path)
    back = pp.read_report(path)
    assert back == report
    assert "Infinity" not in path.read_text()  # serialised as null


def test_report_rejects_increasing_scores():
    model = pp.PowerModel(intercept_w=1.0, terms=())
    with pytest.raises(ValueError, match="non-increasing"):
        pp.SearchReport(
            algorithm="bottom_up",
            folds=2,
            fold_seed=0,
            pool=("A",),
            stop_reason="converged",
            initial_cv_mape_pct=1.0,
            iterations=(
                pp.SearchIteration("add", "A", 2.0, {"A": 2.0}),
            ),
            final_model=model,
            final_cv_mape_pct=2.0,
        )


def test_report_from_dict_rejects_garbage(tmp_path):
    with pytest.raises(pp.FormatError, match="bad search report JSON"):
        pp.report_from_dict({"algorithm": "bottom_up"})
    path = tmp_path / "bad.json"
    path.write_text("[1, 2")
    with pytest.raises(pp.FormatError, match="bad search report JSON"):
        pp.read_report(path)
