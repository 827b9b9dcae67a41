"""Fold assignment, CV scoring and the three subset-search strategies."""


import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pmcpower as pp
from pmcpower import dataset

from conftest import edited_json, linear_dataset, make_dataset, twin_pairs_dataset

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


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None])
def test_folds_must_be_an_integer(k):
    # a float k used to be truncated: kfold_split(ds, 2.5) gave 2 folds
    ds = make_dataset(20, 2, seed=0)
    with pytest.raises(pp.SearchError, match="folds must be an integer"):
        pp.kfold_split(ds, k)
    with pytest.raises(pp.SearchError, match="folds must be an integer"):
        pp.cv_score(ds, ("C1",), k)


@pytest.mark.parametrize("seed", [True, 2.5, "3", -1, None])
@pytest.mark.parametrize("n_runs", [1, 5])
def test_fold_seed_must_be_a_non_negative_integer(seed, n_runs):
    # checked as SearchConfig checks fold_seed, before numpy sees it, and
    # on row-block folds too, which do not use it
    ds = make_dataset(20, 2, seed=0, n_runs=n_runs)
    with pytest.raises(pp.SearchError, match="seed must be an integer >= 0"):
        pp.kfold_split(ds, 4, seed)
    with pytest.raises(pp.SearchError, match="seed must be an integer >= 0"):
        pp.cv_score(ds, ("C1",), 4, seed)
    assert len(pp.kfold_split(ds, 4, np.int64(3))) == 4


def test_folds_take_a_numpy_integer():
    ds = make_dataset(20, 2, seed=0)
    assert len(pp.kfold_split(ds, np.int64(3))) == 3
    assert pp.cv_score(ds, ("C1",), np.int64(3)) == pp.cv_score(ds, ("C1",), 3)


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


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(algorithm="top_down", max_events=1), "max_events"),
        (dict(algorithm="top_down", max_events=0), "max_events"),
        (dict(algorithm="exhaustive", initial_set=("A",)), "initial_set"),
    ],
)
def test_search_config_refuses_a_field_the_search_would_ignore(kwargs, field):
    with pytest.raises(ValueError, match=f"{field} does not apply to"):
        pp.SearchConfig(**kwargs)


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in ("folds", "max_events", "fold_seed") for v in (2.5, 3.0, True, "3")]
    # None is max_events' "no cap"
    + [("folds", None), ("fold_seed", None)],
)
def test_search_config_integer_fields_take_only_integers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        pp.SearchConfig(algorithm="bottom_up", **{field: value})


def test_search_config_takes_numpy_integers(tmp_path):
    cfg = pp.SearchConfig(
        algorithm="exhaustive", folds=np.int64(3), max_events=np.uint8(1),
        fold_seed=np.int32(2),
    )
    assert (cfg.folds, cfg.max_events, cfg.fold_seed) == (3, 1, 2)
    assert {type(cfg.folds), type(cfg.max_events), type(cfg.fold_seed)} == {int}
    # stored as plain ints, they write the files plain-int settings write
    # (a numpy folds used to reach the JSON writer and fail there)
    ds = _noisy_ds()
    files = []
    for folds, seed in ((np.int64(3), np.int32(2)), (3, 2)):
        cfg = pp.SearchConfig(algorithm="top_down", folds=folds, fold_seed=seed)
        report = pp.run_search(ds, cfg)
        pp.write_report(report, tmp_path / "report.json")
        pp.write_model(report.final_model, tmp_path / "model.json")
        files.append(
            [(tmp_path / n).read_bytes() for n in ("report.json", "model.json")]
        )
    assert files[0] == files[1]


def test_settings_store_numpy_values_as_plain_python_values():
    meta = pp.TrainingMeta(
        algorithm="top_down", folds=np.int64(4), cv_mape_pct=np.float64(1.5),
        train_mape_pct=np.int32(1),
    )
    # a float field stores a float, an integer given for it included
    assert [type(v) for v in (meta.folds, meta.cv_mape_pct, meta.train_mape_pct)] == [
        int, float, float
    ]
    assert type(pp.SyncConfig(key_tolerance=np.uint64(2**63)).key_tolerance) is int
    spec = pp.GenSpec(
        true_model=TRUE_MODEL, n_samples=np.int64(5), counter_ranges=RANGES3,
        noise_rel=np.float32(0.5), seed=np.uint8(1),
    )
    assert [type(v) for v in (spec.n_samples, spec.noise_rel, spec.seed)] == [
        int, float, int
    ]


def test_a_string_is_not_a_name_list():
    # "C1" used to be the names ('C', '1')
    ds = _noisy_ds()
    for field in ("candidate_pool", "initial_set"):
        with pytest.raises(ValueError, match="must be a sequence, not 'CPU_OP'"):
            pp.SearchConfig(algorithm="bottom_up", **{field: "CPU_OP"})
    with pytest.raises(ValueError, match="must be a sequence, not 'CPU_OP'"):
        pp.fit_ols(ds, "CPU_OP")
    with pytest.raises(ValueError, match="must be a sequence, not 'CPU_OP'"):
        pp.cv_score(ds, "CPU_OP", 4)
    # and each name is a string: 1 used to reach ", ".join as a TypeError
    with pytest.raises(ValueError, match="counter name must be str, got 1"):
        pp.fit_ols(ds, ["CPU_OP", 1])
    assert pp.fit_ols(ds, ["CPU_OP"])[0].counter_names == ("CPU_OP",)


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


def test_max_events_below_the_initial_set_is_refused():
    # such a cap used to return the initial set itself, a model larger
    # than the cap, with stop_reason "max_events"
    initial = ("C1", "C2", "C3")
    for cap in (0, 1, 2):
        with pytest.raises(ValueError, match="max_events must be an integer >= 3"):
            pp.SearchConfig(algorithm="bottom_up", initial_set=initial, max_events=cap)
    ds = make_dataset(60, 4, seed=3, n_runs=6)
    cfg = pp.SearchConfig(algorithm="bottom_up", folds=3, initial_set=initial, max_events=3)
    report = pp.bottom_up(ds, cfg)
    assert report.final_model.counter_names == initial
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


@pytest.mark.parametrize(
    "n_counters, refuse, message",
    [
        (2, lambda ds: pp.cv_score(ds, ("NOPE",), 2), "predictors not in dataset: NOPE"),
        (2, lambda ds: pp.fit_ols(ds, ("NOPE",)), "predictors not in dataset: NOPE"),
        (
            2,
            lambda ds: pp.bottom_up(
                ds, pp.SearchConfig(algorithm="bottom_up", folds=2, candidate_pool=("NOPE",))
            ),
            "pool counters not in dataset: NOPE",
        ),
        (
            0,
            lambda ds: pp.bottom_up(ds, pp.SearchConfig(algorithm="bottom_up", folds=2)),
            "empty candidate pool",
        ),
    ],
    ids=["cv_score", "fit_ols", "unknown-pool", "empty-pool"],
)
def test_a_refusal_of_the_dataset_counters_names_its_file(n_counters, refuse, message):
    ds = dataclasses.replace(make_dataset(20, n_counters, n_runs=2), source="runs.csv")
    with pytest.raises(pp.PipelineError) as caught:
        refuse(ds)
    assert str(caught.value) == f"runs.csv: {message}"


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
    # power is constant, so every subset fits it to rounding and each
    # removal ties the incumbent within IMPROVEMENT_EPS
    rng = np.random.default_rng(0)
    ds = pp.Dataset(
        counters=("A", "B"),
        time_keys=np.arange(1, 13, dtype=np.uint64),
        run_ids=("r0",) * 12,
        power_w=np.full(12, 2.5),
        deltas=rng.integers(0, 1000, size=(12, 2), dtype=np.uint64),
    )
    report = pp.top_down(ds, pp.SearchConfig(algorithm="top_down", folds=3))
    assert report.stop_reason == "emptied"
    assert report.final_model.terms == ()
    assert report.final_cv_mape_pct == pytest.approx(0.0, abs=1e-9)
    assert [it.counter for it in report.iterations] == ["A", "B"]


def test_top_down_stops_when_every_removal_fails():
    # every counter column is zero: any fit with a counter is rank-deficient
    # (scores +inf), so no removal is accepted, although the intercept-only
    # model two removals away is exact; the walk stops on the full set and
    # the error names its first failing fold
    ds = pp.Dataset(
        counters=("A", "B"),
        time_keys=np.arange(1, 13, dtype=np.uint64),
        run_ids=("r0",) * 12,
        power_w=np.full(12, 2.5),
        deltas=np.zeros((12, 2), dtype=np.uint64),
    )
    with pytest.raises(
        pp.SearchError,
        match=r"^top_down stopped \(converged\) at \[A, B\] with no finite CV "
        r"score: fold 0: rank-deficient design, drop a predictor$",
    ):
        pp.top_down(ds, pp.SearchConfig(algorithm="top_down", folds=3))


def test_top_down_takes_no_removal_when_every_one_fails():
    # two copied pairs: every removal from the full set keeps one pair and
    # scores +inf.  Taking such a removal anyway used to drop A, then B, then
    # C (the first counter in pool order each time), three true counters,
    # and return (B2, C2) at about 15 % CV MAPE.
    ds = twin_pairs_dataset()
    with pytest.raises(
        pp.SearchError,
        match=r"at \[A, B, B2, C, C2\] with no finite CV score: "
        r"fold 0: rank-deficient design",
    ):
        pp.top_down(ds, pp.SearchConfig(algorithm="top_down", folds=5))
    report = pp.bottom_up(ds, pp.SearchConfig(algorithm="bottom_up", folds=5))
    assert report.final_model.counter_names == ("A", "C", "B")
    assert report.final_cv_mape_pct < 1.0
    # with one pair, the removals of either copy tie and the first in pool
    # order is taken; the true counters stay
    report = pp.top_down(
        ds, pp.SearchConfig(algorithm="top_down", folds=5, initial_set=("A", "B", "C", "C2"))
    )
    assert report.final_model.counter_names == ("A", "B", "C2")
    assert report.iterations[0].candidate_scores["A"] == np.inf


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


def test_exhaustive_pool_limit(monkeypatch):
    # the limit is checked before the folds and the evaluator are built, so
    # it also comes before the fold-count refusal (50 folds of 30 rows)
    def no_build(*args):
        raise AssertionError("evaluator built for a refused pool")

    monkeypatch.setattr(pp.search, "_CvEvaluator", no_build)
    ds = make_dataset(30, 21, seed=1)
    for folds in (2, 50):
        with pytest.raises(pp.SearchError, match="too large for exhaustive"):
            pp.exhaustive(ds, pp.SearchConfig(algorithm="exhaustive", folds=folds))


def test_cv_certificate_uses_the_fit_rank_cutoff():
    ds = _noisy_ds()
    evaluator = pp.search._CvEvaluator(ds, ds.counters, pp.kfold_split(ds, 4))
    k = np.arange(len(ds.counters) + 3)[:, None]
    cut = pp.regress.rank_cutoff(evaluator.n_train, k)
    assert np.array_equal(evaluator._cut2[..., 0], (4.0 * cut) ** 2)


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


@pytest.mark.parametrize(
    "field, value, message",
    [
        # a NaN step score used to be written as null, which read back as
        # +inf and broke the non-increasing rule
        ("step", np.nan, "CV MAPE must be finite or +inf, got nan"),
        ("final_cv_mape_pct", np.nan, "CV MAPE must be finite or +inf, got nan"),
        ("initial_cv_mape_pct", -np.inf, "CV MAPE must be finite or +inf, got -inf"),
        ("final_cv_mape_pct", True, "CV MAPE must be float, got True"),
        ("folds", "x", "folds must be int, got 'x'"),
        ("fold_seed", False, "fold_seed must be int, got False"),
        # used to be written as the pool ["A", "B"]
        ("pool", "AB", "counter names must be a sequence, not 'AB'"),
        ("algorithm", None, "algorithm must be str, got None"),
        ("stop_reason", 3, "stop_reason must be str, got 3"),
        ("subset_scores", {1: 1.0}, "counter name must be str, got 1"),
        ("subset_scores", [("A", 1.0)], "subset_scores must be dict"),
        ("iterations", [], "iterations must be a tuple of SearchIteration"),
        ("final_model", None, "final_model must be PowerModel, got None"),
    ],
)
def test_report_constructors_check_every_field(field, value, message):
    step = {"action": "add", "counter": "A", "cv_mape_pct": 1.0, "candidate_scores": {}}
    report = dict(
        algorithm="bottom_up", folds=2, fold_seed=0, pool=("A",), stop_reason="converged",
        initial_cv_mape_pct=2.0, iterations=(pp.SearchIteration(**step),),
        final_model=pp.PowerModel(intercept_w=1.0, terms=()), final_cv_mape_pct=1.0,
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        if field == "step":
            pp.SearchIteration(**{**step, "cv_mape_pct": value})
        else:
            pp.SearchReport(**{**report, field: value})
    for key, bad in (("action", 0), ("counter", None), ("candidate_scores", {"A": "1"})):
        with pytest.raises(ValueError, match="must be"):
            pp.SearchIteration(**{**step, key: bad})


def test_report_from_dict_rejects_garbage(tmp_path):
    with pytest.raises(pp.FormatError, match="bad search report JSON"):
        dataset.from_json(pp.SearchReport, {"algorithm": "bottom_up"}, "r.json")
    path = tmp_path / "bad.json"
    path.write_text("[1, 2")
    with pytest.raises(pp.FormatError, match="bad search report JSON"):
        pp.read_report(path)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("folds",), 4.0, "folds must be int"),
        (("folds",), True, "folds must be int"),
        (("fold_seed",), "0", "fold_seed must be int"),
        (("algorithm",), 1, "algorithm must be str"),
        (("stop_reason",), None, "stop_reason must be str"),
        (("pool", 0), 3, "counter name must be str"),
        (("initial_cv_mape_pct",), "1.0", "CV MAPE must be float"),
        (("final_cv_mape_pct",), True, "CV MAPE must be float"),
        (("iterations", 0, "action"), 0, "action must be str"),
        (("iterations", 0, "counter"), ["IO_EVT"], "counter must be str"),
        (("iterations", 0, "cv_mape_pct"), False, "CV MAPE must be float"),
        (("iterations", 0, "candidate_scores", "IO_EVT"), "2", "CV MAPE must be float"),
        (("final_model", "intercept_w"), "1.5", "intercept_w must be float"),
        # "C1C2" used to load as the pool ('C', '1', 'C', '2'), {} as no steps
        (("pool",), "C1C2", "pool must be list"),
        (("iterations",), {}, "iterations must be list"),
        (("iterations", 0, "candidate_scores"), [], "candidate_scores must be dict"),
        (("subset_scores",), [["IO_EVT", 1.0]], "subset_scores must be dict"),
        (("final_model", "terms"), {}, "terms must be list"),
    ],
)
def test_report_json_values_must_have_the_field_type(path, value, message):
    report = pp.run_search(_noisy_ds(), pp.SearchConfig(algorithm="top_down", folds=4))
    data = dataset.to_json(report)
    assert "IO_EVT" in data["iterations"][0]["candidate_scores"]
    with pytest.raises(pp.FormatError, match=message):
        dataset.from_json(pp.SearchReport, edited_json(data, path, value), "r.json")


@pytest.mark.parametrize(
    "path, what",
    [(("seed",), "search report"), (("iterations", 0, "score"), "search iteration")],
)
def test_report_json_refuses_unknown_keys(path, what):
    report = pp.run_search(_noisy_ds(), pp.SearchConfig(algorithm="top_down", folds=4))
    data = edited_json(dataset.to_json(report), path, 1.0)
    with pytest.raises(pp.FormatError, match=f"r.json: unknown {what} keys: {path[-1]}$"):
        dataset.from_json(pp.SearchReport, data, "r.json")


def test_report_json_reads_back_to_the_same_bytes(tmp_path):
    ds = _noisy_ds()
    for algorithm in pp.SEARCH_ALGORITHMS:
        path = tmp_path / f"{algorithm}.json"
        cfg = pp.SearchConfig(algorithm=algorithm, folds=4)
        pp.write_report(pp.run_search(ds, cfg), path)
        text = path.read_text()
        pp.write_report(pp.read_report(path), path)
        assert path.read_text() == text


# Report fields a search could write: names, counts, and CV MAPEs that are
# finite or +inf, as floats, ints or numpy scalars.
_GOOD_SCORE = st.one_of(
    st.floats(allow_nan=False).filter(lambda v: v != -np.inf),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
# a name check_counter_names takes: neither TIME nor FREQ_MHZ, no comma, CR or LF
_GOOD_NAME = st.text(min_size=1, max_size=3).filter(
    lambda n: n not in ("TIME", "FREQ_MHZ") and not set(n) & set(",\r\n")
)
_GOOD_FIELDS = {
    "algorithm": st.text(max_size=4),
    "folds": st.integers(-(2**64), 2**64),
    "fold_seed": st.integers(-(2**64), 2**64) | st.just(np.int64(3)),
    "pool": st.lists(_GOOD_NAME, unique=True, max_size=3),
    "stop_reason": st.text(max_size=4),
    "final_cv_mape_pct": _GOOD_SCORE,
    "subset_scores": st.none() | st.dictionaries(st.text(max_size=3), _GOOD_SCORE, max_size=3),
}
# what a bad caller could pass for any field or step entry
_ODD_VALUE = st.one_of(
    st.sampled_from(
        [np.nan, -np.inf, np.inf, None, True, "1.0", "AB", (), [], {}, ["A", "A"],
         ["TIME"], [""], {1: 1.0}, {None: 2.0}, {"A": np.nan}, {"A": None},
         {"A": True}, {"A": -np.inf}, {"A": 1}, np.float64(np.nan), np.int64(3),
         np.float32(1.5), 10**400, -1]
    ),
    st.floats(),
    st.integers(-(2**64), 2**64),
)
_STEP_KEYS = ("action", "counter", "cv_mape_pct", "candidate_scores")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_report_is_refused_or_reads_back_to_itself(tmp_path_factory, data):
    """A report the constructors accept writes JSON that reads back equal
    to it and writes the same bytes again; a field or step entry that would
    break that (NaN, -inf, a bool or string for a number, a non-str name,
    one string for the pool) is a ValueError from the constructor."""
    fields = {name: data.draw(s, label=name) for name, s in _GOOD_FIELDS.items()}
    scores = data.draw(st.lists(_GOOD_SCORE, min_size=1, max_size=4), label="scores")
    scores.sort(key=float, reverse=True)  # non-increasing, the initial first
    steps = [
        {
            "action": data.draw(st.sampled_from(["add", "remove"])),
            "counter": data.draw(_GOOD_NAME),
            "cv_mape_pct": score,
            "candidate_scores": data.draw(
                st.dictionaries(_GOOD_NAME, _GOOD_SCORE, max_size=3)
            ),
        }
        for score in scores[1:]
    ]
    targets = [None, "final_model", "initial_cv_mape_pct", *fields]
    targets += [(i, key) for i in range(len(steps)) for key in _STEP_KEYS]
    target = data.draw(st.sampled_from(targets), label="odd field")
    odd = data.draw(_ODD_VALUE, label="odd value")
    model = pp.PowerModel(intercept_w=1.0, terms=(("A", 2e-6),))
    fields.update(initial_cv_mape_pct=scores[0], final_model=model)
    if isinstance(target, tuple):
        steps[target[0]][target[1]] = odd
    elif target is not None:
        fields[target] = odd
    try:
        iterations = tuple(pp.SearchIteration(**step) for step in steps)
        report = pp.SearchReport(iterations=iterations, **fields)
    except ValueError:
        assert target is not None  # only an odd value is refused
        return
    path = tmp_path_factory.getbasetemp() / "drawn_report.json"
    pp.write_report(report, path)
    text = path.read_bytes()
    back = pp.read_report(path)
    assert back == report
    pp.write_report(back, path)
    assert path.read_bytes() == text
