"""Model fitting, prediction and MAPE against hand-worked values."""

import dataclasses
import logging

import numpy as np
import pytest

import pmcpower as pp
from pmcpower.regress import CONDITION_WARN_RATIO

from conftest import edited_json, make_dataset, linear_dataset
from ref_impl import ref_mape


def _ds(deltas, power, counters=None, freq=None):
    deltas = np.asarray(deltas, dtype=np.uint64)
    if deltas.ndim == 1:
        deltas = deltas[:, None]
    n, p = deltas.shape
    counters = counters or tuple(f"X{i}" for i in range(p))
    return pp.Dataset(
        counters=counters,
        time_keys=np.arange(1, n + 1, dtype=np.uint64),
        run_ids=("r0",) * n,
        power_w=np.asarray(power, dtype=np.float64),
        deltas=deltas,
        freq_mhz=None if freq is None else np.asarray(freq, dtype=np.float64),
    )


def test_hand_fit_exact_line():
    model, diag = pp.fit_ols(_ds([1, 2, 3], [2.0, 4.0, 6.0]), ["X0"])
    assert model.intercept_w == pytest.approx(0.0, abs=1e-12)
    assert model.terms[0][1] == pytest.approx(2.0, rel=1e-12)
    assert diag.residual_sse == pytest.approx(0.0, abs=1e-20)
    assert diag.train_mape_pct == pytest.approx(0.0, abs=1e-10)


def test_intercept_only_fit_is_the_mean():
    ds = _ds([5, 9, 2, 7], [1.0, 2.0, 3.0, 4.0])
    model, diag = pp.fit_ols(ds, ())
    assert model.terms == ()
    assert model.intercept_w == pytest.approx(2.5, rel=1e-14)
    assert diag.residual_sse == pytest.approx(5.0, rel=1e-12)


def test_duplicate_column_is_rank_deficient():
    ds = _ds([[1, 1], [2, 2], [3, 3], [4, 4]], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(pp.RankDeficientError, match="drop a predictor"):
        pp.fit_ols(ds, ["X0", "X1"])


def test_zero_column_is_rank_deficient():
    ds = _ds([0, 0, 0], [1.0, 2.0, 3.0])
    with pytest.raises(pp.RankDeficientError):
        pp.fit_ols(ds, ["X0"])


def test_rank_deficient_is_a_fit_error_subclass():
    assert issubclass(pp.RankDeficientError, pp.FitError)


def test_underdetermined_fit_rejected():
    ds = _ds([[1, 2]], [1.0], counters=("A", "B"))
    with pytest.raises(pp.FitError, match="fewer rows"):
        pp.fit_ols(ds, ["A", "B"])


def test_unknown_predictor_rejected():
    ds = _ds([1, 2], [1.0, 2.0])
    with pytest.raises(pp.FitError, match="predictors not in dataset: NOPE"):
        pp.fit_ols(ds, ["NOPE"])


def test_condition_warning_on_near_collinear_columns(caplog):
    n = 50
    rng = np.random.default_rng(0)
    a = rng.integers(10**8, 10**9, size=n).astype(np.uint64)
    b = a + rng.integers(0, 2, size=n).astype(np.uint64)  # off by <= 1 count
    ds = _ds(np.column_stack([a, b]), rng.uniform(1, 2, size=n))
    with caplog.at_level(logging.WARNING, logger="pmcpower.regress"):
        _, diag = pp.fit_ols(ds, ["X0", "X1"])
    assert diag.condition_warning
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "ill-conditioned fit: condition number" in caplog.text
    caplog.clear()
    small = _ds(
        rng.integers(10**3, 10**4, size=n).astype(np.uint64),
        rng.uniform(1, 2, size=n),
    )
    with caplog.at_level(logging.WARNING, logger="pmcpower.regress"):
        _, diag2 = pp.fit_ols(small, ["X0"])
    assert not diag2.condition_warning
    assert caplog.records == []
    assert CONDITION_WARN_RATIO == 1e8


def test_no_condition_warning_for_one_counter_at_pmc_scale(caplog):
    # counts of 1e7-1e9 put the unscaled [1 | X] near a condition number of
    # 1e9, but that is column scale, not ill-conditioning: scaled to unit
    # columns the design is well conditioned, and so is the fit
    n = 200
    rng = np.random.default_rng(7)
    x = rng.integers(10**7, 10**9, size=n).astype(np.uint64)
    ds = _ds(x, 2.0 + 1e-9 * x.astype(np.float64) + rng.uniform(0.0, 0.01, size=n))
    design = np.column_stack([np.ones(n), x.astype(np.float64)])
    assert np.linalg.cond(design) > CONDITION_WARN_RATIO
    with caplog.at_level(logging.WARNING, logger="pmcpower.regress"):
        _, diag = pp.fit_ols(ds, ["X0"])
    assert not diag.condition_warning
    assert caplog.records == []


def test_mape_hand_value():
    got = pp.mape([1.0, 2.0, 4.0], [1.1, 1.8, 4.4])
    assert got == pytest.approx(10.0, rel=1e-12)
    assert got == pytest.approx(
        ref_mape([1.0, 2.0, 4.0], [1.1, 1.8, 4.4]), rel=1e-14
    )


def test_mape_zero_guard():
    with pytest.raises(ValueError, match="zero-guard at sample 1"):
        pp.mape([1.0, 0.0, 2.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="zero-guard at sample 0"):
        pp.mape([5e-10], [1.0])


def test_mape_shape_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        pp.mape([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="empty"):
        pp.mape([], [])


def test_one_counter_prediction_exact_value(one_counter_model):
    """alpha + beta*100000 with the published constants, as exact doubles."""
    row = pp.SampleRow(
        time_key=1, run_id="r", counters=("C16",), deltas=(100000,), power_w=3.0
    )
    assert pp.predict(one_counter_model, row) == 3.056755
    ds = _ds([100000], [3.0], counters=("C16",))
    assert pp.predict_dataset(one_counter_model, ds)[0] == 3.056755


def test_freq_baseline_prediction_exact_value():
    model = pp.PowerModel(
        intercept_w=0.000445617,
        terms=(("FREQ_MHZ", 0.0356494),),
        kind="freq_baseline",
    )
    row = pp.SampleRow(
        time_key=1,
        run_id="r",
        counters=(),
        deltas=(),
        power_w=1.0,
        freq_mhz=80.0,
    )
    assert pp.predict(model, row) == 2.852397617


def test_freq_baseline_two_point_fit():
    ds = _ds([[0], [0]], [1.43, 2.85], freq=[40.0, 80.0])
    model, diag = pp.fit_freq_baseline(ds)
    assert model.kind == "freq_baseline"
    assert model.intercept_w == pytest.approx(0.01, abs=1e-10)
    assert model.terms[0][1] == pytest.approx(0.0355, rel=1e-10)
    assert diag.residual_sse == pytest.approx(0.0, abs=1e-16)
    row = pp.SampleRow(
        time_key=9, run_id="r", counters=(), deltas=(), power_w=1.0, freq_mhz=60.0
    )
    assert pp.predict(model, row) == pytest.approx(2.14, rel=1e-9)


def test_freq_baseline_requires_channel():
    ds = _ds([1, 2], [1.0, 2.0])
    with pytest.raises(pp.FitError, match="frequency channel absent"):
        pp.fit_freq_baseline(ds)
    model = pp.PowerModel(
        intercept_w=0.0, terms=(("FREQ_MHZ", 1.0),), kind="freq_baseline"
    )
    with pytest.raises(pp.ModelError, match="no frequency channel"):
        pp.predict_dataset(model, ds)


def test_predict_row_and_dataset_agree():
    # one expression; BLAS sums a lone row (a dot) and a block (a gemv) in
    # its own order, so they agree to rounding, not bit for bit
    ds = make_dataset(50, 4, seed=9)
    model, _ = pp.fit_ols(ds, ["C2", "C4"])
    vec = pp.predict_dataset(model, ds)
    for i in range(ds.n_rows):
        assert pp.predict(model, ds.row(i)) == pytest.approx(vec[i], rel=1e-12)


def test_prediction_and_fit_keep_their_bits():
    # artifacts stay byte-identical only while the prediction block stays
    # column-major, as numpy's column gather gives it, and the fit's
    # [1 | X] row-major: another layout moves @ to another BLAS kernel
    ds = make_dataset(500, 6, seed=2)
    model, diag = pp.fit_ols(ds, ["C5", "C1", "C3"])
    coefs = np.array([c for _, c in model.terms])
    gathered = np.asfortranarray(ds.deltas[:, [4, 0, 2]], dtype=np.float64)
    want = model.intercept_w + gathered @ coefs
    assert np.array_equal(pp.predict_dataset(model, ds), want)
    design = np.ones((ds.n_rows, 4))  # row-major, unlike np.column_stack's
    design[:, 1:] = gathered
    fitted = design @ np.array([model.intercept_w, *coefs])
    assert diag.train_mape_pct == pp.mape(ds.power_w, fitted)


def test_freq_baseline_is_the_linear_fit_on_the_frequency_column():
    # the same values as a counter column and as FREQ_MHZ fit, score and
    # predict alike, bit for bit
    ds = make_dataset(40, 2, seed=5)
    deltas = ds.deltas % 1000 + 1
    freq = deltas[:, 1].astype(np.float64)
    ds = dataclasses.replace(ds, deltas=deltas, freq_mhz=freq)
    base, base_diag = pp.fit_freq_baseline(ds)
    ols, ols_diag = pp.fit_ols(ds, ["C2"])
    assert base.kind == "freq_baseline" and base.counter_names == ("FREQ_MHZ",)
    assert (base.intercept_w, base.terms[0][1]) == (ols.intercept_w, ols.terms[0][1])
    assert base_diag == ols_diag
    assert np.array_equal(pp.predict_dataset(base, ds), pp.predict_dataset(ols, ds))
    assert pp.predict(base, ds.row(3)) == pp.predict(ols, ds.row(3))


def test_predict_missing_counter_errors():
    model = pp.PowerModel(intercept_w=1.0, terms=(("ZZ", 1.0),))
    ds = make_dataset(5, 2)
    with pytest.raises(pp.ModelError, match="ZZ"):
        pp.predict_dataset(model, ds)
    with pytest.raises(pp.ModelError, match="ZZ"):
        pp.predict(model, ds.row(0))


def test_validate_returns_trace():
    ds = make_dataset(20, 2, seed=4)
    model, diag = pp.fit_ols(ds, ["C1"])
    res = pp.validate(model, ds)
    assert res.mape_pct == pytest.approx(diag.train_mape_pct, rel=1e-12)
    assert len(res.predicted_w) == 20
    assert res.run_ids == ds.run_ids
    assert np.array_equal(res.time_keys, ds.time_keys)


def test_describe_strings(one_counter_model):
    assert one_counter_model.describe() == "P[W] = 2.59799 + 4.58765e-06*C16"
    neg = pp.PowerModel(intercept_w=1.5, terms=(("A", -2e-06),))
    assert neg.describe() == "P[W] = 1.5 - 2e-06*A"


def test_model_validation():
    with pytest.raises(ValueError):
        pp.PowerModel(intercept_w=float("nan"), terms=())
    with pytest.raises(ValueError):
        pp.PowerModel(intercept_w=1.0, terms=(("TIME", 1.0),))
    with pytest.raises(ValueError, match="single term"):
        pp.PowerModel(intercept_w=1.0, terms=(("A", 1.0),), kind="freq_baseline")
    with pytest.raises(ValueError, match="unknown model kind"):
        pp.PowerModel(intercept_w=1.0, terms=(), kind="ols")
    with pytest.raises(ValueError, match="unknown algorithm"):
        pp.TrainingMeta(
            algorithm="forward", folds=10, cv_mape_pct=1.0, train_mape_pct=1.0
        )
    # each used to be accepted, and write_model then failed: a NaN or +-inf
    # MAPE as "not JSON compliant", a dict training block in asdict
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="cv_mape_pct must be finite"):
            pp.TrainingMeta("bottom_up", 4, bad, 1.0)
        with pytest.raises(ValueError, match="train_mape_pct must be finite"):
            pp.TrainingMeta("bottom_up", 4, 1.0, bad)
        with pytest.raises(ValueError, match="coefficient of A must be finite"):
            pp.PowerModel(intercept_w=1.0, terms=(("A", bad),))
    training = {"algorithm": "bottom_up", "folds": 4, "cv_mape_pct": 1.0, "train_mape_pct": 1.0}
    with pytest.raises(ValueError, match="^training must be TrainingMeta, got {"):
        pp.PowerModel(intercept_w=1.0, terms=(), training=training)
    # and these raised a TypeError, not naming the field
    for terms in (None, 5, (("A",),), [("A", 1.0, 2.0)]):
        with pytest.raises(ValueError, match="^terms must be .counter, coefficient. pairs"):
            pp.PowerModel(intercept_w=1.0, terms=terms)


def test_model_json_round_trip_full_precision(tmp_path):
    model = pp.PowerModel(
        intercept_w=2.5979900000000001,
        terms=(("C16", 4.58765e-06), ("C7", 0.1 + 0.2)),
        training=pp.TrainingMeta(
            algorithm="bottom_up",
            folds=10,
            cv_mape_pct=1.2345678901234567,
            train_mape_pct=0.9,
        ),
    )
    path = tmp_path / "m.json"
    pp.write_model(model, path)
    back = pp.read_model(path)
    assert back == model  # bit-exact floats, training meta included
    assert back.terms[1][1] == 0.30000000000000004


def test_model_json_rejections(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(pp.FormatError, match="bad model JSON"):
        pp.read_model(path)
    with pytest.raises(pp.FormatError, match="unknown model kind"):
        pp.model_from_dict({"kind": "nn", "intercept_w": 1.0, "terms": []})
    with pytest.raises(pp.FormatError, match="duplicate counter"):
        pp.model_from_dict(
            {
                "kind": "pmc",
                "intercept_w": 1.0,
                "terms": [
                    {"counter": "A", "coefficient": 1.0},
                    {"counter": "A", "coefficient": 2.0},
                ],
            }
        )
    with pytest.raises(pp.FormatError, match="bad model JSON"):
        pp.model_from_dict({"intercept_w": 1.0})


_GOOD_MODEL = {
    "kind": "pmc",
    "intercept_w": 1.5,
    "terms": [{"counter": "A", "coefficient": 2e-06}],
    "training": {
        "algorithm": "top_down",
        "folds": 10,
        "cv_mape_pct": 1.25,
        "train_mape_pct": 1.0,
    },
}


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("intercept_w",), "1.5", "intercept_w must be float"),
        (("intercept_w",), True, "intercept_w must be float"),
        (("terms", 0, "coefficient"), True, "coefficient of A must be float"),
        (("terms", 0, "coefficient"), "2e-06", "coefficient of A must be float"),
        (("terms", 0, "counter"), 7, "counter must be str"),
        (("training", "folds"), 2.5, "folds must be int"),
        (("training", "folds"), True, "folds must be int"),
        (("training", "cv_mape_pct"), "1.25", "cv_mape_pct must be float"),
        (("training", "train_mape_pct"), False, "train_mape_pct must be float"),
        (("terms",), {}, "terms must be list"),
        (("terms",), "A", "terms must be list"),
    ],
)
def test_model_json_values_must_have_the_field_type(path, value, message):
    # a value is checked, never cast: "1.5", true and 2.5 folds used to load
    # as 1.5, 1.0 and 2, and "terms": {} as an intercept-only model
    with pytest.raises(pp.FormatError, match=f"bad model JSON: {message}"):
        pp.model_from_dict(edited_json(_GOOD_MODEL, path, value))


def test_model_json_float_fields_take_integers(tmp_path):
    data = edited_json(_GOOD_MODEL, ("intercept_w",), 2)
    data = edited_json(data, ("terms", 0, "coefficient"), 0)
    model = pp.model_from_dict(data)
    assert (model.intercept_w, model.terms) == (2.0, (("A", 0.0),))
    assert type(model.intercept_w) is float
    # and a file write_model wrote reads back to the same bytes
    path = tmp_path / "m.json"
    pp.write_model(pp.model_from_dict(_GOOD_MODEL), path)
    text = path.read_text()
    pp.write_model(pp.read_model(path), path)
    assert path.read_text() == text


def test_model_json_keys_are_absent_only_where_the_field_has_a_default():
    # the gen spec's rule, now the model's: "kind" may be absent, meaning pmc
    data = {"intercept_w": 1.5, "terms": [{"counter": "A", "coefficient": 2e-06}]}
    assert pp.model_from_dict(data) == pp.PowerModel(intercept_w=1.5, terms=(("A", 2e-06),))
    with pytest.raises(pp.FormatError, match="bad model JSON: .*missing .*'terms'"):
        pp.model_from_dict({"kind": "pmc", "intercept_w": 1.5})
    # null reads as +inf in a report score only: a null training block, which
    # no writer wrote, used to read as no training; an absent term key reads
    # as None, which no term rule takes
    with pytest.raises(pp.FormatError, match="model training must be dict, got None"):
        pp.model_from_dict({**_GOOD_MODEL, "training": None})
    with pytest.raises(pp.FormatError, match="bad model JSON: counter must be str, got None"):
        pp.model_from_dict(edited_json(_GOOD_MODEL, ("terms", 0), {"coefficient": 1.0}))


@pytest.mark.parametrize(
    "path, what",
    [
        (("intercept",), "model"),
        (("terms", 0, "coef"), "model term"),
        (("training", "seed"), "model training"),
    ],
)
def test_model_json_refuses_unknown_keys(path, what):
    # a stray key next to the real ones used to be ignored
    with pytest.raises(pp.FormatError, match=f"m.json: unknown {what} keys: {path[-1]}$"):
        pp.model_from_dict(edited_json(_GOOD_MODEL, path, 1.0), where="m.json")


def test_fit_of_an_empty_dataset_names_its_source():
    ds = dataclasses.replace(make_dataset(0, 1), source="empty.csv")
    with pytest.raises(pp.FitError, match="^empty.csv: empty dataset$"):
        pp.fit_ols(ds, ["C1"])


def test_rank_cutoff_is_the_lstsq_default():
    # the final fit passes rank_cutoff as rcond; numpy's default is the same
    rng = np.random.default_rng(3)
    for n, k in ((40, 3), (5, 5), (30, 8)):
        x = rng.standard_normal((n, k))
        x[:, -1] = x[:, 0] * 2.0 + 1e-14 * rng.standard_normal(n)  # nearly deficient
        y = rng.standard_normal(n)
        assert pp.regress.rank_cutoff(n, k) == np.finfo(np.float64).eps * max(n, k)
        ours = np.linalg.lstsq(x, y, rcond=pp.regress.rank_cutoff(n, k))
        default = np.linalg.lstsq(x, y, rcond=None)
        assert np.array_equal(ours[0], default[0]) and ours[2] == default[2]


def test_prediction_trace_display_precision(tmp_path):
    res = pp.ValidationResult(
        mape_pct=0.0,
        time_keys=np.array([7], dtype=np.uint64),
        run_ids=("bench",),
        actual_w=np.array([2.852397617]),
        predicted_w=np.array([2.852397617]),
    )
    path = tmp_path / "trace.csv"
    pp.write_prediction_trace(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "TIME,RUN,ACTUAL_W,PREDICTED_W"
    assert lines[1] == "7,bench,2.8524,2.8524"
    assert pp.format_watts(2.852397617) == "2.8524"
    assert pp.format_watts(3.056755) == "3.05675"


def test_noiseless_fit_recovers_generator_model():
    true = pp.PowerModel(
        intercept_w=2.59799, terms=(("C16", 4.58765e-06),)
    )
    ds = linear_dataset(true, 400, {"C16": (0, 300000)}, seed=5)
    model, diag = pp.fit_ols(ds, ["C16"])
    assert model.intercept_w == pytest.approx(2.59799, rel=1e-9)
    assert model.terms[0][1] == pytest.approx(4.58765e-06, rel=1e-9)
    assert diag.train_mape_pct == pytest.approx(0.0, abs=1e-9)


def test_mape_under_one_percent_noise_matches_folded_normal(rng):
    """Multiplicative N(0, 1%) noise gives MAPE near 100*0.01*sqrt(2/pi)."""
    truth = rng.uniform(1.0, 5.0, size=10000)
    measured = truth * (1.0 + 0.01 * rng.standard_normal(10000))
    got = pp.mape(measured, truth)
    assert got == pytest.approx(0.798, abs=0.1)
