"""Linear power models: least-squares fitting, prediction and accuracy metrics.

A model is ``P = intercept + sum(coef_i * delta_i)`` in watts; the intercept
is the idle draw and each coefficient is watts per counted event.  Fits are
solved through an orthogonal factorisation of the design matrix (SVD via
``numpy.linalg.lstsq``), never by inverting the normal equations: counter
deltas span several orders of magnitude and the normal equations square the
condition number.

Fitting, prediction and datagen share one path: ``design`` builds the block
X of a model's columns, where FREQ_MHZ is the frequency channel, ``_fit``
solves ``[1 | X]`` and ``linear_power`` is ``intercept + X @ coefs``.

Coefficients are kept and serialised at full binary precision; display
formatting rounds to 6 significant digits.  The model and its training
block declare their JSON keys as ``dataset.json_field``s.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import (
    FREQ_COL,
    TIME_KEY,
    Dataset,
    SampleRow,
    check_counter_names,
    check_fields,
    check_keys,
    check_type,
    check_value,
    from_json,
    json_field,
    read_json,
    to_json,
    with_source,
    write_columns,
    write_json,
)
from .errors import FitError, ModelError, RankDeficientError

log = logging.getLogger(__name__)

KIND_PMC = "pmc"
KIND_FREQ_BASELINE = "freq_baseline"
MODEL_KINDS = (KIND_PMC, KIND_FREQ_BASELINE)
ALGORITHMS = ("bottom_up", "top_down", "exhaustive")

# |actual| below this is treated as a measurement error, not skipped
MAPE_ZERO_GUARD_W = 1e-9
# singular-value ratio of the design with its columns scaled to unit norm
# above which a fit is flagged as ill-conditioned
CONDITION_WARN_RATIO = 1e8
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class TrainingMeta:
    """How a model was trained, for audit and reporting."""

    json_name = "model training"

    algorithm: str = json_field(str)
    folds: int = json_field(int)
    cv_mape_pct: float = json_field(float)
    train_mape_pct: float = json_field(float)

    def __post_init__(self):
        check_fields(self)
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


def _terms(name: str, value, where=None) -> tuple[tuple[str, float], ...]:
    """(counter, coefficient) pairs, JSON objects with those keys."""
    if where is not None:
        for t in check_type(name, value, list):
            check_keys(t, ("counter", "coefficient"), "model term", where)
        value = [(t.get("counter"), t.get("coefficient")) for t in value]
    if not isinstance(value, (tuple, list)) or not all(
        isinstance(t, (tuple, list)) and len(t) == 2 for t in value
    ):
        raise ValueError(f"{name} must be (counter, coefficient) pairs, got {value!r}")
    return tuple(
        (check_type("counter", n, str), check_value(float, f"coefficient of {n}", c))
        for n, c in value
    )


def _terms_json(terms) -> list:
    return [{"counter": n, "coefficient": c} for n, c in terms]


@dataclass(frozen=True, kw_only=True)
class PowerModel:
    """Intercept plus (column, coefficient) terms, in watts.

    kind "pmc" names counters; "freq_baseline" has the single term
    FREQ_MHZ, the frequency channel.  Every number is a finite float.
    """

    json_name = "model"

    kind: str = json_field(str, default=KIND_PMC)
    intercept_w: float = json_field(float)
    terms: tuple[tuple[str, float], ...] = json_field(_terms, write=_terms_json)
    training: TrainingMeta | None = json_field(TrainingMeta, default=None)

    def __post_init__(self):
        check_fields(self)
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == KIND_FREQ_BASELINE:
            if self.counter_names != (FREQ_COL,):
                raise ValueError(
                    f"freq_baseline model must have the single term {FREQ_COL}"
                )
        else:
            check_counter_names(self.counter_names)

    @property
    def counter_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.terms)

    def describe(self) -> str:
        """Human-readable equation, 6 significant digits."""
        parts = [f"{self.intercept_w:.6g}"]
        for name, coef in self.terms:
            sign = "-" if coef < 0 else "+"
            parts.append(f"{sign} {abs(coef):.6g}*{name}")
        return "P[W] = " + " ".join(parts)


@dataclass(frozen=True)
class FitDiagnostics:
    train_mape_pct: float
    residual_sse: float
    condition_warning: bool


@dataclass(frozen=True)
class ValidationResult:
    """Test MAPE plus the per-sample prediction table (for phase plots)."""

    mape_pct: float
    time_keys: np.ndarray
    run_ids: tuple[str, ...]
    actual_w: np.ndarray
    predicted_w: np.ndarray


def mape(actual, predicted) -> float:
    """Mean absolute percentage error: (100/n) * sum(|a_i - p_i| / |a_i|).

    Samples with |actual| below the zero-guard are an error, not skipped;
    silently dropping them would bias the score.
    """
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape or a.ndim != 1:
        raise ValueError(f"length mismatch: {a.shape} vs {p.shape}")
    if a.size == 0:
        raise ValueError("mape of empty sequences")
    guard = np.abs(a) < MAPE_ZERO_GUARD_W
    if np.any(guard):
        raise ValueError(f"actual value below zero-guard at sample {int(np.argmax(guard))}")
    return float(mape_rows(a, p[None, :])[0])


def mape_rows(actual: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """``mape(actual, row)`` for every row of the 2-D ``predicted``; the
    caller has guarded ``actual`` (a dataset's by ``check_zero_guard``).

    Each row is summed on its own along the contiguous axis, so a row's
    value does not depend on which other rows share the array.
    """
    err = actual - predicted  # |err| / |actual|, in place: one temporary
    np.abs(err, out=err)
    err /= np.abs(actual)
    return (100.0 / actual.size) * err.sum(axis=1)


def check_zero_guard(ds: Dataset) -> None:
    """A ValueError naming the TIME key and run of the first row whose
    |power| is below the zero-guard, which a MAPE would divide by."""
    low = np.flatnonzero(np.abs(ds.power_w) < MAPE_ZERO_GUARD_W)
    if low.size:
        i = low[0]
        raise ValueError(
            with_source(
                ds,
                f"power {ds.power_w[i]:g} W below the MAPE zero-guard "
                f"({MAPE_ZERO_GUARD_W:g} W) at {TIME_KEY}={ds.time_keys[i]} "
                f"in run {ds.run_ids[i]!r}",
            )
        )


def rank_cutoff(n_rows, n_params):
    """The one rank rule of every fit: a design is full rank when its
    s_min > rank_cutoff * s_max.  It is numpy ``lstsq``'s own default
    rcond, eps * max(rows, parameters); arrays broadcast."""
    return _EPS * np.maximum(n_rows, n_params)


def design(names, counters, deltas, freq_mhz=None, intercept=False) -> np.ndarray:
    """The float64 (rows x terms) block of the named columns: FREQ_COL is
    ``freq_mhz`` and any other name that counter's ``deltas`` column (the
    caller has checked each is there).  A prediction block is column-major
    and the fit's ``[1 | X]`` (``intercept``) row-major: the layout picks
    the BLAS kernel of ``@``, so it fixes the bits of every result."""
    lead = int(intercept)
    x = np.empty((len(deltas), lead + len(names)), order="C" if lead else "F")
    x[:, :lead] = 1.0
    for j, name in enumerate(names, lead):
        x[:, j] = freq_mhz if name == FREQ_COL else deltas[:, counters.index(name)]
    return x


def linear_power(model: PowerModel, counters, deltas, freq_mhz=None) -> np.ndarray:
    """The one prediction expression, ``intercept + X @ coefs``, with X
    the model's ``design`` block of the given columns."""
    x = design(model.counter_names, counters, deltas, freq_mhz)
    coefs = np.array([c for _, c in model.terms], dtype=np.float64)
    return model.intercept_w + x @ coefs


def _fit(ds: Dataset, names: Sequence[str], kind: str):
    """SVD least squares of power on ``[1 | design(names)]``, rejecting an
    exactly rank-deficient design, and the fit's diagnostics."""
    if ds.n_rows == 0:
        raise FitError(with_source(ds, "empty dataset"))
    check_zero_guard(ds)
    x = design(names, ds.counters, ds.deltas, ds.freq_mhz, intercept=True)
    n, cols = x.shape
    if n < cols:
        raise FitError(f"fewer rows ({n}) than parameters ({cols})")
    beta, _, rank, _ = np.linalg.lstsq(x, ds.power_w, rcond=rank_cutoff(n, cols))
    if rank < cols:
        raise RankDeficientError("rank-deficient design, drop a predictor")
    # counts dwarf the intercept column, so only the column-scaled design's
    # condition number says whether the fit itself is ill-conditioned; its
    # k x k R factor, scaled to unit-norm columns, has the same one
    r = np.linalg.qr(x, mode="r")
    svals = np.linalg.svd(r / np.linalg.norm(r, axis=0), compute_uv=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
    fitted = x @ beta
    resid = ds.power_w - fitted
    diag = FitDiagnostics(
        train_mape_pct=mape(ds.power_w, fitted),
        residual_sse=float(resid @ resid),
        condition_warning=cond > CONDITION_WARN_RATIO,
    )
    if diag.condition_warning:
        log.warning(
            "ill-conditioned fit: condition number %.3g exceeds %.0e",
            cond,
            CONDITION_WARN_RATIO,
        )
    model = PowerModel(
        intercept_w=beta[0], terms=tuple(zip(names, beta[1:].tolist())), kind=kind
    )
    return model, diag


def fit_ols(
    ds: Dataset, predictors: Sequence[str]
) -> tuple[PowerModel, FitDiagnostics]:
    """Fit power against the given counter deltas plus an intercept."""
    names = check_counter_names(predictors)
    missing = ", ".join(n for n in names if n not in ds.counters)
    if missing:
        raise FitError(with_source(ds, f"predictors not in dataset: {missing}"))
    return _fit(ds, names, KIND_PMC)


def fit_freq_baseline(ds: Dataset) -> tuple[PowerModel, FitDiagnostics]:
    """The linear fit of power on the one column FREQ_COL, the frequency
    channel."""
    if ds.freq_mhz is None:
        raise FitError("frequency channel absent")
    return _fit(ds, (FREQ_COL,), KIND_FREQ_BASELINE)


def _check_columns(model: PowerModel, counters, has_freq: bool, where: str) -> None:
    """A ModelError unless ``where`` has every column the model names."""
    if model.kind == KIND_FREQ_BASELINE and not has_freq:
        raise ModelError(f"{where} has no frequency channel")
    missing = [n for n in model.counter_names if n != FREQ_COL and n not in counters]
    if missing:
        raise ModelError(f"counters missing from {where}: {', '.join(missing)}")


def predict(model: PowerModel, row: SampleRow) -> float:
    """``predict_dataset``'s expression on one sample row."""
    _check_columns(model, row.counters, row.freq_mhz is not None, "row")
    deltas = np.array([row.deltas])
    freq = None if row.freq_mhz is None else np.array([row.freq_mhz])
    return float(linear_power(model, row.counters, deltas, freq)[0])


def predict_dataset(model: PowerModel, ds: Dataset) -> np.ndarray:
    """Vectorised prediction for every row; the CLI's single predict path."""
    _check_columns(model, ds.counters, ds.freq_mhz is not None, "dataset")
    return linear_power(model, ds.counters, ds.deltas, ds.freq_mhz)


def validate(model: PowerModel, ds: Dataset) -> ValidationResult:
    """Score the model on a dataset and keep the per-sample trace."""
    check_zero_guard(ds)
    predicted = predict_dataset(model, ds)
    try:
        score = mape(ds.power_w, predicted)
    except ValueError as exc:  # an empty dataset, the one refusal left
        raise ValueError(with_source(ds, str(exc))) from None
    return ValidationResult(
        mape_pct=score,
        time_keys=ds.time_keys,
        run_ids=ds.run_ids,
        actual_w=ds.power_w,
        predicted_w=predicted,
    )


# ---------------------------------------------------------------------------
# prediction-trace CSV (display precision) and model JSON (full precision)
# ---------------------------------------------------------------------------


WATTS_SPEC = "%.6g"  # display formatting for watt columns: 6 significant digits


def format_watts(v: float) -> str:
    """``v`` as a display watt cell, ``WATTS_SPEC``."""
    return WATTS_SPEC % v


def write_predictions(f, time_keys, run_ids, watts: dict[str, np.ndarray]) -> None:
    """The one per-sample prediction CSV, written to the open text file
    ``f``: TIME, RUN, then one ``WATTS_SPEC`` column per ``watts`` entry,
    its header name first."""
    columns = [(time_keys, "%s"), (run_ids, "%s")]
    columns += [(w, WATTS_SPEC) for w in watts.values()]
    write_columns(f, (TIME_KEY, "RUN", *watts), columns)


def write_prediction_trace(result: ValidationResult, path) -> None:
    """Per-sample (TIME, RUN, ACTUAL_W, PREDICTED_W) CSV for plotting."""
    watts = {"ACTUAL_W": result.actual_w, "PREDICTED_W": result.predicted_w}
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        write_predictions(f, result.time_keys, result.run_ids, watts)


def model_to_dict(model: PowerModel) -> dict:
    return to_json(model)


def model_from_dict(data: dict, where: str = "model") -> PowerModel:
    """The PowerModel a JSON object describes, read by
    ``dataset.from_json``; a term's keys are counter and coefficient."""
    return from_json(PowerModel, data, where)


def write_model(model: PowerModel, path) -> None:
    write_json(model_to_dict(model), path)


def read_model(path) -> PowerModel:
    return model_from_dict(read_json(path, "model"), where=str(path))
