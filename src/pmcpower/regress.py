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
formatting rounds to 6 significant digits.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .dataset import (
    FREQ_COL,
    TIME_KEY,
    Dataset,
    SampleRow,
    check_counter_names,
    check_type,
    read_json,
    write_columns,
    write_json,
)
from .errors import FitError, FormatError, ModelError, RankDeficientError

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


@dataclass(frozen=True)
class TrainingMeta:
    """How a model was trained, for audit and reporting."""

    algorithm: str
    folds: int
    cv_mape_pct: float
    train_mape_pct: float

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for name, kind in (
            ("folds", int), ("cv_mape_pct", float), ("train_mape_pct", float)
        ):
            object.__setattr__(self, name, check_type(name, getattr(self, name), kind))


@dataclass(frozen=True)
class PowerModel:
    """Intercept plus (column, coefficient) terms, in watts.

    kind "pmc" names counters; "freq_baseline" has the single term
    FREQ_MHZ, the frequency channel.
    """

    intercept_w: float
    terms: tuple[tuple[str, float], ...]
    kind: str = KIND_PMC
    training: TrainingMeta | None = None

    def __post_init__(self):
        # names and numbers are checked, never cast; a numpy float is stored
        # as a float
        terms = tuple(
            (
                check_type("counter", n, str),
                float(check_type(f"coefficient of {n}", c, float)),
            )
            for n, c in self.terms
        )
        intercept = float(check_type("intercept_w", self.intercept_w, float))
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "intercept_w", intercept)
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        names = [n for n, _ in self.terms]
        if self.kind == KIND_FREQ_BASELINE:
            if names != [FREQ_COL]:
                raise ValueError(
                    f"freq_baseline model must have the single term {FREQ_COL}"
                )
        else:
            check_counter_names(names)
        if not math.isfinite(self.intercept_w) or not all(
            math.isfinite(c) for _, c in self.terms
        ):
            raise ValueError("model coefficients must be finite")

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
            f"{ds.source + ': ' if ds.source else ''}power {ds.power_w[i]:g} W "
            f"below the MAPE zero-guard ({MAPE_ZERO_GUARD_W:g} W) at "
            f"{TIME_KEY}={ds.time_keys[i]} in run {ds.run_ids[i]!r}"
        )


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
        raise FitError("empty dataset")
    check_zero_guard(ds)
    x = design(names, ds.counters, ds.deltas, ds.freq_mhz, intercept=True)
    n, cols = x.shape
    if n < cols:
        raise FitError(f"fewer rows ({n}) than parameters ({cols})")
    beta, _, rank, _ = np.linalg.lstsq(x, ds.power_w, rcond=None)
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
    missing = [n for n in names if n not in ds.counters]
    if missing:
        raise FitError(f"predictors not in dataset: {', '.join(missing)}")
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
    deltas = np.array(row.deltas, dtype=np.uint64)[None, :]
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
    return ValidationResult(
        mape_pct=mape(ds.power_w, predicted),
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


def write_prediction_trace(result: ValidationResult, path) -> None:
    """Per-sample (TIME, RUN, ACTUAL_W, PREDICTED_W) CSV for plotting."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        write_columns(
            f,
            (TIME_KEY, "RUN", "ACTUAL_W", "PREDICTED_W"),
            (
                (result.time_keys, "%s"),
                (result.run_ids, "%s"),
                (result.actual_w, WATTS_SPEC),
                (result.predicted_w, WATTS_SPEC),
            ),
        )


def model_to_dict(model: PowerModel) -> dict:
    out: dict = {
        "kind": model.kind,
        "intercept_w": model.intercept_w,
        "terms": [
            {"counter": n, "coefficient": c} for n, c in model.terms
        ],
    }
    if model.training is not None:
        out["training"] = asdict(model.training)
    return out


def model_from_dict(data: dict, where: str = "model") -> PowerModel:
    try:
        terms = check_type("terms", data["terms"], list)
        training = None
        if data.get("training") is not None:
            t = data["training"]
            training = TrainingMeta(**{f.name: t[f.name] for f in fields(TrainingMeta)})
        return PowerModel(
            intercept_w=data["intercept_w"],
            terms=tuple((t["counter"], t["coefficient"]) for t in terms),
            kind=data["kind"],
            training=training,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad model JSON: {exc}", where) from None


def write_model(model: PowerModel, path) -> None:
    write_json(model_to_dict(model), path)


def read_model(path) -> PowerModel:
    return model_from_dict(read_json(path, "model"), where=str(path))
