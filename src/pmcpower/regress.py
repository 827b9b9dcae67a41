"""Linear power models: least-squares fitting, prediction and accuracy metrics.

A model is ``P = intercept + sum(coef_i * delta_i)`` in watts; the intercept
is the idle draw and each coefficient is watts per counted event.  Fits are
solved through an orthogonal factorisation of the design matrix (SVD via
``numpy.linalg.lstsq``), never by inverting the normal equations: counter
deltas span several orders of magnitude and the normal equations square the
condition number.

Coefficients are kept and serialised at full binary precision; display
formatting rounds to 6 significant digits.
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
# singular-value ratio above which a fit is flagged as ill-conditioned
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


@dataclass(frozen=True)
class PowerModel:
    """Intercept plus (counter, coefficient) terms, in watts.

    kind "pmc" predicts from counter deltas; "freq_baseline" has a single
    FREQ_MHZ term and predicts from the frequency channel alone.
    """

    intercept_w: float
    terms: tuple[tuple[str, float], ...]
    kind: str = KIND_PMC
    training: TrainingMeta | None = None

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((n, float(c)) for n, c in self.terms))
        object.__setattr__(self, "intercept_w", float(self.intercept_w))
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
    return float(mape_rows(a, p[None, :])[0])


def mape_rows(actual: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """``mape(actual, row)`` for every row of the 2-D ``predicted``.

    Each row is summed on its own along the contiguous axis, so a row's
    value does not depend on which other rows share the array.
    """
    guard = np.abs(actual) < MAPE_ZERO_GUARD_W
    if np.any(guard):
        idx = int(np.argmax(guard))
        raise ValueError(f"actual value below zero-guard at sample {idx}")
    err = np.abs(actual - predicted) / np.abs(actual)
    return (100.0 / actual.size) * err.sum(axis=1)


def _solve_ols(design: np.ndarray, y: np.ndarray):
    """SVD least squares with exact-rank-deficiency rejection."""
    n, cols = design.shape
    if n < cols:
        raise FitError(f"fewer rows ({n}) than parameters ({cols})")
    beta, _, rank, svals = np.linalg.lstsq(design, y, rcond=None)
    if rank < cols:
        raise RankDeficientError("rank-deficient design, drop a predictor")
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
    return beta, cond


def _finish_fit(design, y, beta, cond, model):
    resid = y - design @ beta
    diag = FitDiagnostics(
        train_mape_pct=mape(y, design @ beta),
        residual_sse=float(resid @ resid),
        condition_warning=cond > CONDITION_WARN_RATIO,
    )
    if diag.condition_warning:
        log.warning(
            "ill-conditioned fit: condition number %.3g exceeds %.0e",
            cond,
            CONDITION_WARN_RATIO,
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
    if ds.n_rows == 0:
        raise FitError("empty dataset")
    idx = [ds.counters.index(n) for n in names]
    design = np.empty((ds.n_rows, 1 + len(idx)), dtype=np.float64)
    design[:, 0] = 1.0
    design[:, 1:] = ds.deltas[:, idx].astype(np.float64)
    beta, cond = _solve_ols(design, ds.power_w)
    model = PowerModel(
        intercept_w=beta[0],
        terms=tuple(zip(names, beta[1:].tolist())),
        kind=KIND_PMC,
    )
    return _finish_fit(design, ds.power_w, beta, cond, model)


def fit_freq_baseline(ds: Dataset) -> tuple[PowerModel, FitDiagnostics]:
    """One-predictor fit of power against the frequency channel."""
    if ds.freq_mhz is None:
        raise FitError("frequency channel absent")
    if ds.n_rows == 0:
        raise FitError("empty dataset")
    design = np.column_stack([np.ones(ds.n_rows), ds.freq_mhz])
    beta, cond = _solve_ols(design, ds.power_w)
    model = PowerModel(
        intercept_w=beta[0],
        terms=((FREQ_COL, float(beta[1])),),
        kind=KIND_FREQ_BASELINE,
    )
    return _finish_fit(design, ds.power_w, beta, cond, model)


def predict(model: PowerModel, row: SampleRow) -> float:
    """Apply the model to one sample row."""
    if model.kind == KIND_FREQ_BASELINE:
        if row.freq_mhz is None:
            raise ModelError("row has no frequency channel")
        return model.intercept_w + model.terms[0][1] * row.freq_mhz
    value = model.intercept_w
    for name, coef in model.terms:
        try:
            value += coef * row.delta(name)
        except KeyError:
            raise ModelError(f"counter {name!r} missing from row") from None
    return value


def predict_dataset(model: PowerModel, ds: Dataset) -> np.ndarray:
    """Vectorised prediction for every row; the CLI's single predict path."""
    if model.kind == KIND_FREQ_BASELINE:
        if ds.freq_mhz is None:
            raise ModelError("dataset has no frequency channel")
        return model.intercept_w + model.terms[0][1] * ds.freq_mhz
    missing = [n for n in model.counter_names if n not in ds.counters]
    if missing:
        raise ModelError(f"counters missing from dataset: {', '.join(missing)}")
    idx = [ds.counters.index(n) for n in model.counter_names]
    coefs = np.array([c for _, c in model.terms], dtype=np.float64)
    return model.intercept_w + ds.deltas[:, idx].astype(np.float64) @ coefs


def validate(model: PowerModel, ds: Dataset) -> ValidationResult:
    """Score the model on a dataset and keep the per-sample trace."""
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


def format_watts(v: float) -> str:
    """Display formatting for watt columns: 6 significant digits."""
    return f"{v:.6g}"


def write_prediction_trace(result: ValidationResult, path) -> None:
    """Per-sample (TIME, RUN, ACTUAL_W, PREDICTED_W) CSV for plotting."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        write_columns(
            f,
            (TIME_KEY, "RUN", "ACTUAL_W", "PREDICTED_W"),
            (
                (result.time_keys, str),
                (result.run_ids, str),
                (result.actual_w, format_watts),
                (result.predicted_w, format_watts),
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
        out["training"] = {
            "algorithm": model.training.algorithm,
            "folds": model.training.folds,
            "cv_mape_pct": model.training.cv_mape_pct,
            "train_mape_pct": model.training.train_mape_pct,
        }
    return out


def model_from_dict(data: dict, where: str = "model") -> PowerModel:
    try:
        kind = data["kind"]
        if kind not in MODEL_KINDS:
            raise FormatError(f"unknown model kind {kind!r}", where)
        terms = tuple(
            (t["counter"], float(t["coefficient"])) for t in data["terms"]
        )
        names = [n for n, _ in terms]
        if len(set(names)) != len(names):
            raise FormatError("duplicate counter in model terms", where)
        training = None
        if data.get("training") is not None:
            t = data["training"]
            training = TrainingMeta(
                algorithm=t["algorithm"],
                folds=int(t["folds"]),
                cv_mape_pct=float(t["cv_mape_pct"]),
                train_mape_pct=float(t["train_mape_pct"]),
            )
        return PowerModel(
            intercept_w=float(data["intercept_w"]),
            terms=terms,
            kind=kind,
            training=training,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad model JSON: {exc}", where) from None


def write_model(model: PowerModel, path) -> None:
    write_json(model_to_dict(model), path)


def read_model(path) -> PowerModel:
    return model_from_dict(read_json(path, "model"), where=str(path))
