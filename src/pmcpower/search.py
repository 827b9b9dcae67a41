"""Counter-subset selection by greedy search scored with k-fold CV MAPE.

Two greedy strategies are provided: bottom-up (start small, add the counter
whose inclusion lowers the cross-validated MAPE the most) and top-down
(start from a full set, remove the counter whose absence lowers it the
most), plus an exhaustive search over all subsets that serves as a
global-optimum oracle on small pools.

Scoring: for every candidate subset, fit on each (k-1)-fold complement and
average the held-out MAPE over the k folds.  The fits never touch the n rows
again: the evaluator takes one R-only QR of each fold's rows of
``[1 | X_pool | y]`` and stacks the k-1 small R blocks of every training
complement into one more QR (TSQR), which gives R_f and z_f = Q^T y as its
last column.  A subset is then an SVD least-squares solve on the few rows of
``R_f[:, cols]`` against z_f, never the normal equations.  R_f[:, cols] has
the singular values of the complement's design, and the rank cut-off is the
one a full-height ``lstsq`` would use: eps * max(n_train, k) * s_max, with
n_train the complement's row count, not R's.  Byte-identical pool columns
share one R column, so copies of a counter score exactly alike.  All
candidates of one search step are scored as one batch: per fold, one
stacked SVD covers every candidate of a size, and held-out predictions and
MAPEs are formed for all of them at once, in a way that gives each
candidate the same bits it would get scored alone.  The final model is
always refit on the full training set.

Fold assignment is by whole benchmark run when at least k distinct runs
exist, otherwise by contiguous row blocks.  A candidate whose fit fails on
some fold (rank deficiency) scores +infinity rather than aborting the
search.  Ties are broken by candidate-pool order, lowest index first.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import Dataset, check_counter_names, read_json, write_json
from .errors import FitError, FormatError, RankDeficientError, SearchError
from .regress import (
    ALGORITHMS as SEARCH_ALGORITHMS,
    PowerModel,
    TrainingMeta,
    fit_ols,
    mape_rows,
    model_from_dict,
    model_to_dict,
)

log = logging.getLogger(__name__)

BOTTOM_UP, TOP_DOWN, EXHAUSTIVE = SEARCH_ALGORITHMS

# a step must beat the incumbent by more than this to count as an improvement
IMPROVEMENT_EPS = 1e-12
EXHAUSTIVE_POOL_LIMIT = 20
_EPS = float(np.finfo(np.float64).eps)
# bounds the float64 cells of the arrays one batch step of scoring holds
_BATCH_CELLS = 1 << 16


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters.

    candidate_pool and initial_set are counter-name sequences; an empty
    pool means "all dataset counters".  For top_down an empty initial_set
    defaults to the whole pool.  max_events caps the model size for
    bottom_up and exhaustive.  Ties are always broken by candidate-pool
    order (lowest index wins); pool order therefore is the tie-break rule.
    A search step is one batched computation on one thread.
    """

    algorithm: str
    folds: int = 10
    initial_set: tuple[str, ...] = ()
    max_events: int | None = None
    candidate_pool: tuple[str, ...] = ()
    fold_seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "initial_set", check_counter_names(self.initial_set)
        )
        object.__setattr__(
            self, "candidate_pool", check_counter_names(self.candidate_pool)
        )
        if self.algorithm not in SEARCH_ALGORITHMS:
            raise ValueError(f"unknown search algorithm {self.algorithm!r}")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.max_events is not None and self.max_events < 0:
            raise ValueError("max_events must be >= 0")
        if self.fold_seed < 0:
            raise ValueError("fold_seed must be >= 0")


@dataclass(frozen=True)
class SearchIteration:
    """One accepted step: what changed and every candidate's CV score."""

    action: str  # "add" or "remove"
    counter: str
    cv_mape_pct: float
    candidate_scores: dict[str, float]


@dataclass(frozen=True)
class SearchReport:
    """Audit trail of a search: accepted steps, scores and the final model."""

    algorithm: str
    folds: int
    fold_seed: int
    pool: tuple[str, ...]
    stop_reason: str
    initial_cv_mape_pct: float
    iterations: tuple[SearchIteration, ...]
    final_model: PowerModel
    final_cv_mape_pct: float
    # exhaustive only: score of every evaluated subset, keyed "A+B+C" in
    # pool order ("" is the intercept-only subset)
    subset_scores: dict[str, float] | None = None

    def __post_init__(self):
        score = self.initial_cv_mape_pct
        for it in self.iterations:
            if it.cv_mape_pct > score + IMPROVEMENT_EPS:
                raise ValueError(
                    "accepted CV scores must be non-increasing "
                    f"({it.cv_mape_pct} after {score})"
                )
            score = it.cv_mape_pct


def kfold_split(ds: Dataset, k: int, seed: int = 0) -> list[np.ndarray]:
    """Partition row indices into k folds, by run when possible.

    Whole run_id groups are shuffled (deterministically per seed) and dealt
    round-robin when at least k distinct runs exist; otherwise rows are cut
    into k contiguous blocks.  Fold sizes differ by at most one group/block.
    """
    if k < 2:
        raise SearchError("folds must be >= 2")
    n = ds.n_rows
    runs = sorted(set(ds.run_ids))
    if len(runs) >= k:
        log.info("%d folds aligned to the %d run groups", k, len(runs))
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(runs))
        groups: dict[str, list[int]] = {r: [] for r in runs}
        for i, run in enumerate(ds.run_ids):
            groups[run].append(i)
        folds = [[] for _ in range(k)]
        for slot, gi in enumerate(order):
            folds[slot % k].extend(groups[runs[gi]])
        return [np.array(sorted(f), dtype=np.intp) for f in folds]
    if n >= k:
        log.info(
            "fewer than %d runs; %d folds cut as contiguous row blocks", k, k
        )
        return [np.sort(b) for b in np.array_split(np.arange(n, dtype=np.intp), k)]
    raise SearchError(
        f"{k} folds exceed the {max(len(runs), n)} assignable groups"
    )


class _CvEvaluator:
    """Per-fold R-factor cache for scoring many subsets on fixed folds.

    ``columns`` holds ``[1 | X_pool | y]`` as rows (intercept, pool counter
    j in row j+1, power last), its samples grouped by test fold so that
    each fold's held-out samples are one slice; it is the only full-height
    array kept.  ``folds`` holds, per fold, the complement's row count, the
    R factor of the complement's rows and the held-out slice.  ``col_map``
    sends every column to its first byte-identical copy.

    A subset is scored on the key ``sort(col_map[[0] + selection + 1])``
    and on nothing else, so copies of a counter, one subset listed in two
    orders, and one subset scored alone or among others all give the same
    bits.  ``score_many`` scores a whole batch: per fold it takes one
    stacked SVD of ``R_f[:, cols]`` for all subsets of one size, solves
    beta = V (U^T z_f / s), predicts the held-out rows as
    (subsets x rows) with one fixed sequence of elementwise products, and
    averages the fold MAPEs.  A subset is full rank when
    s_min > eps * max(n_train, k) * s_max, the cut-off a full-height
    ``lstsq`` on the complement would use (n_train is the complement's row
    count, not R's).  The normal equations are never formed.
    """

    def __init__(self, ds: Dataset, pool: Sequence[str], folds: list[np.ndarray]):
        idx = [ds.counters.index(name) for name in pool]
        order = np.concatenate(folds)
        edges = np.cumsum([0] + [len(f) for f in folds])
        self.columns = np.empty((len(idx) + 2, len(order)), dtype=np.float64)
        self.columns[0] = 1.0
        self.columns[1:-1] = ds.deltas[np.ix_(order, idx)].T
        self.columns[-1] = ds.power_w[order]
        first: dict[bytes, int] = {}
        self.col_map = np.array(
            [first.setdefault(c.tobytes(), j) for j, c in enumerate(self.columns[:-1])],
            dtype=np.intp,
        )
        spans = list(zip(edges[:-1], edges[1:]))
        blocks = [np.linalg.qr(self.columns[:, a:b].T, mode="r") for a, b in spans]
        self.folds = [
            (
                len(order) - (b - a),
                np.linalg.qr(np.vstack(blocks[:fi] + blocks[fi + 1 :]), mode="r"),
                slice(a, b),
            )
            for fi, (a, b) in enumerate(spans)
        ]
        # a subset's cells in one batch step: its held-out predictions or its
        # (m x k) SVD factors, m and k at most the column count
        cells = max(max(b - a for a, b in spans), len(self.columns) ** 2)
        self.batch = max(1, _BATCH_CELLS // cells)
        # scores of the batch score_many is handing out, keyed by selection
        self._batch_scores: dict[tuple, float] = {}

    def score(self, selection: Sequence[int]) -> float:
        """CV MAPE of the pool columns in ``selection``; raises on fit failure."""
        scores, failed = self._score_keys(self._keys([selection]))
        fi = int(failed[0])
        if fi < len(self.folds):
            n_train, k = self.folds[fi][0], len(selection) + 1
            if n_train < k:
                raise FitError(
                    f"fold {fi}: fewer rows ({n_train}) than parameters ({k})"
                )
            raise RankDeficientError(
                f"fold {fi}: rank-deficient design, drop a predictor"
            )
        return float(scores[0])

    def score_or_inf(self, selection: Sequence[int]) -> float:
        """CV MAPE of one selection, +inf when infeasible: the score
        ``score_many`` computed for its batch, else a batch of one."""
        key = tuple(selection)
        if key in self._batch_scores:
            return self._batch_scores[key]
        return self._score_batch([selection])[0]

    def score_many(self, selections: Sequence[Sequence[int]]) -> list[float]:
        """CV MAPE of every selection, in order; infeasible ones score +inf.

        The scores are computed as one batch and handed out one candidate
        at a time through ``score_or_inf``, so every candidate scored
        passes once through that per-candidate entry point.
        """
        scores = self._score_batch(selections)
        self._batch_scores = dict(zip(map(tuple, selections), scores))
        try:
            return [self.score_or_inf(sel) for sel in selections]
        finally:
            self._batch_scores = {}

    def _score_batch(self, selections: Sequence[Sequence[int]]) -> list[float]:
        """CV MAPE of every selection, in order, +inf where infeasible,
        computed per size group and batch step."""
        out = np.empty(len(selections))
        sizes: dict[int, list[int]] = {}
        for pos, sel in enumerate(selections):
            sizes.setdefault(len(sel), []).append(pos)
        for positions in sizes.values():
            keys = self._keys([selections[p] for p in positions])
            for lo in range(0, len(positions), self.batch):
                scores, failed = self._score_keys(keys[lo : lo + self.batch])
                scores[failed < len(self.folds)] = math.inf
                out[positions[lo : lo + self.batch]] = scores
        return out.tolist()

    def _keys(self, selections: Sequence[Sequence[int]]) -> np.ndarray:
        """Sorted design columns of equally long selections, one per row."""
        sel = np.array(selections, dtype=np.intp).reshape(len(selections), -1)
        cols = np.column_stack([np.zeros(len(sel), dtype=np.intp), sel + 1])
        return np.sort(self.col_map[cols], axis=1)

    def _score_keys(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean fold MAPE of every key row, and the first fold whose fit
        failed (``len(self.folds)`` when none did); a failed key's score is
        left partial."""
        n_keys, k = keys.shape
        total = np.zeros(n_keys)
        failed = np.full(n_keys, len(self.folds))
        live = np.arange(n_keys)
        for fi, (n_train, r, test) in enumerate(self.folds):
            if n_train < k:
                failed[live] = fi
                break
            cols = keys[live]
            u, s, vt = np.linalg.svd(np.moveaxis(r[:, cols], 0, 1), full_matrices=False)
            full = s[:, -1] > _EPS * max(n_train, k) * s[:, 0]
            failed[live[~full]] = fi
            live, cols, u, s, vt = live[full], cols[full], u[full], s[full], vt[full]
            if not live.size:
                break
            beta = ((r[:, -1] @ u / s)[:, None, :] @ vt)[:, 0]
            held_out = self.columns[:, test]
            pred = np.zeros((live.size, held_out.shape[1]))
            for j in range(k):
                pred += beta[:, j : j + 1] * held_out[cols[:, j]]
            total[live] += mape_rows(held_out[-1], pred)
        return total / len(self.folds), failed


def cv_score(
    ds: Dataset, predictors: Sequence[str], k: int, seed: int = 0
) -> float:
    """k-fold CV MAPE of one predictor set; mean of the k fold MAPEs."""
    names = check_counter_names(predictors)
    missing = [n for n in names if n not in ds.counters]
    if missing:
        raise SearchError(f"predictors not in dataset: {', '.join(missing)}")
    evaluator = _CvEvaluator(ds, names, kfold_split(ds, k, seed))
    return evaluator.score(range(len(names)))


def _resolve_pool(ds: Dataset, cfg: SearchConfig) -> tuple[str, ...]:
    pool = cfg.candidate_pool if cfg.candidate_pool else ds.counters
    pool = check_counter_names(pool)
    missing = [n for n in pool if n not in ds.counters]
    if missing:
        raise SearchError(f"pool counters not in dataset: {', '.join(missing)}")
    return pool


def _refit_full(
    ds: Dataset, names: Sequence[str], cfg: SearchConfig, cv_mape_pct: float
) -> PowerModel:
    # coefficients come from the full training set, never from a fold fit
    model, diag = fit_ols(ds, names)
    meta = TrainingMeta(
        algorithm=cfg.algorithm,
        folds=cfg.folds,
        cv_mape_pct=cv_mape_pct,
        train_mape_pct=diag.train_mape_pct,
    )
    return dataclasses.replace(model, training=meta)


class _Walk(NamedTuple):
    """What a search strategy found, in pool indices."""

    stop_reason: str
    initial_cv: float
    iterations: list[SearchIteration]
    selected: list[int]
    final_cv: float
    subset_scores: dict[str, float] | None = None


def _search(
    ds: Dataset, cfg: SearchConfig, algorithm: str, start, walk
) -> SearchReport:
    """The setup every search shares around its strategy.

    Checks the algorithm, resolves the pool, lets ``start`` check the pool
    and give the first selection, builds the evaluator on the configured
    folds, runs ``walk`` and refits its pick on the whole dataset.  A pick
    without a finite CV score is a SearchError, not a model.
    """
    if cfg.algorithm != algorithm:
        raise SearchError(f"config algorithm is {cfg.algorithm!r}, not {algorithm}")
    pool = _resolve_pool(ds, cfg)
    selected = start(pool, cfg)
    evaluator = _CvEvaluator(ds, pool, kfold_split(ds, cfg.folds, cfg.fold_seed))
    found = walk(evaluator, pool, selected, cfg)
    names = [pool[i] for i in found.selected]
    if not math.isfinite(found.final_cv):
        raise SearchError(
            f"{algorithm} stopped ({found.stop_reason}) at "
            f"[{', '.join(names)}] with no finite CV score: "
            "its fit fails on some fold"
        )
    return SearchReport(
        algorithm=algorithm,
        folds=cfg.folds,
        fold_seed=cfg.fold_seed,
        pool=pool,
        stop_reason=found.stop_reason,
        initial_cv_mape_pct=found.initial_cv,
        iterations=tuple(found.iterations),
        final_model=_refit_full(ds, names, cfg, found.final_cv),
        final_cv_mape_pct=found.final_cv,
        subset_scores=found.subset_scores,
    )


def _initial(pool: tuple[str, ...], names: Sequence[str]) -> list[int]:
    if not pool:
        raise SearchError("empty candidate pool")
    for name in names:
        if name not in pool:
            raise SearchError(f"initial counter {name!r} not in candidate pool")
    return [pool.index(n) for n in names]


def _bottom_up_start(pool, cfg) -> list[int]:
    return _initial(pool, cfg.initial_set)


def _top_down_start(pool, cfg) -> list[int]:
    return sorted(_initial(pool, cfg.initial_set or pool))


def _add_steps(evaluator, pool, selected, cfg) -> _Walk:
    current = evaluator.score_or_inf(selected)
    initial_cv = current
    iterations: list[SearchIteration] = []
    while True:
        if cfg.max_events is not None and len(selected) >= cfg.max_events:
            stop = "max_events"
            break
        remaining = [i for i in range(len(pool)) if i not in selected]
        if not remaining:
            stop = "pool_exhausted"
            break
        scores = evaluator.score_many([selected + [i] for i in remaining])
        best = min(range(len(remaining)), key=scores.__getitem__)
        if not current - scores[best] > IMPROVEMENT_EPS:
            stop = "converged"
            break
        selected.append(remaining[best])
        current = scores[best]
        iterations.append(
            SearchIteration(
                action="add",
                counter=pool[remaining[best]],
                cv_mape_pct=current,
                candidate_scores={
                    pool[i]: s for i, s in zip(remaining, scores)
                },
            )
        )
    return _Walk(stop, initial_cv, iterations, selected, current)


def _remove_steps(evaluator, pool, selected, cfg) -> _Walk:
    current = evaluator.score_or_inf(selected)
    initial_cv = current
    iterations: list[SearchIteration] = []
    stop = "emptied"
    while selected:
        trials = [[i for i in selected if i != drop] for drop in selected]
        scores = evaluator.score_many(trials)
        best = min(range(len(selected)), key=scores.__getitem__)
        if not scores[best] <= current + IMPROVEMENT_EPS:
            stop = "converged"
            break
        dropped = selected[best]
        # an equal-score removal may tick the score up by <= IMPROVEMENT_EPS;
        # clamp so the accepted sequence stays non-increasing
        current = min(current, scores[best])
        iterations.append(
            SearchIteration(
                action="remove",
                counter=pool[dropped],
                cv_mape_pct=current,
                # keyed by the counter a trial would remove
                candidate_scores={
                    pool[d]: s for d, s in zip(selected, scores)
                },
            )
        )
        selected = trials[best]
    return _Walk(stop, initial_cv, iterations, selected, current)


def _exhaustive_start(pool, cfg) -> list[int]:
    if len(pool) > EXHAUSTIVE_POOL_LIMIT:
        raise SearchError(
            f"pool of {len(pool)} too large for exhaustive search "
            f"(limit {EXHAUSTIVE_POOL_LIMIT})"
        )
    return []


def _enumerate(evaluator, pool, selected, cfg) -> _Walk:
    top = len(pool) if cfg.max_events is None else min(cfg.max_events, len(pool))
    subsets = [
        combo
        for size in range(top + 1)
        for combo in itertools.combinations(range(len(pool)), size)
    ]
    scores = evaluator.score_many(subsets)
    best = 0
    for j in range(1, len(subsets)):
        if scores[j] < scores[best]:
            best = j
    subset_scores = {
        "+".join(pool[i] for i in combo): s for combo, s in zip(subsets, scores)
    }
    return _Walk(
        "enumerated", scores[0], [], list(subsets[best]), scores[best], subset_scores
    )


def bottom_up(ds: Dataset, cfg: SearchConfig) -> SearchReport:
    """Greedy forward selection from cfg.initial_set.

    Accepts the best-scoring addition while it strictly improves the CV
    MAPE (by more than IMPROVEMENT_EPS); stops at max_events, on pool
    exhaustion, or on convergence.  Term order in the final model is the
    order of selection.
    """
    return _search(ds, cfg, BOTTOM_UP, _bottom_up_start, _add_steps)


def top_down(ds: Dataset, cfg: SearchConfig) -> SearchReport:
    """Greedy backward elimination from cfg.initial_set (default: whole pool).

    A removal is accepted when the best resulting score is no worse than
    the incumbent: equal-score removals are taken to prefer the simpler
    model.  Term order in the final model is pool order.
    """
    return _search(ds, cfg, TOP_DOWN, _top_down_start, _remove_steps)


def exhaustive(ds: Dataset, cfg: SearchConfig) -> SearchReport:
    """Score every subset of the pool; the global optimum for the fold split.

    Subsets are enumerated sizes ascending, lexicographic within a size, and
    only a strictly better score displaces the incumbent, so ties resolve
    to the smaller subset and then to lexicographic pool order.  max_events
    caps the subset size.
    """
    return _search(ds, cfg, EXHAUSTIVE, _exhaustive_start, _enumerate)


def run_search(ds: Dataset, cfg: SearchConfig) -> SearchReport:
    """Dispatch on cfg.algorithm."""
    return {BOTTOM_UP: bottom_up, TOP_DOWN: top_down, EXHAUSTIVE: exhaustive}[
        cfg.algorithm
    ](ds, cfg)


def _num(v: float):
    # JSON has no Infinity; candidates whose fit failed carry null instead
    return v if math.isfinite(v) else None


def _unnum(v) -> float:
    return math.inf if v is None else float(v)


def report_to_dict(report: SearchReport) -> dict:
    return {
        "algorithm": report.algorithm,
        "folds": report.folds,
        "fold_seed": report.fold_seed,
        "pool": list(report.pool),
        "stop_reason": report.stop_reason,
        "initial_cv_mape_pct": _num(report.initial_cv_mape_pct),
        "iterations": [
            {
                "action": it.action,
                "counter": it.counter,
                "cv_mape_pct": _num(it.cv_mape_pct),
                "candidate_scores": {
                    k: _num(v) for k, v in it.candidate_scores.items()
                },
            }
            for it in report.iterations
        ],
        "final_model": model_to_dict(report.final_model),
        "final_cv_mape_pct": _num(report.final_cv_mape_pct),
        **(
            {"subset_scores": {k: _num(v) for k, v in report.subset_scores.items()}}
            if report.subset_scores is not None
            else {}
        ),
    }


def report_from_dict(data: dict, where: str = "search report") -> SearchReport:
    try:
        subset_scores = None
        if "subset_scores" in data:
            subset_scores = {
                str(k): _unnum(v) for k, v in data["subset_scores"].items()
            }
        return SearchReport(
            algorithm=str(data["algorithm"]),
            folds=int(data["folds"]),
            fold_seed=int(data["fold_seed"]),
            pool=tuple(str(n) for n in data["pool"]),
            stop_reason=str(data["stop_reason"]),
            initial_cv_mape_pct=_unnum(data["initial_cv_mape_pct"]),
            iterations=tuple(
                SearchIteration(
                    action=str(it["action"]),
                    counter=str(it["counter"]),
                    cv_mape_pct=_unnum(it["cv_mape_pct"]),
                    candidate_scores={
                        str(k): _unnum(v)
                        for k, v in it["candidate_scores"].items()
                    },
                )
                for it in data["iterations"]
            ),
            final_model=model_from_dict(data["final_model"], where=where),
            final_cv_mape_pct=_unnum(data["final_cv_mape_pct"]),
            subset_scores=subset_scores,
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"bad search report JSON: {exc}", path=where) from exc


def write_report(report: SearchReport, path) -> None:
    write_json(report_to_dict(report), path)


def read_report(path) -> SearchReport:
    return report_from_dict(read_json(path, "search report"), where=str(path))
