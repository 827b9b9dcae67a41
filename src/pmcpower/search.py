"""Counter-subset selection by greedy search scored with k-fold CV MAPE.

Two greedy searches share one loop, ``_greedy``: bottom-up (start small,
add the counter whose inclusion lowers the cross-validated MAPE the most)
and top-down (start from a full set, remove the counter whose absence
lowers it the most).  Each supplies only its moves (the trial selections
of one step, or a stop reason) and its acceptance rule; the loop scores a
step, takes its best trial and records it.  An exhaustive search over all
subsets serves as a global-optimum oracle on small pools.  bottom_up takes
initial_set and max_events, top_down takes initial_set, exhaustive takes
max_events; a search refuses a setting it would not use.

Scoring: for every candidate subset, fit on each (k-1)-fold complement and
average the held-out MAPE over the k folds.  The fits never touch the n rows
again: the evaluator takes one R-only QR of each fold's rows of
``[1 | X_pool | y]`` and stacks the k-1 small R blocks of every training
complement into one more QR (TSQR), which gives R_f and z_f = Q^T y as its
last column; R_f[:, cols] has the singular values of the complement's
design.  A subset is solved by appending its last column to the
factorisation of its parent, the subset without that column (Gram-Schmidt
run twice, CGS2), on every fold at once.  Subsets that share a prefix share
its factorisation, so a batch, every subset in the exhaustive case, takes
no LAPACK call per subset, and the normal equations are never formed.  The
rank cut-off is the one a full-height ``lstsq`` would use:
s_min > eps * max(n_train, k) * s_max, with n_train the complement's row
count, not R's.  A cheap bound certifies most subsets; the rest are decided
by the SVD of R_f[:, cols].  A top_down step's removals of a set that
scores finite are downdated in closed form from the set's own
factorisation.  Every score's held-out predictions are one GEMM per fold
and batch step over the columns the step uses.  Equal column sets in one
batch (copies of a counter, a subset listed twice) are scored once and
tie exactly; across batches a score may move in its last bits, within a
tested bound set by its condition number.  The final model is always
refit on the full training set.  One owner per decision: searches score
only through ``score_many``, ``_solve`` builds every factorisation and
``check_zero_guard`` checks each dataset once (``_CvEvaluator`` has the rest).

Fold assignment is by whole benchmark run when at least k distinct runs
exist, otherwise by contiguous row blocks.  A candidate whose fit fails on
some fold (rank deficiency) scores +infinity rather than aborting the
search; a search that ends there raises, naming the first failing fold.
Ties are broken by candidate-pool order, lowest index first.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import (
    Dataset,
    check_counter_names,
    check_type,
    is_integer,
    read_json,
    write_json,
)
from .errors import FitError, FormatError, RankDeficientError, SearchError
from .regress import (
    ALGORITHMS as SEARCH_ALGORITHMS,
    PowerModel,
    TrainingMeta,
    check_zero_guard,
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
# safety factor of the full-rank certificate over the SVD cut-off: a bound
# this far above the cut-off stays above it through the rounding in T^-1,
# ||A||_F and the singular values the cut-off is otherwise checked on
_CERT = 4.0


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters; a search refuses a field it would not use.

    candidate_pool and initial_set are counter-name sequences; an empty
    pool means "all dataset counters".  initial_set starts bottom_up
    (default: empty) and top_down (default: the whole pool); exhaustive
    refuses it.  max_events caps the model size of bottom_up and
    exhaustive; top_down refuses it.  folds, fold_seed and max_events are
    integers, not bools.  Ties are always broken by candidate-pool order
    (lowest index wins).  A search step is one batched computation.
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
        for name, low in (("folds", 2), ("max_events", 0), ("fold_seed", 0)):
            value = getattr(self, name)
            if value is None and name == "max_events":
                continue  # no cap
            if not (is_integer(value) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
            object.__setattr__(self, name, check_type(name, value, int))
        if self.algorithm == TOP_DOWN and self.max_events is not None:
            raise ValueError("max_events does not apply to top_down")
        if self.algorithm == EXHAUSTIVE and self.initial_set:
            raise ValueError("initial_set does not apply to exhaustive")


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
    k is an integer, not a bool.
    """
    if not is_integer(k):
        raise SearchError(f"folds must be an integer, got {k!r}")
    if k < 2:
        raise SearchError("folds must be >= 2")
    n = ds.n_rows
    runs = sorted(set(ds.run_ids))
    if len(runs) >= k:
        log.info("%d folds aligned to the %d run groups", k, len(runs))
        order = np.random.default_rng(seed).permutation(len(runs))
        fold_of = {runs[gi]: slot % k for slot, gi in enumerate(order)}
        assigned = np.array([fold_of[run] for run in ds.run_ids], dtype=np.intp)
        return [np.flatnonzero(assigned == f) for f in range(k)]
    if n >= k:
        log.info(
            "fewer than %d runs; %d folds cut as contiguous row blocks", k, k
        )
        return np.array_split(np.arange(n, dtype=np.intp), k)
    raise SearchError(
        f"{k} folds exceed the {max(len(runs), n)} assignable groups"
    )


class _Prefixes(NamedTuple):
    """Key prefixes scored by _CvEvaluator._append, one row each, per fold:
    Q (orthonormal rows spanning ``R_f[:, prefix]``, which is ``Q^T T``),
    T^-1, the least-squares beta, ||R_f[:, prefix]||_F^2 and
    ||T^-1||_F^2; and each prefix's first failed fold.  The first three
    have room for a whole key of up to W columns and hold the prefix's k
    in their leading entries."""

    q_rows: np.ndarray  # (n, F, W, P)
    t_inv: np.ndarray  # (n, F, W, W)
    beta: np.ndarray  # (n, F, W)
    a_norm2: np.ndarray  # (n, F, 1)
    t_norm2: np.ndarray  # (n, F, 1)
    failed: np.ndarray  # (n,)


class _CvEvaluator:
    """Per-fold R-factor cache for scoring many subsets on fixed folds.

    ``columns`` holds ``[1 | X_pool | y]`` as rows (intercept, pool counter
    j in row j+1, power last), its samples grouped by test fold so that
    each fold's held-out samples are one slice of ``tests``; it is the only
    full-height array kept.  ``n_train`` holds each fold's complement row
    count and ``r[f]`` the R factor of fold f's complement, whose own
    min(n_train, P) rows are followed by zero rows.  ``col_map`` sends
    every column to its first byte-identical copy.

    A subset is scored on the key ``sort(col_map[[0] + selection + 1])``,
    so copies of a counter and one subset listed in two orders are one
    key.  One method owns each decision: ``score_many``, the searches' one
    entry, scores a batch's distinct keys in lexicographic order (a depth
    first walk of their prefix tree), +inf where a fold fails (``score``
    raises instead); ``_solve`` alone builds factorisations, each prefix
    from its parent by ``_append`` on every fold at once, and
    ``_removal_scores`` downdates a set's removals from its beta and T^-1;
    ``_held_out_mape`` predicts held-out rows by GEMM.  A key is full rank
    when s_min > eps * max(n_train, k) * s_max, the cut-off a full-height
    ``lstsq`` on the complement would use (n_train is the complement's row
    count, not R's): a bound certifies it, else the SVD of ``R_f[:, key]``
    decides, and a prefix that fails a fold fails it for every key below.
    """

    def __init__(self, ds: Dataset, pool: Sequence[str], folds: list[np.ndarray]):
        check_zero_guard(ds)
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
        self.tests = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
        self.n_train = len(order) - np.diff(edges)
        blocks = [np.linalg.qr(self.columns[:, test].T, mode="r") for test in self.tests]
        # a complement's R has min(n_train, P) rows, as its stacked blocks do
        p, n_folds = len(self.columns), len(folds)
        self.r = np.zeros((n_folds, p, p))
        for fi in range(n_folds):
            r = np.linalg.qr(np.vstack(blocks[:fi] + blocks[fi + 1 :]), mode="r")
            self.r[fi, : len(r)] = r
        # column c of fold f's R factor, as _append takes it
        self._r_cols = np.ascontiguousarray(self.r.transpose(2, 0, 1)[:, :, None])
        self._r_norm2 = (self._r_cols**2).sum(-1)
        # per prefix length k: the squared certificate cut-off of each fold,
        # and the first fold with fewer training rows than k
        k = np.arange(p + 1)[:, None]
        self._cut2 = (_CERT * _EPS * np.maximum(self.n_train, k))[:, :, None] ** 2
        short = self.n_train < k
        self._short = np.where(short.any(axis=1), short.argmax(axis=1), n_folds)
        self._fold_ids = np.arange(n_folds)[:, None]
        # a key's cells in one batch step: its held-out predictions or its Q
        # and T^-1 on one fold (at most p x p each); _held_out_mape predicts
        # batch keys per GEMM and _solve builds batch // folds keys at once,
        # as a prefix holds Q and T^-1 on every fold
        cells = max(int(np.diff(edges).max()), p**2)
        self.batch = max(1, _BATCH_CELLS // cells)
        # scores of the batch score_many is handing out, keyed by selection
        self._batch_scores: dict[tuple, float] = {}

    def score(self, selection: Sequence[int]) -> float:
        """CV MAPE of the pool columns in ``selection``; raises on fit failure."""
        scores, failed = self._score_keys(self._keys([selection]))
        fi = int(failed[0])
        if fi < len(self.tests):
            n_train, k = self.n_train[fi], len(selection) + 1
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
        return self.score_many([selection])[0]

    def score_many(self, selections, removing_from=()) -> list[float]:
        """CV MAPE of every selection, in order; infeasible ones score +inf.

        A non-empty ``removing_from`` names the batch as that set's one-column
        removals for ``_removal_scores``, selection j dropping
        ``removing_from[j]``.  The scores are computed as one batch and
        handed out one candidate at a time through ``score_or_inf``, so
        every candidate scored passes once through that entry point.
        """
        scores = self._removal_scores(removing_from)
        if scores is None:
            scores, failed = self._score_keys(self._keys(selections))
            scores = np.where(failed < len(self.tests), math.inf, scores).tolist()
        self._batch_scores = dict(zip(map(tuple, selections), scores))
        try:
            return [self.score_or_inf(sel) for sel in selections]
        finally:
            self._batch_scores = {}

    def _removal_scores(self, selected: Sequence[int]) -> list[float] | None:
        """CV MAPE of each one-column removal of ``selected``, in its order,
        or None when the set has fewer than two columns or fails some fold.

        When the set scores finite, its own appended factorisation gives
        every removal in closed form: with C = T^-1 T^-T = (R^T R)^-1,
        dropping key column j gives beta - (beta_j / C_jj) C[:, j], entry j
        zeroed (Golub & Van Loan, section 6.5).  Dropping a column cannot
        lower s_min or raise s_max, so every removal passes its set's rule.
        """
        m = len(selected)
        if m < 2:
            return None
        key = self._keys([selected])
        (beta,), (t_inv,), failed = self._solve(key, t_inv=True)
        if failed[0] < len(self.tests):
            return None
        key, rows = key[0], np.arange(m)
        pos = np.searchsorted(key, self.col_map[np.array(selected, dtype=np.intp) + 1])
        c = t_inv[:, pos] @ t_inv.swapaxes(-1, -2)  # rows pos of C, per fold
        betas = beta[:, None] - (beta[:, pos] / c[:, rows, pos])[..., None] * c
        betas[:, rows, pos] = 0.0
        keys = np.broadcast_to(key, (m, len(key)))
        total = self._held_out_mape(keys, betas.swapaxes(0, 1), np.full(m, len(self.tests)))
        return (total / len(self.tests)).tolist()

    def _keys(self, selections: Sequence[Sequence[int]]) -> np.ndarray:
        """Sorted design columns of each selection, one per row, in the
        smallest integer type; rows of shorter selections end in
        ``len(self.columns)`` padding."""
        lengths = np.fromiter(map(len, selections), np.intp, len(selections))
        pad = len(self.columns)
        dtype = np.min_scalar_type(pad)
        flat = np.fromiter(itertools.chain.from_iterable(selections), dtype)
        width = lengths.max(initial=0)
        keys = np.full((len(lengths), 1 + width), pad, dtype)
        keys[:, 0] = 0
        # a boolean mask fills its cells in row order, as flat lists them
        filled = np.arange(width) < lengths[:, None]
        keys[:, 1:][filled] = self.col_map.astype(dtype)[flat + 1]
        return np.sort(keys, axis=1)

    def _score_keys(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean fold MAPE of every key row, and the first fold whose fit
        failed (``len(self.tests)`` when none did); a failed key's score is
        not computed.

        Sorted lexicographically, the keys walk their prefix tree depth
        first, and equal keys are neighbours, scored once and sharing that
        score.  The distinct keys are cut into chunks of
        ``self.batch // folds``, so that the prefix states of a chunk stay
        within a small multiple of _BATCH_CELLS.
        """
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        new = np.ones(len(keys), dtype=bool)
        new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        keys = keys[new]
        total = np.zeros(len(keys))
        failed = np.empty(len(keys), dtype=np.intp)
        chunk = max(1, self.batch // len(self.tests))
        for lo in range(0, len(keys), chunk):
            part = slice(lo, lo + chunk)
            betas, _, failed[part] = self._solve(keys[part])
            total[part] = self._held_out_mape(keys[part], betas, failed[part])
        back = (np.cumsum(new) - 1)[np.argsort(order)]  # each key's distinct key
        return total[back] / len(self.tests), failed[back]

    def _solve(self, keys: np.ndarray, t_inv: bool = False) -> tuple:
        """Per-fold beta, per-fold T^-1 when ``t_inv`` (else None), both
        zero-padded to the key width, and first failed fold of sorted, padded
        key rows.

        Every distinct prefix of the keys is built once, one depth at a
        time, from its parent prefix by ``_append``.  A prefix that fails a
        fold fails it for its whole subtree, which takes no SVD on that fold.
        """
        n_keys, width = keys.shape
        n_folds, p = len(self.tests), len(self.columns)
        valid = keys < p
        # new[i, d]: key i opens a prefix of depth d + 1, leaving key i-1's;
        # ids[i, d] numbers the prefixes of that depth
        new = valid.copy()
        new[1:] &= np.logical_or.accumulate(keys[1:] != keys[:-1], axis=1)
        ids = np.cumsum(new, axis=0) - 1
        ends_at = valid.sum(axis=1) - 1  # each key's last depth
        # every key takes its whole rows, zeros past its end included
        betas = np.empty((n_keys, n_folds, width))
        t_invs = np.empty((n_keys, n_folds, width, width)) if t_inv else None
        failed = np.empty(n_keys, dtype=np.intp)
        prefixes = _Prefixes(
            np.zeros((1, n_folds, width, p)), np.zeros((1, n_folds, width, width)),
            np.zeros((1, n_folds, width)), np.zeros((1, n_folds, 1)),
            np.zeros((1, n_folds, 1)), np.full(1, n_folds),
        )
        for d in range(width):
            rows = np.flatnonzero(new[:, d])
            if not rows.size:
                break
            parent = ids[rows, d - 1] if d else np.zeros(1, dtype=np.intp)
            prefixes = _Prefixes(*(s[parent] for s in prefixes))
            prefixes = self._append(prefixes, keys[rows, : d + 1])
            ends = np.flatnonzero(ends_at == d)
            if ends.size:
                end_ids = ids[ends, d]
                betas[ends] = prefixes.beta[end_ids]
                if t_inv:
                    t_invs[ends] = prefixes.t_inv[end_ids]
                failed[ends] = prefixes.failed[end_ids]
        return betas, t_invs, failed

    def _held_out_mape(self, keys, betas, failed) -> np.ndarray:
        """Summed held-out MAPE over the folds of every key that fails none
        (0.0 for a key that fails one), from its per-fold ``betas``: per
        fold, one GEMM per ``self.batch`` keys of their zero-padded rows
        over the columns some key weights (over every pool column, a narrow
        key's GEMM on 20k held-out rows was memory bound, twice as slow)."""
        n_folds, p = len(self.tests), len(self.columns)
        live = np.flatnonzero(failed == n_folds)
        # column p takes the key padding
        rows = np.zeros((n_folds, len(live), p + 1))
        rows[:, np.arange(len(live))[:, None], keys[live]] = betas[live].swapaxes(0, 1)
        cols = np.flatnonzero(rows.any(axis=(0, 1)))
        rows = rows[..., cols]
        total = np.zeros(len(keys))
        for fold_rows, test in zip(rows, self.tests):
            x, y = self.columns[cols, test], self.columns[-1, test]
            for lo in range(0, len(live), self.batch):
                part = slice(lo, lo + self.batch)
                total[live[part]] += mape_rows(y, fold_rows[part] @ x)
        return total

    def _append(self, prefixes: _Prefixes, keys: np.ndarray) -> _Prefixes:
        """Each prefix row extended by the last column a of its row of
        ``keys``, on every fold at once; the arrays of ``prefixes``, which
        the caller owns, are updated in place.

        a is orthogonalised against Q twice (CGS2): w = Q a,
        q = a - Q^T w, rho = ||q||.  Then gamma = q.z / rho^2,
        beta' = [beta - gamma T^-1 w, gamma] and
        T^-1' = [[T^-1, -T^-1 w / rho], [0, 1 / rho]].  A fold is certified
        full rank when 1 / ||T^-1'||_F > _CERT * eps * max(n_train, k) *
        ||A'||_F, a lower bound on s_min against an upper bound on s_max;
        any other fold before the first failed one is decided by the SVD
        cut-off itself (``_decide``).  Adding a column cannot raise s_min
        or lower s_max, so a failed fold stays failed below; its entries
        keep the parent's values (rho is taken as +inf there).
        """
        q_rows, t_inv, beta, a_norm2, t_norm2, failed = prefixes
        k = keys.shape[1]
        d, col = k - 1, keys[:, -1]
        basis = q_rows[:, :, :d]
        a = self._r_cols[col]  # (n, F, 1, P)
        w = a @ basis.swapaxes(-1, -2)  # (Q a)^T
        q = a - w @ basis
        w2 = q @ basis.swapaxes(-1, -2)
        q -= w2 @ basis
        w += w2
        rho2 = (q * q).sum(-1)  # (n, F, 1), as are the norms below
        u = w @ t_inv[:, :, :d, :d].swapaxes(-1, -2)  # (T^-1 w)^T
        uu1 = (u * u).sum(-1) + 1.0
        a_norm2 = a_norm2 + self._r_norm2[col]
        certified = self._cut2[k] * a_norm2 * (t_norm2 * rho2 + uu1) < rho2
        if self._short[k] < len(self.tests):
            failed = np.minimum(failed, self._short[k])
        if not certified.all():
            failed = self._decide(keys, ~certified[..., 0], failed, rho2[..., 0])
        if failed.min() < len(self.tests):
            rho2 = np.where(self._fold_ids < failed[:, None, None], rho2, np.inf)
        rho = np.sqrt(rho2)
        q_rows[:, :, d] = q[:, :, 0] / rho
        gamma = (q_rows[:, :, d : d + 1] * self._r_cols[-1]).sum(-1) / rho
        t_inv[:, :, :d, d] = u[:, :, 0] / -rho
        t_inv[:, :, d, d] = 1.0 / rho[..., 0]
        beta[:, :, :d] -= gamma * u[:, :, 0]
        beta[:, :, d] = gamma[..., 0]
        return _Prefixes(q_rows, t_inv, beta, a_norm2, t_norm2 + uu1 / rho2, failed)

    def _decide(self, keys, undecided, failed, rho2) -> np.ndarray:
        """``failed`` lowered, per prefix, to the first earlier fold on
        which an ``undecided`` prefix fails the SVD cut-off or has rho 0:
        one stacked SVD of ``R_f[:, key]`` per fold that has any."""
        failed = failed.copy()
        k = keys.shape[1]
        for fi in np.flatnonzero(undecided.any(axis=0)):
            rows = np.flatnonzero(undecided[:, fi] & (failed > fi))
            if rows.size:
                n_train = self.n_train[fi]
                r = self.r[fi, :n_train]  # R's own rows
                s = np.linalg.svd(np.moveaxis(r[:, keys[rows]], 0, 1), compute_uv=False)
                full = (s[:, -1] > _EPS * max(n_train, k) * s[:, 0]) & (rho2[rows, fi] > 0)
                failed[rows[~full]] = fi
        return failed


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
    """The candidate pool, checked to be non-empty, in the dataset and to
    hold the initial set."""
    pool = check_counter_names(cfg.candidate_pool or ds.counters)
    missing = [n for n in pool if n not in ds.counters]
    if missing:
        raise SearchError(f"pool counters not in dataset: {', '.join(missing)}")
    if not pool:
        raise SearchError("empty candidate pool")
    for name in cfg.initial_set:
        if name not in pool:
            raise SearchError(f"initial counter {name!r} not in candidate pool")
    return pool


class _Walk(NamedTuple):
    """What a search strategy found, in pool indices."""

    stop_reason: str
    initial_cv: float
    iterations: list[SearchIteration]
    selected: list[int]
    final_cv: float
    subset_scores: dict[str, float] | None = None


def _search(ds: Dataset, cfg: SearchConfig, algorithm: str, walk) -> SearchReport:
    """The setup every search shares around its strategy.

    Checks the algorithm, resolves the pool and the initial set, builds the
    evaluator on the configured folds, runs ``walk(evaluator, pool,
    initial pool indices)`` and refits its pick on the whole dataset.  A
    pick without a finite CV score is a SearchError naming its failing fold.
    """
    if cfg.algorithm != algorithm:
        raise SearchError(f"config algorithm is {cfg.algorithm!r}, not {algorithm}")
    pool = _resolve_pool(ds, cfg)
    evaluator = _CvEvaluator(ds, pool, kfold_split(ds, cfg.folds, cfg.fold_seed))
    found = walk(evaluator, pool, [pool.index(n) for n in cfg.initial_set])
    names = [pool[i] for i in found.selected]
    if not math.isfinite(found.final_cv):
        try:  # the pick fails some fold, so score raises that fold's error
            evaluator.score(found.selected)
        except FitError as exc:
            raise SearchError(
                f"{algorithm} stopped ({found.stop_reason}) at "
                f"[{', '.join(names)}] with no finite CV score: {exc}"
            ) from exc
    # coefficients come from the full training set, never from a fold fit
    model, diag = fit_ols(ds, names)
    meta = TrainingMeta(
        algorithm=algorithm,
        folds=cfg.folds,
        cv_mape_pct=found.final_cv,
        train_mape_pct=diag.train_mape_pct,
    )
    return SearchReport(
        algorithm=algorithm,
        folds=cfg.folds,
        fold_seed=cfg.fold_seed,
        pool=pool,
        stop_reason=found.stop_reason,
        initial_cv_mape_pct=found.initial_cv,
        iterations=tuple(found.iterations),
        final_model=dataclasses.replace(model, training=meta),
        final_cv_mape_pct=found.final_cv,
        subset_scores=found.subset_scores,
    )


def _greedy(evaluator, pool, selected, action, moves, accepts) -> _Walk:
    """The greedy loop of bottom_up and top_down.

    ``moves(selected, len(pool))`` gives the trial selections keyed by the
    pool index each one adds or removes, or a stop reason.  A step scores
    every trial as one batch and takes the best (first key on ties) while
    ``accepts(current, best)`` holds.  A "remove" step names its batch as
    the removals of the incumbent, in the incumbent's order.
    """
    current = initial_cv = evaluator.score_many([selected])[0]
    iterations: list[SearchIteration] = []
    while True:
        trials = moves(selected, len(pool))
        if isinstance(trials, str):
            stop = trials
            break
        keys = list(trials)
        scores = evaluator.score_many(
            [trials[i] for i in keys], selected if action == "remove" else ()
        )
        best = min(range(len(keys)), key=scores.__getitem__)
        if not accepts(current, scores[best]):
            stop = "converged"
            break
        # an equal-score removal may tick the score up by <= IMPROVEMENT_EPS;
        # clamp so the accepted sequence stays non-increasing
        current = min(current, scores[best])
        selected = trials[keys[best]]
        iterations.append(
            SearchIteration(
                action=action,
                counter=pool[keys[best]],
                cv_mape_pct=current,
                candidate_scores={pool[i]: s for i, s in zip(keys, scores)},
            )
        )
    return _Walk(stop, initial_cv, iterations, selected, current)


def bottom_up(ds: Dataset, cfg: SearchConfig) -> SearchReport:
    """Greedy forward selection from cfg.initial_set.

    Accepts the best-scoring addition while it strictly improves the CV
    MAPE (by more than IMPROVEMENT_EPS); stops at max_events, on pool
    exhaustion, or on convergence.  Term order in the final model is the
    order of selection.
    """

    def additions(selected, n):
        if cfg.max_events is not None and len(selected) >= cfg.max_events:
            return "max_events"
        trials = {i: selected + [i] for i in range(n) if i not in selected}
        return trials or "pool_exhausted"

    def walk(evaluator, pool, selected):
        return _greedy(
            evaluator, pool, selected, "add", additions,
            lambda current, best: current - best > IMPROVEMENT_EPS,
        )

    return _search(ds, cfg, BOTTOM_UP, walk)


def top_down(ds: Dataset, cfg: SearchConfig) -> SearchReport:
    """Greedy backward elimination from cfg.initial_set (default: whole pool).

    A removal is accepted when the best resulting score is finite and no
    worse than the incumbent: equal-score removals are taken to prefer the
    simpler model.  Stops when no removal is accepted (so when all fail) or
    the model is empty.  Term order in the final model is pool order.
    """

    def removals(selected, n):
        return {d: [i for i in selected if i != d] for d in selected} or "emptied"

    def walk(evaluator, pool, selected):
        return _greedy(
            evaluator, pool, sorted(selected) or list(range(len(pool))),
            "remove", removals,
            lambda current, best: math.isfinite(best) and best <= current + IMPROVEMENT_EPS,
        )

    return _search(ds, cfg, TOP_DOWN, walk)


def exhaustive(ds: Dataset, cfg: SearchConfig) -> SearchReport:
    """Score every subset of the pool; the global optimum for the fold split.

    Subsets are enumerated sizes ascending, lexicographic within a size, and
    the first minimum wins, so ties resolve to the smaller subset and then
    to lexicographic pool order.  max_events caps the subset size.
    """

    def walk(evaluator, pool, selected):
        if len(pool) > EXHAUSTIVE_POOL_LIMIT:
            raise SearchError(
                f"pool of {len(pool)} too large for exhaustive search "
                f"(limit {EXHAUSTIVE_POOL_LIMIT})"
            )
        top = len(pool) if cfg.max_events is None else min(cfg.max_events, len(pool))
        subsets = [
            combo
            for size in range(top + 1)
            for combo in itertools.combinations(range(len(pool)), size)
        ]
        scores = evaluator.score_many(subsets)
        best = min(range(len(subsets)), key=scores.__getitem__)
        subset_scores = {
            "+".join(pool[i] for i in combo): s for combo, s in zip(subsets, scores)
        }
        return _Walk(
            "enumerated", scores[0], [], list(subsets[best]), scores[best],
            subset_scores,
        )

    return _search(ds, cfg, EXHAUSTIVE, walk)


def run_search(ds: Dataset, cfg: SearchConfig) -> SearchReport:
    """Dispatch on cfg.algorithm."""
    return {BOTTOM_UP: bottom_up, TOP_DOWN: top_down, EXHAUSTIVE: exhaustive}[
        cfg.algorithm
    ](ds, cfg)


def _num(v: float):
    # JSON has no Infinity; candidates whose fit failed carry null instead
    return v if math.isfinite(v) else None


def _unnum(v) -> float:
    return math.inf if v is None else float(check_type("CV MAPE", v, float))


def _unnum_scores(name: str, scores) -> dict[str, float]:
    scores = check_type(name, scores, dict)
    return {check_type("counter name", k, str): _unnum(v) for k, v in scores.items()}


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
    """The SearchReport a JSON object describes.  Names must be strings,
    folds and fold_seed integers, scores numbers or null (+inf), pool and
    iterations JSON arrays and the score maps JSON objects; nothing is
    cast."""
    try:
        subset_scores = None
        if "subset_scores" in data:
            subset_scores = _unnum_scores("subset_scores", data["subset_scores"])
        return SearchReport(
            algorithm=check_type("algorithm", data["algorithm"], str),
            folds=check_type("folds", data["folds"], int),
            fold_seed=check_type("fold_seed", data["fold_seed"], int),
            pool=tuple(
                check_type("counter name", n, str)
                for n in check_type("pool", data["pool"], list)
            ),
            stop_reason=check_type("stop_reason", data["stop_reason"], str),
            initial_cv_mape_pct=_unnum(data["initial_cv_mape_pct"]),
            iterations=tuple(
                SearchIteration(
                    action=check_type("action", it["action"], str),
                    counter=check_type("counter", it["counter"], str),
                    cv_mape_pct=_unnum(it["cv_mape_pct"]),
                    candidate_scores=_unnum_scores(
                        "candidate_scores", it["candidate_scores"]
                    ),
                )
                for it in check_type("iterations", data["iterations"], list)
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
