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
rank cut-off is the final fit's, ``regress.rank_cutoff``:
s_min > eps * max(n_train, k) * s_max, with n_train the complement's row
count, not R's.  A cheap bound certifies most subsets; the rest are decided
by the SVD of R_f[:, cols].  A greedy step is scored by one step scorer
from the incumbent's factorisation, the evaluator's one chain of appends,
resumed once per step where the incumbent's columns first differ: the
starting set is the chain itself, a bottom_up step appends every
candidate column to it at once, in append order rather than sorted, and
a top_down step re-appends only the columns after the one it removed,
then downdates the removals of a set that scores finite in closed form.
Any other batch is solved on its sorted keys.  Each scoring call
predicts its keys' held-out rows by one GEMM per fold over the columns
those keys use: a chunk of keys, whose size bounds both its prefix
states and that block, or one greedy step, whose block on a fold (at
most pool keys) is no larger than the fold's slice of the data.  That
prediction alone turns a key's fold MAPEs into its score: their mean, or
+inf when a fold fails.  Equal column sets in one batch (copies of a
counter, a subset listed twice) are scored once and tie exactly; across
batches, or in another column order, a score may move in its last bits,
within a tested bound set by its condition number.  The final model is
always refit on the full training set.  One owner per decision: searches
score only through ``score_many``, ``_append`` extends every
factorisation and ``check_zero_guard`` checks each dataset once
(``_CvEvaluator`` has the rest).

Fold assignment is by whole benchmark run when at least k distinct runs
exist, otherwise by contiguous row blocks.  A candidate whose fit fails on
some fold (rank deficiency) scores +infinity rather than aborting the
search; a search that ends there raises, naming the first failing fold.
Ties are broken by candidate-pool order, lowest index first.

The search report declares its fields as ``dataset.json_field``s.  A CV
MAPE is finite or +inf, never NaN or -inf; JSON writes +inf as null and
reads a null score as +inf, the one null any artifact reads.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import logging
import math
import zlib
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import (
    Dataset,
    check_counter_names,
    check_fields,
    check_type,
    is_integer,
    json_field,
    read_json,
    with_source,
    write_json,
)
from .errors import FitError, RankDeficientError, SearchError
from .regress import (
    ALGORITHMS as SEARCH_ALGORITHMS,
    PowerModel,
    TrainingMeta,
    check_zero_guard,
    fit_ols,
    mape_rows,
    rank_cutoff,
)

log = logging.getLogger(__name__)

BOTTOM_UP, TOP_DOWN, EXHAUSTIVE = SEARCH_ALGORITHMS

# a step must beat the incumbent by more than this to count as an improvement
IMPROVEMENT_EPS = 1e-12
EXHAUSTIVE_POOL_LIMIT = 20
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
    exhaustive, and is at least the size of initial_set; top_down refuses
    it.  folds, fold_seed and max_events are integers, not bools.  Ties are
    always broken by candidate-pool order (lowest index wins).  A search
    step is one batched computation.
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
        if self.algorithm == TOP_DOWN and self.max_events is not None:
            raise ValueError("max_events does not apply to top_down")
        if self.algorithm == EXHAUSTIVE and self.initial_set:
            raise ValueError("initial_set does not apply to exhaustive")
        # a cap below the initial set would return a model larger than it
        caps = (("folds", 2), ("max_events", len(self.initial_set)), ("fold_seed", 0))
        for name, low in caps:
            value = getattr(self, name)
            if value is None and name == "max_events":
                continue  # no cap
            if not (is_integer(value) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
            object.__setattr__(self, name, check_type(name, value, int))


def _num(v: float):
    # JSON has no Infinity; candidates whose fit failed carry null instead
    return v if math.isfinite(v) else None


def _nums(scores: dict) -> dict:
    return {k: _num(v) for k, v in scores.items()}


def _names(name: str, value, where=None) -> tuple[str, ...]:
    return check_counter_names(value if where is None else check_type(name, value, list))


def _cv_mape(name: str, value, where=None) -> float:
    """A CV MAPE as a float: finite, or +inf (null in JSON) for a failed fit."""
    if value is None and where is not None:
        return math.inf
    score = float(check_type("CV MAPE", value, float))
    if not -math.inf < score <= math.inf:  # NaN fails both
        raise ValueError(f"CV MAPE must be finite or +inf, got {value!r}")
    return score


def _score_map(name: str, scores, where=None) -> dict[str, float]:
    """A dict of names to CV MAPEs.  One with str names and float scores is
    kept, not copied: an exhaustive report holds a score per subset."""
    pairs = check_type(name, scores, dict).items()
    if all(type(k) is str and type(v) is float and -math.inf < v for k, v in pairs):
        return scores
    return {check_type("counter name", k, str): _cv_mape(name, v, where) for k, v in pairs}


@dataclass(frozen=True)
class SearchIteration:
    """One accepted step: what changed and every candidate's CV score."""

    json_name = "search iteration"

    action: str = json_field(str)  # "add" or "remove"
    counter: str = json_field(str)
    cv_mape_pct: float = json_field(_cv_mape, write=_num)
    candidate_scores: dict[str, float] = json_field(_score_map, write=_nums)

    __post_init__ = check_fields


@dataclass(frozen=True)
class SearchReport:
    """Audit trail of a search: accepted steps, scores and the final model.

    The report checks its own fields, each by the rule it names: names are
    str, folds and fold_seed int (not bool), pool counter names, never one
    string, and a CV MAPE a float, finite or +inf (null in JSON), never NaN
    or -inf.  Accepted scores are non-increasing.
    """

    json_name = "search report"

    algorithm: str = json_field(str)
    folds: int = json_field(int)
    fold_seed: int = json_field(int)
    pool: tuple[str, ...] = json_field(_names)
    stop_reason: str = json_field(str)
    initial_cv_mape_pct: float = json_field(_cv_mape, write=_num)
    iterations: tuple[SearchIteration, ...] = json_field((SearchIteration,))
    final_model: PowerModel = json_field(PowerModel)
    final_cv_mape_pct: float = json_field(_cv_mape, write=_num)
    # exhaustive only: score of every evaluated subset, keyed "A+B+C" in
    # pool order ("" is the intercept-only subset)
    subset_scores: dict[str, float] | None = json_field(
        _score_map, write=_nums, default=None
    )

    def __post_init__(self):
        check_fields(self)
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
    k and seed are integers, not bools, and seed is >= 0, else a
    SearchError.
    """
    if not is_integer(k):
        raise SearchError(f"folds must be an integer, got {k!r}")
    if k < 2:
        raise SearchError("folds must be >= 2")
    if not (is_integer(seed) and seed >= 0):
        raise SearchError(f"seed must be an integer >= 0, got {seed!r}")
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
        with_source(ds, f"{k} folds exceed the {max(len(runs), n)} assignable groups")
    )


class _Prefixes(NamedTuple):
    """Key prefixes scored by _CvEvaluator._append, one row each, per fold:
    Q (orthonormal rows spanning ``R_f[:, prefix]``, which is ``Q^T T``),
    T^-1, the least-squares beta, ||R_f[:, prefix]||_F^2 and
    ||T^-1||_F^2; and each prefix's first failed fold.  The first three hold
    the prefix's k in their leading entries, with room for a key of up to W
    columns.  A greedy step's Q, T^-1 and norms are its incumbent's one row,
    which broadcasts; Q and T^-1 are views of its k columns, with no room."""

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
    full-height array kept, filled a block of rows at a time straight from
    the dataset's deltas.  ``n_train`` holds each fold's complement row
    count and ``r[f]`` the R factor of fold f's complement (its own
    min(n_train, P) rows, then zero rows), a view of the one array of R
    columns that ``_append`` reads.  ``col_map`` sends every column to its
    first bit-identical copy (by a CRC-32 digest, confirmed on the bits).

    A subset is scored on the key ``sort(col_map[[0] + selection + 1])``,
    so copies of a counter and one subset listed in two orders are one
    key; a greedy step scores on its incumbent's chain key instead.  One
    method owns each decision: ``score_many``, the searches' one entry,
    sends a greedy step named by its incumbent to ``_step_scores`` and
    every other batch to ``_score_keys``, which scores the distinct keys
    in lexicographic order (a depth first walk of their prefix tree);
    ``_held_out_mape`` alone predicts held-out rows, by one GEMM per fold,
    and alone turns them into a score: the mean over the folds, +inf where
    a fold fails (``score`` raises instead).  ``_append`` alone extends
    factorisations, each prefix from its parent on every fold at once, for
    ``_solve`` (sorted keys from the empty prefix) and for the incumbent
    chain (``_resume``), whose depths share one Q and T^-1 and keep their
    own beta, ||A||_F^2, ||T^-1||_F^2 and first failed fold.
    ``_step_scores`` resumes the chain once per step, then appends the
    step's candidates to views of its Q and T^-1 in one call or downdates
    a set's removals from its beta and T^-1.  Memory has two bounds:
    ``chunk`` keys at a time bound the prefix states and the prediction
    block of ``_score_keys``; a greedy step of at most pool keys predicts
    a block per fold no larger than that fold's slice of ``columns`` and
    holds candidates x folds x (width + P) floats beside it.  A key is
    full rank when s_min > eps * max(n_train, k) * s_max, ``rank_cutoff``
    of a fit on the complement (n_train is the complement's row count, not
    R's): a bound certifies it, else the SVD of ``R_f[:, key]`` decides,
    and a prefix that fails a fold fails it for every key below.
    """

    def __init__(self, ds: Dataset, pool: Sequence[str], folds: list[np.ndarray]):
        check_zero_guard(ds)
        idx = np.array([ds.counters.index(name) for name in pool], dtype=np.intp)
        order = np.concatenate(folds)
        edges = np.cumsum([0] + [len(f) for f in folds])
        self.columns = np.empty((len(idx) + 2, len(order)), dtype=np.float64)
        self.columns[0] = 1.0
        # a block of rows at a time, so no full-height gather of the deltas
        step = max(1, _BATCH_CELLS // max(1, len(idx)))
        for lo in range(0, len(order), step):
            rows = order[lo : lo + step, None]
            self.columns[1:-1, lo : lo + step] = ds.deltas[rows, idx].T
        self.columns[-1] = ds.power_w[order]
        self.col_map = self._first_copies()
        self.tests = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
        self.n_train = len(order) - np.diff(edges)
        blocks = [np.linalg.qr(self.columns[:, test].T, mode="r") for test in self.tests]
        # a complement's R has min(n_train, P) rows, as its stacked blocks do;
        # column c of fold f's R factor is _r_cols[c, f, 0], as _append takes it
        p, n_folds = len(self.columns), len(folds)
        self._r_cols = np.zeros((p, n_folds, 1, p))
        for fi in range(n_folds):
            r = np.linalg.qr(np.vstack(blocks[:fi] + blocks[fi + 1 :]), mode="r")
            self._r_cols[:, fi, 0, : len(r)] = r.T
        self.r = self._r_cols[:, :, 0].transpose(1, 2, 0)
        self._r_norm2 = (self._r_cols**2).sum(-1)
        # per prefix length k: the squared certificate cut-off of each fold,
        # and the first fold with fewer training rows than k
        k = np.arange(p + 1)[:, None]
        self._cut2 = (_CERT * rank_cutoff(self.n_train, k))[:, :, None] ** 2
        short = self.n_train < k
        self._short = np.where(short.any(axis=1), short.argmax(axis=1), n_folds)
        self._fold_ids = np.arange(n_folds)[:, None]
        # a key's cells on one fold: its Q and T^-1 (at most p x p each) or
        # its held-out predictions (at most the largest fold's rows).  A
        # chunk of keys solved and predicted at once holds these on every
        # fold, so _score_keys steps by chunk keys to stay near _BATCH_CELLS
        cells = max(int(np.diff(edges).max()), p**2)
        self.chunk = max(1, _BATCH_CELLS // (cells * n_folds))
        # scores of the batch score_many is handing out, keyed by selection
        self._batch_scores: dict[tuple, float] = {}
        # the incumbent chain: design columns in append order, and the state
        # after each depth, the empty prefix first; they share Q and T^-1, with
        # room for any key (p - 1 columns), whose leading blocks hold at every depth
        self._chain_key: tuple[int, ...] = ()
        self._chain = [self._empty_prefix(p - 1)]

    def _first_copies(self) -> np.ndarray:
        """The index of each design column's first bit-identical copy.
        Columns are keyed by a CRC-32 of their bytes, and a digest match
        counts only when the bits are equal too, so a collision never merges
        two columns, and -0.0 is not 0.0."""
        bits = self.columns.view(np.uint64)
        by_digest: dict[int, list[int]] = collections.defaultdict(list)
        col_map = []
        for j, col in enumerate(bits[:-1]):
            twins = by_digest[zlib.crc32(col)]
            first = next((i for i in twins if np.array_equal(bits[i], col)), None)
            if first is None:
                twins.append(first := j)
            col_map.append(first)
        return np.array(col_map, dtype=np.intp)

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
        """CV MAPE of one selection of the batch ``score_many`` is handing
        out, +inf when infeasible."""
        return self._batch_scores[tuple(selection)]

    def score_many(self, selections, incumbent=None) -> list[float]:
        """CV MAPE of every selection, in order; infeasible ones score +inf.

        A named ``incumbent`` says the batch is one greedy step from it,
        the incumbent alone included, scored by ``_step_scores`` from the
        incumbent's factorisation.  Any other batch, and a step whose
        removals have no closed form, is scored by ``_score_keys`` on its
        sorted keys.  The scores are computed as one batch and handed out
        one candidate at a time through ``score_or_inf``, so every
        candidate scored passes once through that entry point.
        """
        scores = None
        if incumbent is not None and len(selections) > 0:
            scores = self._step_scores(incumbent, selections)
        if scores is None:
            scores = self._score_keys(self._keys(selections))[0]
        self._batch_scores = dict(zip(map(tuple, selections), scores.tolist()))
        try:
            return [self.score_or_inf(sel) for sel in selections]
        finally:
            self._batch_scores = {}

    def _resume(self, selection: Sequence[int]) -> _Prefixes:
        """The incumbent chain moved to ``selection``, and its last state.

        The chain keeps the longest prefix of its key whose columns the
        selection still holds and appends the rest in ascending order, one
        ``_append`` per depth.  So a removal resumes at the removed column
        and an addition appends one column, and a chain built from empty,
        or only ever shortened, is the sorted key ``_solve`` would build,
        bit for bit."""
        left = collections.Counter(self._columns_of(selection).tolist())
        left[0] += 1
        keep = 0
        while keep < len(self._chain_key) and left[self._chain_key[keep]]:
            left[self._chain_key[keep]] -= 1
            keep += 1
        key = self._chain_key[:keep] + tuple(sorted(left.elements()))
        del self._chain[keep + 1 :]
        for d in range(keep, len(key)):
            parent = self._chain[-1]
            parent = parent._replace(beta=parent.beta.copy())
            self._chain.append(self._append(parent, np.array([key[: d + 1]])))
        self._chain_key = key
        return self._chain[-1]

    def _columns_of(self, selection: Sequence[int]) -> np.ndarray:
        """The design column that scores each pool index of ``selection``."""
        return self.col_map[np.array(selection, dtype=np.intp) + 1]

    def _step_scores(self, incumbent, selections) -> np.ndarray | None:
        """CV MAPE of each selection of one greedy step from ``incumbent``,
        in order, +inf where a fold fails, from the chain resumed at it; or
        None where removals have no closed form.  The step's length says
        how it moves the key:

        - the same: the incumbent alone.  A chain built from empty, as a
          search's starting set is, gives the bits ``_score_keys`` gives,
          and the first step then resumes it.
        - longer, the incumbent with one pool index appended: one
          ``_append`` puts every distinct new column onto views of the
          chain's last Q and T^-1, which it only reads, so only beta and
          the failed fold are copied per candidate.  The key is in append
          order, so a score may differ in its last bits from the sorted key's.
        - shorter, the incumbent without its entry j (selection j): when
          the incumbent has two columns or more and scores finite, its
          beta and T^-1 give every removal in closed form.  With
          C = T^-1 T^-T = (R^T R)^-1, dropping key column j gives
          beta - (beta_j / C_jj) C[:, j], entry j zeroed (Golub & Van Loan,
          section 6.5).  Dropping a column cannot lower s_min or raise
          s_max, so every removal passes its set's rule.
        """
        m, grow = len(incumbent), len(selections[0]) - len(incumbent)
        q_rows, t_inv, beta, a_norm2, t_norm2, failed = self._resume(incumbent)
        key, n_folds = np.array(self._chain_key), len(self.tests)
        width, back = len(key), np.zeros(len(selections), dtype=np.intp)
        if grow == 0:
            keys, beta = key[None], beta[:, :, :width]
        elif grow > 0:
            added = self._columns_of([sel[-1] for sel in selections])
            cols, back = np.unique(added, return_inverse=True)
            keys = np.column_stack([np.broadcast_to(key, (len(cols), width)), cols])
            step = _Prefixes(
                q_rows[:, :, :width], t_inv[:, :, :width, :width],
                beta[:, :, : width + 1].repeat(len(cols), 0), a_norm2, t_norm2,
                failed.repeat(len(cols)),
            )
            _, _, beta, _, _, failed = self._append(step, keys)
        elif m < 2 or failed[0] < n_folds:
            return None
        else:
            back = np.arange(m)
            order = np.argsort(key)
            pos = order[np.searchsorted(key, self._columns_of(incumbent), sorter=order)]
            t_inv, beta = t_inv[0, :, :width, :width], beta[0, :, :width]
            c = t_inv[:, pos] @ t_inv.swapaxes(-1, -2)  # rows pos of C, per fold
            beta = beta[:, None] - (beta[:, pos] / c[:, back, pos])[..., None] * c
            beta[:, back, pos] = 0.0
            keys, beta = np.broadcast_to(key, (m, width)), beta.swapaxes(0, 1)
            failed = np.full(m, n_folds)
        return self._held_out_mape(keys, beta, failed)[back]

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
        """CV MAPE of every key row (``_held_out_mape``: +inf where a fold
        fails), and the first fold whose fit failed (``len(self.tests)``
        when none did).

        Sorted lexicographically, the keys walk their prefix tree depth
        first, and equal keys are neighbours, scored once and sharing that
        score.  The distinct keys are solved and predicted ``self.chunk`` at
        a time, which keeps both the prefix states of a chunk and its
        prediction block within a small multiple of _BATCH_CELLS.
        """
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        new = np.ones(len(keys), dtype=bool)
        new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        keys = keys[new]
        scores = np.empty(len(keys))
        failed = np.empty(len(keys), dtype=np.intp)
        for lo in range(0, len(keys), self.chunk):
            part = slice(lo, lo + self.chunk)
            betas, failed[part] = self._solve(keys[part])
            scores[part] = self._held_out_mape(keys[part], betas, failed[part])
        back = (np.cumsum(new) - 1)[np.argsort(order)]  # each key's distinct key
        return scores[back], failed[back]

    def _solve(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-fold beta, zero-padded to the key width, and first failed
        fold of sorted, padded key rows.

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
        failed = np.empty(n_keys, dtype=np.intp)
        prefixes = self._empty_prefix(width)
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
                failed[ends] = prefixes.failed[end_ids]
        return betas, failed

    def _empty_prefix(self, width: int) -> _Prefixes:
        """The prefix before the intercept, with room for ``width`` columns."""
        n_folds, p = len(self.tests), len(self.columns)
        return _Prefixes(
            np.zeros((1, n_folds, width, p)), np.zeros((1, n_folds, width, width)),
            np.zeros((1, n_folds, width)), np.zeros((1, n_folds, 1)),
            np.zeros((1, n_folds, 1)), np.full(1, n_folds),
        )

    def _held_out_mape(self, keys, betas, failed) -> np.ndarray:
        """CV MAPE of every key, the mean of its held-out MAPE over the
        folds, or +inf for a key that fails a fold (``failed`` below
        ``len(self.tests)``), from its per-fold ``betas``: per fold, one
        GEMM of their zero-padded rows over the columns some key weights
        (over every pool column, a narrow key's GEMM on 20k held-out rows
        was memory bound, twice as slow).  The caller bounds the (keys x
        fold rows) block: ``_score_keys`` by its chunk, ``_step_scores`` by
        the pool width."""
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
            total[live] += mape_rows(y, fold_rows @ x)
        return np.where(failed < n_folds, math.inf, total / n_folds)

    def _append(self, prefixes: _Prefixes, keys: np.ndarray) -> _Prefixes:
        """Each prefix row extended by the last column a of its row of
        ``keys``, on every fold at once.  ``prefixes``' beta, which the
        caller owns, is updated in place, and so are Q and T^-1 where
        ``q_rows`` has room for column d: ``_solve``'s and the chain's
        always do, a greedy step's views of its incumbent never do.

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
        q /= rho[..., None]
        gamma = (q * self._r_cols[-1]).sum(-1) / rho
        if q_rows.shape[2] > d:
            q_rows[:, :, d] = q[:, :, 0]
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
                cut = rank_cutoff(n_train, k)
                full = (s[:, -1] > cut * s[:, 0]) & (rho2[rows, fi] > 0)
                failed[rows[~full]] = fi
        return failed


def cv_score(
    ds: Dataset, predictors: Sequence[str], k: int, seed: int = 0
) -> float:
    """k-fold CV MAPE of one predictor set; mean of the k fold MAPEs."""
    names = check_counter_names(predictors)
    missing = ", ".join(n for n in names if n not in ds.counters)
    if missing:
        raise SearchError(with_source(ds, f"predictors not in dataset: {missing}"))
    evaluator = _CvEvaluator(ds, names, kfold_split(ds, k, seed))
    return evaluator.score(range(len(names)))


def _resolve_pool(ds: Dataset, cfg: SearchConfig) -> tuple[str, ...]:
    """The candidate pool, checked to be non-empty, in the dataset, to
    hold the initial set and, for exhaustive, to be within its limit."""
    pool = check_counter_names(cfg.candidate_pool or ds.counters)
    missing = ", ".join(n for n in pool if n not in ds.counters)
    if missing:
        raise SearchError(with_source(ds, f"pool counters not in dataset: {missing}"))
    if not pool:
        raise SearchError(with_source(ds, "empty candidate pool"))
    if cfg.algorithm == EXHAUSTIVE and len(pool) > EXHAUSTIVE_POOL_LIMIT:
        raise SearchError(
            f"pool of {len(pool)} too large for exhaustive search "
            f"(limit {EXHAUSTIVE_POOL_LIMIT})"
        )
    for name in cfg.initial_set:
        if name not in pool:
            raise SearchError(f"initial counter {name!r} not in candidate pool")
    return pool


def _search(ds: Dataset, cfg: SearchConfig, algorithm: str, walk) -> SearchReport:
    """The setup every search shares around its strategy.

    Checks the algorithm, resolves the pool and the initial set, builds the
    evaluator on the configured folds, runs ``walk(evaluator, pool,
    initial pool indices)`` and refits its pick on the whole dataset.  A
    walk returns its pick, in pool indices, and the report fields it
    decides, which pass through.  A pick without a finite CV score is a
    SearchError naming its failing fold.
    """
    if cfg.algorithm != algorithm:
        raise SearchError(f"config algorithm is {cfg.algorithm!r}, not {algorithm}")
    pool = _resolve_pool(ds, cfg)
    evaluator = _CvEvaluator(ds, pool, kfold_split(ds, cfg.folds, cfg.fold_seed))
    selected, found = walk(evaluator, pool, [pool.index(n) for n in cfg.initial_set])
    names = [pool[i] for i in selected]
    final_cv = found["final_cv_mape_pct"]
    if not math.isfinite(final_cv):
        try:  # the pick fails some fold, so score raises that fold's error
            evaluator.score(selected)
        except FitError as exc:
            raise SearchError(
                f"{algorithm} stopped ({found['stop_reason']}) at "
                f"[{', '.join(names)}] with no finite CV score: {exc}"
            ) from exc
    del evaluator  # its columns are as large as the data: free them for the refit
    # coefficients come from the full training set, never from a fold fit
    model, diag = fit_ols(ds, names)
    meta = TrainingMeta(
        algorithm=algorithm,
        folds=cfg.folds,
        cv_mape_pct=final_cv,
        train_mape_pct=diag.train_mape_pct,
    )
    return SearchReport(
        algorithm=algorithm,
        folds=cfg.folds,
        fold_seed=cfg.fold_seed,
        pool=pool,
        final_model=dataclasses.replace(model, training=meta),
        **found,
    )


def _greedy(evaluator, pool, selected, action, moves, accepts):
    """The greedy loop of bottom_up and top_down.

    ``moves(selected, len(pool))`` gives the trial selections keyed by the
    pool index each one adds or removes, or a stop reason: additions
    append their index to the incumbent, removals come in the incumbent's
    order.  The starting set is scored as the incumbent alone, which builds
    its factorisation once.  A step scores every trial as one batch named
    as a step from the incumbent, so it starts from that factorisation, and
    takes the best (first key on ties) while ``accepts(current, best)``
    holds.
    """
    current = initial_cv = evaluator.score_many([selected], selected)[0]
    iterations: list[SearchIteration] = []
    while True:
        trials = moves(selected, len(pool))
        if isinstance(trials, str):
            stop = trials
            break
        keys = list(trials)
        scores = evaluator.score_many([trials[i] for i in keys], selected)
        best = min(range(len(keys)), key=scores.__getitem__)
        if not accepts(current, scores[best]):
            stop = "converged"
            break
        # an equal-score removal may tick the score up by <= IMPROVEMENT_EPS;
        # clamp so the accepted sequence stays non-increasing
        current = min(current, scores[best])
        selected = trials[keys[best]]
        scored = {pool[i]: s for i, s in zip(keys, scores)}
        iterations.append(SearchIteration(action, pool[keys[best]], current, scored))
    return selected, dict(
        stop_reason=stop, initial_cv_mape_pct=initial_cv,
        iterations=tuple(iterations), final_cv_mape_pct=current,
    )


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
    to lexicographic pool order.  max_events caps the subset size.  A pool
    over EXHAUSTIVE_POOL_LIMIT is refused before folds or factorisations
    are built.
    """

    def walk(evaluator, pool, selected):
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
        return list(subsets[best]), dict(
            stop_reason="enumerated", initial_cv_mape_pct=scores[0], iterations=(),
            final_cv_mape_pct=scores[best], subset_scores=subset_scores,
        )

    return _search(ds, cfg, EXHAUSTIVE, walk)


def run_search(ds: Dataset, cfg: SearchConfig) -> SearchReport:
    """Dispatch on cfg.algorithm."""
    return {BOTTOM_UP: bottom_up, TOP_DOWN: top_down, EXHAUSTIVE: exhaustive}[
        cfg.algorithm
    ](ds, cfg)


def write_report(report: SearchReport, path) -> None:
    write_json(report, path)


def read_report(path) -> SearchReport:
    return read_json(path, SearchReport)
