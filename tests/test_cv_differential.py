"""The R-factor CV scorer against a full-height per-fold lstsq oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmcpower as pp
from pmcpower import search

from ref_impl import ref_cv_score

EPS = np.finfo(np.float64).eps


def _dataset(deltas, power, n_runs):
    n, p = deltas.shape
    runs = np.array_split(np.arange(n), n_runs)
    return pp.Dataset(
        counters=tuple(f"C{j}" for j in range(p)),
        time_keys=np.arange(1, n + 1, dtype=np.uint64),
        run_ids=tuple(f"r{r}" for r, block in enumerate(runs) for _ in block),
        power_w=power,
        deltas=deltas,
    )


class _RefEvaluator:
    """Stands in for _CvEvaluator so the search functions run on the oracle.

    A column is scored as its first byte-identical copy and the columns in
    ascending order, which is the tie rule the searches promise for
    duplicated counters.
    """

    def __init__(self, ds, pool, folds):
        idx = [ds.counters.index(name) for name in pool]
        self.design = np.column_stack(
            [np.ones(ds.n_rows), ds.deltas[:, idx].astype(np.float64)]
        )
        self.y = ds.power_w
        self.folds = folds
        columns = [self.design[:, j].tolist() for j in range(self.design.shape[1])]
        self.first_copy = [columns.index(col) for col in columns]

    def score_or_inf(self, selection):
        cols = sorted(self.first_copy[j] for j in [0] + [i + 1 for i in selection])
        return ref_cv_score(self.design, self.y, self.folds, cols)

    def score_many(self, selections, n_jobs):
        return [self.score_or_inf(s) for s in selections]


@st.composite
def cv_cases(draw, edits=("dup", "zero", "sum")):
    """Random designs with duplicate, all-zero and sum columns, run-aligned
    or row-block folds, and (for small n) complements shorter than the
    parameter count."""
    k = draw(st.integers(2, 5))
    run_aligned = draw(st.booleans())
    n_runs = draw(st.integers(k, 10)) if run_aligned else draw(st.integers(1, k - 1))
    n = draw(st.integers(max(k, n_runs), 60))
    p = draw(st.integers(3, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    high = draw(st.sampled_from([2**8, 2**20, 2**31]))
    deltas = rng.integers(0, high, size=(n, p), dtype=np.uint64)
    for edit in draw(st.lists(st.sampled_from(edits), max_size=3)):
        a, b, c = rng.permutation(p)[:3]
        if edit == "dup":
            deltas[:, c] = deltas[:, a]
        elif edit == "zero":
            deltas[:, c] = 0
        elif np.all(deltas[:, a] + deltas[:, b] < 2**32):
            deltas[:, c] = deltas[:, a] + deltas[:, b]
    coefs = rng.uniform(0.0, 4.0 / high, size=p)
    power = 1.0 + deltas.astype(np.float64) @ coefs
    power *= rng.uniform(0.95, 1.05, size=n)
    ds = _dataset(deltas, power, n_runs)
    folds = pp.kfold_split(ds, k, seed=seed % 97)
    assert run_aligned == (len(set(ds.run_ids)) >= k)
    return ds, folds


def _assert_close(got, want, rel=1e-12):
    if got == np.inf or want == np.inf:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=rel, abs=0.0)


def _scaled_cond(ref, cols):
    """Largest condition number over the fold complements of the design
    columns ``cols``, each column scaled to unit norm."""
    worst = 1.0
    for test in ref.folds:
        x = np.delete(ref.design, test, axis=0)[:, cols]
        worst = max(worst, np.linalg.cond(x / np.linalg.norm(x, axis=0)))
    return worst


@settings(max_examples=80, deadline=None)
@given(case=cv_cases())
def test_rfactor_scores_match_per_fold_lstsq(case):
    ds, folds = case
    pool = ds.counters
    fast = search._CvEvaluator(ds, pool, folds)
    ref = _RefEvaluator(ds, pool, folds)
    for size in range(len(pool) + 1):
        for sel in itertools.combinations(range(len(pool)), size):
            got, want = fast.score_or_inf(sel), ref.score_or_inf(sel)
            if np.isfinite(want):
                # 1e-12 while the complement fits are well posed; a nearly
                # square, nearly singular fit (few rows beyond the parameter
                # count) amplifies rounding in either path by its condition
                kappa = _scaled_cond(ref, [0] + [i + 1 for i in sel])
                _assert_close(got, want, rel=max(1e-12, 1e-14 * kappa))
            else:
                assert got == np.inf


@settings(max_examples=40, deadline=None)
@given(case=cv_cases(edits=("dup", "zero")))
def test_searches_pick_what_the_oracle_picks(case):
    # no sum columns here: {A, B} and {A, A+B} tie in exact arithmetic, and
    # which of them a greedy step takes is then decided by rounding alone
    ds, folds = case
    for algorithm in pp.SEARCH_ALGORITHMS:
        cfg = pp.SearchConfig(algorithm=algorithm, folds=len(folds), fold_seed=0)
        got = pp.run_search(ds, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_CvEvaluator", _RefEvaluator)
            want = pp.run_search(ds, cfg)
        assert got.final_model.counter_names == want.final_model.counter_names
        _assert_close(got.final_cv_mape_pct, want.final_cv_mape_pct)


def test_complement_shorter_than_parameters_scores_inf():
    rng = np.random.default_rng(4)
    deltas = rng.integers(0, 2**20, size=(8, 6), dtype=np.uint64)
    ds = _dataset(deltas, rng.uniform(1.0, 2.0, size=8), 1)
    folds = pp.kfold_split(ds, 4)  # 6-row complements
    fast = search._CvEvaluator(ds, ds.counters, folds)
    ref = _RefEvaluator(ds, ds.counters, folds)
    assert fast.score_or_inf(range(6)) == ref.score_or_inf(range(6)) == np.inf
    _assert_close(fast.score_or_inf(range(5)), ref.score_or_inf(range(5)))
    with pytest.raises(pp.FitError, match=r"fold 0: fewer rows \(6\) than parameters \(7\)"):
        fast.score(range(6))


def test_rank_cutoff_scales_with_training_rows_not_r_rows():
    # B is A plus one count in one row of each fold: every complement has a
    # smallest singular-value ratio above eps * (rows of R) but below
    # eps * n_train, so lstsq on the full-height complement calls it rank
    # deficient, and so must the R-factor path
    n = 40000
    rng = np.random.default_rng(11)
    a = rng.integers(2**31, 2**32 - 2, size=n, dtype=np.uint64)
    b = a.copy()
    b[[n // 4, 3 * n // 4]] += 1
    ds = _dataset(np.column_stack([a, b]), rng.uniform(1.0, 2.0, size=n), 1)
    folds = pp.kfold_split(ds, 2)
    fast = search._CvEvaluator(ds, ds.counters, folds)
    ref = _RefEvaluator(ds, ds.counters, folds)
    for test, (n_train, r, _) in zip(folds, fast.folds):
        train = np.setdiff1d(np.arange(n), test)
        s = np.linalg.svd(ref.design[train], compute_uv=False)
        assert EPS * r.shape[0] < s[-1] / s[0] < EPS * n_train
        # a cut-off scaled by R's own height keeps the near-copy
        assert np.linalg.lstsq(r[:, :3], r[:, -1], rcond=None)[2] == 3
    assert fast.score_or_inf((0, 1)) == ref.score_or_inf((0, 1)) == np.inf
    _assert_close(fast.score_or_inf((0,)), ref.score_or_inf((0,)))
    _assert_close(fast.score_or_inf((1,)), ref.score_or_inf((1,)))
