"""The batched R-factor CV scorer: against a full-height per-fold lstsq
oracle, and against itself scored alone or in other batches."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pmcpower as pp
from pmcpower import search

from conftest import make_dataset
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

    def score_many(self, selections):
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


def _mape_tolerance(ref, cols, c=16.0):
    """How far two sound least-squares paths may put one CV MAPE apart,
    in MAPE units (percentage points).

    Each fold's fit is backward stable in both paths, so a held-out
    prediction carries an error of about eps * kappa * |y_hat|, with kappa
    the condition number of the complement's design after scaling its
    columns to unit norm.  MAPE = (100/n) * sum(|y - y_hat| / |y|) moves by
    at most (100/n) * sum(|d y_hat| / |y|), so a fold's MAPE may differ by
    c * eps * kappa * mean(|y_hat| / |y|) * 100, and the CV score by the
    mean of that over folds.  The bound is absolute: the relative error of
    a MAPE is unbounded as its residuals go to zero, which is why a
    relative 1e-12 failed on a square 3-row complement with kappa < 100.
    c = 16 is slack over the largest gap seen in ~7,000 random scores,
    1.9 units, at intercept-only models where kappa = 1 and the gap is the
    order of the MAPE sum; the kappa^2 * residual term of least-squares
    perturbation theory never showed at these noise levels.
    """
    bound = 0.0
    for test in ref.folds:
        x = np.delete(ref.design, test, axis=0)[:, cols]
        beta = np.linalg.lstsq(x, np.delete(ref.y, test), rcond=None)[0]
        kappa = np.linalg.cond(x / np.linalg.norm(x, axis=0))
        y, y_hat = ref.y[test], ref.design[test][:, cols] @ beta
        bound += 100.0 * c * EPS * kappa * np.mean(np.abs(y_hat) / np.abs(y))
    return bound / len(ref.folds)


def _pinned_case():
    # 4 rows in one-row folds: every complement of {C0, C1} is a square
    # 3 x 3 fit (worst kappa ~ 84) and the MAPE is ~0.0037, so the two
    # paths differ by 1.1e-11 relative but only 3.9e-14 points
    deltas = np.array(
        [
            [73247187, 873926249, 1148456619],
            [533124824, 246767833, 746427010],
            [1859866455, 1385348550, 777020172],
            [879057208, 482586013, 740972845],
        ],
        dtype=np.uint64,
    )
    power = np.array(
        [3.286541787767801, 2.541466840812737, 5.604586860757764, 3.232204555571818]
    )
    ds = _dataset(deltas, power, 1)
    return ds, pp.kfold_split(ds, 4)


def _pinned_search_case():
    # 5 rows in one-row folds: top_down and exhaustive pick the oracle's
    # {C0, C2, C3}, and their CV MAPEs differ by 4.7e-12 relative but only
    # 6.4e-14 points, inside that subset's _mape_tolerance of 4.9e-12
    deltas = np.array(
        [
            [403237, 988221, 980091, 322057],
            [359761, 267288, 332144, 233432],
            [862980, 824394, 925663, 227234],
            [407994, 844865, 404331, 768247],
            [38112, 442262, 192898, 515724],
        ],
        dtype=np.uint64,
    )
    power = np.array([6.8089303, 4.10859369, 7.45176292, 7.33037801, 4.23300862])
    ds = _dataset(deltas, power, 1)
    return ds, pp.kfold_split(ds, 5)


def _all_subsets(p):
    return [
        sel for size in range(p + 1) for sel in itertools.combinations(range(p), size)
    ]


@settings(max_examples=80, deadline=None)
@given(case=cv_cases())
@example(case=_pinned_case())
def test_rfactor_scores_match_per_fold_lstsq(case):
    ds, folds = case
    pool = ds.counters
    fast = search._CvEvaluator(ds, pool, folds)
    ref = _RefEvaluator(ds, pool, folds)
    for sel in _all_subsets(len(pool)):
        got, want = fast.score_or_inf(sel), ref.score_or_inf(sel)
        if np.isfinite(want):
            tol = _mape_tolerance(ref, [0] + [i + 1 for i in sel])
            assert abs(got - want) <= tol, (sel, got, want, tol)
        else:
            assert got == np.inf


@settings(max_examples=60, deadline=None)
@given(case=cv_cases(), data=st.data())
def test_scores_do_not_depend_on_the_batch(case, data):
    # a score is a function of its subset's columns alone: scored alone, in
    # one batch of every subset, or shuffled into small batch steps, it
    # carries the same bits
    ds, folds = case
    fast = search._CvEvaluator(ds, ds.counters, folds)
    subsets = _all_subsets(len(ds.counters))
    alone = [fast.score_or_inf(sel) for sel in subsets]
    assert fast.score_many(subsets) == alone
    order = data.draw(st.permutations(range(len(subsets))))
    fast.batch = data.draw(st.integers(1, 8))
    shuffled = fast.score_many([subsets[i] for i in order])
    assert shuffled == [alone[i] for i in order]
    # byte-identical counters tie exactly within one batch
    first = {}
    copy_of = [first.setdefault(ds.deltas[:, j].tobytes(), j) for j in range(len(ds.counters))]
    by_columns = {}
    for sel, score in zip(subsets, alone):
        by_columns.setdefault(tuple(sorted(copy_of[i] for i in sel)), set()).add(score)
    assert all(len(scores) == 1 for scores in by_columns.values())


def test_zero_guard_holds_through_every_search():
    # held-out power below MAPE_ZERO_GUARD_W is an error, never a +inf score
    ds = make_dataset(40, 3, seed=9, n_runs=5)
    power = ds.power_w.copy()
    power[7] = 1e-10
    ds = dataclasses.replace(ds, power_w=power)
    with pytest.raises(ValueError, match="zero-guard"):
        pp.cv_score(ds, ("C1",), 5)
    for algorithm in pp.SEARCH_ALGORITHMS:
        with pytest.raises(ValueError, match="zero-guard"):
            pp.run_search(ds, pp.SearchConfig(algorithm=algorithm, folds=5))


@settings(max_examples=40, deadline=None)
@given(case=cv_cases(edits=("dup", "zero")))
@example(case=_pinned_search_case())
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
        chosen = want.final_model.counter_names
        assert got.final_model.counter_names == chosen
        # an absolute bound: a MAPE near zero can break a relative 1e-12
        # with both paths sound (see _mape_tolerance)
        ref = _RefEvaluator(ds, want.pool, pp.kfold_split(ds, cfg.folds, cfg.fold_seed))
        tol = _mape_tolerance(ref, [0] + [want.pool.index(c) + 1 for c in chosen])
        assert abs(got.final_cv_mape_pct - want.final_cv_mape_pct) <= tol


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
