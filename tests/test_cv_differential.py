"""The batched R-factor CV scorer: against a full-height per-fold lstsq
oracle, and against itself scored alone or in other batches."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pmcpower as pp
from pmcpower import search

from conftest import linear_dataset, make_dataset
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

    def _cols(self, selection):
        return sorted(self.first_copy[j] for j in [0] + [i + 1 for i in selection])

    def score(self, selection):
        """The oracle's CV MAPE, or the error _CvEvaluator.score raises for
        the first fold whose complement fit fails."""
        cols = self._cols(selection)
        failure = _first_failure(self, cols)
        if failure is None:
            return ref_cv_score(self.design, self.y, self.folds, cols)
        fold, error = failure
        if error is pp.FitError:
            n_train = self.y.size - len(self.folds[fold])
            raise error(f"fold {fold}: fewer rows ({n_train}) than parameters ({len(cols)})")
        raise error(f"fold {fold}: rank-deficient design, drop a predictor")

    def score_or_inf(self, selection):
        return ref_cv_score(self.design, self.y, self.folds, self._cols(selection))

    def score_many(self, selections, incumbent=None):
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
        got, want = fast.score_many([sel])[0], ref.score_or_inf(sel)
        if np.isfinite(want):
            tol = _mape_tolerance(ref, [0] + [i + 1 for i in sel])
            assert abs(got - want) <= tol, (sel, got, want, tol)
        else:
            assert got == np.inf


@settings(max_examples=60, deadline=None)
@given(case=cv_cases(), data=st.data())
def test_scores_do_not_depend_on_the_batch(case, data):
    # the batch a subset is scored in moves only the rounding of its
    # predictions (a GEMM row may round differently beside other rows):
    # scored alone, in one batch of every subset, or shuffled into small
    # batch steps that repeat some subsets, a score stays within its
    # subset's _mape_tolerance, and +inf stays +inf.  Within one batch a
    # repeated subset and the subsets of byte-identical counters are one
    # key, scored once, so they tie bit for bit however the steps cut them
    ds, folds = case
    fast = search._CvEvaluator(ds, ds.counters, folds)
    ref = _RefEvaluator(ds, ds.counters, folds)
    subsets = _all_subsets(len(ds.counters))
    alone = [fast.score_many([sel])[0] for sel in subsets]
    tol = [
        _mape_tolerance(ref, [0] + [i + 1 for i in sel]) if np.isfinite(score) else 0.0
        for sel, score in zip(subsets, alone)
    ]
    first = {}
    copy_of = [first.setdefault(ds.deltas[:, j].tobytes(), j) for j in range(len(ds.counters))]
    columns = [tuple(sorted(copy_of[i] for i in sel)) for sel in subsets]

    def check(order, scores):
        shared = {}
        for i, score in zip(order, scores):
            if alone[i] == np.inf:
                assert score == np.inf, subsets[i]
            else:
                assert abs(score - alone[i]) <= tol[i], (subsets[i], score, alone[i], tol[i])
            assert shared.setdefault(columns[i], score) == score, subsets[i]

    check(range(len(subsets)), alone)
    check(range(len(subsets)), fast.score_many(subsets))
    order = data.draw(st.permutations(range(len(subsets))))
    order += data.draw(st.lists(st.sampled_from(order), min_size=1, max_size=len(order)))
    order = data.draw(st.permutations(order))
    for chunk in (fast.chunk, data.draw(st.integers(1, 8))):
        fast.chunk = chunk
        check(order, fast.score_many([subsets[i] for i in order]))


def test_equal_keys_in_one_batch_share_one_score():
    # a repeated subset and the subsets of a copied counter (C4 of C1) are
    # one key, scored once, however the chunks cut the batch.  Scored per
    # listing in chunks of two keys, {C1, C2, C3} would be predicted beside
    # {C0} in one GEMM and alone in the next, which round differently on
    # OpenBLAS
    rng = np.random.default_rng(0)
    deltas = rng.integers(0, 2**20, size=(60, 5), dtype=np.uint64)
    deltas[:, 4] = deltas[:, 1]
    power = 1.0 + deltas.astype(np.float64) @ rng.uniform(0.0, 4.0 / 2**20, size=5)
    power *= rng.uniform(0.99, 1.01, size=60)
    ds = _dataset(deltas, power, 6)
    fast = search._CvEvaluator(ds, ds.counters, pp.kfold_split(ds, 3))
    for chunk, twin in itertools.product(range(1, 9), [(2, 3, 4), (3, 2, 1)]):
        fast.chunk = chunk
        scores = fast.score_many([(0,), (1, 2, 3), twin])
        assert scores[1] == scores[2], (chunk, twin)


def test_zero_guard_holds_through_every_search():
    # held-out power below MAPE_ZERO_GUARD_W is an error, never a +inf
    # score, and it names the row by its TIME key and run
    ds = make_dataset(40, 3, seed=9, n_runs=5)
    power = ds.power_w.copy()
    power[7] = 1e-10
    ds = dataclasses.replace(ds, power_w=power)
    where = f"zero-guard .* at TIME={ds.time_keys[7]} in run '{ds.run_ids[7]}'$"
    with pytest.raises(ValueError, match=where):
        pp.cv_score(ds, ("C1",), 5)
    for algorithm in pp.SEARCH_ALGORITHMS:
        with pytest.raises(ValueError, match=where):
            pp.run_search(ds, pp.SearchConfig(algorithm=algorithm, folds=5))


def _search_outcome(ds, cfg):
    """The search's report, or its SearchError's message."""
    try:
        return pp.run_search(ds, cfg)
    except pp.SearchError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(case=cv_cases(edits=("dup", "zero")))
@example(case=_pinned_search_case())
def test_searches_pick_what_the_oracle_picks(case):
    # no sum columns here: {A, B} and {A, A+B} tie in exact arithmetic, and
    # which of them a greedy step takes is then decided by rounding alone
    ds, folds = case
    for algorithm in pp.SEARCH_ALGORITHMS:
        cfg = pp.SearchConfig(algorithm=algorithm, folds=len(folds), fold_seed=0)
        got = _search_outcome(ds, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_CvEvaluator", _RefEvaluator)
            want = _search_outcome(ds, cfg)
        # a search that ends with no finite CV score raises, in both paths
        # with the same message: the stop, the set and its first failing fold
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            continue
        chosen = want.final_model.counter_names
        assert got.final_model.counter_names == chosen
        # an absolute bound: a MAPE near zero can break a relative 1e-12
        # with both paths sound (see _mape_tolerance)
        ref = _RefEvaluator(ds, want.pool, pp.kfold_split(ds, cfg.folds, cfg.fold_seed))
        tol = _mape_tolerance(ref, [0] + [want.pool.index(c) + 1 for c in chosen])
        assert abs(got.final_cv_mape_pct - want.final_cv_mape_pct) <= tol


def _removals(selected):
    return [[i for i in selected if i != d] for d in selected]


@settings(max_examples=60, deadline=None)
@given(case=cv_cases(edits=("dup", "zero")))
@example(case=_pinned_search_case())
def test_removal_batches_agree_with_scores_alone(case):
    # every top_down step: its removals scored as one batch named as the
    # removals of the set agree with the same trials scored alone and pick
    # the same removal.  The closed form
    # starts from the set's factorisation, so the set's _mape_tolerance
    # bounds it: a trial's own kappa can be far smaller (1.3e-12 points
    # apart against a trial bound of 1.29e-12, in a square 3 x 3 set with
    # a bound of 1.2e-10).  It runs exactly when the set scores finite (a
    # repeated key column fails the set); otherwise the batch is scored on
    # the append path, within each trial's own bound
    ds, folds = case
    fast = search._CvEvaluator(ds, ds.counters, folds)
    ref = _RefEvaluator(ds, ds.counters, folds)
    selected = list(range(len(ds.counters)))
    while selected:
        trials = _removals(selected)
        batch = fast.score_many(trials, selected)
        alone = [fast.score_many([t])[0] for t in trials]
        closed_form = len(selected) > 1 and np.isfinite(fast.score_many([selected])[0])
        assert (fast._step_scores(selected, trials) is not None) == closed_form
        for trial, got, want in zip(trials, batch, alone):
            if want == np.inf:
                assert got == np.inf, trial
                continue
            tol = _mape_tolerance(ref, [0] + [i + 1 for i in (selected if closed_form else trial)])
            assert abs(got - want) <= tol, (trial, got, want, tol)
        best = min(range(len(trials)), key=batch.__getitem__)
        assert best == min(range(len(trials)), key=alone.__getitem__)
        selected = trials[best]


def _additions(selected, p):
    return [selected + [i] for i in range(p) if i not in selected]


@settings(max_examples=60, deadline=None)
@given(case=cv_cases(edits=("dup", "zero")))
@example(case=_pinned_search_case())
def test_addition_batches_agree_with_scores_alone(case):
    # every bottom_up step, taken until the pool is used up: its additions
    # scored as one batch named as steps from the set agree with the same
    # trials scored alone, within each trial's _mape_tolerance, and pick
    # the same addition.  The batch appends each new column to the set's
    # chain, so its keys are in append order, not sorted; a set or trial
    # that fails a fold scores +inf on both paths
    ds, folds = case
    fast = search._CvEvaluator(ds, ds.counters, folds)
    ref = _RefEvaluator(ds, ds.counters, folds)
    selected = []
    while trials := _additions(selected, len(ds.counters)):
        batch = fast.score_many(trials, selected)
        alone = [fast.score_many([t])[0] for t in trials]
        for trial, got, want in zip(trials, batch, alone):
            if want == np.inf:
                assert got == np.inf, trial
                continue
            tol = _mape_tolerance(ref, [0] + [i + 1 for i in trial])
            assert abs(got - want) <= tol, (trial, got, want, tol)
        best = min(range(len(trials)), key=batch.__getitem__)
        assert best == min(range(len(trials)), key=alone.__getitem__)
        selected = trials[best]


def _spy(monkeypatch, target, name):
    """The shape of the keys (``_append``) or predictions (``mape_rows``)
    of every call to ``target.name``, recorded into the returned list."""
    calls = []
    wrapped = getattr(target, name)
    monkeypatch.setattr(
        target, name, lambda *args: calls.append(args[-1].shape) or wrapped(*args)
    )
    return calls


def test_an_addition_step_appends_its_candidates_once(monkeypatch):
    # each step moves the chain by one n = 1 append, the accepted column
    # (the intercept on the first step), then one append puts every
    # candidate onto the chain, and one GEMM per fold predicts them all
    ds = make_dataset(60, 5, seed=3, n_runs=6)
    fast = search._CvEvaluator(ds, ds.counters, pp.kfold_split(ds, 3))
    appends = _spy(monkeypatch, fast, "_append")
    predictions = _spy(monkeypatch, search, "mape_rows")
    selected = []
    while trials := _additions(selected, 5):
        scores = fast.score_many(trials, selected)
        assert np.all(np.isfinite(scores))
        assert appends == [(1, len(selected) + 1), (len(trials), len(selected) + 2)]
        assert predictions == [(len(trials), t.stop - t.start) for t in fast.tests]
        appends.clear()
        predictions.clear()
        selected = trials[int(np.argmin(scores))]


def test_an_addition_batch_holds_less_than_the_data():
    # an addition batch's block on one fold (at most pool keys by fold
    # rows) is no larger than the fold's slice of the data, as a removal
    # batch's is, and its candidates' prefix states are far smaller
    fast, _ = _wide_removal_case()
    selected = [0, 5, 9]
    fast.score_many(_additions(selected[:-1], 20), selected[:-1])
    trials = _additions(selected, 20)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        scores = fast.score_many(trials, selected)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(scores))
    assert peak < fast.columns.nbytes


def test_a_bottom_up_step_holds_no_copy_of_its_incumbent():
    # an addition step appends its candidates to views of the incumbent's
    # own Q and T^-1, so what a step holds does not grow with the
    # incumbent; a copy of them per candidate (candidates x folds x width
    # x P floats) would grow with every step
    ds = make_dataset(1000, 120, seed=4, n_runs=10)
    fast = search._CvEvaluator(ds, ds.counters, pp.kfold_split(ds, 10))
    selected, peaks = [], []
    for _ in range(8):
        trials = _additions(selected, len(ds.counters))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            scores = fast.score_many(trials, selected)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        selected = trials[int(np.argmin(scores))]
    assert peaks[-1] <= 1.1 * peaks[0], peaks


@settings(max_examples=60, deadline=None)
@given(case=cv_cases(), data=st.data())
def test_a_resumed_chain_keeps_the_bits_of_a_fresh_solve(case, data):
    # a chain built from empty and then only shortened, one random removal
    # at a time, resumes at the removed column; at every set its key is the
    # set's sorted key, its state is bit for bit the one a fresh chain
    # builds from empty, and its beta and failed fold are _solve's
    ds, folds = case
    p = len(ds.counters)
    fast = search._CvEvaluator(ds, ds.counters, folds)
    for _ in range(2):
        selected = sorted(data.draw(st.sets(st.integers(0, p - 1), min_size=1)))
        while True:
            state = fast._resume(selected)
            fresh = search._CvEvaluator(ds, ds.counters, folds)._resume(selected)
            key = fast._keys([selected])
            (beta,), (failed,) = fast._solve(key)
            width = key.shape[1]
            assert fast._chain_key == tuple(key[0].tolist())
            # Q and T^-1 are shared by the chain's depths: their leading
            # blocks, the set's own, are the state
            lead = (np.s_[..., :width, :], np.s_[..., :width, :width]) + (np.s_[...],) * 4
            for got, want, part in zip(state, fresh, lead):
                assert got[part].tobytes() == want[part].tobytes()
            assert state.beta[0, :, :width].tobytes() == beta.tobytes()
            assert state.failed[0] == failed
            if not selected:
                break
            selected.remove(data.draw(st.sampled_from(selected)))


def test_a_top_down_walk_appends_past_each_removed_column_only(monkeypatch):
    # 6 counters, 2 of them true: the starting set's score appends the
    # 7-column key from empty onto the chain, where the first step finds
    # it; removing C3, C6, C4 and C1 then appends the columns after each:
    # C4-C6, none, C5, C2 and C5
    model = pp.PowerModel(intercept_w=2.0, terms=(("C2", 4e-6), ("C5", 2e-6)))
    ranges = {f"C{i}": (0, 600_000) for i in range(1, 7)}
    ds = linear_dataset(model, 400, ranges, seed=7, n_runs=10, noise_rel=0.01)
    appends = _spy(monkeypatch, search._CvEvaluator, "_append")
    report = pp.run_search(ds, pp.SearchConfig(algorithm="top_down", folds=5))
    assert [it.counter for it in report.iterations] == ["C3", "C6", "C4", "C1"]
    assert report.final_model.counter_names == ("C2", "C5")
    from_empty = [(1, k) for k in range(1, 8)]
    assert appends == from_empty + [(1, 4), (1, 5), (1, 6), (1, 4), (1, 2), (1, 3)]


@pytest.mark.parametrize("edit", ["duplicate", "all ones"])
def test_a_set_that_repeats_a_key_column_keeps_the_append_bits(edit):
    # a copied counter, or one that aliases the intercept column, ties
    # exactly with its twin only on the append path.  Every finite trial
    # here has the same columns, one key predicted alone in the batch as
    # it is alone, so the batch gives the bits of the trials alone
    ds = make_dataset(60, 4, seed=3, n_runs=6)
    deltas = ds.deltas.copy()
    deltas[:, 3] = deltas[:, 1] if edit == "duplicate" else 1
    ds = dataclasses.replace(ds, deltas=deltas)
    fast = search._CvEvaluator(ds, ds.counters, pp.kfold_split(ds, 3))
    selected = list(range(4))
    trials = _removals(selected)
    assert fast._step_scores(selected, trials) is None
    alone = [fast.score_many([t])[0] for t in trials]
    assert fast.score_many(trials, selected) == alone


def test_an_unnamed_removal_batch_keeps_the_append_bits(monkeypatch):
    # the closed form runs only when the caller names the set: the same
    # removals, or any batch, scored without it never enter the step
    # scorer, take the append path, and agree with each trial scored alone
    # within the trial's own bound
    ds = make_dataset(60, 4, seed=3, n_runs=6)
    folds = pp.kfold_split(ds, 3)
    fast = search._CvEvaluator(ds, ds.counters, folds)
    ref = _RefEvaluator(ds, ds.counters, folds)
    selected = [3, 0, 2, 1]
    trials = _removals(selected)
    assert fast._step_scores(selected, trials) is not None
    # one column: no closed form
    assert fast._step_scores(selected[:1], _removals(selected[:1])) is None
    steps = []
    step_scores = fast._step_scores

    def spy(incumbent, selections):
        steps.append(incumbent)
        return step_scores(incumbent, selections)

    monkeypatch.setattr(fast, "_step_scores", spy)
    for batch in (trials, trials[::-1], trials[1:], trials + [[0, 1, 2, 3]]):
        scores = fast.score_many(batch)
        for trial, got in zip(batch, scores):
            want = fast.score_many([trial])[0]
            tol = _mape_tolerance(ref, [0] + [i + 1 for i in trial])
            assert abs(got - want) <= tol, (trial, got, want, tol)
    assert steps == []


def test_complement_shorter_than_parameters_scores_inf():
    rng = np.random.default_rng(4)
    deltas = rng.integers(0, 2**20, size=(8, 6), dtype=np.uint64)
    ds = _dataset(deltas, rng.uniform(1.0, 2.0, size=8), 1)
    folds = pp.kfold_split(ds, 4)  # 6-row complements
    fast = search._CvEvaluator(ds, ds.counters, folds)
    ref = _RefEvaluator(ds, ds.counters, folds)
    assert fast.score_many([range(6)])[0] == ref.score_or_inf(range(6)) == np.inf
    _assert_close(fast.score_many([range(5)])[0], ref.score_or_inf(range(5)))
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
    for test, n_train, r in zip(folds, fast.n_train, fast.r):
        train = np.setdiff1d(np.arange(n), test)
        s = np.linalg.svd(ref.design[train], compute_uv=False)
        assert EPS * r.shape[0] < s[-1] / s[0] < EPS * n_train
        # a cut-off scaled by R's own height keeps the near-copy
        assert np.linalg.lstsq(r[:, :3], r[:, -1], rcond=None)[2] == 3
    assert fast.score_many([(0, 1)])[0] == ref.score_or_inf((0, 1)) == np.inf
    _assert_close(fast.score_many([(0,)])[0], ref.score_or_inf((0,)))
    _assert_close(fast.score_many([(1,)])[0], ref.score_or_inf((1,)))


def _first_failure(ref, cols):
    """The first fold whose full-height complement fit fails under
    ``lstsq``'s own rank rule, with the error ``score`` raises for it, or
    None when every fold fits."""
    for fi, test in enumerate(ref.folds):
        x = np.delete(ref.design, test, axis=0)[:, cols]
        if len(x) < len(cols):
            return fi, pp.FitError
        if np.linalg.lstsq(x, np.delete(ref.y, test), rcond=None)[2] < len(cols):
            return fi, pp.RankDeficientError
    return None


def test_a_failing_prefix_fails_every_superset():
    # a counter seen only in fold 1's rows (C1), a copy (C4 of C3) and an
    # all-zero counter (C5): a prefix that fails a fold fails it below, yet
    # score() still names the first fold a per-fold lstsq fails, which for
    # {C1, C5} is fold 0, before the fold 1 that its prefix {C1} fails
    ds = make_dataset(60, 5, seed=3, n_runs=6)
    folds = pp.kfold_split(ds, 3)
    deltas = ds.deltas.copy()
    outside = np.ones(ds.n_rows, dtype=bool)
    outside[folds[1]] = False
    deltas[outside, 0] = 0
    deltas[:, 3] = deltas[:, 2]
    deltas[:, 4] = 0
    ds = dataclasses.replace(ds, deltas=deltas)
    fast = search._CvEvaluator(ds, ds.counters, folds)
    ref = _RefEvaluator(ds, ds.counters, folds)
    subsets = _all_subsets(5)
    scores = dict(zip(subsets, fast.score_many(subsets)))
    failing = {sel for sel, score in scores.items() if score == np.inf}
    assert {(0,), (2, 3), (4,)} <= failing
    for sel in subsets:
        if any(set(f) < set(sel) for f in failing):
            assert sel in failing, sel
        want = _first_failure(ref, [0] + [i + 1 for i in sel])
        assert (want is None) == (sel not in failing), sel
        if want is None:
            assert fast.score(sel) == scores[sel]
        else:
            fold, error = want
            with pytest.raises(error, match=f"^fold {fold}: rank-deficient design"):
                fast.score(sel)
    with pytest.raises(pp.RankDeficientError, match="^fold 1:"):
        fast.score((0, 1))
    with pytest.raises(pp.RankDeficientError, match="^fold 0:"):
        fast.score((0, 4))


def _counting_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(
        np.linalg, "svd", lambda *args, **kw: calls.append(args[0].shape) or svd(*args, **kw)
    )
    return calls


def test_certified_subsets_take_no_svd(monkeypatch):
    # the certificate 1 / ||T^-1||_F > 4 eps n ||A||_F vouches for every
    # subset of a well-conditioned pool, so the whole lattice is scored
    # without one SVD
    ds = make_dataset(60, 4, seed=3, n_runs=6)
    fast = search._CvEvaluator(ds, ds.counters, pp.kfold_split(ds, 3))
    calls = _counting_svd(monkeypatch)
    scores = fast.score_many(_all_subsets(4))
    assert np.all(np.isfinite(scores))
    assert calls == []


def test_removal_steps_take_no_svd(monkeypatch):
    # a top_down walk from 4 certified counters down to 1: each removal
    # batch is downdated from its set's appended factorisation, which the
    # certificate vouches for, so no step takes an SVD
    ds = make_dataset(60, 4, seed=3, n_runs=6)
    fast = search._CvEvaluator(ds, ds.counters, pp.kfold_split(ds, 3))
    calls = _counting_svd(monkeypatch)
    selected = list(range(4))
    while len(selected) > 1:
        trials = _removals(selected)
        scores = fast.score_many(trials, selected)
        assert np.all(np.isfinite(scores))
        selected = trials[int(np.argmin(scores))]
    assert calls == []


def test_an_uncertified_subset_falls_back_to_one_svd(monkeypatch):
    # the near-copy pair of test_rank_cutoff_scales_with_training_rows_not_r_rows
    # sits below the certificate: one SVD of R_f[:, key] on fold 0 rejects
    # it, and no later fold needs deciding
    n = 40000
    rng = np.random.default_rng(11)
    a = rng.integers(2**31, 2**32 - 2, size=n, dtype=np.uint64)
    b = a.copy()
    b[[n // 4, 3 * n // 4]] += 1
    ds = _dataset(np.column_stack([a, b]), rng.uniform(1.0, 2.0, size=n), 1)
    fast = search._CvEvaluator(ds, ds.counters, pp.kfold_split(ds, 2))
    calls = _counting_svd(monkeypatch)
    assert fast.score_many([(0, 1)])[0] == np.inf
    assert calls == [(1, 4, 3)]
    calls.clear()
    assert np.isfinite(fast.score_many([(0,)])[0])
    assert np.isfinite(fast.score_many([(1,)])[0])
    assert calls == []


def test_exhaustive_memory_is_bounded_by_the_batch_cells():
    # the widest level of a 14-counter lattice holds 3,432 prefixes; scored
    # unchunked, the prefixes' Q and T^-1 on 3 folds reached 82 MB of peak
    # traced memory.  Chunks of batch // folds keys keep the scorer to a few
    # _BATCH_CELLS beyond its per-key bookkeeping: the sorted copy of the
    # keys, their sort order and its inverse
    ds = make_dataset(200, 14, seed=5, n_runs=10)
    fast = search._CvEvaluator(ds, ds.counters, pp.kfold_split(ds, 3))
    keys = fast._keys(_all_subsets(14))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fast._score_keys(keys)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    bookkeeping = keys.nbytes + 2 * np.dtype(np.intp).itemsize * len(keys)
    assert peak < bookkeeping + 4 * 8 * search._BATCH_CELLS


def test_evaluator_setup_holds_little_beyond_its_columns():
    # 10 runs of 5,001 rows and 24 counters: keying col_map by each
    # column's bytes and gathering the deltas with np.ix_ peaked at 2.11x
    # the columns; digest keys and row blocks leave the per-fold QR copies
    ds = make_dataset(50_010, 24, seed=2, n_runs=10)
    folds = pp.kfold_split(ds, 10)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fast = search._CvEvaluator(ds, ds.counters, folds)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * fast.columns.nbytes, peak / fast.columns.nbytes


def test_a_digest_collision_never_merges_columns(monkeypatch):
    # with every column under one digest, only equal bits make a copy: a
    # counter of all ones maps to the intercept and a duplicate to its twin
    ds = make_dataset(60, 5, seed=3, n_runs=6)
    deltas = ds.deltas.copy()
    deltas[:, 2] = deltas[:, 0]
    deltas[:, 4] = 1
    ds = dataclasses.replace(ds, deltas=deltas)
    folds = pp.kfold_split(ds, 3)
    expected = [0, 1, 2, 1, 4, 0]
    assert search._CvEvaluator(ds, ds.counters, folds).col_map.tolist() == expected
    monkeypatch.setattr(search.zlib, "crc32", lambda data: 0)
    assert search._CvEvaluator(ds, ds.counters, folds).col_map.tolist() == expected


def _wide_removal_case():
    # 20 counters on 10 folds of 3,500 rows: a removal batch of m = 20
    # keys predicts 20 x 3,500 cells per fold, more than _BATCH_CELLS
    ds = make_dataset(35000, 20, seed=8, n_runs=10)
    fast = search._CvEvaluator(ds, ds.counters, pp.kfold_split(ds, 10))
    selected = list(range(20))
    assert min(t.stop - t.start for t in fast.tests) > search._BATCH_CELLS // len(selected)
    return fast, selected


def test_a_removal_batch_is_one_gemm_per_fold(monkeypatch):
    # a removal batch predicts all of its keys in one block per fold,
    # however many held-out rows the fold holds
    fast, selected = _wide_removal_case()
    calls = []
    mape_rows = search.mape_rows
    monkeypatch.setattr(
        search, "mape_rows", lambda y, y_hat: calls.append(y_hat.shape) or mape_rows(y, y_hat)
    )
    scores = fast.score_many(_removals(selected), selected)
    assert np.all(np.isfinite(scores))
    assert calls == [(len(selected), t.stop - t.start) for t in fast.tests]


def test_a_removal_batch_holds_less_than_the_data():
    # a removal batch's block on one fold (m <= pool keys by fold rows) is
    # no larger than the fold's slice of the data; with the fold's gathered
    # columns and the MAPE temporary beside it, the peak is about three
    # such slices, below the evaluator's copy of all ten
    fast, selected = _wide_removal_case()
    trials = _removals(selected)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fast.score_many(trials, selected)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < fast.columns.nbytes
