"""Independent reference implementations used as test oracles.

Deliberately naive: pure-Python integers, O(n*m) scans, no shared code
with the package; numpy appears only as the per-fold least-squares solver
of ``ref_cv_score``.  When these disagree with the library the library is
wrong (or the contract is), never the other way round.
"""

import numpy as np

MOD32 = 2**32


def ref_mape(actual, predicted):
    pairs = list(zip(actual, predicted))
    return 100.0 / len(pairs) * sum(abs(a - p) / abs(a) for a, p in pairs)


def ref_delta(prev, curr):
    """Wrap-corrected 32-bit counter delta, plain ints."""
    return (int(curr) - int(prev)) % MOD32


def brute_force_join(pmc_keys, pwr_keys, tol):
    """1-1 tolerance join by exhaustive scan.

    Returns (pairs, ambiguous): pairs is a list of (pmc index, power index)
    and ambiguous the sorted key values whose window holds two or more
    candidates from the other side.  A pair survives only when both ends
    are unambiguous.
    """
    pmc = [int(k) for k in pmc_keys]
    pwr = [int(k) for k in pwr_keys]
    pmc_cands = [
        [j for j, q in enumerate(pwr) if abs(p - q) <= tol] for p in pmc
    ]
    pwr_cands = [
        [i for i, p in enumerate(pmc) if abs(p - q) <= tol] for q in pwr
    ]
    ambiguous = set()
    for i, cands in enumerate(pmc_cands):
        if len(cands) > 1:
            ambiguous.add(pmc[i])
    for j, cands in enumerate(pwr_cands):
        if len(cands) > 1:
            ambiguous.add(pwr[j])
    pairs = []
    for i, cands in enumerate(pmc_cands):
        if len(cands) == 1 and len(pwr_cands[cands[0]]) == 1:
            pairs.append((i, cands[0]))
    return pairs, sorted(ambiguous)


def ref_sync_rows(pmc_keys, pmc_values, pwr_keys, pwr_power, tol):
    """Reference synchronisation: list of (time, power, deltas) tuples.

    pmc_values is a list of per-sample tuples of cumulative readings.
    Assumes the join is unambiguous (callers check separately).
    """
    pairs, ambiguous = brute_force_join(pmc_keys, pwr_keys, tol)
    assert not ambiguous
    rows = []
    for (i_prev, _), (i_curr, j_curr) in zip(pairs, pairs[1:]):
        deltas = tuple(
            ref_delta(pmc_values[i_prev][c], pmc_values[i_curr][c])
            for c in range(len(pmc_values[0]))
        )
        rows.append((int(pmc_keys[i_curr]), float(pwr_power[j_curr]), deltas))
    return rows


def ref_cv_score(design, y, folds, cols):
    """k-fold CV MAPE by one full-height least-squares fit per fold.

    design is the (n, m) float matrix with the intercept in column 0, folds
    a list of held-out row-index arrays and cols the design columns of the
    candidate.  A fold whose complement has fewer rows than parameters, or
    whose complement design has rank short of len(cols) under the default
    ``lstsq`` cut-off eps * max(n_train, len(cols)) * s_max, makes the
    whole score +inf.
    """
    n = len(y)
    k = len(cols)
    scores = []
    for test in folds:
        held_out = set(int(i) for i in test)
        train = [i for i in range(n) if i not in held_out]
        if len(train) < k:
            return float("inf")
        x_train = np.array([[design[i][c] for c in cols] for i in train])
        beta, _, rank, _ = np.linalg.lstsq(
            x_train, np.array([y[i] for i in train]), rcond=None
        )
        if rank < k:
            return float("inf")
        predicted = [
            sum(float(design[i][c]) * float(b) for c, b in zip(cols, beta))
            for i in test
        ]
        scores.append(ref_mape([y[i] for i in test], predicted))
    return sum(scores) / len(scores)
