"""Trace synchronisation against a brute-force reference join."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmcpower as pp
from ref_impl import brute_force_join, ref_delta, ref_sync_rows


def ct(keys, values, counters=("A",), run_id="r0"):
    vals = np.asarray(values, dtype=np.uint32)
    if vals.ndim == 1:
        vals = vals[:, None]
    return pp.CounterTrace(
        time_keys=np.asarray(keys, dtype=np.uint64),
        counters=counters,
        values=vals,
        run_id=run_id,
    )


def pt(keys, power, freq=None):
    return pp.PowerTrace(
        time_keys=np.asarray(keys, dtype=np.uint64),
        power_w=np.asarray(power, dtype=np.float64),
        freq_mhz=None if freq is None else np.asarray(freq, dtype=np.float64),
    )


def test_exact_join_basic():
    pmc = ct([100, 200, 300, 400], [10, 25, 25, 40])
    pwr = pt([100, 200, 300, 400], [1.0, 2.0, 3.0, 4.0])
    ds = pp.synchronize(pmc, pwr)
    assert ds.n_rows == 3
    assert list(ds.time_keys) == [200, 300, 400]
    assert list(ds.deltas[:, 0]) == [15, 0, 15]
    assert list(ds.power_w) == [2.0, 3.0, 4.0]
    assert ds.run_ids == ("r0", "r0", "r0")
    assert ds.source == "sync(r0)"


def test_unmatched_keys_widen_the_interval():
    # power sample at TIME=200 is missing; the 100->300 interval absorbs it
    pmc = ct([100, 200, 300], [10, 25, 70])
    pwr = pt([100, 300], [1.0, 3.0])
    ds = pp.synchronize(pmc, pwr)
    assert ds.n_rows == 1
    assert ds.time_keys[0] == 300
    assert ds.deltas[0, 0] == 60
    assert ds.power_w[0] == 3.0


def test_wrap_corrected_delta():
    pmc = ct([1, 2], [4294967290, 2])
    pwr = pt([1, 2], [1.0, 1.0])
    ds = pp.synchronize(pmc, pwr)
    assert ds.deltas[0, 0] == 8
    assert ref_delta(4294967290, 2) == 8


def test_tolerance_join_matches_offset_keys():
    pmc = ct([1000, 2000, 3000], [1, 2, 3])
    pwr = pt([1002, 1998, 3003], [1.0, 2.0, 3.0])
    with pytest.raises(pp.SyncError):
        pp.synchronize(pmc, pwr)  # exact join finds nothing
    ds = pp.synchronize(pmc, pwr, pp.SyncConfig(key_tolerance=3))
    assert ds.n_rows == 2
    # dataset keys come from the counter trace side
    assert list(ds.time_keys) == [2000, 3000]
    assert list(ds.power_w) == [2.0, 3.0]


def test_ambiguous_window_is_an_error():
    pmc = ct([102, 500], [1, 2])
    pwr = pt([100, 104, 500], [1.0, 1.0, 1.0])
    with pytest.raises(pp.SyncError, match="ambiguous key at TIME=102"):
        pp.synchronize(pmc, pwr, pp.SyncConfig(key_tolerance=3))
    # the report counts it instead of raising
    rep = pp.coverage_report(pmc, pwr, pp.SyncConfig(key_tolerance=3))
    assert rep.ambiguous >= 1
    assert rep.matched == 1


def test_insufficient_overlap_errors():
    with pytest.raises(pp.SyncError, match="1 matched keys, need at least 2"):
        pp.synchronize(ct([100, 200], [1, 2]), pt([200, 900], [1.0, 1.0]))
    with pytest.raises(pp.SyncError, match="insufficient overlap"):
        pp.synchronize(ct([1, 2], [1, 2]), pt([5, 6], [1.0, 1.0]))


def test_coverage_report_counts():
    pmc = ct([1, 2, 3, 4], [0, 0, 0, 0])
    pwr = pt([2, 4, 9], [1.0, 1.0, 1.0])
    rep = pp.coverage_report(pmc, pwr)
    assert rep.matched == 2
    assert rep.unmatched_pmc == 2
    assert rep.unmatched_power == 1
    assert rep.match_fraction == 2 / 4
    assert "2 unmatched PMC" in rep.summary()
    assert "1 unmatched power" in rep.summary()


def test_full_coverage_summary_wording():
    pmc = ct([10, 20], [1, 2])
    rep = pp.coverage_report(pmc, pt([10, 20], [1.0, 1.0]))
    assert rep.summary().startswith("matched 100% of keys (2)")


def test_freq_channel_passes_through():
    pmc = ct([1, 2, 3], [5, 6, 7])
    pwr = pt([1, 2, 3], [1.0, 2.0, 3.0], freq=[40.0, 80.0, 80.0])
    ds = pp.synchronize(pmc, pwr)
    assert list(ds.freq_mhz) == [80.0, 80.0]


@settings(max_examples=200, deadline=None)
@given(
    pmc_keys=st.lists(st.integers(0, 3000), unique=True, min_size=1, max_size=40),
    pwr_keys=st.lists(st.integers(0, 3000), unique=True, min_size=1, max_size=40),
    tol=st.integers(0, 60),
)
def test_join_agrees_with_brute_force(pmc_keys, pwr_keys, tol):
    """Matched pairs and ambiguous keys equal the O(n*m) reference scan."""
    pmc_keys = sorted(pmc_keys)
    pwr_keys = sorted(pwr_keys)
    pmc = ct(pmc_keys, [0] * len(pmc_keys))
    pwr = pt(pwr_keys, [1.0] * len(pwr_keys))
    cfg = pp.SyncConfig(key_tolerance=tol)
    ref_pairs, ref_amb = brute_force_join(pmc_keys, pwr_keys, tol)
    rep = pp.coverage_report(pmc, pwr, cfg)
    assert rep.matched == len(ref_pairs)
    assert rep.ambiguous == len(ref_amb)
    assert rep.unmatched_pmc == len(pmc_keys) - len(ref_pairs)
    assert rep.unmatched_power == len(pwr_keys) - len(ref_pairs)


@settings(max_examples=200, deadline=None)
@given(
    pmc_offsets=st.lists(st.integers(0, 3000), unique=True, min_size=1, max_size=40),
    pwr_offsets=st.lists(st.integers(0, 3000), unique=True, min_size=1, max_size=40),
    top=st.sampled_from([2**63 + 30, 2**64 - 1]),
    tol=st.one_of(st.integers(0, 60), st.integers(2**63 - 2, 2**64 - 1)),
)
def test_join_agrees_with_brute_force_at_the_top_of_the_key_range(
    pmc_offsets, pwr_offsets, top, tol
):
    """Keys that straddle 2^63 or end at 2^64 - 1, and tolerances up to
    2^64 - 1: the windows saturate, they never wrap."""
    base = top - max(pmc_offsets + pwr_offsets)
    pmc_keys = sorted(base + k for k in pmc_offsets)
    pwr_keys = sorted(base + k for k in pwr_offsets)
    ref_pairs, ref_amb = brute_force_join(pmc_keys, pwr_keys, tol)
    rep = pp.coverage_report(
        ct(pmc_keys, [0] * len(pmc_keys)),
        pt(pwr_keys, [1.0] * len(pwr_keys)),
        pp.SyncConfig(key_tolerance=tol),
    )
    assert rep.matched == len(ref_pairs)
    assert rep.ambiguous == len(ref_amb)
    assert rep.unmatched_pmc == len(pmc_keys) - len(ref_pairs)
    assert rep.unmatched_power == len(pwr_keys) - len(ref_pairs)


def test_synchronize_at_the_top_of_the_key_range():
    top = 2**64 - 1
    pmc_keys = [top - 4000, top - 3000, top - 2000, top - 1000, top]
    values = [(4294967000, 7), (100, 9), (900, 9), (4294967295, 12), (5, 20)]
    # the power sample near top - 2000 is dropped, and the last one sits
    # one cycle below the largest key
    pwr_keys = [top - 4001, top - 2998, top - 1002, top - 1]
    power = [1.5, 2.5, 3.5, 4.5]
    tol = 2
    ds = pp.synchronize(
        ct(pmc_keys, np.array(values, dtype=np.uint64), counters=("A", "B")),
        pt(pwr_keys, power),
        pp.SyncConfig(key_tolerance=tol),
    )
    ref_rows = ref_sync_rows(pmc_keys, values, pwr_keys, power, tol)
    assert ds.n_rows == len(ref_rows) == 3
    for i, (time, watts, drow) in enumerate(ref_rows):
        assert int(ds.time_keys[i]) == time
        assert float(ds.power_w[i]) == watts
        assert tuple(int(d) for d in ds.deltas[i]) == drow


def test_synchronized_rows_match_reference(rng):
    """Row-for-row agreement with the reference on messy random traces."""
    for trial in range(30):
        n = int(rng.integers(5, 60))
        gaps = rng.integers(1, 500, size=n)
        pmc_keys = np.cumsum(gaps).astype(np.uint64)
        # cumulative readings that wrap a few times
        deltas = rng.integers(0, 2**31, size=(n, 2)).astype(object)
        values = [(int(deltas[0, 0]), int(deltas[0, 1]))]
        for i in range(1, n):
            values.append(
                tuple(
                    (values[-1][c] + int(deltas[i, c])) % 2**32
                    for c in range(2)
                )
            )
        keep_pwr = rng.random(n) < 0.8
        keep_pwr[:2] = True
        jitter = rng.integers(-2, 3, size=n)
        pwr_keys = (pmc_keys.astype(np.int64) + jitter)[keep_pwr]
        order = np.argsort(pwr_keys)
        pwr_keys = pwr_keys[order]
        if len(np.unique(pwr_keys)) < len(pwr_keys):
            continue
        power = rng.uniform(1.0, 5.0, size=keep_pwr.sum())[order]
        tol = 2
        ref_pairs, ref_amb = brute_force_join(pmc_keys, pwr_keys, tol)
        pmc = ct(pmc_keys, np.array(values, dtype=np.uint64), counters=("A", "B"))
        pwr = pt(pwr_keys, power)
        cfg = pp.SyncConfig(key_tolerance=tol)
        if ref_amb or len(ref_pairs) < 2:
            with pytest.raises(pp.SyncError):
                pp.synchronize(pmc, pwr, cfg)
            continue
        ds = pp.synchronize(pmc, pwr, cfg)
        ref_rows = ref_sync_rows(pmc_keys, values, pwr_keys, power, tol)
        assert ds.n_rows == len(ref_rows)
        for i, (time, watts, drow) in enumerate(ref_rows):
            assert int(ds.time_keys[i]) == time
            assert float(ds.power_w[i]) == watts
            assert tuple(int(d) for d in ds.deltas[i]) == drow
