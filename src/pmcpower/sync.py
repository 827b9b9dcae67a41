"""Align a counter trace with a power trace and convert counts to deltas.

Samples are joined on the shared TIME cycle counter by one window join: a
counter key and a power key match when they differ by at most the key
tolerance, so tolerance 0 (the default) means exact equality and a larger
tolerance serves rigs where the sensor timestamps drift by a few cycles.
The join covers the whole uint64 key range; its windows saturate at 0 and
at 2^64 - 1 instead of wrapping.  Ambiguity (two candidates in one window,
on either side) is an error, never a silent choice.

Deltas are taken between *consecutive matched* keys, so unmatched samples
widen the surrounding interval instead of corrupting it.  One function,
``interval_deltas``, wrap-corrects the 32-bit readings for sync and for gen;
the resulting dataset feeds the regression with per-interval event counts.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .dataset import (
    TIME_MODULUS, CounterTrace, Dataset, PowerTrace, is_integer
)
from .errors import SyncError

log = logging.getLogger(__name__)

_BLOCK_ROWS = 1024  # matched readings gathered at a time to form deltas


@dataclass(frozen=True)
class SyncConfig:
    """Join parameters.

    key_tolerance: maximum |pmc TIME - power TIME| for a match, in cycles.
    """

    key_tolerance: int = 0

    def __post_init__(self):
        tol = self.key_tolerance
        if not (is_integer(tol) and 0 <= tol < TIME_MODULUS):
            raise ValueError(
                f"key_tolerance must be an integer in [0, 2^64), got {tol!r}"
            )
        object.__setattr__(self, "key_tolerance", int(tol))  # never a numpy int


@dataclass(frozen=True)
class CoverageReport:
    """Match statistics for a trace pair under a given config."""

    matched: int
    unmatched_pmc: int
    unmatched_power: int
    ambiguous: int
    match_fraction: float

    def summary(self) -> str:
        pct = 100.0 * self.match_fraction
        parts = [
            f"matched {pct:.4g}% of keys ({self.matched})",
            f"{self.unmatched_pmc} unmatched PMC",
            f"{self.unmatched_power} unmatched power",
        ]
        if self.ambiguous:
            parts.append(f"{self.ambiguous} ambiguous")
        return ", ".join(parts)


def _windows(
    keys: np.ndarray, others: np.ndarray, tol: np.uint64
) -> tuple[np.ndarray, np.ndarray]:
    """For each key, the index of the first of ``others`` within +-tol
    (inclusive) and how many of them lie there.  Bounds saturate at 0 and
    2^64 - 1: ``~tol`` is 2^64 - 1 - tol."""
    lo = np.searchsorted(others, np.maximum(keys, tol) - tol, side="left")
    hi = np.searchsorted(others, np.minimum(keys, ~tol) + tol, side="right")
    return lo, hi - lo


def _match_pairs(
    pmc_keys: np.ndarray, pwr_keys: np.ndarray, tol: int
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """1-1 key join.

    Returns (pmc indices, power indices, sorted ambiguous-key values).  A
    key is ambiguous when its tolerance window holds two or more candidates
    from the other trace; ambiguous keys are excluded from the match.
    """
    tol = np.uint64(tol)
    first_pwr, n_pwr_near = _windows(pmc_keys, pwr_keys, tol)
    _, n_pmc_near = _windows(pwr_keys, pmc_keys, tol)
    # a set, not np.unique, which imports numpy.ma (about 1 MB of RSS)
    ambiguous = set(pmc_keys[n_pwr_near > 1].tolist())
    ambiguous.update(pwr_keys[n_pmc_near > 1].tolist())

    pmc_ok = n_pwr_near == 1
    cand = first_pwr[pmc_ok]  # the single candidate for each unambiguous pmc key
    keep = n_pmc_near[cand] == 1  # partner must be unambiguous too
    pmc_idx = np.nonzero(pmc_ok)[0][keep]
    pwr_idx = cand[keep]
    return pmc_idx, pwr_idx, sorted(ambiguous)


def interval_deltas(values: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    """Fill the uint32 rows ``out`` with the event counts between
    consecutive samples ``idx`` of the cumulative 32-bit readings
    ``values``: differences mod 2^32, so an interval that wraps twice
    aliases.  Readings are gathered a block at a time, so only the rows
    the caller passes in are full size."""
    for lo in range(0, len(out), _BLOCK_ROWS):
        vals = values[idx[lo : lo + _BLOCK_ROWS + 1]]
        np.subtract(vals[1:], vals[:-1], out=out[lo : lo + _BLOCK_ROWS])


def coverage_report(
    pmc: CounterTrace, pwr: PowerTrace, cfg: SyncConfig = SyncConfig()
) -> CoverageReport:
    """Match statistics only; never raises on poor overlap or ambiguity."""
    pmc_idx, pwr_idx, ambiguous = _match_pairs(
        pmc.time_keys, pwr.time_keys, cfg.key_tolerance
    )
    matched = len(pmc_idx)
    denom = max(len(pmc), len(pwr))
    return CoverageReport(
        matched=matched,
        unmatched_pmc=len(pmc) - matched,
        unmatched_power=len(pwr) - matched,
        ambiguous=len(ambiguous),
        match_fraction=matched / denom if denom else 0.0,
    )


def synchronize(
    pmc: CounterTrace, pwr: PowerTrace, cfg: SyncConfig = SyncConfig()
) -> Dataset:
    """Join the trace pair and return the per-interval dataset.

    Output row i covers the interval between matched keys i and i+1: deltas
    are wrap-corrected differences of the cumulative readings, power (and
    frequency, when present) is the sensor sample at the interval's end key.
    Row count is one less than the number of matched keys.
    """
    pmc_idx, pwr_idx, ambiguous = _match_pairs(
        pmc.time_keys, pwr.time_keys, cfg.key_tolerance
    )
    if ambiguous:
        raise SyncError(f"ambiguous key at TIME={ambiguous[0]}")
    if len(pmc_idx) < 2:
        raise SyncError(
            f"insufficient overlap: {len(pmc_idx)} matched keys, need at least 2"
        )
    dropped = (len(pmc) - len(pmc_idx), len(pwr) - len(pwr_idx))
    if any(dropped):
        log.info(
            "dropped unmatched keys: %d PMC, %d power", dropped[0], dropped[1]
        )

    deltas = np.empty((len(pmc_idx) - 1, len(pmc.counters)), dtype=np.uint32)
    interval_deltas(pmc.values, pmc_idx, deltas)
    return Dataset(
        counters=pmc.counters,
        time_keys=pmc.time_keys[pmc_idx[1:]],
        run_ids=(pmc.run_id,) * len(deltas),
        power_w=pwr.power_w[pwr_idx[1:]],
        deltas=deltas,
        freq_mhz=None if pwr.freq_mhz is None else pwr.freq_mhz[pwr_idx[1:]],
        source=f"sync({pmc.run_id})",
    )
