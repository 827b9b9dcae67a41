"""Synthetic dual-trace generator with a known ground-truth power model.

The generator is the verification oracle for the rest of the pipeline:
counter deltas are drawn per counter, accumulated into cumulative 32-bit
PMC traces (``inject_wrap`` starts them so that every column with events
wraps), and power per interval is the true model applied to the interval's
event counts, times multiplicative Gaussian sensor noise.  Counters are
exact by construction; only the power channel is noisy.

With ``drop_rate > 0`` a fraction of power samples is removed, so the
surviving intervals span several PMC sample periods.  The returned Dataset
is the exact synchronisation of the two traces: ``sync.interval_deltas``
forms its deltas, as it forms ``synchronize``'s, so a merged interval that
wraps twice aliases mod 2^32 the same way.  At zero noise the true model
therefore scores 0% MAPE on it, and ``synchronize`` reproduces it exactly.

``generate`` makes two passes in one fixed draw order.  The first draws
each run's deltas, a block of rows at a time, then its dropped power
samples; the second fills each run's rows of the dataset in place, then
draws every row's noise at once.  So a spec always yields the same bytes.
``GenSpec`` declares its JSON keys as ``dataset.json_field``s; an absent
key takes its default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import (
    COUNTER_MODULUS,
    TIME_MODULUS,
    CounterTrace,
    Dataset,
    PowerTrace,
    check_counter_names,
    check_fields,
    check_type,
    is_integer,
    json_field,
    read_json,
    write_json,
)
from .errors import GenError
from .regress import KIND_PMC, PowerModel, linear_power
from .sync import interval_deltas

# 80 MHz clock sampled at about 95 Hz
DEFAULT_PERIOD_CYCLES = 842105
_DRAW_ROWS = 1024  # readings drawn at a time, as int64, before they are stored


def _run_start(run: int, n_samples: int) -> int:
    """Run ``run``'s first TIME key in sample periods: runs sit 7 periods
    apart, so concatenated rows keep unique keys."""
    return 1 + run * (n_samples + 7)


def _ranges(name: str, value, where=None) -> dict[str, tuple[int, int]]:
    """Counter names to inclusive (lo, hi) bounds, integers with
    0 <= lo <= hi < 2^32; a pair is a JSON array."""
    ranges = {}
    for counter in check_counter_names(check_type(name, value, dict)):
        pair = value[counter]
        is_pair = isinstance(pair, (tuple, list)) and len(pair) == 2
        lo, hi = pair if is_pair else (None, None)
        if not (is_integer(lo) and is_integer(hi) and 0 <= lo <= hi < COUNTER_MODULUS):
            raise ValueError(
                f"counter range for {counter!r} must be integers with "
                f"0 <= lo <= hi < 2^32, got {pair!r}"
            )
        ranges[counter] = (int(lo), int(hi))  # a numpy bound stays JSON-writable
    if not ranges:
        raise ValueError(f"{name} must name at least one counter")
    return ranges


@dataclass(frozen=True)
class GenSpec:
    """Everything needed to generate a reproducible trace pair.

    counter_ranges maps counter name to an inclusive (lo, hi) bound on the
    per-interval delta; every model counter must have a range, and names
    follow ``check_counter_names`` (strings, neither TIME nor FREQ_MHZ).
    n_samples counts trace samples per run, so each run yields
    n_samples - 1 dataset rows.  drop_rate thins the power trace only.
    """

    json_name = "gen spec"

    true_model: PowerModel = json_field(PowerModel)
    n_samples: int = json_field(int)
    counter_ranges: dict[str, tuple[int, int]] = json_field(_ranges)
    n_runs: int = json_field(int, default=1)
    sample_period_cycles: int = json_field(int, default=DEFAULT_PERIOD_CYCLES)
    noise_rel: float = json_field(float, default=0.0)
    seed: int = json_field(int, default=0)
    drop_rate: float = json_field(float, default=0.0)
    inject_wrap: bool = json_field(bool, default=False)

    def __post_init__(self):
        check_fields(self)
        if self.true_model.kind != KIND_PMC:
            raise ValueError("true_model must be a pmc model")
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        if self.sample_period_cycles < 1:
            raise ValueError("sample_period_cycles must be >= 1")
        # the last TIME key generate writes: the last run's last sample
        last_key = self.sample_period_cycles * (
            _run_start(self.n_runs - 1, self.n_samples) + self.n_samples - 1
        )
        if last_key >= TIME_MODULUS:
            raise ValueError(
                f"sample_period_cycles {self.sample_period_cycles} puts the last "
                f"TIME key at {last_key}, past 2^64 - 1"
            )
        if not self.noise_rel >= 0:
            raise ValueError("noise_rel must be >= 0")
        if not 0 <= self.drop_rate < 1:
            raise ValueError("drop_rate must be in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        missing = [
            n for n in self.true_model.counter_names if n not in self.counter_ranges
        ]
        if missing:
            raise ValueError(
                f"model counters without a range: {', '.join(missing)}"
            )

    @property
    def counters(self) -> tuple[str, ...]:
        return tuple(self.counter_ranges)


@dataclass(frozen=True)
class GenResult:
    """One trace pair per run plus the combined ground-truth dataset."""

    pmc_traces: tuple[CounterTrace, ...]
    power_traces: tuple[PowerTrace, ...]
    dataset: Dataset

    @property
    def pmc(self) -> CounterTrace:
        if len(self.pmc_traces) != 1:
            raise ValueError("pmc is only defined for single-run results")
        return self.pmc_traces[0]

    @property
    def power(self) -> PowerTrace:
        if len(self.power_traces) != 1:
            raise ValueError("power is only defined for single-run results")
        return self.power_traces[0]


def generate(spec: GenSpec) -> GenResult:
    """Draw the trace pair(s) and their exact synchronised dataset.

    Pass 1 draws each run's readings and dropped power samples; pass 2
    fills each run's slice of the one delta array in place.  The true power
    and noise of every row follow, and each run's power trace reads its slice.
    """
    rng = np.random.default_rng(spec.seed)
    counters = spec.counters
    p = len(counters)
    n = spec.n_samples
    period = spec.sample_period_cycles
    lo = np.array([spec.counter_ranges[c][0] for c in counters], dtype=np.int64)
    hi = np.array([spec.counter_ranges[c][1] for c in counters], dtype=np.int64)

    runs: list[tuple[CounterTrace, np.ndarray]] = []  # trace, kept samples
    for run in range(spec.n_runs):
        base = period * _run_start(run, n)
        keys = base + period * np.arange(n, dtype=np.uint64)

        # cumulative readings from a start, summed in uint32 so they wrap at
        # 2^32; a mid-range start makes a column wrap when its run total > 0.
        # Row blocks draw what one draw of all rows would
        values = np.zeros((n, p), dtype=np.uint32)
        for a in range(1, n, _DRAW_ROWS):
            b = min(a + _DRAW_ROWS, n)
            values[a:b] = rng.integers(lo, hi + 1, size=(b - a, p), dtype=np.int64)
        if spec.inject_wrap:
            total = values.sum(axis=0, dtype=np.int64)
            values[0] = (COUNTER_MODULUS - (total + 1) // 2) % COUNTER_MODULUS
        np.cumsum(values, axis=0, out=values)
        trace = CounterTrace(
            time_keys=keys, counters=counters, values=values, run_id=f"r{run}"
        )

        # thin the power trace; endpoints always survive so at least one
        # interval remains
        kept = np.ones(n, dtype=bool)
        if spec.drop_rate > 0:
            kept[1:-1] = rng.random(n - 2) >= spec.drop_rate
        runs.append((trace, np.flatnonzero(kept)))

    # each run's rows, a slice of the dataset; its event counts over the
    # surviving (possibly merged) intervals are formed exactly as
    # synchronisation forms them
    bounds = np.cumsum([0] + [len(kept) - 1 for _, kept in runs]).tolist()
    rows = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    deltas = np.empty((bounds[-1], p), dtype=np.uint32)
    time_keys = np.empty(bounds[-1], dtype=np.uint64)
    for (trace, kept), r in zip(runs, rows):
        interval_deltas(trace.values, kept, deltas[r])
        time_keys[r] = trace.time_keys[kept[1:]]

    # true power over ALL rows in one pass, through predict_dataset's own
    # expression, so the true model scores exactly 0% MAPE on the
    # noiseless dataset
    truth = linear_power(spec.true_model, counters, deltas)
    if np.any(truth <= 0):
        raise GenError(
            "true model yields non-positive power for the drawn counts"
        )
    measured = truth
    if spec.noise_rel > 0:
        measured = truth * (1.0 + spec.noise_rel * rng.standard_normal(len(truth)))
    if np.any(measured <= 0) or not np.all(np.isfinite(measured)):
        raise GenError(
            "generated power is not positive; "
            "check model coefficients, ranges and noise_rel"
        )

    # the first kept sample has no preceding interval; give it the first
    # interval's true power so the trace stays positive (it is never
    # consumed by synchronisation)
    power_traces = tuple(
        PowerTrace(
            time_keys=trace.time_keys[kept],
            power_w=np.concatenate([truth[r][:1], measured[r]]),
            run_id=trace.run_id,
        )
        for (trace, kept), r in zip(runs, rows)
    )
    dataset = Dataset(
        counters=counters,
        time_keys=time_keys,
        run_ids=tuple(
            trace.run_id for trace, kept in runs for _ in range(len(kept) - 1)
        ),
        power_w=measured,
        deltas=deltas,
        source=f"datagen(seed={spec.seed})",
    )
    return GenResult(tuple(trace for trace, _ in runs), power_traces, dataset)


# ---------------------------------------------------------------------------
# GenSpec JSON (the CLI `gen` input format)
# ---------------------------------------------------------------------------

def read_gen_spec(path) -> GenSpec:
    return read_json(path, GenSpec)


def write_gen_spec(spec: GenSpec, path) -> None:
    write_json(spec, path)


def default_gen_spec(seed: int = 0) -> GenSpec:
    """A small two-counter spec for demos and smoke tests."""
    model = PowerModel(
        intercept_w=1.5,
        terms=(("CPU_OP", 2.0e-6), ("MEM_ACC", 5.0e-7)),
    )
    return GenSpec(
        true_model=model,
        n_samples=300,
        counter_ranges={
            "CPU_OP": (0, 400000),
            "MEM_ACC": (0, 150000),
            "IO_EVT": (0, 50000),
        },
        noise_rel=0.01,
        seed=seed,
    )
