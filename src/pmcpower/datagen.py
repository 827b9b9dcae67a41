"""Synthetic dual-trace generator with a known ground-truth power model.

The generator is the verification oracle for the rest of the pipeline:
counter deltas are drawn per counter, accumulated into cumulative 32-bit
PMC traces (optionally forced across the 2^32 wrap), and power per
interval is the true model applied to the interval's event counts, times
multiplicative Gaussian sensor noise.  Counters are exact by construction;
only the power channel is noisy.

With ``drop_rate > 0`` a fraction of power samples is removed, so the
surviving intervals span several PMC sample periods; the returned Dataset
is the exact synchronisation of the two traces, merged intervals included.
At zero noise the true model therefore scores 0% MAPE on the returned
Dataset, and at zero drop rate ``synchronize`` reproduces it exactly.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass

import numpy as np

from .dataset import (
    COUNTER_MODULUS,
    CounterTrace,
    Dataset,
    PowerTrace,
    read_json,
    write_json,
)
from .errors import FormatError, GenError
from .regress import KIND_PMC, PowerModel, model_from_dict, model_to_dict

# 80 MHz clock sampled at about 95 Hz
DEFAULT_PERIOD_CYCLES = 842105


@dataclass(frozen=True)
class GenSpec:
    """Everything needed to generate a reproducible trace pair.

    counter_ranges maps counter name to an inclusive (lo, hi) bound on the
    per-interval delta; every model counter must have a range.  n_samples
    counts trace samples per run, so each run yields n_samples - 1 dataset
    rows.  drop_rate thins the power trace only.
    """

    true_model: PowerModel
    n_samples: int
    counter_ranges: dict[str, tuple[int, int]]
    n_runs: int = 1
    sample_period_cycles: int = DEFAULT_PERIOD_CYCLES
    noise_rel: float = 0.0
    seed: int = 0
    drop_rate: float = 0.0
    inject_wrap: bool = False

    def __post_init__(self):
        ranges = {
            str(name): (int(lo), int(hi))
            for name, (lo, hi) in self.counter_ranges.items()
        }
        object.__setattr__(self, "counter_ranges", ranges)
        if self.true_model.kind != KIND_PMC:
            raise ValueError("true_model must be a pmc model")
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        if self.sample_period_cycles < 1:
            raise ValueError("sample_period_cycles must be >= 1")
        if not self.noise_rel >= 0:
            raise ValueError("noise_rel must be >= 0")
        if not 0 <= self.drop_rate < 1:
            raise ValueError("drop_rate must be in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not ranges:
            raise ValueError("counter_ranges must name at least one counter")
        for name, (lo, hi) in ranges.items():
            if not 0 <= lo <= hi < COUNTER_MODULUS:
                raise ValueError(
                    f"counter range for {name!r} must satisfy 0 <= lo <= hi < 2^32"
                )
        missing = [
            n for n in self.true_model.counter_names if n not in ranges
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
    """Draw the trace pair(s) and their exact synchronised dataset."""
    rng = np.random.default_rng(spec.seed)
    counters = spec.counters
    p = len(counters)
    n = spec.n_samples
    period = spec.sample_period_cycles
    lo = np.array([spec.counter_ranges[c][0] for c in counters], dtype=np.int64)
    hi = np.array([spec.counter_ranges[c][1] for c in counters], dtype=np.int64)

    pmc_traces: list[CounterTrace] = []
    per_run: list[dict] = []

    for run in range(spec.n_runs):
        run_id = f"r{run}"
        # separate each run's key range so concatenated rows stay unique
        base = period * (1 + run * (n + 7))
        keys = base + period * np.arange(n, dtype=np.uint64)

        deltas = rng.integers(lo, hi + 1, size=(n - 1, p), dtype=np.int64)

        # cumulative readings, wrapped at 2^32; a mid-range start forces at
        # least one crossing per column when requested
        totals = deltas.sum(axis=0)
        if spec.inject_wrap:
            start = (COUNTER_MODULUS - (totals + 1) // 2) % COUNTER_MODULUS
        else:
            start = np.zeros(p, dtype=np.int64)
        cumulative = np.empty((n, p), dtype=np.int64)
        cumulative[0] = start
        np.cumsum(deltas, axis=0, out=cumulative[1:])
        cumulative[1:] += start
        cumulative %= COUNTER_MODULUS
        pmc_traces.append(
            CounterTrace(
                time_keys=keys,
                counters=counters,
                values=cumulative.astype(np.uint32),
                run_id=run_id,
            )
        )

        # thin the power trace; endpoints always survive so at least one
        # interval remains
        kept = np.ones(n, dtype=bool)
        if spec.drop_rate > 0:
            kept[1:-1] = rng.random(n - 2) >= spec.drop_rate
        kept_idx = np.flatnonzero(kept)

        # event counts over the surviving (possibly merged) intervals,
        # wrap-corrected exactly as synchronisation reconstructs them
        ends = kept_idx[1:]
        starts = kept_idx[:-1]
        csum = np.zeros((n, p), dtype=np.int64)
        np.cumsum(deltas, axis=0, out=csum[1:])
        merged = (csum[ends] - csum[starts]) % COUNTER_MODULUS
        per_run.append(
            {
                "run_id": run_id,
                "keys": keys,
                "kept_idx": kept_idx,
                "ends": ends,
                "merged": merged,
            }
        )

    # true power over ALL rows in one pass, evaluated through the same
    # expression (and matmul shape) predict_dataset will use, so the true
    # model scores exactly 0% MAPE on the noiseless dataset
    all_deltas = np.concatenate(
        [r["merged"] for r in per_run], axis=0
    ).astype(np.uint64)
    term_cols = [counters.index(name) for name, _ in spec.true_model.terms]
    term_coefs = np.array(
        [coef for _, coef in spec.true_model.terms], dtype=np.float64
    )
    truth = (
        spec.true_model.intercept_w
        + all_deltas[:, term_cols].astype(np.float64) @ term_coefs
    )
    if np.any(truth <= 0):
        raise GenError(
            "true model yields non-positive power for the drawn counts"
        )
    noise = (
        1.0 + spec.noise_rel * rng.standard_normal(len(truth))
        if spec.noise_rel > 0
        else np.ones(len(truth))
    )
    measured = truth * noise
    if np.any(measured <= 0) or not np.all(np.isfinite(measured)):
        raise GenError(
            "generated power is not positive; "
            "check model coefficients, ranges and noise_rel"
        )

    power_traces: list[PowerTrace] = []
    rows_time: list[int] = []
    rows_run: list[str] = []
    row0 = 0
    for r in per_run:
        n_rows = len(r["ends"])
        seg_truth = truth[row0 : row0 + n_rows]
        seg_measured = measured[row0 : row0 + n_rows]
        row0 += n_rows
        # the first kept sample has no preceding interval; give it the
        # first interval's true power so the trace stays positive (it is
        # never consumed by synchronisation)
        first = (
            float(seg_truth[0]) if n_rows else spec.true_model.intercept_w
        )
        power_traces.append(
            PowerTrace(
                time_keys=r["keys"][r["kept_idx"]],
                power_w=np.concatenate([[first], seg_measured]),
                run_id=r["run_id"],
            )
        )
        rows_time.extend(int(k) for k in r["keys"][r["ends"]])
        rows_run.extend([r["run_id"]] * n_rows)

    dataset = Dataset(
        counters=counters,
        time_keys=np.array(rows_time, dtype=np.uint64),
        run_ids=tuple(rows_run),
        power_w=measured,
        deltas=all_deltas,
        source=f"datagen(seed={spec.seed})",
    )
    return GenResult(
        pmc_traces=tuple(pmc_traces),
        power_traces=tuple(power_traces),
        dataset=dataset,
    )


# ---------------------------------------------------------------------------
# GenSpec JSON (the CLI `gen` input format)
# ---------------------------------------------------------------------------

def genspec_to_dict(spec: GenSpec) -> dict:
    data = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    data["true_model"] = model_to_dict(spec.true_model)
    data["counter_ranges"] = {n: list(b) for n, b in spec.counter_ranges.items()}
    return data


def genspec_from_dict(data: dict, where: str = "gen spec") -> GenSpec:
    """The GenSpec a JSON object describes; its keys are GenSpec fields,
    and an absent key takes the field's default."""
    types = typing.get_type_hints(GenSpec)
    try:
        unknown = set(data) - set(types)
        if unknown:
            raise FormatError(
                f"unknown gen spec keys: {', '.join(sorted(unknown))}", where
            )
        fields = {
            name: types[name](value) if types[name] in (int, float, bool) else value
            for name, value in data.items()
        }
        fields["true_model"] = model_from_dict(data["true_model"], where=where)
        return GenSpec(**fields)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad gen spec JSON: {exc}", where) from None


def read_gen_spec(path) -> GenSpec:
    return genspec_from_dict(read_json(path, "gen spec"), where=str(path))


def write_gen_spec(spec: GenSpec, path) -> None:
    write_json(genspec_to_dict(spec), path)


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
