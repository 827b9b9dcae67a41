import json

import numpy as np
import pytest

from pmcpower import Dataset, GenSpec, PowerModel, generate


def make_dataset(n, p, seed=0, n_runs=1, power_lo=0.5, power_hi=10.0):
    """Random but well-formed dataset: arbitrary deltas, positive power."""
    rng = np.random.default_rng(seed)
    counters = tuple(f"C{i + 1}" for i in range(p))
    gaps = rng.integers(1, 10**6, size=n, dtype=np.uint64)
    run_edges = np.array_split(np.arange(n), n_runs)
    run_ids = []
    for r, block in enumerate(run_edges):
        run_ids += [f"r{r}"] * len(block)
    return Dataset(
        counters=counters,
        time_keys=np.cumsum(gaps),
        run_ids=tuple(run_ids),
        power_w=rng.uniform(power_lo, power_hi, size=n),
        deltas=rng.integers(0, 2**32, size=(n, p), dtype=np.uint64),
    )


def edited_json(data, path, value):
    """A deep copy of the JSON object ``data`` with the value at ``path``
    (a sequence of keys and list indices) replaced by ``value``."""
    root = node = json.loads(json.dumps(data))
    *parents, last = path
    for step in parents:
        node = node[step]
    node[last] = value
    return root


def linear_dataset(model, n, ranges, seed=0, n_runs=1, noise_rel=0.0):
    """Dataset whose power is exactly (or noisily) the given linear model."""
    spec = GenSpec(
        true_model=model,
        n_samples=n // n_runs + 1,
        counter_ranges=ranges,
        n_runs=n_runs,
        noise_rel=noise_rel,
        seed=seed,
    )
    return generate(spec).dataset


def twin_pairs_dataset():
    """400 rows in 10 runs of P = 2 + 4e-6 A + 1e-6 B + 2e-6 C at 1 % noise,
    with B2 a copy of B and C2 a copy of C: every set that holds both
    copies of a pair is rank deficient on every fold."""
    model = PowerModel(intercept_w=2.0, terms=(("A", 4e-6), ("B", 1e-6), ("C", 2e-6)))
    ds = linear_dataset(
        model, 400, {n: (0, 600_000) for n in "ABC"}, seed=7, n_runs=10, noise_rel=0.01
    )
    a, b, c = ds.deltas.T
    return Dataset(
        counters=("A", "B", "B2", "C", "C2"),
        time_keys=ds.time_keys,
        run_ids=ds.run_ids,
        power_w=ds.power_w,
        deltas=np.column_stack([a, b, b, c, c]),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def one_counter_model():
    return PowerModel(intercept_w=2.59799, terms=(("C16", 4.58765e-06),))
