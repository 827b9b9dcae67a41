"""The benchmark's workloads: generated inputs and the CLI stages of one
pass.  Why each workload exists is its ``why`` line in BENCHMARK.json.

Every pass drives the user path through ``pmcpower.cli.main``.  Inputs come
from ``pmcpower gen`` on a spec built here from the benchmark seed: the
training traces use ``2*seed`` and the held-out traces ``2*seed + 1``, so
the two never share a draw.  The model structure (pool, true counters,
coefficients, ranges) is fixed, so the seed changes the data and not the
size of the problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# never used while the benchmark was built; keep it for checking a claim
# on fresh inputs
FRESH_SEED = 7919

FOLDS = 10
INTERCEPT_W = 2.5
COEF_STEP_W = 1.0e-6  # true coefficients are 1, 2, 3, ... times this
DELTA_HI = 600_000  # per-interval delta range of every counter


@dataclass(frozen=True)
class Size:
    n_runs: int
    n_samples: int
    n_counters: int
    n_true: int
    holdout_runs: int = 0
    holdout_samples: int = 0


@dataclass
class TrainOut:
    algorithm: str
    model: Path
    report: Path
    holdout_stdout: str = ""


@dataclass
class PassOut:
    """Files and captured stdout of one pass, for the correctness gate."""

    synced: list[Path] = field(default_factory=list)
    validate_stdout: list[str] = field(default_factory=list)
    fit_traces: list[Path] = field(default_factory=list)
    predictions: list[Path] = field(default_factory=list)
    trains: list[TrainOut] = field(default_factory=list)


class Layout:
    """Where the generated inputs of one benchmark run live."""

    def __init__(self, root: Path):
        self.root = root

    def spec(self, holdout: bool) -> Path:
        return self.root / ("hold_spec.json" if holdout else "in_spec.json")

    def prefix(self, holdout: bool) -> Path:
        return self.root / ("hold" if holdout else "in")

    def pmc(self, r: int) -> Path:
        return self.root / f"in_r{r}_pmc.csv"

    def power(self, r: int) -> Path:
        return self.root / f"in_r{r}_power.csv"

    def dataset(self, holdout: bool = False) -> Path:
        return Path(f"{self.prefix(holdout)}_dataset.csv")

    def model(self) -> Path:
        return self.root / "in_model.json"


@dataclass(frozen=True)
class Workload:
    name: str
    noise_rel: float
    drop_rate: float
    full: Size
    smoke: Size
    run_pass: Callable  # (stages, layout, size, outdir) -> PassOut

    def size(self, smoke: bool) -> Size:
        return self.smoke if smoke else self.full


def counter_names(size: Size) -> list[str]:
    return [f"C{i:02d}" for i in range(size.n_counters)]


def true_counters(size: Size) -> list[str]:
    names = counter_names(size)
    return [names[(j * size.n_counters) // size.n_true + 1] for j in range(size.n_true)]


def spec_dict(w: Workload, size: Size, seed: int, holdout: bool) -> dict:
    """The GenSpec JSON that ``pmcpower gen --spec`` reads."""
    return {
        "true_model": {
            "kind": "pmc",
            "intercept_w": INTERCEPT_W,
            "terms": [
                {"counter": name, "coefficient": COEF_STEP_W * (j + 1)}
                for j, name in enumerate(true_counters(size))
            ],
        },
        "n_samples": size.holdout_samples if holdout else size.n_samples,
        "counter_ranges": {name: [0, DELTA_HI] for name in counter_names(size)},
        "n_runs": size.holdout_runs if holdout else size.n_runs,
        "noise_rel": w.noise_rel,
        "drop_rate": w.drop_rate,
        "inject_wrap": True,
        "seed": 2 * seed + (1 if holdout else 0),
    }


def _sync(stages, layout: Layout, r: int, out: Path, *extra: str) -> Path:
    path = out / f"ds_r{r}.csv"
    stages.run(
        "sync",
        ["sync", "--pmc", str(layout.pmc(r)), "--power", str(layout.power(r)),
         "--out", str(path), *extra],
    )
    return path


def _sync_all(stages, layout: Layout, size: Size, out: Path) -> list[Path]:
    """Exact-key sync of every run."""
    return [_sync(stages, layout, r, out) for r in range(size.n_runs)]


def _train_and_validate(stages, layout, out, synced, algorithm, extra=()) -> TrainOut:
    res = TrainOut(algorithm, out / f"model_{algorithm}.json", out / f"report_{algorithm}.json")
    argv = ["train"]
    for path in synced:
        argv += ["--dataset", str(path)]
    argv += ["--algorithm", algorithm, "--folds", str(FOLDS), *extra,
             "--model-out", str(res.model), "--report-out", str(res.report)]
    stages.run("train", argv)
    res.holdout_stdout = stages.run(
        "validate",
        ["validate", "--model", str(res.model), "--dataset", str(layout.dataset(holdout=True))],
    )
    return res


def apply_pass(stages, layout: Layout, size: Size, out: Path) -> PassOut:
    res = PassOut()
    for r in range(size.n_runs):
        ds = _sync(stages, layout, r, out, "--tolerance", "5")
        fit = out / f"fit_r{r}.csv"
        res.validate_stdout.append(
            stages.run(
                "validate",
                ["validate", "--model", str(layout.model()), "--dataset", str(ds),
                 "--trace-out", str(fit)],
            )
        )
        pred = out / f"pred_r{r}.csv"
        with open(pred, "w", encoding="utf-8", newline="\n") as fh:
            stages.run(
                "predict",
                ["predict", "--model", str(layout.model()), "--dataset", str(ds)],
                stdout=fh,
            )
        res.synced.append(ds)
        res.fit_traces.append(fit)
        res.predictions.append(pred)
    return res


def select_pass(stages, layout: Layout, size: Size, out: Path) -> PassOut:
    res = PassOut(synced=_sync_all(stages, layout, size, out))
    for algorithm in ("bottom_up", "top_down"):
        res.trains.append(_train_and_validate(stages, layout, out, res.synced, algorithm))
    return res


def oracle_pass(stages, layout: Layout, size: Size, out: Path) -> PassOut:
    res = PassOut(synced=_sync_all(stages, layout, size, out))
    res.trains.append(
        _train_and_validate(stages, layout, out, res.synced, "exhaustive", ("--jobs", "2"))
    )
    return res


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="apply",
            noise_rel=0.01,
            drop_rate=0.10,
            full=Size(n_runs=2, n_samples=20_001, n_counters=16, n_true=3),
            smoke=Size(n_runs=2, n_samples=201, n_counters=6, n_true=2),
            run_pass=apply_pass,
        ),
        Workload(
            name="select",
            noise_rel=0.01,
            drop_rate=0.10,
            full=Size(n_runs=10, n_samples=451, n_counters=20, n_true=4,
                      holdout_runs=10, holdout_samples=451),
            smoke=Size(n_runs=10, n_samples=31, n_counters=8, n_true=2,
                       holdout_runs=2, holdout_samples=31),
            run_pass=select_pass,
        ),
        Workload(
            name="oracle",
            noise_rel=0.02,
            drop_rate=0.0,
            full=Size(n_runs=10, n_samples=101, n_counters=9, n_true=3,
                      holdout_runs=10, holdout_samples=1001),
            smoke=Size(n_runs=10, n_samples=21, n_counters=5, n_true=2,
                       holdout_runs=2, holdout_samples=31),
            run_pass=oracle_pass,
        ),
    )
}
