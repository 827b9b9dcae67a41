"""Correctness gate and quality figures for one benchmark pass.

Expected values come from the generator's own files, parsed with numpy
rather than pmcpower's readers, and CV scores are recomputed fold by fold
with ``np.linalg.lstsq``.  Each check returns ``(name, ok, detail)``; the
caller counts every failed check as a failed operation.

The benchmark runs the gate in a child process (``python3 checks.py``,
see ``serve``), so that the parsing done here does not count in the peak
RSS of the process that runs the stages.
"""

from __future__ import annotations

import json
import math
import pickle
import re
import sys
from pathlib import Path

import numpy as np

CV_REL_TOL = 1e-9
# validate prints MAPE rounded to 2 decimals
PRINTED_MAPE_TOL = 0.005 + 1e-9
_MAPE_LINE = re.compile(r"^MAPE (\S+)%$", re.MULTILINE)


def _mape(actual: np.ndarray, predicted: np.ndarray) -> float:
    return float(100.0 / actual.size * np.sum(np.abs(actual - predicted) / np.abs(actual)))


def read_dataset_csv(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(header, RUN column, float64 matrix of TIME, POWER_W, deltas...)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    runs = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0, dtype=str, ndmin=1)
    values = np.loadtxt(
        path, delimiter=",", skiprows=1, usecols=range(1, len(header)),
        dtype=np.float64, ndmin=2,
    )
    return header, runs, values


class Truth:
    """Ground truth of one benchmark run: generated rows and true model.

    TIME keys stay below 2^53 and deltas below 2^32, so float64 holds every
    value exactly; POWER_W is written with repr and parses back exactly.
    """

    def __init__(self, layout, true_names: list[str], holdout: bool):
        self.header, self.runs, self.values = read_dataset_csv(layout.dataset())
        self.counters = self.header[3:]
        self.true_names = true_names
        with open(layout.model(), encoding="utf-8") as fh:
            self.model = json.load(fh)
        self.holdout = read_dataset_csv(layout.dataset(holdout=True))[2] if holdout else None

    def run_rows(self, r: int) -> np.ndarray:
        return self.values[self.runs == f"r{r}"]

    def cols(self, names) -> list[int]:
        return [self.counters.index(n) for n in names]


def _predict(model: dict, counters: list[str], values: np.ndarray) -> np.ndarray:
    idx = [counters.index(t["counter"]) for t in model["terms"]]
    coefs = np.array([t["coefficient"] for t in model["terms"]], dtype=np.float64)
    return model["intercept_w"] + values[:, 2:][:, idx] @ coefs


def _printed_mape(stdout: str) -> float:
    m = _MAPE_LINE.search(stdout)
    return float(m.group(1)) if m else math.nan


def check_synced(truth: Truth, synced: list[Path]) -> list[tuple]:
    """Each synced dataset equals the generator's rows for its run exactly."""
    out = []
    for r, path in enumerate(synced):
        header, _, values = read_dataset_csv(path)
        expected = truth.run_rows(r)
        ok = header == truth.header and np.array_equal(values, expected)
        out.append((f"sync r{r} equals generator rows", ok,
                    f"{len(values)} rows vs {len(expected)}"))
    return out


def check_apply(truth: Truth, res, pp) -> tuple[list[tuple], float]:
    """Validate and predict outputs; returns (checks, MAPE over all runs)."""
    checks = []
    model = pp.model_from_dict(truth.model)
    errors = []
    for r, (stdout, fit, pred) in enumerate(zip(res.validate_stdout, res.fit_traces, res.predictions)):
        rows = truth.run_rows(r)
        rel = np.abs(rows[:, 1] - _predict(truth.model, truth.counters, rows)) / rows[:, 1]
        errors.append(rel)
        mape = float(100.0 * rel.mean())
        printed = _printed_mape(stdout)
        checks.append((f"validate r{r} MAPE", abs(printed - mape) <= PRINTED_MAPE_TOL,
                       f"printed {printed} vs {mape}"))
        n_fit = len(Path(fit).read_text(encoding="utf-8").splitlines()) - 1
        checks.append((f"validate r{r} trace rows", n_fit == len(rows), f"{n_fit} vs {len(rows)}"))

        ds = pp.Dataset(
            counters=tuple(truth.counters),
            time_keys=rows[:, 0].astype(np.uint64),
            run_ids=(f"in_r{r}_pmc",) * len(rows),
            power_w=rows[:, 1],
            deltas=rows[:, 2:].astype(np.uint64),
        )
        expected = [
            f"{int(t)},{run},{pp.format_watts(w)}"
            for t, run, w in zip(ds.time_keys, ds.run_ids, pp.predict_dataset(model, ds))
        ]
        lines = Path(pred).read_text(encoding="utf-8").splitlines()
        ok = lines[:1] == ["TIME,RUN,PREDICTED_W"] and lines[1:] == expected
        checks.append((f"predict r{r} matches predict_dataset", ok,
                       f"{len(lines) - 1} rows vs {len(expected)}"))
    all_errors = np.concatenate(errors)
    return checks, float(100.0 * all_errors.mean())


def _run_labels(truth: Truth, n_runs: int) -> np.ndarray:
    # the RUN labels cmd_train sees: file stems, prefixed d<i>: by concat
    labels = np.empty(len(truth.runs), dtype=object)
    for r in range(n_runs):
        stem = f"in_r{r}_pmc"
        labels[truth.runs == f"r{r}"] = f"d{r}:{stem}" if n_runs > 1 else stem
    return labels


def recompute_cv(truth: Truth, n_runs: int, names: list[str], k: int, seed: int) -> float:
    """CV MAPE of one subset: folds dealt by whole run as kfold_split
    documents, each fold complement solved with np.linalg.lstsq."""
    labels = _run_labels(truth, n_runs)
    runs = sorted(set(labels))
    if len(runs) < k:
        raise ValueError(f"{len(runs)} runs, fewer than {k} folds")
    perm = np.random.default_rng(seed).permutation(len(runs))
    fold_of_run = {runs[gi]: slot % k for slot, gi in enumerate(perm)}
    fold = np.array([fold_of_run[label] for label in labels])
    y = truth.values[:, 1]
    design = np.column_stack([np.ones(len(y)), truth.values[:, 2:][:, truth.cols(names)]])
    scores = []
    for f in range(k):
        test = fold == f
        beta = np.linalg.lstsq(design[~test], y[~test], rcond=None)[0]
        scores.append(_mape(y[test], design[test] @ beta))
    return float(np.mean(scores))


def check_train(truth: Truth, n_runs: int, train) -> tuple[list[tuple], dict]:
    """Report vs recompute, exhaustive argmin and held-out MAPE."""
    alg = train.algorithm
    with open(train.model, encoding="utf-8") as fh:
        model = json.load(fh)
    with open(train.report, encoding="utf-8") as fh:
        report = json.load(fh)
    names = [t["counter"] for t in model["terms"]]
    checks = [(f"{alg} model equals report final_model", report["final_model"] == model, "")]

    final = report["final_cv_mape_pct"]
    again = recompute_cv(truth, n_runs, names, report["folds"], report["fold_seed"])
    checks.append((f"{alg} final CV MAPE matches lstsq recompute",
                   abs(again - final) <= CV_REL_TOL * abs(again), f"{final} vs {again}"))

    if alg == "exhaustive":
        scores = {k: math.inf if v is None else v for k, v in report["subset_scores"].items()}
        n_pool = len(report["pool"])
        checks.append((f"{alg} scored 2^{n_pool} subsets", len(scores) == 2 ** n_pool,
                       f"{len(scores)} entries"))
        argmin = min(scores, key=scores.__getitem__)  # first minimum, enumeration order
        checks.append((f"{alg} final subset is the argmin", argmin == "+".join(names),
                       f"{'+'.join(names)!r} vs {argmin!r}"))

    holdout_mape = _mape(truth.holdout[:, 1], _predict(model, truth.counters, truth.holdout))
    printed = _printed_mape(train.holdout_stdout)
    checks.append((f"{alg} held-out MAPE", abs(printed - holdout_mape) <= PRINTED_MAPE_TOL,
                   f"printed {printed} vs {holdout_mape}"))
    quality = {
        "selected": names,
        "holdout_mape_pct": holdout_mape,
        "spurious_terms": len(set(names) - set(truth.true_names)),
        "missed_terms": len(set(truth.true_names) - set(names)),
    }
    return checks, quality


def candidate_counts(report_path: Path) -> tuple[int, int]:
    """(candidates scored, +inf scores recorded) of one search report.

    Greedy reports record the initial score and every accepted round; a
    search that stopped on convergence also scored one rejected round,
    whose size follows from the pool and the final subset.
    """
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    if report["algorithm"] == "exhaustive":
        recorded = list(report["subset_scores"].values())
        return len(recorded), sum(v is None for v in recorded)
    recorded = [report["initial_cv_mape_pct"]] + [
        v for it in report["iterations"] for v in it["candidate_scores"].values()
    ]
    scored = len(recorded)
    final_size = len(report["final_model"]["terms"])
    if report["stop_reason"] == "converged":
        pool = len(report["pool"])
        scored += pool - final_size if report["algorithm"] == "bottom_up" else final_size
    return scored, sum(v is None for v in recorded)


def gate_pass(truth: Truth, workload: str, n_runs: int, res) -> tuple[list[tuple], dict]:
    """Every check of one pass, and its quality figures."""
    import pmcpower as pp

    results = check_synced(truth, res.synced)
    if workload == "apply":
        found, mape = check_apply(truth, res, pp)
        results += found
        quality = {"selected": {"apply": truth.true_names}, "holdout_mape_pct": mape,
                   "spurious_terms": 0, "missed_terms": 0}
    else:
        figures = []
        for train in res.trains:
            found, q = check_train(truth, n_runs, train)
            results += found
            figures.append((train.algorithm, q))
        quality = {
            "selected": {alg: q["selected"] for alg, q in figures},
            "holdout_mape_pct": float(np.mean([q["holdout_mape_pct"] for _, q in figures])),
            "spurious_terms": sum(q["spurious_terms"] for _, q in figures),
            "missed_terms": sum(q["missed_terms"] for _, q in figures),
        }
    counts = [candidate_counts(train.report) for train in res.trains]
    quality["candidates_scored"] = sum(s for s, _ in counts)
    quality["candidates_infeasible"] = sum(i for _, i in counts)
    return results, quality


def serve() -> None:
    """Child-process loop over pickles on stdin: first the arguments of
    Truth, answered with None once parsed, then one ``(workload, n_runs,
    pass output)`` per pass, answered with gate_pass's result."""
    stdin, out = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # keep the answer pipe for answers only
    truth = Truth(*pickle.load(stdin))
    pickle.dump(None, out)
    out.flush()
    while True:
        try:
            job = pickle.load(stdin)
        except EOFError:
            return
        pickle.dump(gate_pass(truth, *job), out)
        out.flush()


if __name__ == "__main__":
    serve()
