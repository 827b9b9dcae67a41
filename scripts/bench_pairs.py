#!/usr/bin/env python3
"""Run perfbench in two checkouts, in alternating pairs, and summarise.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads select,apply,oracle --seeds 1-10 --out BENCH_12.json

Each checkout is the root of a pmcpower tree (it holds ``src/``,
``perfbench/`` and ``BENCHMARK.json``).  For every seed, workloads
interleaved in the given order, ``perfbench/run.py`` runs once in each
checkout: the parent first on odd seeds, the change first on even ones,
so that drift in host load falls on both sides alike.  The summary JSON
gives, per workload and metric, each side's runs with their median and
quartiles (linear interpolation), how many pairs the change was lower in,
the median relative change and, for each end-to-end metric of
``BENCHMARK.json``, whether the change median is within its bound
(``within_bound``: change median <= parent median x (1 + bound)); plus the
failed and attempted counts, the pass counts, each run's selected counters
per search (``selected``) and the count of pairs whose sides selected the
same (``same_selected_pairs``), the environment, each side's commit and
``src/pmcpower`` hash.
``--traced-seed`` adds one traced run per side of every workload with its
per-layer metrics, as a pointer to where time goes: one run per side
cannot resolve per-layer moves of 10-20%; ``--claim WORKLOAD:METRIC`` checks the rule "change
lower in at least 9 of 10 pairs (scaled to the pair count) and the median
gap larger than the parent's interquartile range".
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
EXTRA_METRICS = ("train_s",)  # kept from a run's extras besides the end-to-end ones


def seed_list(text: str) -> list[int]:
    """``"1-10"`` or ``"1,2,7919"`` (ranges and single seeds mixed); a
    range must not run backwards."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        span = range(int(lo), int(hi or lo) + 1)
        if not span:
            raise argparse.ArgumentTypeError(f"empty seed range {part!r}")
        seeds += span
    return seeds


def run_once(root: Path, workload: str, seed: int, seconds: int, size: str, trace: int) -> dict:
    """One perfbench run in ``root``: its JSON line plus the result file."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"perfbench failed in {root} ({' '.join(argv[1:])}):\n{proc.stderr}")
    line = json.loads(lines[-1])
    stem = f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if size == "smoke" else "")
    result = json.loads((root / "perfbench" / "out" / f"{stem}.json").read_text())
    metrics = dict(result["end_to_end"])
    metrics.update((k, v) for k, v in result["extra"].items() if k in EXTRA_METRICS)
    if trace:
        metrics.update((k, v["value"]) for k, v in line["metrics"].items())
    return {"metrics": metrics, "failed": line["failed"], "attempted": line["attempted"],
            "passes": len(result["passes"]), "selected": result["selected"],
            "env": result["env"]}


def spread(runs: list[float]) -> dict:
    if len(runs) > 1:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = median = q3 = runs[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": runs}


def summarise(pairs: list[dict], bounds: dict) -> dict:
    """Per metric, each side's spread and the pairs the change was lower in
    (every end-to-end metric is better lower); a metric with a bound also
    says whether the change median is within it."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        runs = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        wins = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
        ties = sum(c == p for p, c in zip(runs["parent"], runs["change"]))
        parent, change = spread(runs["parent"]), spread(runs["change"])
        rel = (change["median"] - parent["median"]) / parent["median"] if parent["median"] else 0.0
        out[name] = {"parent": parent, "change": change, "change_lower_in_pairs": wins,
                     "ties": ties, "median_change_rel": rel}
        if name in bounds:
            out[name]["bound"] = bounds[name]
            out[name]["within_bound"] = (
                change["median"] <= parent["median"] * (1 + bounds[name]))
    return out


def claim(summary: dict, workload: str, metric: str) -> dict:
    m = summary[workload]["metrics"][metric]
    n = len(m["parent"]["runs"])
    gap = m["parent"]["median"] - m["change"]["median"]
    need = math.ceil(0.9 * n)
    return {"metric": metric, "workload": workload,
            "rule": f"change lower in at least {need} of {n} pairs, and the median gap "
                    "larger than the parent's IQR",
            "change_lower_in_pairs": m["change_lower_in_pairs"], "median_gap": gap,
            "parent_iqr": m["parent"]["iqr"],
            "met": m["change_lower_in_pairs"] >= need and gap > m["parent"]["iqr"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    ap.add_argument("--workloads", default="select,apply,oracle")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--traced-seed", type=int,
                    help="also run one traced pair at this seed; one run per side cannot "
                         "resolve per-layer moves of 10-20%%")
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    ap.add_argument("--out", type=Path, help="write the summary here (default: stdout)")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = args.workloads.split(",")
    benchmark = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    known = [*bounds, *EXTRA_METRICS]
    claims = [c.split(":") for c in args.claim]
    for text, parts in zip(args.claim, claims):
        if len(parts) != 2 or parts[0] not in workloads or parts[1] not in known:
            ap.error(f"--claim {text!r} is not WORKLOAD:METRIC with a workload of "
                     f"--workloads and a metric of {', '.join(known)}")

    pairs = {w: [] for w in workloads}
    for seed in args.seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for w in workloads:
            pair = {side: run_once(roots[side], w, seed, args.seconds, args.size, 0)
                    for side in order}
            pairs[w].append(pair)
            print(f"seed {seed} {w}: " + ", ".join(
                f"{side} {pair[side]['metrics']['pipeline_s']:.4f}" for side in SIDES),
                file=sys.stderr)

    first = pairs[workloads[0]][0]
    env = first["change"]["env"]
    summary = {
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {args.seconds} --trace 0 --size {args.size}",
        "run_seconds": args.seconds,
        "pairs": f"seeds {args.seeds[0]}-{args.seeds[-1]} ({len(args.seeds)}) per workload; "
                 "parent first on odd seeds, change first on even seeds; workloads "
                 f"interleaved {', '.join(workloads)} within a seed",
        "commits": {side: first[side]["env"]["git_commit"] for side in SIDES},
        "environment": {k: env[k] for k in ("python", "numpy", "blas", "blas_pins", "nproc",
                                            "machine")},
        "src_sha256": {side: first[side]["env"]["src_sha256"] for side in SIDES},
        "workloads": {
            w: {
                "seeds": args.seeds,
                "metrics": summarise(pairs[w], bounds),
                **{key: {side: [p[side][key] for p in pairs[w]] for side in SIDES}
                   for key in ("failed", "attempted", "passes", "selected")},
                "same_selected_pairs": sum(
                    p["parent"]["selected"] == p["change"]["selected"] for p in pairs[w]),
            }
            for w in workloads
        },
    }
    for w in workloads if args.traced_seed is not None else ():
        summary[f"traced_{w}_seed_{args.traced_seed}"] = {
            "command": f"python3 perfbench/run.py --workload {w} --seed {args.traced_seed} "
                       f"--seconds {args.seconds} --trace 1",
            "note": "per-layer figures are self time, median over traced passes; "
                    "pipeline_s is the median of the untraced passes between them; "
                    "one traced run per side cannot resolve per-layer moves of 10-20%",
            **{side: run_once(roots[side], w, args.traced_seed, args.seconds, args.size,
                              1)["metrics"] for side in SIDES},
        }
    if claims:
        summary["claims"] = [claim(summary["workloads"], *c) for c in claims]
    text = json.dumps(summary, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
