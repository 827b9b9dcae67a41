#!/usr/bin/env python3
"""Benchmark of the pmcpower pipeline, end to end and layer by layer.

Run from the root of a checkout (the directory that holds ``src/``):

    python3 perfbench/run.py --workload apply --seed 1 --seconds 25 --trace 0

One run of a workload: ``pmcpower gen`` writes the inputs in fresh child
processes, five times (set-up, median taken).  Then whole passes of the
CLI stages run in-process through ``pmcpower.cli.main`` until
``--seconds`` have passed, and every pass goes through the correctness
gate, which runs in a child process.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics.  The last line of standard
output is one JSON object; the lines above it repeat every metric by name
and unit, with the environment.  Metric names and units, and the reason
for each workload, are read from BENCHMARK.json.  Results and spans are
also written under ``perfbench/out/``.

``--size smoke`` shrinks every workload so that all of them, traced and
untraced, finish in seconds (see test_perfbench.py).
"""

import os
import sys

# One BLAS thread per process, so --jobs 2 never runs more threads than
# cores; this must happen before numpy is first imported, here and in the
# child processes, which inherit the environment.
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext, redirect_stdout  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from metrics import END_TO_END, EXTRA_END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, Layout, spec_dict, true_counters  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPS = 5
GEN_TIMEOUT_S = 120
GATE_EXIT_TIMEOUT_S = 30


class StageFailed(Exception):
    pass


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what} {detail}", file=sys.stderr)
        return ok


class Stages:
    """Runs CLI stages in-process; times each, counts non-zero exits."""

    def __init__(self, cli_main, tally: Tally):
        self.cli_main = cli_main
        self.tally = tally
        self.tracer = None
        self.times = defaultdict(float)

    def run(self, stage: str, argv: list[str], stdout=None) -> str:
        buf = io.StringIO() if stdout is None else stdout
        span = self.tracer.span(f"cli.{stage}") if self.tracer else nullcontext()
        t0 = time.perf_counter()
        with span, redirect_stdout(buf):
            rc = self.cli_main(argv)
        self.times[stage] += time.perf_counter() - t0
        if not self.tally.record(rc == 0, f"stage {stage}", f"exited {rc}: {argv}"):
            raise StageFailed(f"{stage} exited {rc}")
        return buf.getvalue() if stdout is None else ""


class Gate:
    """The correctness gate (checks.py) in a child process, so that its
    parsing does not count in this process's peak_rss_mb."""

    def __init__(self, env: dict, layout: Layout, true_names: list[str], holdout: bool):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "checks.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            self._ask((layout, true_names, holdout))  # parsed before the first pass
        except BaseException:
            self.__exit__()
            raise

    def _ask(self, obj):
        pickle.dump(obj, self.proc.stdin)
        self.proc.stdin.flush()
        return pickle.load(self.proc.stdout)

    def check(self, workload: str, n_runs: int, res) -> tuple[list[tuple], dict]:
        return self._ask((workload, n_runs, res))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:  # the child has died; its exit is awaited below
            pass
        try:
            self.proc.wait(timeout=GATE_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def child_env(src: Path) -> dict:
    """This environment, BLAS pins included, with ``src`` importable."""
    env = dict(os.environ, **BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True,
                    help="measure whole passes until this many seconds have passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")
    return args


def environment(root: Path, args, size) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "pmcpower").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_pins": {k: os.environ.get(k) for k in BLAS_PINS},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": args.seed,
        "gen_seeds": {"train": 2 * args.seed, "holdout": 2 * args.seed + 1},
        "size": args.size,
        "inputs": asdict(size),
    }


def setup(w, size, seed, layout: Layout, src: Path, tally: Tally, reps: int) -> list[float]:
    """Write the gen specs, then run ``pmcpower gen`` in fresh processes
    ``reps`` times; each repeat's wall time is imports plus generation."""
    gens = [False] + ([True] if size.holdout_runs else [])
    for holdout in gens:
        layout.spec(holdout).write_text(json.dumps(spec_dict(w, size, seed, holdout)))
    env = child_env(src)
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for holdout in gens:
            argv = [sys.executable, "-m", "pmcpower", "gen", "--spec", str(layout.spec(holdout)),
                    "--out-prefix", str(layout.prefix(holdout))]
            proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=GEN_TIMEOUT_S)
            if not tally.record(proc.returncode == 0, "stage gen", proc.stderr):
                raise StageFailed("gen failed")
        walls.append(time.perf_counter() - t0)
    return walls


def layer_metrics(tracer, rec) -> dict:
    """Per-layer figures of one traced pass, including derived counts."""
    t = tracer.layer_totals(rec["trace_id"])
    # shares for the acceptance questions: where the pass and train went
    layers_self = sum(v for k, v in t.items() if k.split(".")[0] in ("dataset", "sync", "regress")
                      and k.endswith("_s") and not k.endswith("_total_s"))
    t["share.dataset_sync_regress_of_pipeline"] = layers_self / rec["pipeline_s"]
    reads = ("dataset.read_counter_trace", "dataset.read_power_trace", "dataset.read_dataset")
    t["dataset.rows_read"] = sum(t.get(f"{n}.rows", 0) for n in reads)
    t["dataset.bytes_read"] = sum(t.get(f"{n}.bytes", 0) for n in reads)
    read_s = sum(t.get(f"{n}_s", 0.0) for n in reads)
    t["dataset.read_mb_per_s"] = t["dataset.bytes_read"] / 1e6 / read_s if read_s else 0.0
    t["sync.rows_out"] = t.get("sync.synchronize.rows_out", 0)
    t["sync.keys_unmatched"] = t.get("sync.coverage_report.unmatched", 0)
    keys = t.get("sync.coverage_report.keys", 0)
    t["sync.match_fraction"] = t.get("sync.coverage_report.matched", 0) / keys if keys else 0.0
    t["search.candidates_scored"] = rec["quality"]["candidates_scored"]
    t["search.candidates_infeasible"] = rec["quality"]["candidates_infeasible"]
    search_s = sum(t.get(f"search.{a}_total_s", 0.0) for a in ("bottom_up", "top_down", "exhaustive"))
    scored = t["search.candidates_scored"]
    t["search.candidate_ms"] = 1e3 * search_s / scored if scored else 0.0
    train_total = t.get("cli.train_total_s", 0.0)
    t["share.search_of_train"] = search_s / train_total if train_total else 0.0
    return t


def traced_extras(tracer, pp, cli_main, w, size, layout: Layout, synced, work: Path, tally) -> dict:
    """In-process traced gen (for datagen/cli.gen) and the cv_score probes."""
    gen_dir = work / "gen_traced"
    gen_dir.mkdir()
    with tracer.trace("gen"):
        with tracer.span("cli.gen"), redirect_stdout(io.StringIO()):
            rc = cli_main(["gen", "--spec", str(layout.spec(False)), "--out-prefix", str(gen_dir / "in")])
    tally.record(rc == 0, "stage gen (traced)", f"exited {rc}")
    data = pp.concat_datasets([pp.read_dataset(p) for p in synced])
    names = true_counters(size)
    with tracer.trace("probe"):
        with tracer.span("search.cv_score_narrow"):
            pp.cv_score(data, names, 10)
        with tracer.span("search.cv_score_wide"):
            pp.cv_score(data, data.counters, 10)
    gen = tracer.layer_totals("gen")
    probe = tracer.layer_totals("probe")
    return {
        "datagen.generate_s": gen.get("datagen.generate_s", 0.0),
        "cli.gen_s": gen.get("cli.gen_s", 0.0),
        "search.cv_score_narrow_s": probe["search.cv_score_narrow_total_s"],
        "search.cv_score_wide_s": probe["search.cv_score_wide_total_s"],
    }


def measure(args, root: Path, work: Path, tally: Tally, why: str) -> dict:
    src = root / "src"
    import pmcpower as pp
    import pmcpower.cli

    w = WORKLOADS[args.workload]
    smoke = args.size == "smoke"
    size = w.size(smoke)
    layout = Layout(work / "inputs")
    layout.root.mkdir(parents=True)
    result = {"workload": w.name, "why": why, "env": environment(root, args, size)}

    setup_walls = setup(w, size, args.seed, layout, src, tally, 1 if smoke else SETUP_REPS)
    tracer = spans.Tracer(pp) if args.trace else None
    with Gate(child_env(src), layout, true_counters(size), bool(size.holdout_runs)) as gate:
        records, last_out = run_passes(args, w, size, layout, work, tracer, gate, tally)
    result["passes"] = records
    result["setup_walls_s"] = setup_walls
    plain = [r for r in records if not r["traced"]]
    quality = plain[-1]["quality"]
    end_to_end = {
        "pipeline_s": statistics.median(r["pipeline_s"] for r in plain),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "holdout_mape_pct": statistics.median(r["quality"]["holdout_mape_pct"] for r in plain),
    }
    extra = {
        "train_s": statistics.median(r["stage_s"].get("train", 0.0) for r in plain),
        "spurious_terms": quality["spurious_terms"],
        "missed_terms": quality["missed_terms"],
    }
    result["end_to_end"] = end_to_end
    result["extra"] = extra
    result["selected"] = quality["selected"]

    if args.trace:
        per_pass = [layer_metrics(tracer, r) for r in records if r["traced"]]
        layer = {name: statistics.median(t.get(name, 0.0) for t in per_pass) for name in PER_LAYER}
        layer.update(traced_extras(tracer, pp, pmcpower.cli.main, w, size, layout,
                                   sorted(last_out.glob("ds_r*.csv")), work, tally))
        layer["trace.overhead_s"] = (
            statistics.median(r["pipeline_s"] for r in records if r["traced"])
            - end_to_end["pipeline_s"]
        )
        result["per_layer"] = layer
        result["per_layer_all"] = per_pass
        spans_path = OUT / f"{result_stem(args)}-spans.json"
        spans_path.write_text(json.dumps(tracer.spans))
        result["spans_file"] = str(spans_path.relative_to(root))
    return result


def run_passes(args, w, size, layout: Layout, work: Path, tracer, gate, tally: Tally):
    """Whole passes until ``--seconds`` have passed, each through the gate.
    Returns the pass records and the output directory of the last pass."""
    from pmcpower import cli

    stages = Stages(cli.main, tally)
    records = []
    first_selection = None
    min_passes = 2 if args.trace else 1
    last_out = None
    start = time.perf_counter()
    while len(records) < min_passes or time.perf_counter() - start < args.seconds:
        i = len(records)
        traced = bool(args.trace) and i % 2 == 1
        out = work / f"pass{i}"
        out.mkdir()
        stages.times = defaultdict(float)
        stages.tracer = tracer if traced else None
        trace_id = f"pass{i}"
        with tracer.trace(trace_id) if traced else nullcontext():
            with tracer.span("bench.pass") if traced else nullcontext():
                t0, c0 = time.perf_counter(), time.process_time()
                res = w.run_pass(stages, layout, size, out)
                pipeline_s = time.perf_counter() - t0
                cpu_s = time.process_time() - c0
        results, quality = gate.check(w.name, size.n_runs, res)
        for name, ok, detail in results:
            tally.record(ok, name, detail)
        if first_selection is None:
            first_selection = quality["selected"]
        else:
            tally.record(quality["selected"] == first_selection, "same selected subsets as pass 0",
                         f"{quality['selected']} vs {first_selection}")
        records.append({"pass": i, "traced": traced, "trace_id": trace_id, "pipeline_s": pipeline_s,
                        "cpu_s": cpu_s, "stage_s": dict(stages.times), "quality": quality})
        if last_out is not None:
            shutil.rmtree(last_out)
        last_out = out
    return records, last_out


def result_stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.size == "smoke" else "")


def report(args, bench: dict, result: dict, tally: Tally) -> dict:
    """Print the human-readable lines; return the metrics of the JSON line,
    named and with units as in BENCHMARK.json."""
    env = result["env"]
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    print(f"# why: {result['why']}")
    print(f"# env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"nproc {env['nproc']}, pins {env['blas_pins']}, commit {env['git_commit']}, "
          f"src {env['src_sha256'][:12]}")
    print(f"# inputs: {env['inputs']}, gen seeds {env['gen_seeds']}")
    plain = [r["pipeline_s"] for r in result["passes"] if not r["traced"]]
    print(f"# passes: {len(result['passes'])} ({len(plain)} untraced); "
          f"pipeline_s min {min(plain):.4f} max {max(plain):.4f}; "
          f"setup repeats {['%.4f' % s for s in result['setup_walls_s']]}")
    print(f"# selected: {result['selected']}")
    values = dict(result["end_to_end"])
    values.update(result["extra"])
    values["failed_frac"] = tally.failed / tally.attempted
    gated = [(m["name"], m["unit"], END_TO_END[m["name"]]) for m in bench["end_to_end"]]
    extra = [(name, unit, what) for name, (unit, what) in EXTRA_END_TO_END.items()
             if not (name == "train_s" and args.workload == "apply")]
    for name, unit, what in gated + extra:
        print(f"{name:<34} {values[name]:>14.6g} {unit:<8} {what}")
    print(f"{'attempted':<34} {tally.attempted:>14d} {'count':<8} CLI stages and correctness checks")
    if not args.trace:
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in gated}
    layer = result["per_layer"]
    for m in bench["per_layer"]:
        print(f"{m['name']:<34} {layer[m['name']]:>14.6g} {m['unit']:<8} -> {PER_LAYER[m['name']]}")
    shares = result["per_layer_all"]
    print(f"# share of traced pipeline_s in dataset+sync+regress self time: "
          f"{statistics.median(t['share.dataset_sync_regress_of_pipeline'] for t in shares):.3f}")
    print(f"# share of traced train stage in search spans: "
          f"{statistics.median(t['share.search_of_train'] for t in shares):.3f}")
    print(f"# spans: {result['spans_file']}")
    return {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in bench["per_layer"]}


def _terminate(signum, frame):
    # unwind, so that running gen children are killed and reaped and the
    # work directory is removed
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = Path.cwd()
    src = root / "src"
    if not (src / "pmcpower" / "__init__.py").is_file():
        print(f"error: no pmcpower sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pmcpower

    if Path(pmcpower.__file__).resolve().parent != (src / "pmcpower").resolve():
        print(f"error: imported pmcpower from {pmcpower.__file__}, not {src}", file=sys.stderr)
        return 2

    bench = json.loads((root / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in bench["workloads"]}[args.workload]

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{result_stem(args)}-{os.getpid()}"
    tally = Tally()
    try:
        result = measure(args, root, work, tally, why)
    except Exception:  # the gate must still report what it attempted
        traceback.print_exc()
        tally.record(False, "benchmark run")
        print(json.dumps({"correct": False, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = report(args, bench, result, tally)
    result.update(attempted=tally.attempted, failed=tally.failed)
    (OUT / f"{result_stem(args)}.json").write_text(json.dumps(result, indent=1, default=str))
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
