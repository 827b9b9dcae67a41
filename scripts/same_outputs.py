#!/usr/bin/env python3
"""Check that two checkouts write byte-identical artifacts.

    python3 scripts/same_outputs.py --parent ../parent --change . \\
        --workloads apply,select,oracle --seed 7919 --size full

Each checkout is the root of a pmcpower tree (it holds ``src/`` and
``perfbench/``).  For every workload, a child process per checkout runs
``pmcpower gen`` on the benchmark's specs for ``--seed`` and then one pass
of the workload's ``run_pass`` from ``perfbench/workloads.py``, each
through ``pmcpower.cli.main``, with that checkout's ``src/`` and
``perfbench/`` on the path and BLAS on one thread.  Both sides run in
directories of the same layout with relative paths, so paths printed or
stored match.  The sha256 of every file written (gen files, synced
datasets, models, reports, fit traces, predictions) and of each stage's
stdout is compared; every artifact that differs, or exists on one side
only, is listed.  A JSON artifact (model, report) that differs on both
sides gets one more line: how many of its leaves differ, whether every
one of them is a float on both sides, and the largest relative gap
between such floats, so a change that only moves rounding shows as such.
Exit 0 when all match, 1 when any differs, 2 when a side fails to run.

With ``--memory`` each child also traces its stages with tracemalloc, and
one more line per workload gives both sides' largest traced peak for each
stage kind (gen, sync, train, validate, predict), so a memory change shows
which stage it moved.  A stage's peak counts what it allocates beyond what
was live when it started, and the modules the stages load,
``pmcpower.search`` included, are imported before the first one.  Tracing
makes a full-size run about 15x slower (2.6 -> 39 s for all three
workloads on 2 cores), so it is not the default.
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

SIDES = ("parent", "change")
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
TIMEOUT_S = 600
_MISSING = object()  # a JSON key that one side lacks


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Recorder:
    """The ``stages`` object ``run_pass`` drives: runs each CLI stage and
    keeps the sha256 of its stdout, numbered in run order, and with
    ``memory`` the largest tracemalloc peak of each stage kind."""

    def __init__(self, cli_main, memory: bool = False):
        self.cli_main = cli_main
        self.memory = memory
        self.stdout: dict[str, str] = {}
        self.peaks: dict[str, int] = {}

    def run(self, stage: str, argv: list[str], stdout=None) -> str:
        buf = io.StringIO()
        if self.memory:
            tracemalloc.start()
        with redirect_stdout(buf):
            rc = self.cli_main(argv)
        if self.memory:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peaks[stage] = max(peak, self.peaks.get(stage, 0))
        if rc != 0:
            raise SystemExit(f"stage {stage} exited {rc}: {argv}")
        name = f"stdout/{len(self.stdout):02d}-{stage}"
        self.stdout[name] = _digest(buf.getvalue().encode())
        if stdout is not None:
            stdout.write(buf.getvalue())
            return ""
        return buf.getvalue()


def run_side(workload: str, seed: int, size_name: str, memory: bool = False) -> dict:
    """Gen plus one pass of ``workload`` in the current directory, with the
    checkout's ``src/`` and ``perfbench/`` importable: ``{"artifacts":
    artifact -> sha256, "json": JSON artifact -> its value, "peaks": stage
    kind -> traced peak bytes}``, the peaks empty without ``memory``."""
    # search is loaded before the first traced stage, so a train peak is
    # the stage's data, not the compile of search.py that cli defers to it
    from pmcpower import cli, search  # noqa: F401
    from workloads import WORKLOADS, Layout, spec_dict

    w = WORKLOADS[workload]
    size = w.size(size_name == "smoke")
    stages = _Recorder(cli.main, memory)
    layout = Layout(Path("inputs"))
    layout.root.mkdir()
    for holdout in [False] + ([True] if size.holdout_runs else []):
        layout.spec(holdout).write_text(json.dumps(spec_dict(w, size, seed, holdout)))
        stages.run("gen", ["gen", "--spec", str(layout.spec(holdout)),
                           "--out-prefix", str(layout.prefix(holdout))])
    out = Path("pass")
    out.mkdir()
    w.run_pass(stages, layout, size, out)
    paths = [p for p in sorted(Path().rglob("*")) if p.is_file()]
    files = {str(p): _digest(p.read_bytes()) for p in paths}
    values = {str(p): json.loads(p.read_bytes()) for p in paths if p.suffix == ".json"}
    return {"artifacts": {**files, **stages.stdout}, "json": values, "peaks": stages.peaks}


def side_manifest(checkout: Path, workload: str, seed: int, size: str,
                  memory: bool = False) -> dict:
    """``run_side`` in a child process of ``checkout``, in a fresh directory."""
    env = dict(os.environ, **BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src"), str(checkout / "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from same_outputs import run_side; "
            "print(json.dumps(run_side(sys.argv[2], int(sys.argv[3]), sys.argv[4], "
            "sys.argv[5] == '1')))")
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as work:
        proc = subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).resolve().parent),
             workload, str(seed), size, str(int(memory))],
            cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} failed in {checkout}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def differing(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """Artifacts whose hashes differ or that only one side wrote."""
    return sorted(k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k))


def json_gaps(parent, change) -> tuple[int, bool, float]:
    """How two JSON values differ: the number of differing leaves, whether
    each of them is a float on both sides, and the largest relative gap
    between such floats.  A key on one side only, or lists of unequal
    length, count as one differing leaf that is not a float."""
    if isinstance(parent, dict) and isinstance(change, dict):
        parts = [json_gaps(parent.get(k, _MISSING), change.get(k, _MISSING))
                 for k in parent.keys() | change.keys()]
    elif isinstance(parent, list) and isinstance(change, list) and len(parent) == len(change):
        parts = [json_gaps(a, b) for a, b in zip(parent, change)]
    elif type(parent) is float and type(change) is float:
        gap = abs(parent - change) / max(abs(parent), abs(change), 1e-300)
        return int(parent != change), True, gap
    else:
        differs = type(parent) is not type(change) or parent != change
        return int(differs), not differs, 0.0
    return (sum(n for n, _, _ in parts), all(f for _, f, _ in parts),
            max((g for _, _, g in parts), default=0.0))


def gap_line(workload: str, name: str, parent, change) -> str:
    leaves, floats, gap = json_gaps(parent, change)
    kind = "all floats" if floats else "not all floats"
    return (f"{workload}: {name}: {leaves} differing leaves, {kind}, "
            f"largest relative float gap {gap:.2g}")


def peak_line(workload: str, parent: dict[str, int], change: dict[str, int]) -> str:
    """Both sides' largest traced peak per stage kind, in MB."""
    cells = [
        f"{stage} {parent[stage] / 1e6:.2f} -> {change[stage] / 1e6:.2f}"
        for stage in parent if stage in change
    ]
    return f"{workload}: traced peak MB, parent -> change: {', '.join(cells)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workloads", default="apply,select,oracle")
    ap.add_argument("--seed", type=int, default=7919)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--memory", action="store_true",
                    help="also print each stage kind's traced peak on both sides")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    failed = False
    for workload in args.workloads.split(","):
        try:
            parent, change = [side_manifest(getattr(args, side).resolve(), workload,
                                            args.seed, args.size, args.memory)
                              for side in SIDES]
        except SystemExit as exc:
            print(exc, file=sys.stderr)
            return 2
        diff = differing(parent["artifacts"], change["artifacts"])
        failed = failed or bool(diff)
        for name in diff:
            print(f"{workload}: {name} differs")
            if name in parent["json"] and name in change["json"]:
                print(gap_line(workload, name, parent["json"][name], change["json"][name]))
        names = parent["artifacts"].keys() | change["artifacts"].keys()
        print(f"{workload}: {len(names) - len(diff)} of {len(names)} artifacts byte-identical")
        if args.memory:
            print(peak_line(workload, parent["peaks"], change["peaks"]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
