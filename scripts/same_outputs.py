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
only, is listed.  Exit 0 when all match, 1 when any differs, 2 when a
side fails to run.
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

SIDES = ("parent", "change")
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
TIMEOUT_S = 600


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Recorder:
    """The ``stages`` object ``run_pass`` drives: runs each CLI stage and
    keeps the sha256 of its stdout, numbered in run order."""

    def __init__(self, cli_main):
        self.cli_main = cli_main
        self.stdout: dict[str, str] = {}

    def run(self, stage: str, argv: list[str], stdout=None) -> str:
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = self.cli_main(argv)
        if rc != 0:
            raise SystemExit(f"stage {stage} exited {rc}: {argv}")
        name = f"stdout/{len(self.stdout):02d}-{stage}"
        self.stdout[name] = _digest(buf.getvalue().encode())
        if stdout is not None:
            stdout.write(buf.getvalue())
            return ""
        return buf.getvalue()


def run_side(workload: str, seed: int, size_name: str) -> dict[str, str]:
    """Gen plus one pass of ``workload`` in the current directory, with the
    checkout's ``src/`` and ``perfbench/`` importable: artifact -> sha256."""
    from pmcpower import cli
    from workloads import WORKLOADS, Layout, spec_dict

    w = WORKLOADS[workload]
    size = w.size(size_name == "smoke")
    stages = _Recorder(cli.main)
    layout = Layout(Path("inputs"))
    layout.root.mkdir()
    for holdout in [False] + ([True] if size.holdout_runs else []):
        layout.spec(holdout).write_text(json.dumps(spec_dict(w, size, seed, holdout)))
        stages.run("gen", ["gen", "--spec", str(layout.spec(holdout)),
                           "--out-prefix", str(layout.prefix(holdout))])
    out = Path("pass")
    out.mkdir()
    w.run_pass(stages, layout, size, out)
    files = {str(p): _digest(p.read_bytes()) for p in sorted(Path().rglob("*")) if p.is_file()}
    return {**files, **stages.stdout}


def side_manifest(checkout: Path, workload: str, seed: int, size: str) -> dict[str, str]:
    """``run_side`` in a child process of ``checkout``, in a fresh directory."""
    env = dict(os.environ, **BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src"), str(checkout / "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from same_outputs import run_side; "
            "print(json.dumps(run_side(sys.argv[2], int(sys.argv[3]), sys.argv[4])))")
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as work:
        proc = subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).resolve().parent),
             workload, str(seed), size],
            cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} failed in {checkout}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def differing(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """Artifacts whose hashes differ or that only one side wrote."""
    return sorted(k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workloads", default="apply,select,oracle")
    ap.add_argument("--seed", type=int, default=7919)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    failed = False
    for workload in args.workloads.split(","):
        try:
            parent, change = [side_manifest(getattr(args, side).resolve(), workload,
                                            args.seed, args.size) for side in SIDES]
        except SystemExit as exc:
            print(exc, file=sys.stderr)
            return 2
        diff = differing(parent, change)
        failed = failed or bool(diff)
        for name in diff:
            print(f"{workload}: {name} differs")
        print(f"{workload}: {len(parent.keys() | change.keys()) - len(diff)} of "
              f"{len(parent.keys() | change.keys())} artifacts byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
