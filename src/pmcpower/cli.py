"""Command line front end: gen -> sync -> train -> validate -> predict.

Each subcommand reads/writes the package's file formats; human summaries go
to standard output, machine-readable artifacts only to explicit --out
paths.  Exit codes: 0 success, 1 internal error, 2 input/validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import os
import sys
import traceback

from . import dataset, datagen, regress, sync
from .errors import PipelineError


def _names(arg: str) -> tuple[str, ...]:
    return tuple(n for n in arg.split(",") if n) if arg else ()


def cmd_gen(args) -> int:
    if args.spec:
        spec = datagen.read_gen_spec(args.spec)
    else:
        spec = datagen.default_gen_spec()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    result = datagen.generate(spec)

    prefix = args.out_prefix
    written = []
    for pmc, pwr in zip(result.pmc_traces, result.power_traces):
        path = f"{prefix}_{pmc.run_id}_pmc.csv"
        dataset.write_counter_trace(pmc, path)
        written.append(path)
        path = f"{prefix}_{pwr.run_id}_power.csv"
        dataset.write_power_trace(pwr, path)
        written.append(path)
    path = f"{prefix}_dataset.csv"
    dataset.write_dataset(result.dataset, path)
    written.append(path)
    path = f"{prefix}_model.json"
    regress.write_model(spec.true_model, path)
    written.append(path)

    print(
        f"generated {len(result.pmc_traces)} run(s), "
        f"{result.dataset.n_rows} dataset rows"
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_sync(args) -> int:
    pmc = dataset.read_counter_trace(args.pmc)
    pwr = dataset.read_power_trace(args.power)
    cfg = sync.SyncConfig(key_tolerance=args.tolerance)
    report = sync.coverage_report(pmc, pwr, cfg)
    ds = sync.synchronize(pmc, pwr, cfg)
    del pmc, pwr  # the dataset holds no view of them: write without the traces
    dataset.write_dataset(ds, args.out)
    print(report.summary())
    print(f"wrote {ds.n_rows} rows to {args.out}")
    return 0


def cmd_train(args) -> int:
    from . import search  # only train searches; the other stages never load it

    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    data = dataset.concat_datasets(
        [dataset.read_dataset(p) for p in args.dataset], source="+".join(args.dataset)
    )
    cfg = search.SearchConfig(
        algorithm=args.algorithm,
        folds=args.folds,
        initial_set=_names(args.initial),
        max_events=args.max_events,
        candidate_pool=_names(args.pool),
        fold_seed=args.seed if args.seed is not None else 0,
    )
    report = search.run_search(data, cfg)
    regress.write_model(report.final_model, args.model_out)
    meta = report.final_model.training
    print(report.final_model.describe())
    print(
        f"CV MAPE {report.final_cv_mape_pct:.2f}% ({cfg.folds} folds), "
        f"train MAPE {meta.train_mape_pct:.2f}%"
    )
    print(f"wrote {args.model_out}")
    if args.report_out:
        search.write_report(report, args.report_out)
        print(f"wrote {args.report_out}")
    return 0


def cmd_validate(args) -> int:
    model = regress.read_model(args.model)
    data = dataset.read_dataset(args.dataset)
    result = regress.validate(model, data)
    print(f"MAPE {result.mape_pct:.2f}%")
    if args.trace_out:
        regress.write_prediction_trace(result, args.trace_out)
        print(f"wrote {args.trace_out}")
    return 0


def cmd_predict(args) -> int:
    model = regress.read_model(args.model)
    data = dataset.read_dataset(args.dataset)
    predicted = regress.predict_dataset(model, data)
    regress.write_predictions(
        sys.stdout, data.time_keys, data.run_ids, {"PREDICTED_W": predicted}
    )
    sys.stdout.flush()
    return 0


@functools.cache  # one parser per process: building it costs about 1 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmcpower",
        description=(
            "Fit and select linear power models from performance-counter "
            "and power-sensor traces."
        ),
    )
    parser.add_argument(
        "--verbose", action="store_true", help="debug-level logging"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the generation seed (gen) or the fold seed (train); "
        "gen and train only",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "gen", help="generate a synthetic trace pair with a known model"
    )
    p.add_argument("--spec", help="GenSpec JSON file (default: demo spec)")
    p.add_argument(
        "--out-prefix", required=True, help="prefix for all output files"
    )
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sync", help="join a PMC trace with a power trace")
    p.add_argument("--pmc", required=True, help="PMC trace CSV")
    p.add_argument("--power", required=True, help="power trace CSV")
    p.add_argument("--out", required=True, help="output dataset CSV")
    p.add_argument(
        "--tolerance",
        type=int,
        default=0,
        help="max TIME distance for a key match, in cycles (default 0: exact)",
    )
    p.set_defaults(func=cmd_sync)

    p = sub.add_parser("train", help="search a counter subset and fit a model")
    p.add_argument(
        "--dataset",
        action="append",
        required=True,
        help="dataset CSV; repeat to concatenate several",
    )
    p.add_argument(
        "--algorithm",
        choices=regress.ALGORITHMS,
        default=regress.ALGORITHMS[0],
    )
    p.add_argument("--folds", type=int, default=10)
    p.add_argument(
        "--max-events", type=int, help="cap on model size (not for top_down)"
    )
    p.add_argument(
        "--initial",
        default="",
        help="comma-separated starting counters (top_down default: the whole "
        "pool; not for exhaustive)",
    )
    p.add_argument(
        "--pool",
        default="",
        help="comma-separated candidate counters (default: all in the dataset)",
    )
    p.add_argument("--model-out", required=True, help="output model JSON")
    p.add_argument("--report-out", help="output search report JSON")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility (>= 1); changes neither speed nor results",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("validate", help="score a model on a dataset")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--dataset", required=True, help="dataset CSV")
    p.add_argument(
        "--trace-out", help="per-sample actual/predicted CSV for plotting"
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("predict", help="stream model predictions as CSV")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--dataset", required=True, help="dataset CSV")
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(message)s",
        stream=sys.stderr,
    )
    try:
        if args.seed is not None and args.command not in ("gen", "train"):
            raise ValueError("--seed applies to gen and train only")
        return args.func(args)
    except (PipelineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.verbose:
            traceback.print_exc()
        return 2
    except BrokenPipeError:
        # downstream closed early (e.g. | head); park stdout on devnull so
        # the interpreter's exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
