"""What each metric is for.

Names, units and bounds of the gated metrics live in BENCHMARK.json; this
module only describes them, keyed by name.  EXTRA_END_TO_END are printed
and saved but not gated, so their units are kept here: ``train_s`` does
not exist on ``apply`` and the term counts and failed fraction are
legitimately 0.

Per-layer ``_s`` figures are self time (span minus its child spans), summed
over one traced pass, median over traced passes.  Each names the
end-to-end metric and workload it should move.
"""

END_TO_END = {
    "pipeline_s": "wall time of one measured pass, median over passes",
    "setup_s": "imports + pmcpower gen in fresh processes, median of repeats",
    "peak_rss_mb": "peak RSS of the process running the CLI stages (gen and the gate run in children)",
    "holdout_mape_pct": "MAPE on held-out data (apply: on the validated traces)",
}

EXTRA_END_TO_END = {
    "train_s": ("s", "train stage(s) of one pass, median over passes (select, oracle)"),
    "spurious_terms": ("count", "selected counters not in the true model"),
    "missed_terms": ("count", "true counters not selected"),
    "failed_frac": ("ratio", "failed operations / attempted (stages and checks)"),
}

_APPLY = "pipeline_s on apply"
_SELECT_TRAIN = "train_s on select"
_TRAIN = "train_s on select and oracle"

PER_LAYER = {
    "dataset.read_counter_trace_s": _APPLY,
    "dataset.read_power_trace_s": _APPLY,
    "dataset.write_dataset_s": _APPLY,
    "dataset.read_dataset_s": _APPLY + "; small share on select",
    "dataset.rows_read": _APPLY,
    "dataset.bytes_read": _APPLY,
    "dataset.read_mb_per_s": _APPLY,
    "dataset.concat_datasets_s": _SELECT_TRAIN,
    "sync.coverage_report_s": _APPLY,
    "sync.synchronize_s": _APPLY,
    "sync.rows_out": _APPLY,
    "sync.keys_unmatched": _APPLY,
    "sync.match_fraction": _APPLY + " (matched / max trace length)",
    "regress.validate_s": _APPLY,
    "regress.predict_dataset_s": _APPLY,
    "regress.write_prediction_trace_s": _APPLY,
    "regress.fit_ols_s": _SELECT_TRAIN + " (final refit inside search)",
    "search.bottom_up_s": _SELECT_TRAIN,
    "search.top_down_s": _SELECT_TRAIN,
    "search.exhaustive_s": "train_s on oracle",
    "search.kfold_split_s": _TRAIN,
    "search.write_report_s": _TRAIN,
    "search.candidates_scored": _TRAIN + " (exact, from the reports)",
    "search.candidates_infeasible": _TRAIN + " (+inf scores in the reports)",
    "search.candidate_ms": _TRAIN + " (search time / candidates scored)",
    "search.cv_score_narrow_s": _SELECT_TRAIN + "; per-candidate cost on oracle",
    "search.cv_score_wide_s": _SELECT_TRAIN + "; per-candidate cost on oracle",
    "datagen.generate_s": "setup_s on every workload",
    "cli.gen_s": "setup_s on every workload",
    "cli.sync_s": _APPLY,
    "cli.train_s": _TRAIN,
    "cli.validate_s": _APPLY,
    "cli.predict_s": _APPLY + " (per-row formatting)",
    "trace.overhead_s": "traced minus untraced pipeline_s",
}
