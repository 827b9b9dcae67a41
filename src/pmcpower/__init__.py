"""Linear power modelling from performance-counter and power-sensor traces.

Pipeline: synchronise a cumulative PMC trace with a power trace on shared
TIME keys (datagen can synthesise such pairs), fit OLS power models on the
per-interval dataset, and select a counter subset by greedy or exhaustive
search scored with k-fold cross-validated MAPE.
"""

import importlib

from .dataset import (
    COUNTER_MODULUS,
    CounterTrace,
    Dataset,
    FREQ_COL,
    POWER_COL,
    PowerTrace,
    SampleRow,
    TIME_KEY,
    concat_datasets,
    read_counter_trace,
    read_dataset,
    read_power_trace,
    write_counter_trace,
    write_dataset,
    write_power_trace,
)
from .datagen import (
    GenResult,
    GenSpec,
    default_gen_spec,
    generate,
    read_gen_spec,
    write_gen_spec,
)
from .errors import (
    FitError,
    FormatError,
    GenError,
    ModelError,
    PipelineError,
    RankDeficientError,
    SearchError,
    SyncError,
)
from .regress import (
    FitDiagnostics,
    PowerModel,
    TrainingMeta,
    ValidationResult,
    fit_freq_baseline,
    fit_ols,
    format_watts,
    mape,
    model_from_dict,
    predict,
    predict_dataset,
    read_model,
    validate,
    write_model,
    write_prediction_trace,
)
from .sync import CoverageReport, SyncConfig, coverage_report, synchronize

__version__ = "0.1.0"


# the search module is loaded on first use of it or of one of its names, so
# the stages that never search (gen, sync, validate, predict) skip it.  The
# imports above define every other name in __all__, and Python calls this
# only for a name the module lacks, so a name in __all__ here is a search name
def __getattr__(name: str):
    if name != "search" and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not "from . import search", which would look the name
    # up on this package first and so call __getattr__ again
    search = importlib.import_module(".search", __name__)
    return search if name == "search" else getattr(search, name)

__all__ = [
    "COUNTER_MODULUS",
    "CounterTrace",
    "CoverageReport",
    "Dataset",
    "FREQ_COL",
    "FitDiagnostics",
    "FitError",
    "FormatError",
    "GenError",
    "GenResult",
    "GenSpec",
    "ModelError",
    "POWER_COL",
    "PipelineError",
    "PowerModel",
    "PowerTrace",
    "RankDeficientError",
    "SEARCH_ALGORITHMS",
    "SampleRow",
    "SearchConfig",
    "SearchError",
    "SearchIteration",
    "SearchReport",
    "SyncConfig",
    "SyncError",
    "TIME_KEY",
    "TrainingMeta",
    "ValidationResult",
    "bottom_up",
    "concat_datasets",
    "coverage_report",
    "cv_score",
    "default_gen_spec",
    "exhaustive",
    "fit_freq_baseline",
    "fit_ols",
    "format_watts",
    "generate",
    "kfold_split",
    "mape",
    "model_from_dict",
    "predict",
    "predict_dataset",
    "read_counter_trace",
    "read_gen_spec",
    "read_dataset",
    "read_model",
    "read_power_trace",
    "read_report",
    "run_search",
    "synchronize",
    "top_down",
    "validate",
    "write_counter_trace",
    "write_gen_spec",
    "write_dataset",
    "write_model",
    "write_power_trace",
    "write_prediction_trace",
    "write_report",
]
