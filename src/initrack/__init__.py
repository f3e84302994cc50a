"""initrack: track and predict task/dialogue initiative holders in dialogue.

Per-turn cues provide evidence, pooled with Dempster's rule over the
{speaker, hearer} frame; per-cue mass functions are learned by error-driven
adjustment and evaluated against a keep-the-holder baseline.

`import initrack` loads no submodule: each public name is looked up in its
module when it is first used, and that loads the module.
"""

from importlib import import_module as _import_module

# The public names, by the module each is read from.  A name is looked up anew
# on every use, never stored here, so a stand-in later set on its module is seen.
_EXPORTS = {
    "evidence": ("MassFunction", "Role", "TotalConflictError", "bayesian", "combine", "predicted_holder", "vacuous"),
    "cues": (
        "CueClass", "CueEffect", "CueKind", "CueModel", "CueParams", "CueSpec", "Dimension", "ModelFormatError",
        "UnknownCueError", "canonical_specs", "format_model", "init_model", "load_model", "parse_cue", "parse_model",
        "save_model",
    ),
    "corpus": (
        "REPLICA_PATH", "Corpus", "CorpusFormatError", "DegenerateStatisticError", "Dialogue", "DistributionReport",
        "GeneratorConfig", "GeneratorConfigError", "Turn", "distribution_report", "format_corpus", "gen_synthetic",
        "load_corpus", "parse_corpus", "partition_by_pair", "save_corpus",
    ),
    "tracker": (
        "DEFAULT_GRID", "AdjustmentMethod", "StepPrediction", "SweepRow", "TrackerConfig", "TrackerState",
        "TrainResult", "TurnRecord", "adjust_bpa", "credit_counters", "delta_grid", "step_predict", "sweep",
        "sweep_csv", "track", "train",
    ),
    # RunResult is defined in tracker.  Read from here, `from initrack import
    # RunResult` loads evalstats too, which perfbench's tracer patches next.
    "evalstats": (
        "CochranQResult", "ComparisonRow", "CrossValidationResult", "ErrorReport", "RunResult", "baseline_run",
        "chi_square_sf", "cochran_q", "comparison_csv", "comparison_text", "cross_validate", "error_report",
        "error_report_csv", "error_report_text", "evaluate", "fold_table_csv", "kappa", "paired_outcomes",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
