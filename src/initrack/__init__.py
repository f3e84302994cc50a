"""initrack: track and predict task/dialogue initiative holders in dialogue.

Per-turn cues provide evidence, pooled with Dempster's rule over the
{speaker, hearer} frame; per-cue mass functions are learned by error-driven
adjustment and evaluated against a keep-the-holder baseline.
"""

from .evidence import (
    MassFunction,
    Role,
    TotalConflictError,
    bayesian,
    combine,
    predicted_holder,
    vacuous,
)
from .cues import (
    CueClass,
    CueEffect,
    CueKind,
    CueModel,
    CueParams,
    CueSpec,
    Dimension,
    ModelFormatError,
    UnknownCueError,
    canonical_specs,
    format_model,
    init_model,
    load_model,
    parse_cue,
    parse_model,
    save_model,
)
from .corpus import (
    REPLICA_PATH,
    Corpus,
    CorpusFormatError,
    Dialogue,
    DistributionReport,
    GeneratorConfig,
    GeneratorConfigError,
    Turn,
    distribution_report,
    format_corpus,
    gen_synthetic,
    load_corpus,
    parse_corpus,
    partition_by_pair,
    save_corpus,
)
from .tracker import (
    DEFAULT_GRID,
    AdjustmentMethod,
    StepPrediction,
    SweepRow,
    TrackerConfig,
    TrackerState,
    TrainResult,
    TurnRecord,
    adjust_bpa,
    credit_counters,
    delta_grid,
    step_predict,
    sweep,
    sweep_csv,
    track,
    train,
)
from .evalstats import (
    CochranQResult,
    ComparisonRow,
    CrossValidationResult,
    DegenerateStatisticError,
    ErrorReport,
    RunResult,
    baseline_run,
    chi_square_sf,
    cochran_q,
    comparison_csv,
    comparison_text,
    cross_validate,
    error_report,
    error_report_csv,
    error_report_text,
    evaluate,
    fold_table_csv,
    kappa,
    paired_outcomes,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
