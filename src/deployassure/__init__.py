"""Deployment-assurance engine.

Turns per-sample model evaluations (or precomputed instability signals)
into disagreement indices, threshold-stability profiles, assurance
scores, readiness classifications, escalation levels, and governed
state traces across remediation lifecycles.
"""

from .assurance import (
    DeploymentState,
    DrcBands,
    EscalationLevel,
    GesThresholds,
    WeightVector,
    classify_drc,
    remediation_progression,
)
from .config import EngineConfig, load_config
from .disagreement import (
    DisparityPanel,
    FdiValue,
    PanelConfig,
    compute_fdi,
    panel_from_gaps,
)
from .errors import (
    ConfigInvalidError,
    DomainError,
    EmptyFileError,
    EmptyInputError,
    EmptySequenceError,
    EngineError,
    InsufficientPanelError,
    InsufficientSubgroupsError,
    MalformedRowError,
    MalformedSampleError,
    MissingColumnError,
    MissingToleranceError,
    NegativeWeightError,
    SweepDegenerateError,
    WeightSumError,
)
from .evaluation import (
    ConfusionCounts,
    DisparityGaps,
    Predictions,
    RatePanel,
    Sample,
    compute_confusion,
    compute_gaps,
    compute_rates,
    macro_mean,
    subgroup_sizes,
)
from .io import iter_signals, parse_predictions
from .lifecycle import RulesConfig, fold_trace
from .stability import (
    FdiProfile,
    SensitivityPoint,
    SensitivityProfile,
    TszScalar,
    ZoneConfig,
    ZoneLabel,
    fdi_at_threshold,
    sensitivity,
    sweep,
    tsz_scalar,
    worst_zone,
)

__version__ = "0.1.0"
