"""Assurance scoring, readiness classification, and escalation levels.

The assurance score is a weighted aggregate of the complements of four
instability signals; weights form a simplex. The score maps to one of
five readiness states through strictly decreasing bands (closed below:
a score exactly on a boundary takes the more favorable state), with a
fragility override that caps the state when the threshold sweep hit the
harshest zone. Escalation is the max of per-signal severities, bumped
one step after a failed remediation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    ConfigInvalidError,
    DomainError,
    NegativeWeightError,
    WeightSumError,
)
from .stability import ZoneLabel

WEIGHT_SUM_TOLERANCE = 1e-9


class DeploymentState(Enum):
    """Readiness classification, most to least favorable."""

    DEPLOYABLE = "Deployable"
    RESTRICTED = "Restricted"
    REASSESSMENT_REQUIRED = "ReassessmentRequired"
    ESCALATED_GOVERNANCE = "EscalatedGovernance"
    BLOCKED_DEPLOYMENT = "BlockedDeployment"

    @property
    def favorability(self) -> int:
        """Higher is better; Deployable is 4, BlockedDeployment is 0."""
        return _FAVORABILITY[self]


_FAVORABILITY = {
    DeploymentState.DEPLOYABLE: 4,
    DeploymentState.RESTRICTED: 3,
    DeploymentState.REASSESSMENT_REQUIRED: 2,
    DeploymentState.ESCALATED_GOVERNANCE: 1,
    DeploymentState.BLOCKED_DEPLOYMENT: 0,
}

BY_FAVORABILITY = {v: k for k, v in _FAVORABILITY.items()}


def less_favorable(a: DeploymentState, b: DeploymentState) -> DeploymentState:
    return a if a.favorability <= b.favorability else b


class EscalationLevel(Enum):
    LOW = "Low"
    MODERATE = "Moderate"
    HIGH = "High"
    CRITICAL = "Critical"

    @property
    def severity(self) -> int:
        return _LEVEL_SEVERITY[self]


_LEVEL_SEVERITY = {
    EscalationLevel.LOW: 0,
    EscalationLevel.MODERATE: 1,
    EscalationLevel.HIGH: 2,
    EscalationLevel.CRITICAL: 3,
}

_LEVEL_BY_SEVERITY = {v: k for k, v in _LEVEL_SEVERITY.items()}


@dataclass(frozen=True)
class AssuranceSignals:
    """The four instability signals feeding the assurance score.

    ``r_m`` is the effectiveness of the most recent remediation (its
    assurance-score delta) and may only be present on a remediation event.
    """

    fdi: float
    delta_fpr: float
    delta_fnr: float
    tsz: float
    worst_zone: ZoneLabel | None = None
    remediation_event: bool = False
    r_m: float | None = None

    def __post_init__(self) -> None:
        for name in ("fdi", "delta_fpr", "delta_fnr", "tsz"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range [0, 1]: {value!r}")
        if self.r_m is not None:
            if not self.remediation_event:
                raise ValueError("r_m is only meaningful on a remediation event")
            if not -1.0 <= self.r_m <= 1.0:
                raise ValueError(f"r_m out of range [-1, 1]: {self.r_m!r}")


@dataclass(frozen=True)
class WeightVector:
    """DAS weights; construction checks the simplex (see validate_weights)."""

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self) -> None:
        validate_weights(self)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta)


def validate_weights(weights: WeightVector) -> None:
    """Check the simplex constraints: non-negative, summing to one.

    Raises:
        NegativeWeightError: any coefficient below zero, or NaN.
        WeightSumError: coefficients do not sum to 1 within 1e-9.
    """
    for name, value in zip(("alpha", "beta", "gamma", "delta"), weights.as_tuple()):
        if not value >= 0:  # NaN fails too
            raise NegativeWeightError(f"{name} must be >= 0, got {value!r}")
    total = sum(weights.as_tuple())
    if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise WeightSumError(total)


DEFAULT_WEIGHTS = WeightVector(0.25, 0.25, 0.25, 0.25)


@dataclass(frozen=True)
class DrcBands:
    """Lower score boundaries of the four non-blocked readiness states."""

    b_deployable: float = 0.85
    b_restricted: float = 0.65
    b_reassessment: float = 0.50
    b_escalated: float = 0.30

    def __post_init__(self) -> None:
        ordered = (
            1.0,
            self.b_deployable,
            self.b_restricted,
            self.b_reassessment,
            self.b_escalated,
            0.0,
        )
        if not all(hi > lo for hi, lo in zip(ordered, ordered[1:])):
            raise ConfigInvalidError(
                "bands: must satisfy 1 > deployable > restricted > "
                f"reassessment > escalated > 0, got {self}"
            )

    def floor(self, state: DeploymentState) -> float:
        """Lower score boundary of a state (0.0 for BlockedDeployment)."""
        return {
            DeploymentState.DEPLOYABLE: self.b_deployable,
            DeploymentState.RESTRICTED: self.b_restricted,
            DeploymentState.REASSESSMENT_REQUIRED: self.b_reassessment,
            DeploymentState.ESCALATED_GOVERNANCE: self.b_escalated,
            DeploymentState.BLOCKED_DEPLOYMENT: 0.0,
        }[state]


DEFAULT_BANDS = DrcBands()


def compute_das(
    signals: AssuranceSignals, weights: WeightVector = DEFAULT_WEIGHTS
) -> float:
    """Weighted aggregate of signal complements; 1 is perfect assurance."""
    return (
        weights.alpha * (1.0 - signals.fdi)
        + weights.beta * (1.0 - signals.delta_fpr)
        + weights.gamma * (1.0 - signals.delta_fnr)
        + weights.delta * (1.0 - signals.tsz)
    )


def classify_drc(
    das: float,
    bands: DrcBands = DEFAULT_BANDS,
    worst_zone: ZoneLabel | None = None,
) -> DeploymentState:
    """Map an assurance score to a readiness state.

    Band boundaries are closed below. A GovernanceFragility zone caps the
    result at EscalatedGovernance (the less favorable of the two wins).

    Raises:
        DomainError: score outside [0, 1].
    """
    if not 0.0 <= das <= 1.0:
        raise DomainError(f"score out of range [0, 1]: {das!r}")
    if das >= bands.b_deployable:
        state = DeploymentState.DEPLOYABLE
    elif das >= bands.b_restricted:
        state = DeploymentState.RESTRICTED
    elif das >= bands.b_reassessment:
        state = DeploymentState.REASSESSMENT_REQUIRED
    elif das >= bands.b_escalated:
        state = DeploymentState.ESCALATED_GOVERNANCE
    else:
        state = DeploymentState.BLOCKED_DEPLOYMENT
    return fragility_cap(state, worst_zone)


def fragility_cap(
    state: DeploymentState, worst_zone: ZoneLabel | None
) -> DeploymentState:
    """Cap a state at EscalatedGovernance when the sweep hit GovernanceFragility."""
    if worst_zone is ZoneLabel.GOVERNANCE_FRAGILITY:
        return less_favorable(state, DeploymentState.ESCALATED_GOVERNANCE)
    return state


@dataclass(frozen=True)
class GesThresholds:
    """Per-signal severity cut points (three ascending cuts per signal)."""

    fdi: tuple[float, float, float] = (0.25, 0.50, 0.75)
    delta_fpr: tuple[float, float, float] = (0.15, 0.35, 0.70)
    delta_fnr: tuple[float, float, float] = (0.15, 0.35, 0.70)
    tsz: tuple[float, float, float] = (0.20, 0.40, 0.70)

    def __post_init__(self) -> None:
        for name in ("fdi", "delta_fpr", "delta_fnr", "tsz"):
            cuts = getattr(self, name)
            # Finite cuts: an infinite one would switch a level off.
            ascending = len(cuts) == 3 and cuts[0] < cuts[1] < cuts[2]
            if not (ascending and -math.inf < cuts[0] and cuts[2] < math.inf):
                raise ConfigInvalidError(
                    f"ges_thresholds.{name}: must be three ascending finite "
                    f"values, got {cuts!r}"
                )


DEFAULT_GES_THRESHOLDS = GesThresholds()


def _severity(value: float, cuts: tuple[float, float, float]) -> int:
    for rank, cut in enumerate(cuts):
        if value < cut:
            return rank
    return 3


def compute_ges(
    signals: AssuranceSignals,
    thresholds: GesThresholds = DEFAULT_GES_THRESHOLDS,
) -> EscalationLevel:
    """Escalation level: max per-signal severity, +1 on failed remediation.

    A remediation event whose effectiveness is negative raises the level
    one step, capped at Critical.
    """
    severity = max(
        _severity(signals.fdi, thresholds.fdi),
        _severity(signals.delta_fpr, thresholds.delta_fpr),
        _severity(signals.delta_fnr, thresholds.delta_fnr),
        _severity(signals.tsz, thresholds.tsz),
    )
    if signals.remediation_event and signals.r_m is not None and signals.r_m < 0:
        severity = min(severity + 1, 3)
    return _LEVEL_BY_SEVERITY[severity]


def remediation_progression(das_prev: float, das_next: float) -> float:
    """Assurance-score change across an intervention (next minus previous).

    This is ``r_p``; a remediation with no explicit ``r_m`` inherits it.

    Raises:
        DomainError: either score outside [0, 1].
    """
    if not 0.0 <= das_prev <= 1.0:
        raise DomainError(f"das_prev out of range [0, 1]: {das_prev!r}")
    if not 0.0 <= das_next <= 1.0:
        raise DomainError(f"das_next out of range [0, 1]: {das_next!r}")
    return das_next - das_prev
