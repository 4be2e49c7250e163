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
from bisect import bisect_right
from enum import Enum
from itertools import repeat
from operator import sub
from typing import Sequence

from .errors import (
    ConfigInvalidError,
    DomainError,
    NegativeWeightError,
    WeightSumError,
)
from .record import Record
from .stability import ZoneLabel

WEIGHT_SUM_TOLERANCE = 1e-9
# Scores and the four signals lie in the unit interval, and r_m, a
# remediation's assurance-score delta, in R_M_RANGE; both ends closed.
UNIT_INTERVAL = (0.0, 1.0)
R_M_RANGE = (-1.0, 1.0)
OUT_OF_RANGE = "{} out of range [{:g}, {:g}]: {!r}"  # name, *bounds, value


class DeploymentState(Enum):
    """Readiness classification, most to least favorable."""

    DEPLOYABLE = "Deployable"
    RESTRICTED = "Restricted"
    REASSESSMENT_REQUIRED = "ReassessmentRequired"
    ESCALATED_GOVERNANCE = "EscalatedGovernance"
    BLOCKED_DEPLOYMENT = "BlockedDeployment"

    favorability: int  # higher is better: Deployable 4, BlockedDeployment 0


# The ranks follow the declaration order; a tuple indexed by favorability.
# Ranks are plain attributes: a dict keyed by members hashes them in Python.
BY_FAVORABILITY = tuple(reversed(DeploymentState))
for _rank, _state in enumerate(BY_FAVORABILITY):
    _state.favorability = _rank


class EscalationLevel(Enum):
    """Escalation level, mildest to harshest."""

    LOW = "Low"
    MODERATE = "Moderate"
    HIGH = "High"
    CRITICAL = "Critical"

    severity: int  # set below, as favorability is: Low 0, Critical 3


_LEVEL_BY_SEVERITY = tuple(EscalationLevel)
for _rank, _level in enumerate(_LEVEL_BY_SEVERITY):
    _level.severity = _rank


class AssuranceSignals(Record):
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
            if not UNIT_INTERVAL[0] <= value <= UNIT_INTERVAL[1]:
                raise ValueError(OUT_OF_RANGE.format(name, *UNIT_INTERVAL, value))
        if self.r_m is not None:
            if not self.remediation_event:
                raise ValueError("r_m is only meaningful on a remediation event")
            if not R_M_RANGE[0] <= self.r_m <= R_M_RANGE[1]:
                raise ValueError(OUT_OF_RANGE.format("r_m", *R_M_RANGE, self.r_m))


class WeightVector(Record):
    """DAS weights; construction checks the simplex.

    Raises:
        NegativeWeightError: any coefficient below zero, or NaN.
        WeightSumError: coefficients do not sum to 1 within 1e-9.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self) -> None:
        for name, value in zip(("alpha", "beta", "gamma", "delta"), self.as_tuple()):
            if not value >= 0:  # NaN fails too
                raise NegativeWeightError(f"{name} must be >= 0, got {value!r}")
        total = sum(self.as_tuple())
        if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise WeightSumError(total)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta)


DEFAULT_WEIGHTS = WeightVector(0.25, 0.25, 0.25, 0.25)


class DrcBands(Record):
    """Lower score boundaries of the four non-blocked readiness states."""

    b_deployable: float = 0.85
    b_restricted: float = 0.65
    b_reassessment: float = 0.50
    b_escalated: float = 0.30

    def __post_init__(self) -> None:
        b = self
        floors = (0.0, b.b_escalated, b.b_reassessment, b.b_restricted, b.b_deployable)
        # Every state's floor, by favorability, set as fields are: the fold
        # reads it per recovery, and a __dict__ write slows every read.
        object.__setattr__(self, "_floors", floors)
        ordered = (*floors, 1.0)
        if not all(lo < hi for lo, hi in zip(ordered, ordered[1:])):
            raise ConfigInvalidError(
                "bands: must satisfy 1 > deployable > restricted > "
                f"reassessment > escalated > 0, got {self}"
            )

    def floor(self, state: DeploymentState) -> float:
        """Lower score boundary of a state (0.0 for BlockedDeployment).

        It is the entry of :attr:`_floors` at the state's favorability.
        """
        return self._floors[state.favorability]


DEFAULT_BANDS = DrcBands()


def compute_das(
    signals: AssuranceSignals, weights: WeightVector = DEFAULT_WEIGHTS
) -> float:
    """Weighted aggregate of signal complements; 1 is perfect assurance.

    It is :func:`das_column` on one row.
    """
    s = signals
    return das_column([[s.fdi], [s.delta_fpr], [s.delta_fnr], [s.tsz]], weights)[0]


def das_column(
    signals: Sequence[Sequence[float]], weights: WeightVector
) -> list[float]:
    """The assurance score of each row of the four signal columns, in [0, 1].

    ``signals`` is the fdi, delta_fpr, delta_fnr and tsz columns. Weights
    sum to 1 only within 1e-9, so the float sum for a perfect snapshot can
    land a rounding step above 1; it is clamped back. Every term is
    non-negative, so the sum cannot fall below 0.
    """
    a, b, c, d = weights.as_tuple()
    return [
        score if score <= 1.0 else 1.0
        for f, p, n, t in zip(*signals)
        for score in [a * (1.0 - f) + b * (1.0 - p) + c * (1.0 - n) + d * (1.0 - t)]
    ]


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
    return fragility_cap(drc_column((das,), bands)[0], worst_zone)


def drc_column(das: Sequence[float], bands: DrcBands) -> list[DeploymentState]:
    """The band holding each score, each already known to lie in [0, 1].

    That is the state with the highest floor at or below the score. The
    lowest floor is 0, so the state's favorability is the number of the
    other floors at or below the score.
    """
    ranks = map(bisect_right, repeat(bands._floors[1:]), das)
    return list(map(BY_FAVORABILITY.__getitem__, ranks))


# A module constant: reading the member off its Enum class costs about
# 200 ns on CPython 3.11, and the lifecycle fold caps every row.
_FRAGILITY = ZoneLabel.GOVERNANCE_FRAGILITY


def fragility_cap(
    state: DeploymentState, worst_zone: ZoneLabel | None
) -> DeploymentState:
    """Cap a state at EscalatedGovernance when the sweep hit GovernanceFragility."""
    if worst_zone is _FRAGILITY:
        cap = DeploymentState.ESCALATED_GOVERNANCE
        return state if state.favorability <= cap.favorability else cap
    return state


class GesThresholds(Record):
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


def compute_ges(
    signals: AssuranceSignals,
    thresholds: GesThresholds = DEFAULT_GES_THRESHOLDS,
) -> EscalationLevel:
    """Escalation level: max per-signal severity, +1 on failed remediation.

    A remediation event whose effectiveness is negative raises the level
    one step, capped at Critical. It is :func:`ges_column` on one row.
    """
    s = signals
    columns = [[s.fdi], [s.delta_fpr], [s.delta_fnr], [s.tsz]]
    return ges_column(columns, [s.r_m], thresholds)[0]


# Levels by severity, and Critical once more for a bump past it.
_LEVEL_BY_BUMPED = (*_LEVEL_BY_SEVERITY, EscalationLevel.CRITICAL)


def ges_column(
    signals: Sequence[Sequence[float]],
    r_m: Sequence[float | None],
    thresholds: GesThresholds,
) -> list[EscalationLevel]:
    """The escalation level of each row of the :func:`das_column` signals.

    A signal's severity is the number of its cuts at or below it; a row's
    is the highest of its four, one more on a negative ``r_m`` (set only on
    an event).
    """
    cuts = thresholds._values()
    severity = map(
        max, *[map(bisect_right, repeat(c), column) for c, column in zip(cuts, signals)]
    )
    return [
        _LEVEL_BY_BUMPED[s + (r is not None and r < 0)] for s, r in zip(severity, r_m)
    ]


def remediation_progression(das_prev: float, das_next: float) -> float:
    """Assurance-score change across an intervention (next minus previous).

    This is ``r_p``; a remediation with no explicit ``r_m`` inherits it. It
    is :func:`progression_column` of one score after ``das_prev``.

    Raises:
        DomainError: either score outside [0, 1].
    """
    for name, das in (("das_prev", das_prev), ("das_next", das_next)):
        if not 0.0 <= das <= 1.0:
            raise DomainError(f"{name} out of range [0, 1]: {das!r}")
    return progression_column(das_prev, (das_next,))[0]


def progression_column(prev: float | None, das: Sequence[float]) -> list[float | None]:
    """Each score's ``r_p``: its change from the score before it.

    ``prev`` is the score before the first; where it is None, so is the
    first ``r_p``. The scores are :func:`das_column` output, so in [0, 1].
    """
    scores = das if prev is None else [prev, *das]
    steps = list(map(sub, scores[1:], scores))
    return [None, *steps] if prev is None else steps
