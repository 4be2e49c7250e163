"""Threshold sweeps, disagreement sensitivity, and stability zones.

A sweep evaluates the disagreement index on a uniform threshold grid;
sensitivity is the absolute finite-difference slope of that profile
(central differences inside the grid, one-sided at the ends). Each
sensitivity value is binned into a stability zone, and the profile is
summarised to a [0, 1] scalar by normalising its mean or max slope.

Sweep grid points are independent of one another; evaluation order never
affects the result, and assembly is deterministic in threshold order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from enum import Enum
from typing import Iterable, Mapping

from .disagreement import (
    DisparityPanel, FdiValue, PanelConfig, compute_fdi, panel_from_gaps
)
from .errors import (
    ConfigInvalidError,
    DomainError,
    InsufficientSubgroupsError,
    SweepDegenerateError,
)
from .evaluation import (
    GAP_METRICS,
    ConfusionCounts,
    DisparityGaps,
    Predictions,
    RatePanel,
    Sample,
    ScoreIndex,
    compute_confusion,
    compute_gaps,
    compute_rates,
    eligible_columns,
    rate_columns,
    spread,
    subgroup_sizes,
)
from .record import Record

DEFAULT_SWEEP_T_MIN = 0.20
DEFAULT_SWEEP_T_MAX = 0.90
DEFAULT_SWEEP_STEP = 0.05
DEFAULT_S_REF = 2.0
DEFAULT_AGGREGATION = "mean"

AGGREGATIONS = ("mean", "max")

_SPACING_TOLERANCE = 1e-9
# The most steps a sweep grid may span: 1000 times a 0.001-step grid on [0, 1].
MAX_SWEEP_STEPS = 10**6


class ZoneLabel(Enum):
    """Stability zone for one sensitivity value, mildest to harshest."""

    STABLE = "Stable"
    SENSITIVE = "Sensitive"
    AMPLIFIED_DISAGREEMENT = "AmplifiedDisagreement"
    GOVERNANCE_FRAGILITY = "GovernanceFragility"

    severity: int  # set below, as EscalationLevel's is: Stable 0, GovernanceFragility 3


_ZONE_BY_SEVERITY = tuple(ZoneLabel)
for _rank, _zone in enumerate(_ZONE_BY_SEVERITY):
    _zone.severity = _rank


class ZoneConfig(Record):
    """Zone boundaries, in disagreement-per-unit-threshold units."""

    z1: float = 0.25
    z2: float = 0.75
    z3: float = 1.5

    def __post_init__(self) -> None:
        # A finite z3: an infinite one would switch GovernanceFragility off.
        if not 0 < self.z1 < self.z2 < self.z3 < math.inf:
            raise ConfigInvalidError(
                "zone_boundaries: must satisfy 0 < z1 < z2 < z3 < inf, "
                f"got ({self.z1!r}, {self.z2!r}, {self.z3!r})"
            )


DEFAULT_ZONES = ZoneConfig()


class FdiProfile(Record):
    """Disagreement index on a uniform threshold grid of step ``h``."""

    points: tuple[tuple[float, float], ...]
    h: float

    def __post_init__(self) -> None:
        if self.h <= 0:
            raise ValueError(f"step must be positive, got {self.h!r}")
        if len(self.points) < 3:
            raise ValueError(f"profile needs >= 3 points, got {len(self.points)}")
        for (t0, f0), (t1, _) in zip(self.points, self.points[1:]):
            if t1 <= t0:
                raise ValueError("thresholds must be strictly increasing")
            if abs((t1 - t0) - self.h) > _SPACING_TOLERANCE:
                raise ValueError(
                    f"grid spacing {t1 - t0!r} deviates from step {self.h!r}"
                )
        for t, f in self.points:
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"fdi at t={t!r} out of range [0, 1]: {f!r}")

    @property
    def thresholds(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.points)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(f for _, f in self.points)


class SensitivityPoint(Record):
    threshold: float
    s: float
    zone: ZoneLabel


class SensitivityProfile(Record):
    points: tuple[SensitivityPoint, ...]


class TszScalar(Record):
    """Normalised [0, 1] summary of a sensitivity profile."""

    value: float
    aggregation: str
    s_ref: float


def assess_at_threshold(
    confusion: Mapping[str, ConfusionCounts], panel_config: PanelConfig
) -> tuple[dict[str, RatePanel], DisparityGaps, FdiValue]:
    """Subgroup rates, disparity gaps and disagreement index of one confusion."""
    rates = {group: compute_rates(c) for group, c in confusion.items()}
    gaps = compute_gaps(rates, subgroup_sizes(confusion), panel_config.min_support)
    panel = panel_from_gaps(gaps, panel_config.metrics, panel_config.panel_tolerances())
    return rates, gaps, compute_fdi(panel, panel_config.mode)


def fdi_at_threshold(
    samples: Predictions | Iterable[Sample],
    threshold: float,
    panel_config: PanelConfig,
) -> float:
    """Evaluate the configured disagreement index at one threshold."""
    confusion = compute_confusion(samples, threshold)
    return assess_at_threshold(confusion, panel_config)[2].value


def check_sweep_range(t_min: float, t_max: float, h: float) -> None:
    """Reject a sweep grid that :func:`sweep` cannot build.

    Raises:
        DomainError: unless 0 <= t_min < t_max <= 1, h > 0, and the range
            spans at least two steps and at most :data:`MAX_SWEEP_STEPS`
            (NaN fails every test, an infinite step count the last).
    """
    if not (0.0 <= t_min < t_max <= 1.0):
        raise DomainError(
            f"need 0 <= t_min < t_max <= 1, got t_min={t_min!r}, t_max={t_max!r}"
        )
    if not h > 0:
        raise DomainError(f"step must be positive, got {h!r}")
    steps = (t_max - t_min) / h
    # floor(steps + tolerance) is sweep's interval count: it is at least 2
    # exactly when the first test holds, and at most the limit exactly
    # when the second does; unlike floor, the second takes an infinity.
    if not steps + _SPACING_TOLERANCE >= 2:
        raise DomainError("range must span at least two steps")
    if not steps + _SPACING_TOLERANCE < MAX_SWEEP_STEPS + 1:
        raise DomainError(
            f"range must span at most {MAX_SWEEP_STEPS} steps, got step {h!r}"
        )


def sweep(
    samples: Predictions | Iterable[Sample],
    t_min: float = DEFAULT_SWEEP_T_MIN,
    t_max: float = DEFAULT_SWEEP_T_MAX,
    h: float = DEFAULT_SWEEP_STEP,
    panel_config: PanelConfig | None = None,
) -> FdiProfile:
    """Evaluate the disagreement index over a uniform threshold grid.

    A gap without two eligible subgroups fails the sweep as degenerate,
    whether the panel holds that gap or not.

    The grid runs in columns through the rules :func:`assess_at_threshold`
    applies at one point: a :class:`ScoreIndex` (which checks samples that
    are not a :class:`Predictions`) counts every subgroup at every point,
    eligibility is taken once, and the one record built per point is the
    panel that :func:`compute_fdi` scores.

    Raises:
        DomainError: bad range/step (see :func:`check_sweep_range`).
        EmptyInputError: the sample set is empty.
        MalformedSampleError: a score, label, or subgroup is out of domain.
        SweepDegenerateError: a gap has fewer than two eligible subgroups.
    """
    if panel_config is None:
        panel_config = PanelConfig()
    check_sweep_range(t_min, t_max, h)

    intervals = int(math.floor((t_max - t_min) / h + _SPACING_TOLERANCE))
    # t_min + i*h can overshoot t_max by an ulp (0.09 + 26*0.035 > 1.0).
    thresholds = [min(t_min + i * h, t_max) for i in range(intervals + 1)]

    counts = ScoreIndex(samples).counts_below(thresholds)
    rates = {group: rate_columns(*columns) for group, columns in counts.items()}
    sizes = {group: columns[0] + columns[1] for group, columns in counts.items()}
    try:
        eligible_by_gap, _ = eligible_columns(rates, sizes, panel_config.min_support)
    except InsufficientSubgroupsError:
        # Eligibility reads subgroup sizes and label counts, never the
        # threshold: one failing grid point means every point fails.
        n = len(thresholds)
        raise SweepDegenerateError(
            f"{n} of {n} grid points had insufficient eligible subgroups"
        ) from None
    eligible = dict(zip(GAP_METRICS, eligible_by_gap))
    metrics, mode = panel_config.metrics, panel_config.mode
    tolerances = panel_config.panel_tolerances()
    values = [
        compute_fdi(DisparityPanel(tuple(zip(metrics, gaps)), tolerances), mode).value
        for gaps in zip(*(spread(eligible[m]) for m in metrics))
    ]
    return FdiProfile(points=tuple(zip(thresholds, values)), h=h)


def classify_zone(s: float, zones: ZoneConfig = DEFAULT_ZONES) -> ZoneLabel:
    """Bin a sensitivity value into its stability zone.

    The zone's severity is the number of zone boundaries at or below ``s``.
    """
    if s < 0:
        raise ValueError(f"sensitivity must be non-negative, got {s!r}")
    return _ZONE_BY_SEVERITY[bisect_right((zones.z1, zones.z2, zones.z3), s)]


def sensitivity(
    profile: FdiProfile, zones: ZoneConfig = DEFAULT_ZONES
) -> SensitivityProfile:
    """Absolute finite-difference slope of the profile, zone-classified.

    Interior points use central differences |f(t+h) - f(t-h)| / 2h; the
    two endpoints fall back to one-sided differences. Both are exact for
    linear profiles, and central differences are exact for quadratics.
    """
    ts = profile.thresholds
    fs = profile.values
    h = profile.h
    n = len(fs)
    points = []
    for i in range(n):
        if i == 0:
            s = abs(fs[1] - fs[0]) / h
        elif i == n - 1:
            s = abs(fs[n - 1] - fs[n - 2]) / h
        else:
            s = abs(fs[i + 1] - fs[i - 1]) / (2 * h)
        points.append(SensitivityPoint(threshold=ts[i], s=s, zone=classify_zone(s, zones)))
    return SensitivityProfile(points=tuple(points))


def worst_zone(sens: SensitivityProfile) -> ZoneLabel:
    """Harshest zone reached anywhere on the profile."""
    return max((p.zone for p in sens.points), key=lambda z: z.severity)


def check_tsz(aggregation: str, s_ref: float) -> None:
    """Reject TSZ settings that :func:`tsz_scalar` cannot use.

    Raises:
        DomainError: ``s_ref`` is not positive and finite (NaN fails), or
            ``aggregation`` is not one of :data:`AGGREGATIONS`.
    """
    if not 0 < s_ref < math.inf:
        raise DomainError(f"tsz.s_ref: must be positive and finite, got {s_ref!r}")
    if aggregation not in AGGREGATIONS:
        raise DomainError(
            f"tsz.aggregation: must be one of {AGGREGATIONS}, got {aggregation!r}"
        )


def tsz_scalar(
    sens: SensitivityProfile,
    aggregation: str = DEFAULT_AGGREGATION,
    s_ref: float = DEFAULT_S_REF,
) -> TszScalar:
    """Summarise a sensitivity profile to clip(aggregate(s) / s_ref, 0, 1).

    Raises:
        DomainError: bad ``aggregation`` or ``s_ref`` (see :func:`check_tsz`).
    """
    check_tsz(aggregation, s_ref)
    values = [p.s for p in sens.points]
    aggregate = sum(values) / len(values) if aggregation == "mean" else max(values)
    return TszScalar(
        value=min(1.0, max(0.0, aggregate / s_ref)),
        aggregation=aggregation,
        s_ref=s_ref,
    )
