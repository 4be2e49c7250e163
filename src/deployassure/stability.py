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
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .disagreement import FdiValue, PanelConfig, compute_fdi, panel_from_gaps
from .errors import (
    ConfigInvalidError,
    DomainError,
    InsufficientSubgroupsError,
    SweepDegenerateError,
)
from .evaluation import (
    ConfusionCounts,
    DisparityGaps,
    Predictions,
    RatePanel,
    Sample,
    ScoreIndex,
    compute_confusion,
    compute_gaps,
    compute_rates,
    subgroup_sizes,
)

DEFAULT_SWEEP_T_MIN = 0.20
DEFAULT_SWEEP_T_MAX = 0.90
DEFAULT_SWEEP_STEP = 0.05
DEFAULT_S_REF = 2.0
DEFAULT_AGGREGATION = "mean"

AGGREGATIONS = ("mean", "max")

_SPACING_TOLERANCE = 1e-9


class ZoneLabel(Enum):
    """Stability zone for one sensitivity value, mildest to harshest."""

    STABLE = "Stable"
    SENSITIVE = "Sensitive"
    AMPLIFIED_DISAGREEMENT = "AmplifiedDisagreement"
    GOVERNANCE_FRAGILITY = "GovernanceFragility"

    @property
    def severity(self) -> int:
        return _ZONE_SEVERITY[self]


_ZONE_SEVERITY = {
    ZoneLabel.STABLE: 0,
    ZoneLabel.SENSITIVE: 1,
    ZoneLabel.AMPLIFIED_DISAGREEMENT: 2,
    ZoneLabel.GOVERNANCE_FRAGILITY: 3,
}


@dataclass(frozen=True)
class ZoneConfig:
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


@dataclass(frozen=True)
class FdiProfile:
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


@dataclass(frozen=True)
class SensitivityPoint:
    threshold: float
    s: float
    zone: ZoneLabel


@dataclass(frozen=True)
class SensitivityProfile:
    points: tuple[SensitivityPoint, ...]


@dataclass(frozen=True)
class TszScalar:
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
            spans at least two steps (NaN fails every test).
    """
    if not (0.0 <= t_min < t_max <= 1.0):
        raise DomainError(
            f"need 0 <= t_min < t_max <= 1, got t_min={t_min!r}, t_max={t_max!r}"
        )
    if not h > 0:
        raise DomainError(f"step must be positive, got {h!r}")
    if not (t_max - t_min) / h >= 2:
        raise DomainError("range must span at least two steps")


def _fill_flagged(
    thresholds: Sequence[float],
    values: list[float | None],
) -> list[float]:
    """Replace flagged (None) points by linear interpolation.

    Interior holes interpolate between the nearest valid neighbours; holes
    at either end copy the nearest valid value. Results are clamped to
    [0, 1]. At least one valid point must exist.
    """
    valid = [i for i, v in enumerate(values) if v is not None]
    if not valid:
        raise ValueError("cannot interpolate a fully flagged profile")
    filled: list[float] = []
    for i, v in enumerate(values):
        if v is not None:
            filled.append(v)
            continue
        left = max((j for j in valid if j < i), default=None)
        right = min((j for j in valid if j > i), default=None)
        if left is None:
            v = values[right]  # type: ignore[index]
        elif right is None:
            v = values[left]
        else:
            t, tl, tr = thresholds[i], thresholds[left], thresholds[right]
            vl, vr = values[left], values[right]
            v = vl + (vr - vl) * (t - tl) / (tr - tl)  # type: ignore[operator]
        filled.append(min(1.0, max(0.0, v)))  # type: ignore[arg-type]
    return filled


def sweep(
    samples: Predictions | Iterable[Sample],
    t_min: float = DEFAULT_SWEEP_T_MIN,
    t_max: float = DEFAULT_SWEEP_T_MAX,
    h: float = DEFAULT_SWEEP_STEP,
    panel_config: PanelConfig | None = None,
) -> FdiProfile:
    """Evaluate the disagreement index over a uniform threshold grid.

    Grid points where the gap computation finds fewer than two eligible
    subgroups are flagged and interpolated from their nearest valid
    neighbours; if more than half the grid is flagged the sweep is
    rejected as degenerate.

    The samples are sorted once into a :class:`ScoreIndex` (samples that
    are not a :class:`Predictions` are checked on the way in), so each
    grid point costs a bisection per subgroup, not a pass over every
    sample.

    Raises:
        DomainError: bad range/step (see :func:`check_sweep_range`).
        EmptyInputError: the sample set is empty.
        MalformedSampleError: a score, label, or subgroup is out of domain.
        SweepDegenerateError: more than 50% of grid points flagged.
    """
    if panel_config is None:
        panel_config = PanelConfig()
    check_sweep_range(t_min, t_max, h)

    intervals = int(math.floor((t_max - t_min) / h + _SPACING_TOLERANCE))
    # t_min + i*h can overshoot t_max by an ulp (0.09 + 26*0.035 > 1.0).
    thresholds = [min(t_min + i * h, t_max) for i in range(intervals + 1)]

    index = ScoreIndex(samples)
    values: list[float | None] = []
    flagged = 0
    for t in thresholds:
        try:
            _, _, fdi = assess_at_threshold(index.confusion(t), panel_config)
            values.append(fdi.value)
        except InsufficientSubgroupsError:
            values.append(None)
            flagged += 1
    if 2 * flagged > len(thresholds):
        raise SweepDegenerateError(
            f"{flagged} of {len(thresholds)} grid points had insufficient "
            "eligible subgroups"
        )
    filled = _fill_flagged(thresholds, values)
    return FdiProfile(points=tuple(zip(thresholds, filled)), h=h)


def classify_zone(s: float, zones: ZoneConfig = DEFAULT_ZONES) -> ZoneLabel:
    """Bin a sensitivity value into its stability zone."""
    if s < 0:
        raise ValueError(f"sensitivity must be non-negative, got {s!r}")
    if s < zones.z1:
        return ZoneLabel.STABLE
    if s < zones.z2:
        return ZoneLabel.SENSITIVE
    if s < zones.z3:
        return ZoneLabel.AMPLIFIED_DISAGREEMENT
    return ZoneLabel.GOVERNANCE_FRAGILITY


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
