"""Fairness disagreement index over a panel of disparity values.

Continuous mode scores the mean pairwise absolute difference between the
panel's disparities; verdict mode scores the fraction of metric pairs
whose fair/unfair verdicts (disparity <= tolerance) disagree. Both live
in [0, 1] and equal 0 exactly when the panel fully agrees.
"""

from __future__ import annotations

import math
from typing import Mapping

from .errors import ConfigInvalidError, InsufficientPanelError, MissingToleranceError
from .evaluation import DEFAULT_MIN_SUPPORT, GAP_METRICS, DisparityGaps
from .record import Record

MODE_CONTINUOUS = "continuous"
MODE_VERDICT = "verdict"
MODES = (MODE_CONTINUOUS, MODE_VERDICT)

DEFAULT_PANEL_METRICS = tuple(GAP_METRICS)
DEFAULT_VERDICT_TOLERANCE = 0.1


class DisparityPanel(Record):
    """Named disparities in [0, 1], with optional per-metric tolerances."""

    entries: tuple[tuple[str, float], ...]
    tolerances: Mapping[str, float] | None = None


class FdiValue(Record):
    value: float
    mode: str


class PanelConfig(Record):
    """Recipe for evaluating a disagreement index from raw samples.

    Errors name the config-file key that sets the field: ``panel_metrics``,
    ``fdi.mode``, ``fdi.tolerances``, ``fdi.default_tolerance`` and
    ``min_support``.
    """

    metrics: tuple[str, ...] = DEFAULT_PANEL_METRICS
    mode: str = MODE_CONTINUOUS
    tolerances: Mapping[str, float] | None = None
    default_tolerance: float = DEFAULT_VERDICT_TOLERANCE
    min_support: int = DEFAULT_MIN_SUPPORT

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigInvalidError(
                f"fdi.mode: must be one of {MODES}, got {self.mode!r}"
            )
        if not 0.0 <= self.default_tolerance <= 1.0:
            raise ConfigInvalidError(
                "fdi.default_tolerance: out of range [0, 1]: "
                f"{self.default_tolerance!r}"
            )
        for metric, tau in (self.tolerances or {}).items():
            if metric not in GAP_METRICS:
                raise ConfigInvalidError(f"fdi.tolerances: unknown metric {metric!r}")
            if not 0.0 <= tau <= 1.0:
                raise ConfigInvalidError(
                    f"fdi.tolerances.{metric}: out of range [0, 1]: {tau!r}"
                )
        if len(self.metrics) < 2:
            raise ConfigInvalidError("panel_metrics: need at least 2 metrics")
        for metric in self.metrics:
            if metric not in GAP_METRICS:
                raise ConfigInvalidError(f"panel_metrics: unknown metric {metric!r}")
        if len(set(self.metrics)) != len(self.metrics):
            raise ConfigInvalidError("panel_metrics: metrics must be unique")
        support = self.min_support
        if isinstance(support, bool) or not isinstance(support, int) or support < 1:
            raise ConfigInvalidError(
                f"min_support: must be a positive integer, got {support!r}"
            )

    def panel_tolerances(self) -> Mapping[str, float] | None:
        """Tolerances to score a panel against.

        Verdict mode needs one per metric, so metrics absent from
        ``tolerances`` get ``default_tolerance``; continuous mode ignores
        tolerances and gets ``tolerances`` as given.
        """
        if self.mode != MODE_VERDICT:
            return self.tolerances
        supplied = dict(self.tolerances) if self.tolerances else {}
        return {m: supplied.get(m, self.default_tolerance) for m in self.metrics}


def _validate_panel(panel: DisparityPanel) -> None:
    if len(panel.entries) < 2:
        raise InsufficientPanelError(
            f"panel needs at least 2 entries, got {len(panel.entries)}"
        )
    seen: set[str] = set()
    for name, disparity in panel.entries:
        if name in seen:
            raise ValueError(f"duplicate metric name {name!r} in panel")
        seen.add(name)
        if not 0.0 <= disparity <= 1.0:
            raise ValueError(
                f"disparity for {name!r} out of range [0, 1]: {disparity!r}"
            )


def compute_fdi(panel: DisparityPanel, mode: str = MODE_CONTINUOUS) -> FdiValue:
    """Score disagreement across the panel.

    Continuous mode: mean absolute difference over all metric pairs.
    Verdict mode: fraction of metric pairs with conflicting fairness
    verdicts, where metric k is "fair" iff its disparity <= its tolerance.

    Raises:
        InsufficientPanelError: fewer than two panel entries.
        MissingToleranceError: verdict mode without a tolerance for a metric.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    _validate_panel(panel)
    k = len(panel.entries)
    pairs = k * (k - 1) / 2

    if mode == MODE_CONTINUOUS:
        # Sum of |d_i - d_j| over pairs via the sorted linear form; fsum
        # keeps the symmetric products cancelling exactly on tied panels.
        ordered = sorted(d for _, d in panel.entries)
        total = math.fsum(d * (2 * i - (k - 1)) for i, d in enumerate(ordered))
        value = total / pairs
        if total > 0:
            # A subnormal total can round to 0 over the pair count; 0 is
            # kept for a panel that fully agrees.
            value = max(value, math.ulp(0.0))
    else:
        tolerances = panel.tolerances or {}
        fair = 0
        for name, disparity in panel.entries:
            tau = tolerances.get(name)
            if tau is None:
                raise MissingToleranceError(name)
            if not 0.0 <= tau <= 1.0:
                raise ValueError(f"tolerance for {name!r} out of range [0, 1]: {tau!r}")
            fair += disparity <= tau
        value = fair * (k - fair) / pairs

    return FdiValue(value=min(1.0, max(0.0, value)), mode=mode)


def panel_from_gaps(
    gaps: DisparityGaps,
    metrics: tuple[str, ...] = DEFAULT_PANEL_METRICS,
    tolerances: Mapping[str, float] | None = None,
) -> DisparityPanel:
    """Build the default disparity panel from a set of computed gaps."""
    entries = tuple((m, gaps.value(m)) for m in metrics)
    return DisparityPanel(entries=entries, tolerances=tolerances)
