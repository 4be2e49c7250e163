"""Engine configuration: defaults, JSON loading, and fingerprinting.

Every tunable the engine exposes lives here with its documented default.
A config file is a JSON object; absent keys keep their defaults, unknown
keys are rejected, and every value is re-validated against the owning
module's constraints before use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from .assurance import (
    DEFAULT_BANDS,
    DEFAULT_GES_THRESHOLDS,
    DEFAULT_WEIGHTS,
    DrcBands,
    GesThresholds,
    WeightVector,
    validate_weights,
)
from .disagreement import (
    DEFAULT_PANEL_METRICS,
    DEFAULT_VERDICT_TOLERANCE,
    MODES,
    PanelConfig,
)
from .errors import ConfigInvalidError, DomainError, EngineError
from .evaluation import DEFAULT_MIN_SUPPORT, GAP_METRICS
from .fingerprint import canonical_fingerprint
from .lifecycle import DEFAULT_HYSTERESIS, RulesConfig
from .stability import (
    AGGREGATIONS,
    DEFAULT_S_REF,
    DEFAULT_SWEEP_STEP,
    DEFAULT_SWEEP_T_MAX,
    DEFAULT_SWEEP_T_MIN,
    DEFAULT_ZONES,
    ZoneConfig,
    check_sweep_range,
)


@dataclass(frozen=True)
class EngineConfig:
    """Fully validated engine configuration."""

    weights: WeightVector = DEFAULT_WEIGHTS
    bands: DrcBands = DEFAULT_BANDS
    zones: ZoneConfig = DEFAULT_ZONES
    ges_thresholds: GesThresholds = DEFAULT_GES_THRESHOLDS
    sweep_t_min: float = DEFAULT_SWEEP_T_MIN
    sweep_t_max: float = DEFAULT_SWEEP_T_MAX
    sweep_step: float = DEFAULT_SWEEP_STEP
    fdi_mode: str = "continuous"
    fdi_tolerances: tuple[tuple[str, float], ...] = ()
    default_tolerance: float = DEFAULT_VERDICT_TOLERANCE
    panel_metrics: tuple[str, ...] = DEFAULT_PANEL_METRICS
    recovery_gating: bool = True
    hysteresis: float = DEFAULT_HYSTERESIS
    min_support: int = DEFAULT_MIN_SUPPORT
    s_ref: float = DEFAULT_S_REF
    aggregation: str = "mean"

    def __post_init__(self) -> None:
        try:
            validate_weights(self.weights)
        except EngineError as exc:
            raise ConfigInvalidError(f"weights: {exc}") from exc
        try:
            check_sweep_range(self.sweep_t_min, self.sweep_t_max, self.sweep_step)
        except DomainError as exc:
            raise ConfigInvalidError(f"sweep: {exc}") from exc
        if self.fdi_mode not in MODES:
            raise ConfigInvalidError(
                f"fdi.mode: must be one of {MODES}, got {self.fdi_mode!r}"
            )
        if not 0.0 <= self.default_tolerance <= 1.0:
            raise ConfigInvalidError(
                "fdi.default_tolerance: out of range [0, 1]: "
                f"{self.default_tolerance!r}"
            )
        for metric, tau in self.fdi_tolerances:
            if metric not in GAP_METRICS:
                raise ConfigInvalidError(
                    f"fdi.tolerances: unknown metric {metric!r}"
                )
            if not 0.0 <= tau <= 1.0:
                raise ConfigInvalidError(
                    f"fdi.tolerances.{metric}: out of range [0, 1]: {tau!r}"
                )
        if len(self.panel_metrics) < 2:
            raise ConfigInvalidError("panel_metrics: need at least 2 metrics")
        for metric in self.panel_metrics:
            if metric not in GAP_METRICS:
                raise ConfigInvalidError(f"panel_metrics: unknown metric {metric!r}")
        if len(set(self.panel_metrics)) != len(self.panel_metrics):
            raise ConfigInvalidError("panel_metrics: metrics must be unique")
        if not self.hysteresis >= 0:  # NaN fails too
            raise ConfigInvalidError(
                f"hysteresis: must be >= 0, got {self.hysteresis!r}"
            )
        if not isinstance(self.min_support, int) or self.min_support < 1:
            raise ConfigInvalidError(
                f"min_support: must be a positive integer, got {self.min_support!r}"
            )
        if not self.s_ref > 0:
            raise ConfigInvalidError(
                f"tsz.s_ref: must be positive, got {self.s_ref!r}"
            )
        if self.aggregation not in AGGREGATIONS:
            raise ConfigInvalidError(
                f"tsz.aggregation: must be one of {AGGREGATIONS}, "
                f"got {self.aggregation!r}"
            )

    def panel_config(self) -> PanelConfig:
        return PanelConfig(
            metrics=self.panel_metrics,
            mode=self.fdi_mode,
            tolerances=dict(self.fdi_tolerances) or None,
            default_tolerance=self.default_tolerance,
            min_support=self.min_support,
        )

    def rules_config(self) -> RulesConfig:
        return RulesConfig(
            bands=self.bands,
            recovery_gating=self.recovery_gating,
            hysteresis=self.hysteresis,
            weights=self.weights,
            ges_thresholds=self.ges_thresholds,
        )

    def fingerprint(self) -> str:
        """Stable hash of the fully resolved configuration."""
        return canonical_fingerprint(self)


_TOP_LEVEL_KEYS = {
    "weights",
    "bands",
    "zone_boundaries",
    "ges_thresholds",
    "sweep",
    "fdi",
    "panel_metrics",
    "recovery_gating",
    "hysteresis",
    "min_support",
    "tsz",
}


def _as_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalidError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _as_mapping(value: Any, where: str, allowed: set[str]) -> Mapping[str, Any]:
    if not isinstance(value, dict):
        raise ConfigInvalidError(f"{where}: expected an object, got {value!r}")
    unknown = set(value) - allowed
    if unknown:
        raise ConfigInvalidError(
            f"{where}: unknown field(s): {', '.join(sorted(unknown))}"
        )
    return value


def _three_cuts(value: Any, where: str) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigInvalidError(f"{where}: expected three numbers, got {value!r}")
    a, b, c = (_as_float(v, where) for v in value)
    return (a, b, c)


def load_config(path: str | None = None) -> EngineConfig:
    """Load a config file, or return the documented defaults.

    Raises:
        ConfigInvalidError: unparseable file, unknown field, or any value
            violating its owning module's constraints.
        OSError: unreadable path.
    """
    if path is None:
        return EngineConfig()
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalidError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalidError(f"{path}: top level must be an object")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigInvalidError(
            f"{path}: unknown field(s): {', '.join(sorted(unknown))}"
        )

    kwargs: dict[str, Any] = {}

    if "weights" in raw:
        section = _as_mapping(
            raw["weights"], "weights", {"alpha", "beta", "gamma", "delta"}
        )
        missing = {"alpha", "beta", "gamma", "delta"} - set(section)
        if missing:
            raise ConfigInvalidError(
                f"weights: missing field(s): {', '.join(sorted(missing))}"
            )
        kwargs["weights"] = WeightVector(
            alpha=_as_float(section["alpha"], "weights.alpha"),
            beta=_as_float(section["beta"], "weights.beta"),
            gamma=_as_float(section["gamma"], "weights.gamma"),
            delta=_as_float(section["delta"], "weights.delta"),
        )

    if "bands" in raw:
        names = {"deployable", "restricted", "reassessment", "escalated"}
        section = _as_mapping(raw["bands"], "bands", names)
        missing = names - set(section)
        if missing:
            raise ConfigInvalidError(
                f"bands: missing field(s): {', '.join(sorted(missing))}"
            )
        kwargs["bands"] = DrcBands(
            b_deployable=_as_float(section["deployable"], "bands.deployable"),
            b_restricted=_as_float(section["restricted"], "bands.restricted"),
            b_reassessment=_as_float(section["reassessment"], "bands.reassessment"),
            b_escalated=_as_float(section["escalated"], "bands.escalated"),
        )

    if "zone_boundaries" in raw:
        z1, z2, z3 = _three_cuts(raw["zone_boundaries"], "zone_boundaries")
        kwargs["zones"] = ZoneConfig(z1=z1, z2=z2, z3=z3)

    if "ges_thresholds" in raw:
        names = {"fdi", "delta_fpr", "delta_fnr", "tsz"}
        section = _as_mapping(raw["ges_thresholds"], "ges_thresholds", names)
        cuts = {
            name: _three_cuts(section[name], f"ges_thresholds.{name}")
            for name in section
        }
        kwargs["ges_thresholds"] = GesThresholds(**cuts)

    if "sweep" in raw:
        section = _as_mapping(raw["sweep"], "sweep", {"t_min", "t_max", "step"})
        if "t_min" in section:
            kwargs["sweep_t_min"] = _as_float(section["t_min"], "sweep.t_min")
        if "t_max" in section:
            kwargs["sweep_t_max"] = _as_float(section["t_max"], "sweep.t_max")
        if "step" in section:
            kwargs["sweep_step"] = _as_float(section["step"], "sweep.step")

    if "fdi" in raw:
        section = _as_mapping(
            raw["fdi"], "fdi", {"mode", "tolerances", "default_tolerance"}
        )
        if "mode" in section:
            if not isinstance(section["mode"], str):
                raise ConfigInvalidError(
                    f"fdi.mode: expected a string, got {section['mode']!r}"
                )
            kwargs["fdi_mode"] = section["mode"]
        if "default_tolerance" in section:
            kwargs["default_tolerance"] = _as_float(
                section["default_tolerance"], "fdi.default_tolerance"
            )
        if "tolerances" in section:
            tolerances = section["tolerances"]
            if not isinstance(tolerances, dict):
                raise ConfigInvalidError(
                    f"fdi.tolerances: expected an object, got {tolerances!r}"
                )
            # Sorted, so the key order in the file leaves the fingerprint alone.
            kwargs["fdi_tolerances"] = tuple(
                sorted(
                    (metric, _as_float(tau, f"fdi.tolerances.{metric}"))
                    for metric, tau in tolerances.items()
                )
            )

    if "panel_metrics" in raw:
        metrics = raw["panel_metrics"]
        if not isinstance(metrics, list) or not all(
            isinstance(m, str) for m in metrics
        ):
            raise ConfigInvalidError(
                f"panel_metrics: expected a list of strings, got {metrics!r}"
            )
        kwargs["panel_metrics"] = tuple(metrics)

    if "recovery_gating" in raw:
        if not isinstance(raw["recovery_gating"], bool):
            raise ConfigInvalidError(
                f"recovery_gating: expected a boolean, got {raw['recovery_gating']!r}"
            )
        kwargs["recovery_gating"] = raw["recovery_gating"]

    if "hysteresis" in raw:
        kwargs["hysteresis"] = _as_float(raw["hysteresis"], "hysteresis")

    if "min_support" in raw:
        value = raw["min_support"]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigInvalidError(
                f"min_support: expected an integer, got {value!r}"
            )
        kwargs["min_support"] = value

    if "tsz" in raw:
        section = _as_mapping(raw["tsz"], "tsz", {"s_ref", "aggregation"})
        if "s_ref" in section:
            kwargs["s_ref"] = _as_float(section["s_ref"], "tsz.s_ref")
        if "aggregation" in section:
            if not isinstance(section["aggregation"], str):
                raise ConfigInvalidError(
                    f"tsz.aggregation: expected a string, got {section['aggregation']!r}"
                )
            kwargs["aggregation"] = section["aggregation"]

    return EngineConfig(**kwargs)
