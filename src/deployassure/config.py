"""Engine configuration: defaults, JSON loading, and fingerprinting.

Every tunable the engine exposes has its documented default in the type
that owns it: ``RulesConfig`` (scoring and replay), ``PanelConfig`` (the
FDI panel) and ``EngineConfig`` (zones, sweep and TSZ, plus the other
two). A config file is a JSON object; absent keys keep their defaults,
unknown keys are rejected, and each value is checked by its owning type.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from .assurance import DrcBands, GesThresholds, WeightVector
from .disagreement import PanelConfig
from .errors import ConfigInvalidError, DomainError, EngineError
from .fingerprint import canonical_fingerprint
from .lifecycle import RulesConfig
from .stability import (
    DEFAULT_S_REF,
    DEFAULT_SWEEP_STEP,
    DEFAULT_SWEEP_T_MAX,
    DEFAULT_SWEEP_T_MIN,
    DEFAULT_ZONES,
    ZoneConfig,
    check_sweep_range,
    check_tsz,
)


@dataclass(frozen=True)
class EngineConfig:
    """Fully validated engine configuration.

    ``rules`` drives scoring and replay, ``panel`` the FDI; the other
    fields drive the threshold sweep and TSZ.
    """

    rules: RulesConfig = RulesConfig()
    panel: PanelConfig = PanelConfig()
    zones: ZoneConfig = DEFAULT_ZONES
    sweep_t_min: float = DEFAULT_SWEEP_T_MIN
    sweep_t_max: float = DEFAULT_SWEEP_T_MAX
    sweep_step: float = DEFAULT_SWEEP_STEP
    s_ref: float = DEFAULT_S_REF
    aggregation: str = "mean"

    def __post_init__(self) -> None:
        try:
            check_sweep_range(self.sweep_t_min, self.sweep_t_max, self.sweep_step)
        except DomainError as exc:
            raise ConfigInvalidError(f"sweep: {exc}") from exc
        try:
            check_tsz(self.aggregation, self.s_ref)
        except DomainError as exc:
            raise ConfigInvalidError(str(exc)) from exc

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

    Each key goes to the config type that owns it; every error names the
    key as the file spells it.

    Raises:
        ConfigInvalidError: a file that is not UTF-8, JSON the decoder
            refuses (nested too deep, an integer past the int digit limit),
            an unknown field, or a value breaking its owning type's rules.
        OSError: unreadable path.
    """
    if path is None:
        return EngineConfig()
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        raw = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError too
        raise ConfigInvalidError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalidError(f"{path}: top level must be an object")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigInvalidError(
            f"{path}: unknown field(s): {', '.join(sorted(unknown))}"
        )

    rules: dict[str, Any] = {}
    panel: dict[str, Any] = {}
    engine: dict[str, Any] = {}

    if "weights" in raw:
        names = ("alpha", "beta", "gamma", "delta")
        section = _as_mapping(raw["weights"], "weights", set(names))
        missing = set(names) - set(section)
        if missing:
            raise ConfigInvalidError(
                f"weights: missing field(s): {', '.join(sorted(missing))}"
            )
        values = [_as_float(section[name], f"weights.{name}") for name in names]
        try:
            rules["weights"] = WeightVector(*values)
        except EngineError as exc:
            raise ConfigInvalidError(f"weights: {exc}") from exc

    if "bands" in raw:
        names = {"deployable", "restricted", "reassessment", "escalated"}
        section = _as_mapping(raw["bands"], "bands", names)
        missing = names - set(section)
        if missing:
            raise ConfigInvalidError(
                f"bands: missing field(s): {', '.join(sorted(missing))}"
            )
        rules["bands"] = DrcBands(
            b_deployable=_as_float(section["deployable"], "bands.deployable"),
            b_restricted=_as_float(section["restricted"], "bands.restricted"),
            b_reassessment=_as_float(section["reassessment"], "bands.reassessment"),
            b_escalated=_as_float(section["escalated"], "bands.escalated"),
        )

    if "zone_boundaries" in raw:
        z1, z2, z3 = _three_cuts(raw["zone_boundaries"], "zone_boundaries")
        engine["zones"] = ZoneConfig(z1=z1, z2=z2, z3=z3)

    if "ges_thresholds" in raw:
        names = {"fdi", "delta_fpr", "delta_fnr", "tsz"}
        section = _as_mapping(raw["ges_thresholds"], "ges_thresholds", names)
        cuts = {
            name: _three_cuts(section[name], f"ges_thresholds.{name}")
            for name in section
        }
        rules["ges_thresholds"] = GesThresholds(**cuts)

    if "sweep" in raw:
        section = _as_mapping(raw["sweep"], "sweep", {"t_min", "t_max", "step"})
        if "t_min" in section:
            engine["sweep_t_min"] = _as_float(section["t_min"], "sweep.t_min")
        if "t_max" in section:
            engine["sweep_t_max"] = _as_float(section["t_max"], "sweep.t_max")
        if "step" in section:
            engine["sweep_step"] = _as_float(section["step"], "sweep.step")

    if "fdi" in raw:
        section = _as_mapping(
            raw["fdi"], "fdi", {"mode", "tolerances", "default_tolerance"}
        )
        if "mode" in section:
            panel["mode"] = section["mode"]
        if "default_tolerance" in section:
            panel["default_tolerance"] = _as_float(
                section["default_tolerance"], "fdi.default_tolerance"
            )
        if "tolerances" in section:
            tolerances = section["tolerances"]
            if not isinstance(tolerances, dict):
                raise ConfigInvalidError(
                    f"fdi.tolerances: expected an object, got {tolerances!r}"
                )
            # An empty map means the same as the default, no tolerances.
            panel["tolerances"] = {
                metric: _as_float(tau, f"fdi.tolerances.{metric}")
                for metric, tau in tolerances.items()
            } or None

    if "panel_metrics" in raw:
        metrics = raw["panel_metrics"]
        if not isinstance(metrics, list) or not all(
            isinstance(m, str) for m in metrics
        ):
            raise ConfigInvalidError(
                f"panel_metrics: expected a list of strings, got {metrics!r}"
            )
        panel["metrics"] = tuple(metrics)

    if "recovery_gating" in raw:
        if not isinstance(raw["recovery_gating"], bool):
            raise ConfigInvalidError(
                f"recovery_gating: expected a boolean, got {raw['recovery_gating']!r}"
            )
        rules["recovery_gating"] = raw["recovery_gating"]

    if "hysteresis" in raw:
        rules["hysteresis"] = _as_float(raw["hysteresis"], "hysteresis")

    if "min_support" in raw:
        panel["min_support"] = raw["min_support"]

    if "tsz" in raw:
        section = _as_mapping(raw["tsz"], "tsz", {"s_ref", "aggregation"})
        if "s_ref" in section:
            engine["s_ref"] = _as_float(section["s_ref"], "tsz.s_ref")
        if "aggregation" in section:
            engine["aggregation"] = section["aggregation"]

    return EngineConfig(
        rules=RulesConfig(**rules), panel=PanelConfig(**panel), **engine
    )
