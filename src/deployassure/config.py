"""Engine configuration: defaults, JSON loading, and fingerprinting.

Every tunable the engine exposes has its documented default in the type
that owns it: ``RulesConfig`` (scoring and replay), ``PanelConfig`` (the
FDI panel) and ``EngineConfig`` (zones, sweep and TSZ, plus the other
two). A config file is a JSON object; absent keys keep their defaults and
unknown keys are rejected. The loader checks each value's JSON type (a
number, three numbers, a boolean, a list of strings, an object) and names
the key; the owning type checks ranges, order and names, and any value
the loader passes on unread.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .assurance import DrcBands, GesThresholds, WeightVector
from .disagreement import PanelConfig
from .errors import ConfigInvalidError, DomainError, EngineError
from .lifecycle import RulesConfig
from .record import Record, canonical_fingerprint
from .stability import (
    DEFAULT_AGGREGATION,
    DEFAULT_S_REF,
    DEFAULT_SWEEP_STEP,
    DEFAULT_SWEEP_T_MAX,
    DEFAULT_SWEEP_T_MIN,
    DEFAULT_ZONES,
    ZoneConfig,
    check_sweep_range,
    check_tsz,
)


class EngineConfig(Record):
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
    aggregation: str = DEFAULT_AGGREGATION

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


def _section(
    value: Any, where: str, readers: Mapping[str, Any], required: bool = False
) -> dict[str, Any]:
    """A config section: an object with no field outside ``readers``.

    With ``required``, every field must be present too. Unknown fields are
    reported before missing ones, each list sorted by name. Each present
    field is then read by its reader, in the order ``readers`` lists them,
    and named ``<where>.<field>`` in errors; a reader of ``None`` passes
    the value on for the owning config type to check.
    """
    if not isinstance(value, dict):
        raise ConfigInvalidError(f"{where}: expected an object, got {value!r}")
    for problem, names in (
        ("unknown", set(value).difference(readers)),
        ("missing", set(readers).difference(value) if required else ()),
    ):
        if names:
            raise ConfigInvalidError(
                f"{where}: {problem} field(s): {', '.join(sorted(names))}"
            )
    return {
        name: value[name] if read is None else read(value[name], f"{where}.{name}")
        for name, read in readers.items()
        if name in value
    }


def _three_cuts(value: Any, where: str) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigInvalidError(f"{where}: expected three numbers, got {value!r}")
    a, b, c = (_as_float(v, where) for v in value)
    return (a, b, c)


def _tolerances(value: Any, where: str) -> dict[str, float] | None:
    """``fdi.tolerances``: numbers under any names; ``PanelConfig`` checks them."""
    names = value if isinstance(value, dict) else ()
    # An empty map means the same as the default, no tolerances.
    return _section(value, where, dict.fromkeys(names, _as_float)) or None


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
        raw = json.loads(data.decode("utf-8-sig"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError too
        raise ConfigInvalidError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalidError(f"{path}: top level must be an object")
    _section(raw, path, dict.fromkeys(_TOP_LEVEL_KEYS))

    rules: dict[str, Any] = {}
    panel: dict[str, Any] = {}
    engine: dict[str, Any] = {}

    if "weights" in raw:
        readers = dict.fromkeys(WeightVector._fields, _as_float)
        weights = _section(raw["weights"], "weights", readers, required=True)
        try:
            rules["weights"] = WeightVector(**weights)
        except EngineError as exc:
            raise ConfigInvalidError(f"weights: {exc}") from exc

    if "bands" in raw:
        readers = dict.fromkeys(
            ("deployable", "restricted", "reassessment", "escalated"), _as_float
        )
        bands = _section(raw["bands"], "bands", readers, required=True)
        rules["bands"] = DrcBands(**{f"b_{name}": b for name, b in bands.items()})

    if "zone_boundaries" in raw:
        z1, z2, z3 = _three_cuts(raw["zone_boundaries"], "zone_boundaries")
        engine["zones"] = ZoneConfig(z1=z1, z2=z2, z3=z3)

    if "ges_thresholds" in raw:
        # Known fields, then their cuts in file order: the first bad one wins.
        section = raw["ges_thresholds"]
        _section(section, "ges_thresholds", dict.fromkeys(GesThresholds._fields))
        cuts = _section(section, "ges_thresholds", dict.fromkeys(section, _three_cuts))
        rules["ges_thresholds"] = GesThresholds(**cuts)

    if "sweep" in raw:
        readers = dict.fromkeys(("t_min", "t_max", "step"), _as_float)
        sweep = _section(raw["sweep"], "sweep", readers)
        engine.update((f"sweep_{name}", bound) for name, bound in sweep.items())

    if "fdi" in raw:
        readers = dict(mode=None, default_tolerance=_as_float, tolerances=_tolerances)
        panel.update(_section(raw["fdi"], "fdi", readers))

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
        readers = dict(s_ref=_as_float, aggregation=None)
        engine.update(_section(raw["tsz"], "tsz", readers))

    return EngineConfig(
        rules=RulesConfig(**rules), panel=PanelConfig(**panel), **engine
    )
