"""Tests for config loading, validation, and fingerprints."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deployassure import (
    ConfigInvalidError,
    EngineConfig,
    PanelConfig,
    RulesConfig,
    load_config,
)
from deployassure.cli import main
from deployassure.evaluation import GAP_METRICS
from deployassure.record import asdict

from conftest import SIGNALS_CSV

README = Path(__file__).resolve().parent.parent / "README.md"


BAND_NAMES = ("deployable", "restricted", "reassessment", "escalated")
unit = st.sampled_from([0.0, 1.0]) | st.floats(0, 1)
cuts = st.lists(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]), min_size=3, max_size=3, unique=True
).map(sorted)
# Every top-level key, each present or absent, with a value its owner takes.
valid_payloads = st.fixed_dictionaries(
    {},
    optional={
        "weights": st.sampled_from(
            [(0.25, 0.25, 0.25, 0.25), (1.0, 0.0, 0.0, 0.0), (0.0, 0.5, 0.0, 0.5)]
        )
        .flatmap(st.permutations)
        .map(lambda w: dict(zip(("alpha", "beta", "gamma", "delta"), w))),
        "bands": st.lists(
            st.sampled_from([0.1, 0.3, 0.5, 0.65, 0.85, 0.9]),
            min_size=4,
            max_size=4,
            unique=True,
        )
        .map(lambda b: sorted(b, reverse=True))
        .map(lambda b: dict(zip(BAND_NAMES, b))),
        "zone_boundaries": st.lists(
            st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]),
            min_size=3,
            max_size=3,
            unique=True,
        ).map(sorted),
        "ges_thresholds": st.dictionaries(
            st.sampled_from(["fdi", "delta_fpr", "delta_fnr", "tsz"]), cuts
        ),
        "sweep": st.fixed_dictionaries(
            {},
            optional={
                "t_min": st.sampled_from([0.0, 0.1, 0.2]),
                "t_max": st.sampled_from([0.9, 1.0]),
                "step": st.sampled_from([0.05, 0.1, 0.25]),
            },
        ),
        "fdi": st.fixed_dictionaries(
            {},
            optional={
                "mode": st.sampled_from(["continuous", "verdict"]),
                "tolerances": st.dictionaries(st.sampled_from(list(GAP_METRICS)), unit),
                "default_tolerance": unit,
            },
        ),
        "panel_metrics": st.lists(
            st.sampled_from(list(GAP_METRICS)), min_size=2, unique=True
        ),
        "recovery_gating": st.booleans(),
        "hysteresis": st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0, 10),
        "min_support": st.integers(1, 100),
        "tsz": st.fixed_dictionaries(
            {},
            optional={
                "s_ref": st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                "aggregation": st.sampled_from(["mean", "max"]),
            },
        ),
    },
)


def respell(value, rng):
    """``value`` with keys shuffled at every level, some integral floats as ints."""
    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        return {key: respell(item, rng) for key, item in items}
    if isinstance(value, list):
        return [respell(item, rng) for item in value]
    if isinstance(value, float) and value.is_integer() and rng.random() < 0.5:
        return int(value)
    return value


def numbers(value, key=""):
    """Each number in ``value`` (not a bool), with the key that holds it."""
    if isinstance(value, dict):
        for name, item in value.items():
            yield from numbers(item, name)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from numbers(item, key)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield key, value


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestDefaults:
    def test_no_file_gives_documented_defaults(self):
        config = load_config(None)
        assert config.rules.weights.as_tuple() == (0.25, 0.25, 0.25, 0.25)
        assert (
            config.rules.bands.b_deployable,
            config.rules.bands.b_restricted,
            config.rules.bands.b_reassessment,
            config.rules.bands.b_escalated,
        ) == (0.85, 0.65, 0.50, 0.30)
        assert (config.zones.z1, config.zones.z2, config.zones.z3) == (0.25, 0.75, 1.5)
        assert (config.sweep_t_min, config.sweep_t_max, config.sweep_step) == (
            0.20,
            0.90,
            0.05,
        )
        assert config.panel.mode == "continuous"
        assert config.panel.min_support == 30
        assert config.rules.recovery_gating is True
        assert config.rules.hysteresis == 0.02
        assert config.s_ref == 2.0
        assert config.aggregation == "mean"

    def test_helper_configs_wired(self):
        config = EngineConfig()
        assert config.panel == PanelConfig()
        assert config.rules == RulesConfig()


class TestLoading:
    def test_overrides_applied(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "hysteresis": 0.05,
                "min_support": 10,
                "recovery_gating": False,
                "tsz": {"aggregation": "max"},
                "fdi": {"mode": "verdict", "default_tolerance": 0.2},
            },
        )
        config = load_config(path)
        assert config.rules.hysteresis == 0.05
        assert config.panel.min_support == 10
        assert config.rules.recovery_gating is False
        assert config.aggregation == "max"
        assert config.panel.mode == "verdict"
        assert config.panel.default_tolerance == 0.2

    def test_a_leading_bom_is_skipped(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"hysteresis": 0.05}), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(str(path)).rules.hysteresis == 0.05

    def test_weights_not_summing_to_one_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            {"weights": {"alpha": 0.3, "beta": 0.3, "gamma": 0.3, "delta": 0.0}},
        )
        with pytest.raises(ConfigInvalidError) as excinfo:
            load_config(path)
        assert "weights" in str(excinfo.value)
        assert "0.9" in str(excinfo.value)

    def test_non_decreasing_bands_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "bands": {
                    "deployable": 0.5,
                    "restricted": 0.6,
                    "reassessment": 0.4,
                    "escalated": 0.2,
                }
            },
        )
        with pytest.raises(ConfigInvalidError):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"wieghts": {}})
        with pytest.raises(ConfigInvalidError) as excinfo:
            load_config(path)
        assert "wieghts" in str(excinfo.value)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigInvalidError):
            load_config(str(path))

    def test_bad_zone_boundaries_rejected(self, tmp_path):
        path = write_config(tmp_path, {"zone_boundaries": [0.5, 0.5, 1.0]})
        with pytest.raises(ConfigInvalidError):
            load_config(path)

    def test_bad_sweep_rejected(self, tmp_path):
        path = write_config(tmp_path, {"sweep": {"t_min": 0.9, "t_max": 0.2}})
        with pytest.raises(ConfigInvalidError):
            load_config(path)

    def test_nan_sweep_step_rejected(self, tmp_path):
        # json.loads accepts a bare NaN, which fails no <= or < comparison.
        path = write_config(tmp_path, {"sweep": {"step": float("nan")}})
        with pytest.raises(ConfigInvalidError, match="^sweep: step"):
            load_config(path)

    def test_sweep_two_steps_less_a_rounding_error_loads(self, tmp_path):
        # (0.3 - 0.1) / 0.1 is 1.9999999999999998: two steps as sweep counts them.
        sweep = {"t_min": 0.1, "t_max": 0.3, "step": 0.1}
        config = load_config(write_config(tmp_path, {"sweep": sweep}))
        assert (config.sweep_t_min, config.sweep_t_max, config.sweep_step) == (
            0.1, 0.3, 0.1
        )

    def test_sweep_grid_over_the_step_limit_rejected(self, tmp_path):
        path = write_config(tmp_path, {"sweep": {"step": 1e-300}})
        with pytest.raises(ConfigInvalidError) as excinfo:
            load_config(path)
        assert str(excinfo.value) == (
            "sweep: range must span at most 1000000 steps, got step 1e-300"
        )

    def test_panel_needs_two_metrics(self, tmp_path):
        path = write_config(tmp_path, {"panel_metrics": ["delta_fpr"]})
        with pytest.raises(ConfigInvalidError):
            load_config(path)

    def test_unknown_panel_metric_rejected(self, tmp_path):
        path = write_config(tmp_path, {"panel_metrics": ["delta_fpr", "delta_xyz"]})
        with pytest.raises(ConfigInvalidError):
            load_config(path)

    def test_tolerance_out_of_range_rejected(self, tmp_path):
        path = write_config(tmp_path, {"fdi": {"tolerances": {"delta_fpr": 1.5}}})
        with pytest.raises(ConfigInvalidError):
            load_config(path)

    def test_min_support_type_checked(self, tmp_path):
        path = write_config(tmp_path, {"min_support": 2.5})
        with pytest.raises(ConfigInvalidError):
            load_config(path)


class TestFingerprint:
    def test_stable_for_identical_content(self, tmp_path):
        payload = {"hysteresis": 0.03}
        a = load_config(write_config(tmp_path, payload))
        b = load_config(write_config(tmp_path, payload))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() == a.fingerprint()

    def test_default_matches_explicit_default_values(self, tmp_path):
        explicit = load_config(
            write_config(
                tmp_path,
                {"weights": {"alpha": 0.25, "beta": 0.25, "gamma": 0.25, "delta": 0.25}},
            )
        )
        assert explicit.fingerprint() == EngineConfig().fingerprint()
        # Every default of the README config block, each routed to its owner.
        block = README.read_text(encoding="utf-8").split("```jsonc\n")[1]
        payload = json.loads(block.split("```")[0])
        spelled_out = load_config(write_config(tmp_path, payload))
        assert spelled_out == EngineConfig()
        assert spelled_out.fingerprint() == EngineConfig().fingerprint()

    def test_tolerance_key_order_does_not_matter(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a_text = '{"fdi": {"tolerances": {"delta_fpr": 0.1, "delta_sr": 0.2}}}'
        b_text = '{"fdi": {"tolerances": {"delta_sr": 0.2, "delta_fpr": 0.1}}}'
        a.write_text(a_text, encoding="utf-8")
        b.write_text(b_text, encoding="utf-8")
        assert load_config(str(a)).fingerprint() == load_config(str(b)).fingerprint()

    def test_changes_when_a_value_changes(self, tmp_path):
        base = load_config(None)
        other = load_config(write_config(tmp_path, {"hysteresis": 0.04}))
        assert base.fingerprint() != other.fingerprint()

    @given(valid_payloads, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_key_order_and_number_spelling_do_not_matter(self, payload, rng):
        with tempfile.TemporaryDirectory() as tmp:
            plain, respelled = (os.path.join(tmp, name) for name in "ab")
            with open(plain, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            with open(respelled, "w", encoding="utf-8") as fh:
                json.dump(respell(payload, rng), fh)
            a, b = load_config(plain), load_config(respelled)
        assert a == b
        assert a.fingerprint() == b.fingerprint()
        assert a.rules.fingerprint() == b.rules.fingerprint()
        reals = [v for k, v in numbers(asdict(b)) if k != "min_support"]
        assert all(type(v) is float for v in reals), asdict(b)


def test_readme_library_example_prints_the_lifecycle_trace(
    tmp_path, monkeypatch, capsys
):
    # Gating off and a wider hysteresis both show in the trace, so the
    # example is seen to read its config.
    signals = SIGNALS_CSV + "recovered,0.05,0.02,0.03,0.04,1,0.9\n"
    (tmp_path / "signals.csv").write_text(signals, encoding="utf-8")
    (tmp_path / "config.json").write_text(
        '{"recovery_gating": false, "hysteresis": 0.04}', encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    section = README.read_text(encoding="utf-8").split("## Library use\n")[1]
    exec(section.split("```python\n")[1].split("```")[0], {})
    printed = capsys.readouterr().out
    argv = ["lifecycle", "--signals", "signals.csv", "--config", "config.json"]
    assert main(argv) == 0
    assert printed == capsys.readouterr().out
