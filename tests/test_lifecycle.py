"""Tests for the governance-state machine, replay, and trace emission."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deployassure import (
    AssuranceSignals,
    ConfigInvalidError,
    DeploymentState,
    EmptySequenceError,
    EscalationLevel,
    GesThresholds,
    RulesConfig,
    SnapshotAssessment,
    TransitionRecord,
    WeightVector,
    ZoneLabel,
    build_assessments,
    classify_drc,
    compute_ges,
    emit_trace,
    load_config,
    replay,
    step,
)
from deployassure.cli import main

import oracles
from conftest import CSV_WRITES_NUL, REFERENCE_ROWS

D = DeploymentState

GOLDEN_ROW = (
    "snapshot_id,fdi,delta_fpr,delta_fnr,tsz,das,ges,stateless_drc,"
    "governed_state,transition,r_p\n"
    "baseline,0.6800,0.3040,0.6940,0.4200,0.4755,High,EscalatedGovernance,"
    "EscalatedGovernance,,\n"
)


def assessment(das, snapshot_id="snap", remediation=False, r_m=None, zone=None):
    """Assessment whose signals are neutral; the score is given directly."""
    signals = AssuranceSignals(
        0.5, 0.5, 0.5, 0.5, worst_zone=zone, remediation_event=remediation, r_m=r_m
    )
    return SnapshotAssessment(
        snapshot_id=snapshot_id,
        signals=signals,
        das=das,
        stateless_drc=classify_drc(das),
        ges=compute_ges(signals),
        r_p=None,
    )


def reference_assessments(das_values=(0.48, 0.71, 0.52)):
    out = []
    for (snapshot_id, signals), das in zip(REFERENCE_ROWS, das_values):
        out.append(
            SnapshotAssessment(
                snapshot_id=snapshot_id,
                signals=signals,
                das=das,
                stateless_drc=classify_drc(das),
                ges=compute_ges(signals),
            )
        )
    return out


class TestStep:
    def test_degradation_is_immediate(self):
        new, record = step(D.DEPLOYABLE, assessment(0.20))
        assert new is D.BLOCKED_DEPLOYMENT
        assert record.trigger_reasons == ("das_band_change",)

    def test_recovery_gated_to_one_level(self):
        new, record = step(
            D.ESCALATED_GOVERNANCE, assessment(0.71, remediation=True)
        )
        assert new is D.REASSESSMENT_REQUIRED
        assert record.trigger_reasons == ("recovery_gated",)

    def test_same_band_holds(self):
        new, record = step(D.RESTRICTED, assessment(0.70))
        assert new is D.RESTRICTED
        assert record is None

    def test_recovery_without_gating_jumps_to_target(self):
        rules = RulesConfig(recovery_gating=False)
        new, record = step(
            D.ESCALATED_GOVERNANCE, assessment(0.71, remediation=True), rules
        )
        assert new is D.RESTRICTED

    def test_recovery_requires_remediation_event(self):
        new, record = step(D.ESCALATED_GOVERNANCE, assessment(0.71))
        assert new is D.ESCALATED_GOVERNANCE
        assert record is None

    def test_recovery_blocked_below_hysteresis_margin(self):
        # Destination ReassessmentRequired needs das >= 0.50 + 0.02.
        new, _ = step(D.ESCALATED_GOVERNANCE, assessment(0.51, remediation=True))
        assert new is D.ESCALATED_GOVERNANCE
        new, _ = step(D.ESCALATED_GOVERNANCE, assessment(0.53, remediation=True))
        assert new is D.REASSESSMENT_REQUIRED

    def test_first_recovery_out_of_blocked_is_escalated(self):
        new, _ = step(D.BLOCKED_DEPLOYMENT, assessment(0.95, remediation=True))
        assert new is D.ESCALATED_GOVERNANCE

    def test_fragility_override_degrades_without_band_change(self):
        fragile = assessment(0.90, zone=ZoneLabel.GOVERNANCE_FRAGILITY)
        new, record = step(D.DEPLOYABLE, fragile)
        assert new is D.ESCALATED_GOVERNANCE
        assert record.trigger_reasons == ("fragility_override",)

    def test_band_drop_and_fragility_both_reported(self):
        fragile = assessment(0.70, zone=ZoneLabel.GOVERNANCE_FRAGILITY)
        new, record = step(D.DEPLOYABLE, fragile)
        assert new is D.ESCALATED_GOVERNANCE
        assert record.trigger_reasons == ("das_band_change", "fragility_override")

    def test_failed_remediation_reason_on_degradation(self):
        failed = assessment(0.20, remediation=True, r_m=-0.3)
        new, record = step(D.RESTRICTED, failed)
        assert new is D.BLOCKED_DEPLOYMENT
        assert "failed_remediation" in record.trigger_reasons


class TestTransitionRecord:
    def test_state_change_requires_reasons(self):
        with pytest.raises(ValueError):
            TransitionRecord(D.DEPLOYABLE, D.RESTRICTED, trigger_reasons=())

    def test_identity_needs_no_reason(self):
        TransitionRecord(D.RESTRICTED, D.RESTRICTED, trigger_reasons=())


class TestReplay:
    def test_gated_recovery_passes_through_reassessment(self):
        trace = replay(reference_assessments()[:2])
        states = [e.governed_state for e in trace.entries]
        assert states == [D.ESCALATED_GOVERNANCE, D.REASSESSMENT_REQUIRED]
        assert trace.entries[1].assessment.r_p == pytest.approx(0.23, abs=1e-12)

    def test_ungated_replay_matches_stateless_column(self):
        trace = replay(
            reference_assessments(), rules=RulesConfig(recovery_gating=False)
        )
        states = [e.governed_state for e in trace.entries]
        assert states == [
            D.ESCALATED_GOVERNANCE,
            D.RESTRICTED,
            D.REASSESSMENT_REQUIRED,
        ]

    def test_single_snapshot_trace(self):
        trace = replay([assessment(0.55)])
        assert len(trace.entries) == 1
        assert trace.entries[0].transition is None
        assert trace.entries[0].assessment.r_p is None

    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptySequenceError):
            replay([])

    def test_inconsistent_stateless_classification_rejected(self):
        bad = SnapshotAssessment(
            snapshot_id="bad",
            signals=AssuranceSignals(0.5, 0.5, 0.5, 0.5),
            das=0.9,
            stateless_drc=D.BLOCKED_DEPLOYMENT,
            ges=compute_ges(AssuranceSignals(0.5, 0.5, 0.5, 0.5)),
        )
        with pytest.raises(ValueError):
            replay([bad])

    def test_r_m_backfilled_from_progression(self):
        assessments = build_assessments(REFERENCE_ROWS)
        # Second snapshot is a remediation: its effectiveness defaults to
        # the score delta against the previous snapshot.
        assert assessments[1].signals.r_m == pytest.approx(
            assessments[1].das - assessments[0].das
        )
        assert assessments[0].signals.r_m is None

    def test_transitions_carry_reasons(self):
        rng = random.Random(5)
        assessments = [
            assessment(rng.random(), snapshot_id=f"s{i}", remediation=True)
            for i in range(30)
        ]
        trace = replay(assessments)
        for entry in trace.entries:
            if entry.transition is not None:
                assert entry.transition.trigger_reasons

    def test_gated_recovery_never_skips_levels(self):
        rng = random.Random(7)
        assessments = [
            assessment(rng.random(), snapshot_id=f"s{i}", remediation=True)
            for i in range(60)
        ]
        trace = replay(assessments, initial_state=D.BLOCKED_DEPLOYMENT)
        favorability = D.BLOCKED_DEPLOYMENT.favorability
        for entry in trace.entries:
            assert entry.governed_state.favorability - favorability <= 1
            favorability = entry.governed_state.favorability

    def test_degradations_always_adopted(self):
        rng = random.Random(9)
        assessments = [
            assessment(rng.random(), snapshot_id=f"s{i}") for i in range(60)
        ]
        trace = replay(assessments, initial_state=D.DEPLOYABLE)
        for entry in trace.entries:
            target = entry.assessment.stateless_drc
            if target.favorability < entry.governed_state.favorability:
                pytest.fail("a degradation was not adopted immediately")


class TestEmitTrace:
    def single_row_trace(self):
        assessments = build_assessments(REFERENCE_ROWS[:1])
        return replay(assessments, initial_state=D.ESCALATED_GOVERNANCE)

    def test_golden_csv_row(self):
        assert emit_trace(self.single_row_trace(), "csv").decode() == GOLDEN_ROW

    def test_serialisation_is_byte_identical(self):
        trace = replay(build_assessments(REFERENCE_ROWS))
        assert emit_trace(trace, "csv") == emit_trace(trace, "csv")
        assert emit_trace(trace, "json") == emit_trace(trace, "json")

    def test_json_structure(self):
        trace = replay(build_assessments(REFERENCE_ROWS))
        payload = json.loads(emit_trace(trace, "json"))
        assert payload["config_fingerprint"] == trace.config_fingerprint
        assert [e["snapshot_id"] for e in payload["entries"]] == [
            "baseline",
            "mitigation_a",
            "mitigation_b",
        ]
        first = payload["entries"][0]
        assert first["das"] == 0.4755
        assert first["r_p"] is None

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_trace(self.single_row_trace(), "xml")

    def test_fingerprint_tracks_rules(self):
        assessments = build_assessments(REFERENCE_ROWS)
        gated = replay(assessments)
        ungated = replay(assessments, rules=RulesConfig(recovery_gating=False))
        assert gated.config_fingerprint != ungated.config_fingerprint


class TestRulesConfig:
    def test_nan_hysteresis_rejected(self):
        with pytest.raises(ValueError, match="hysteresis"):
            RulesConfig(hysteresis=float("nan"))

    def test_infinite_hysteresis_rejected(self):
        with pytest.raises(ConfigInvalidError, match="hysteresis"):
            RulesConfig(hysteresis=math.inf)

    def test_weights_and_cuts_reach_the_assessments(self):
        rules = RulesConfig(
            weights=WeightVector(1.0, 0.0, 0.0, 0.0),
            ges_thresholds=GesThresholds(fdi=(0.1, 0.2, 0.3)),
        )
        first = build_assessments(REFERENCE_ROWS, rules)[0]
        assert first.das == pytest.approx(1.0 - 0.68)
        assert first.ges is EscalationLevel.CRITICAL  # High under default cuts


# --- The one-pass fold against the staged oracle --------------------------

# Signal values for one file: spread out, or low enough that most
# snapshots score in the favorable bands, where gating and caps act.
signal_values = st.sampled_from(
    [
        st.one_of(st.sampled_from([0.0, 0.15, 0.3, 0.5, 0.85, 1.0]), st.floats(0, 1)),
        st.floats(0, 0.25),
    ]
)


# Ids holding each character a CSV cell is quoted for, padding, non-ASCII
# and, where the csv module can write it, NUL.
SNAPSHOT_IDS = ["", "a,b", 'a,"b"', '"', "x\ry", "x\ny", "x\r\ny", " lead", "é"]
SNAPSHOT_IDS += ["a\x00b"] if CSV_WRITES_NUL else []


@st.composite
def signal_records(draw, bad_values=True):
    """A signals file's records: explicit and backfilled r_m, id edge cases."""
    values = draw(signal_values)
    records = []
    for i in range(draw(st.integers(1, 25))):
        record = {
            "snapshot_id": draw(st.sampled_from(SNAPSHOT_IDS + [f"s{i}"])),
            "fdi": draw(values),
            "delta_fpr": draw(values),
            "delta_fnr": draw(values),
            "tsz": draw(values),
            "remediation_event": draw(st.sampled_from([0, 1])),
        }
        if record["remediation_event"] and draw(st.booleans()):
            record["r_m"] = draw(st.floats(-1, 1))
        records.append(record)
    if bad_values and draw(st.booleans()):
        # One bad value: both paths must stop at the same row, same message.
        bad = draw(st.sampled_from(records))
        field, value = draw(
            st.sampled_from(
                [("tsz", 1.5), ("fdi", -0.1), ("delta_fnr", "x"), ("r_m", 2.0)]
            )
        )
        bad[field] = value
        if field == "r_m":
            bad["remediation_event"] = draw(st.sampled_from([0, 1]))
    return records


# A sweep's worst zone; only GovernanceFragility caps, so it is drawn most.
zones = st.one_of(
    st.just(ZoneLabel.GOVERNANCE_FRAGILITY), st.sampled_from([None, *ZoneLabel])
)


@st.composite
def rule_configs(draw):
    parts = draw(st.lists(st.integers(0, 1000), min_size=4, max_size=4))
    parts = parts if sum(parts) else [1, 1, 1, 1]
    weights = (part / sum(parts) for part in parts)
    config = {
        "weights": dict(zip(("alpha", "beta", "gamma", "delta"), weights)),
        "hysteresis": draw(st.sampled_from([0.0, 0.02, 0.1])),
        "recovery_gating": draw(st.booleans()),
    }
    bands = draw(
        st.sampled_from(
            [
                None,
                dict(deployable=0.9, restricted=0.7, reassessment=0.55, escalated=0.25),
                dict(deployable=0.6, restricted=0.45, reassessment=0.3, escalated=0.1),
            ]
        )
    )
    if bands is not None:
        config["bands"] = bands
    if draw(st.booleans()):
        config["ges_thresholds"] = {"fdi": [0.1, 0.3, 0.6], "tsz": [0.05, 0.2, 0.5]}
    return config


@st.composite
def score_configs(draw):
    """Random simplex weights, DRC bands and GES cuts."""
    config = {"weights": draw(rule_configs())["weights"]}
    bands = draw(st.lists(st.floats(0.01, 0.99), min_size=4, max_size=4, unique=True))
    names = ("deployable", "restricted", "reassessment", "escalated")
    config["bands"] = dict(zip(names, sorted(bands, reverse=True)))
    # Cuts on the drawn signal values test the closed-below severity rule.
    cut = st.one_of(st.sampled_from([0.0, 0.15, 0.3, 0.5, 0.85, 1.0]), st.floats(0, 1))
    config["ges_thresholds"] = {
        name: sorted(draw(st.lists(cut, min_size=3, max_size=3, unique=True)))
        for name in ("fdi", "delta_fpr", "delta_fnr", "tsz")
    }
    return config


def _write_inputs(tmp, records, config, jsonl):
    """Write a signals file and a config file; return their paths."""
    path = os.path.join(tmp, "signals.jsonl" if jsonl else "signals.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if jsonl:
            fh.writelines(json.dumps(r) + "\n" for r in records)
        else:
            columns = [*oracles.SIGNALS_COLUMNS, "r_m"]
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows([r.get(c, "") for c in columns] for r in records)
    config_path = os.path.join(tmp, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return path, config_path


def _run_cli(argv):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


class TestFoldMatchesStaged:
    """The CLI's one-pass fold gives the staged path's bytes and errors."""

    @given(
        records=signal_records(),
        config=rule_configs(),
        gating=st.sampled_from([None, "on", "off"]),
        initial=st.sampled_from(list(D)),
        jsonl=st.booleans(),
        output=st.sampled_from(["csv", "json"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_cli_trace(self, records, config, gating, initial, jsonl, output):
        with tempfile.TemporaryDirectory() as tmp:
            path, config_path = _write_inputs(tmp, records, config, jsonl)
            argv = ["lifecycle", "--signals", path, "--config", config_path]
            argv += ["--initial", initial.value, "--format", output]
            if gating is not None:
                argv += ["--gating", gating]
            code, out, err = _run_cli(argv)

            rules = load_config(config_path).rules
            if gating is not None:
                rules = dataclasses.replace(rules, recovery_gating=gating == "on")
            try:
                rows = oracles.staged_parse_signals(path)
            except oracles.MalformedRowError as exc:
                assert (code, out, err) == (1, b"", f"error: {exc}\n")
                return
        assert (code, err) == (0, "")
        assert out == oracles.staged_trace(rows, initial, rules, output)

    @given(
        records=signal_records(bad_values=False),
        zones=st.lists(zones, min_size=25, max_size=25),
        config=rule_configs(),
        initial=st.sampled_from(list(D)),
        output=st.sampled_from(["csv", "json"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_library_path(self, records, zones, config, initial, output):
        # worst_zone reaches step only through the library path.
        rows = [
            (
                r["snapshot_id"],
                AssuranceSignals(
                    *(r[k] for k in ("fdi", "delta_fpr", "delta_fnr", "tsz")),
                    worst_zone=zone,
                    remediation_event=bool(r["remediation_event"]),
                    r_m=r.get("r_m"),
                ),
            )
            for r, zone in zip(records, zones)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            rules = load_config(_write_inputs(tmp, records, config, True)[1]).rules
        expected = oracles.staged_trace(rows, initial, rules, output)
        assessments = build_assessments(rows, rules)
        trace = replay(assessments, initial, rules)
        assert emit_trace(trace, output) == expected
        # replay fills r_p and backfills r_m itself when they are missing.
        bare = [
            dataclasses.replace(a, signals=signals, r_p=None)
            for a, (_, signals) in zip(assessments, rows)
        ]
        staged = oracles.staged_replay(bare, initial, rules)
        assert replay(bare, initial, rules) == staged


class TestScoreMatchesStaged:
    """``score`` scores each signals row on its own, as the staged rules do."""

    @given(
        records=signal_records(),
        config=score_configs(),
        jsonl=st.booleans(),
        output=st.sampled_from(["csv", "json"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_cli_score(self, records, config, jsonl, output):
        # A remediation row with no r_m keeps it missing: a backfill from the
        # previous row's score would raise GES on a negative delta.
        with tempfile.TemporaryDirectory() as tmp:
            path, config_path = _write_inputs(tmp, records, config, jsonl)
            argv = ["score", "--signals", path, "--config", config_path]
            code, out, err = _run_cli([*argv, "--format", output])
            rules = load_config(config_path).rules
            try:
                rows = oracles.staged_parse_signals(path)
            except oracles.MalformedRowError as exc:
                assert (code, out, err) == (1, b"", f"error: {exc}\n")
                return
        assert (code, err) == (0, "")
        assert out == oracles.staged_score(rows, rules, output)
