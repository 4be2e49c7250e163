"""Tests for the governance-state machine, replay, and trace emission."""

from __future__ import annotations

import json
import math
import random

import pytest

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
    replay,
    step,
)

from conftest import REFERENCE_ROWS

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
