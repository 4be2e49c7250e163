"""Tests for assurance scoring, readiness bands, and escalation levels."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deployassure import (
    ConfigInvalidError,
    DeploymentState,
    DrcBands,
    EscalationLevel,
    GesThresholds,
    NegativeWeightError,
    WeightSumError,
    WeightVector,
    ZoneLabel,
    classify_drc,
    remediation_progression,
)
from deployassure.assurance import (
    BY_FAVORABILITY,
    AssuranceSignals,
    compute_das,
    compute_ges,
)

unit = st.floats(0, 1)


def test_scale_ranks_and_band_floors():
    # Stated member by member, so a reordered declaration fails here.
    D, E, Z = DeploymentState, EscalationLevel, ZoneLabel
    states = (
        D.DEPLOYABLE,
        D.RESTRICTED,
        D.REASSESSMENT_REQUIRED,
        D.ESCALATED_GOVERNANCE,
        D.BLOCKED_DEPLOYMENT,
    )
    assert [s.favorability for s in states] == [4, 3, 2, 1, 0]
    assert all(BY_FAVORABILITY[s.favorability] is s for s in D)
    levels = (E.LOW, E.MODERATE, E.HIGH, E.CRITICAL)
    zones = (Z.STABLE, Z.SENSITIVE, Z.AMPLIFIED_DISAGREEMENT, Z.GOVERNANCE_FRAGILITY)
    assert [x.severity for x in levels] == [x.severity for x in zones] == [0, 1, 2, 3]
    bands = DrcBands(
        b_deployable=0.9, b_restricted=0.7, b_reassessment=0.5, b_escalated=0.2
    )
    assert [bands.floor(s) for s in states] == [0.9, 0.7, 0.5, 0.2, 0.0]


def equal_signals(fdi, dfpr, dfnr, tsz, **kw):
    return AssuranceSignals(fdi, dfpr, dfnr, tsz, **kw)


class TestComputeDas:
    def test_reference_baseline_value(self):
        signals = equal_signals(0.68, 0.304, 0.694, 0.42)
        assert compute_das(signals) == pytest.approx(0.4755, abs=1e-12)

    def test_perfect_stability(self):
        assert compute_das(equal_signals(0, 0, 0, 0)) == 1.0

    def test_maximal_instability(self):
        assert compute_das(equal_signals(1, 1, 1, 1)) == 0.0

    def test_single_term_reduction(self):
        weights = WeightVector(1.0, 0.0, 0.0, 0.0)
        assert compute_das(equal_signals(0.3, 0.9, 0.9, 0.9), weights) == pytest.approx(
            0.7, abs=1e-12
        )

    @given(unit, unit, unit, unit)
    def test_bounded(self, a, b, c, d):
        assert 0.0 <= compute_das(equal_signals(a, b, c, d)) <= 1.0

    def test_float_sum_above_one_is_clamped(self):
        weights = WeightVector(0.2, 0.4, 0.3, 0.1)
        # Added left to right, as das_column adds them (Python 3.12's sum() is
        # compensated and gives 1.0); within the 1e-9 tolerance.
        assert weights.alpha + weights.beta + weights.gamma + weights.delta > 1.0
        assert compute_das(equal_signals(0, 0, 0, 0), weights) == 1.0

    @given(st.lists(st.integers(0, 10**6), min_size=4, max_size=4), unit, unit)
    @example([2, 4, 3, 1], 0.0, 0.0)  # 0.2, 0.4, 0.3, 0.1
    @settings(max_examples=200)
    def test_bounded_under_any_simplex_weights(self, parts, a, b):
        parts = parts if sum(parts) else [1, 0, 0, 0]
        weights = WeightVector(*(part / sum(parts) for part in parts))
        assert 1.0 - 1e-9 <= compute_das(equal_signals(0, 0, 0, 0), weights) <= 1.0
        assert 0.0 <= compute_das(equal_signals(a, b, a, b), weights) <= 1.0

    @given(unit, unit, unit, unit, st.floats(0.01, 0.5))
    @settings(max_examples=80)
    def test_monotone_non_increasing_in_each_signal(self, a, b, c, d, bump):
        base = compute_das(equal_signals(a, b, c, d))
        for i, value in enumerate((a, b, c, d)):
            raised = [a, b, c, d]
            raised[i] = min(1.0, value + bump)
            assert compute_das(equal_signals(*raised)) <= base + 1e-12


class TestSignalsValidation:
    def test_out_of_range_signal_rejected(self):
        with pytest.raises(ValueError):
            AssuranceSignals(1.2, 0.1, 0.1, 0.1)

    def test_r_m_requires_remediation_event(self):
        with pytest.raises(ValueError):
            AssuranceSignals(0.1, 0.1, 0.1, 0.1, r_m=0.2)

    def test_r_m_range_checked(self):
        with pytest.raises(ValueError):
            AssuranceSignals(0.1, 0.1, 0.1, 0.1, remediation_event=True, r_m=1.5)


class TestValidateWeights:
    def test_equal_split_ok(self):
        WeightVector(0.25, 0.25, 0.25, 0.25)

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeightError):
            WeightVector(0.5, 0.5, 0.5, -0.5)

    def test_nan_weight_rejected(self):
        # A NaN sum fails no tolerance test, so the per-weight check must catch it.
        with pytest.raises(NegativeWeightError, match="delta must be >= 0, got nan"):
            WeightVector(0.5, 0.25, 0.25, float("nan"))

    def test_sum_not_one_reports_actual(self):
        with pytest.raises(WeightSumError) as excinfo:
            WeightVector(0.3, 0.3, 0.3, 0.0)
        assert excinfo.value.actual_sum == pytest.approx(0.9)
        assert "0.9" in str(excinfo.value)


class TestClassifyDrc:
    @pytest.mark.parametrize(
        "das,expected",
        [
            (0.48, DeploymentState.ESCALATED_GOVERNANCE),
            (0.71, DeploymentState.RESTRICTED),
            (0.52, DeploymentState.REASSESSMENT_REQUIRED),
            (0.20, DeploymentState.BLOCKED_DEPLOYMENT),
            (0.95, DeploymentState.DEPLOYABLE),
        ],
    )
    def test_default_bands(self, das, expected):
        assert classify_drc(das) is expected

    @pytest.mark.parametrize(
        "boundary,expected",
        [
            (0.85, DeploymentState.DEPLOYABLE),
            (0.65, DeploymentState.RESTRICTED),
            (0.50, DeploymentState.REASSESSMENT_REQUIRED),
            (0.30, DeploymentState.ESCALATED_GOVERNANCE),
        ],
    )
    def test_band_boundaries_closed_below(self, boundary, expected):
        """A score exactly on a boundary takes the more favorable state."""
        assert classify_drc(boundary) is expected

    def test_fragility_caps_favorable_states(self):
        state = classify_drc(0.90, worst_zone=ZoneLabel.GOVERNANCE_FRAGILITY)
        assert state is DeploymentState.ESCALATED_GOVERNANCE

    def test_fragility_never_lifts_blocked(self):
        state = classify_drc(0.10, worst_zone=ZoneLabel.GOVERNANCE_FRAGILITY)
        assert state is DeploymentState.BLOCKED_DEPLOYMENT

    def test_milder_zones_do_not_cap(self):
        state = classify_drc(0.90, worst_zone=ZoneLabel.AMPLIFIED_DISAGREEMENT)
        assert state is DeploymentState.DEPLOYABLE

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            classify_drc(1.2)

    def test_bad_bands_rejected(self):
        with pytest.raises(ConfigInvalidError):
            DrcBands(b_deployable=0.5, b_restricted=0.5, b_reassessment=0.4, b_escalated=0.3)

    @given(unit, unit)
    def test_monotone_in_score(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert classify_drc(hi).favorability >= classify_drc(lo).favorability


class TestComputeGes:
    def test_all_quiet_is_low(self):
        assert compute_ges(equal_signals(0, 0, 0, 0)) is EscalationLevel.LOW

    def test_reference_baseline_is_high(self):
        # severities (2, 1, 2, 2) -> max 2
        signals = equal_signals(0.68, 0.304, 0.694, 0.42)
        assert compute_ges(signals) is EscalationLevel.HIGH

    def test_failed_remediation_bumps_one_step(self):
        signals = equal_signals(
            0.68, 0.304, 0.694, 0.42, remediation_event=True, r_m=-0.1
        )
        assert compute_ges(signals) is EscalationLevel.CRITICAL

    def test_successful_remediation_does_not_bump(self):
        signals = equal_signals(
            0.68, 0.304, 0.694, 0.42, remediation_event=True, r_m=0.2
        )
        assert compute_ges(signals) is EscalationLevel.HIGH

    def test_bump_capped_at_critical(self):
        signals = equal_signals(1, 1, 1, 1, remediation_event=True, r_m=-0.5)
        assert compute_ges(signals) is EscalationLevel.CRITICAL

    def test_custom_thresholds(self):
        thresholds = GesThresholds(fdi=(0.9, 0.95, 0.99))
        assert compute_ges(
            equal_signals(0.68, 0, 0, 0), thresholds
        ) is EscalationLevel.LOW

    def test_bad_thresholds_rejected(self):
        with pytest.raises(ConfigInvalidError):
            GesThresholds(fdi=(0.5, 0.4, 0.9))

    @pytest.mark.parametrize(
        "cuts",
        [
            (0.25, 0.5, float("inf")),
            (float("-inf"), 0.5, 0.75),
            (0.25, 0.5, float("nan")),
        ],
        ids=["inf", "-inf", "nan"],
    )
    def test_non_finite_thresholds_rejected(self, cuts):
        # An infinite last cut would switch Critical off.
        with pytest.raises(ConfigInvalidError, match="ges_thresholds.tsz"):
            GesThresholds(tsz=cuts)

    @given(unit, unit, unit, unit, st.integers(0, 3), st.floats(0.01, 0.3))
    @settings(max_examples=80)
    def test_monotone_in_every_signal(self, a, b, c, d, which, bump):
        base = compute_ges(equal_signals(a, b, c, d))
        raised = [a, b, c, d]
        raised[which] = min(1.0, raised[which] + bump)
        assert compute_ges(equal_signals(*raised)).severity >= base.severity

    @given(unit, unit, unit, unit)
    def test_bump_never_lowers(self, a, b, c, d):
        plain = compute_ges(equal_signals(a, b, c, d))
        bumped = compute_ges(
            equal_signals(a, b, c, d, remediation_event=True, r_m=-0.2)
        )
        assert bumped.severity >= plain.severity


class TestRemediationProgression:
    def test_improvement(self):
        assert remediation_progression(0.48, 0.71) == pytest.approx(0.23, abs=1e-12)

    def test_no_change(self):
        assert remediation_progression(0.5, 0.5) == 0.0

    def test_regression(self):
        assert remediation_progression(0.71, 0.48) == pytest.approx(-0.23, abs=1e-12)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            remediation_progression(-0.1, 0.5)
        with pytest.raises(ValueError, match=r"das_next out of range \[0, 1\]: 1.5"):
            remediation_progression(0.5, 1.5)

    @given(unit, unit)
    def test_antisymmetric(self, a, b):
        assert remediation_progression(a, b) == -remediation_progression(b, a)
