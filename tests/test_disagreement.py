"""Tests for the disagreement index over disparity panels."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deployassure import (
    ConfigInvalidError,
    DisparityPanel,
    InsufficientPanelError,
    MissingToleranceError,
    PanelConfig,
    compute_fdi,
    panel_from_gaps,
)
from deployassure.evaluation import DisparityGaps


def make_panel(disparities, tolerances=None):
    entries = tuple((f"m{i}", d) for i, d in enumerate(disparities))
    taus = None
    if tolerances is not None:
        taus = {f"m{i}": t for i, t in enumerate(tolerances)}
    return DisparityPanel(entries=entries, tolerances=taus)


def pairwise_mean_abs_diff(disparities):
    """Oracle: literal double loop over all pairs."""
    pairs = list(itertools.combinations(disparities, 2))
    return sum(abs(a - b) for a, b in pairs) / len(pairs)


unit_floats = st.floats(0, 1)
panels = st.lists(unit_floats, min_size=2, max_size=8)


class TestContinuousMode:
    def test_identical_disparities_fully_agree(self):
        assert compute_fdi(make_panel([0.3, 0.3])).value == 0.0

    def test_maximal_spread(self):
        assert compute_fdi(make_panel([0.0, 1.0])).value == 1.0

    def test_three_entry_hand_value(self):
        # pairwise diffs 0.2, 0.4, 0.2 -> mean 0.8/3
        result = compute_fdi(make_panel([0.1, 0.3, 0.5]))
        assert result.value == pytest.approx(0.8 / 3, abs=1e-12)
        assert result.mode == "continuous"

    @given(panels)
    @settings(max_examples=200)
    def test_matches_pairwise_oracle(self, disparities):
        engine = compute_fdi(make_panel(disparities)).value
        assert engine == pytest.approx(
            pairwise_mean_abs_diff(disparities), abs=1e-12
        )

    @given(panels)
    def test_bounded(self, disparities):
        assert 0.0 <= compute_fdi(make_panel(disparities)).value <= 1.0

    @given(panels, st.randoms(use_true_random=False))
    def test_permutation_invariant(self, disparities, rng):
        base = compute_fdi(make_panel(disparities)).value
        shuffled = list(disparities)
        rng.shuffle(shuffled)
        entries = tuple(
            (f"m{i}", d) for i, d in zip(rng.sample(range(99), len(shuffled)), shuffled)
        )
        assert compute_fdi(DisparityPanel(entries=entries)).value == pytest.approx(
            base, abs=1e-12
        )

    @given(panels)
    @example([0.0, 0.0, 0.0, 5e-324])  # the mean underflows to 0
    def test_zero_iff_all_equal(self, disparities):
        value = compute_fdi(make_panel(disparities)).value
        assert (value == 0.0) == (len(set(disparities)) == 1)

    @given(panels, unit_floats)
    @settings(max_examples=150)
    def test_shift_invariant(self, disparities, raw_shift):
        room = 1.0 - max(disparities)
        shift = raw_shift * room
        base = compute_fdi(make_panel(disparities)).value
        shifted = compute_fdi(make_panel([d + shift for d in disparities])).value
        assert shifted == pytest.approx(base, abs=1e-12)


class TestVerdictMode:
    def test_single_disagreeing_pair(self):
        panel = make_panel([0.05, 0.20], tolerances=[0.1, 0.1])
        assert compute_fdi(panel, "verdict").value == 1.0

    def test_all_fair_agrees(self):
        panel = make_panel([0.05, 0.08, 0.02], tolerances=[0.1, 0.1, 0.1])
        assert compute_fdi(panel, "verdict").value == 0.0

    def test_all_unfair_agrees(self):
        panel = make_panel([0.5, 0.8], tolerances=[0.1, 0.1])
        assert compute_fdi(panel, "verdict").value == 0.0

    def test_boundary_counts_as_fair(self):
        # d == tau is a fair verdict
        panel = make_panel([0.1, 0.5], tolerances=[0.1, 0.1])
        assert compute_fdi(panel, "verdict").value == 1.0

    def test_tolerance_out_of_range_rejected(self):
        panel = DisparityPanel(
            entries=(("m0", 0.1), ("m1", 0.2)), tolerances={"m0": 0.1, "m1": 1.5}
        )
        with pytest.raises(ValueError, match="tolerance for 'm1' out of range"):
            compute_fdi(panel, "verdict")

    def test_missing_tolerance_rejected(self):
        panel = DisparityPanel(
            entries=(("m0", 0.1), ("m1", 0.2)), tolerances={"m0": 0.1}
        )
        with pytest.raises(MissingToleranceError) as excinfo:
            compute_fdi(panel, "verdict")
        assert excinfo.value.metric == "m1"

    @given(
        st.lists(unit_floats, min_size=2, max_size=8),
        st.lists(unit_floats, min_size=8, max_size=8),
    )
    @settings(max_examples=100)
    def test_bounded_and_zero_iff_verdicts_agree(self, disparities, tolerances):
        panel = make_panel(disparities, tolerances[: len(disparities)])
        value = compute_fdi(panel, "verdict").value
        assert 0.0 <= value <= 1.0
        verdicts = {
            d <= t for d, t in zip(disparities, tolerances[: len(disparities)])
        }
        assert (value == 0.0) == (len(verdicts) == 1)


class TestPanelValidation:
    def test_single_entry_rejected(self):
        with pytest.raises(InsufficientPanelError):
            compute_fdi(DisparityPanel(entries=(("m0", 0.5),)))

    def test_duplicate_metric_names_rejected(self):
        panel = DisparityPanel(entries=(("m0", 0.1), ("m0", 0.2)))
        with pytest.raises(ValueError):
            compute_fdi(panel)

    def test_out_of_range_disparity_rejected(self):
        with pytest.raises(ValueError):
            compute_fdi(make_panel([0.5, 1.2]))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            compute_fdi(make_panel([0.1, 0.2]), "fuzzy")


@pytest.mark.parametrize(
    "kwargs,key",
    [
        ({"mode": "fuzzy"}, "fdi.mode"),
        ({"default_tolerance": float("nan")}, "fdi.default_tolerance"),
        ({"tolerances": {"delta_fpr": 1.5}}, "fdi.tolerances.delta_fpr"),
        ({"tolerances": {"delta_xyz": 0.1}}, "fdi.tolerances"),
        ({"metrics": ("delta_fpr",)}, "panel_metrics"),
        ({"metrics": ("delta_fpr", "delta_fpr")}, "panel_metrics"),
        ({"min_support": True}, "min_support"),
    ],
)
def test_invalid_panel_config_cannot_be_built(kwargs, key):
    with pytest.raises(ConfigInvalidError, match=f"^{key}: "):
        PanelConfig(**kwargs)


def test_panel_from_gaps_uses_default_metrics():
    gaps = DisparityGaps(
        delta_fpr=0.1, delta_fnr=0.2, delta_tpr=0.3, delta_sr=0.4
    )
    panel = panel_from_gaps(gaps)
    assert panel.entries == (
        ("delta_fpr", 0.1),
        ("delta_fnr", 0.2),
        ("delta_tpr", 0.3),
        ("delta_sr", 0.4),
    )
