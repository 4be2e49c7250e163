"""Tests for threshold sweeps, sensitivity profiles, and stability zones."""

from __future__ import annotations

import collections

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import deployassure.evaluation
import deployassure.stability
from deployassure import (
    ConfigInvalidError,
    ConfusionCounts,
    DomainError,
    EmptyInputError,
    FdiProfile,
    InsufficientSubgroupsError,
    MalformedSampleError,
    RatePanel,
    Sample,
    SensitivityPoint,
    SensitivityProfile,
    SweepDegenerateError,
    ZoneConfig,
    ZoneLabel,
    fdi_at_threshold,
    sensitivity,
    sweep,
    tsz_scalar,
    worst_zone,
)
from deployassure.disagreement import MODES, PanelConfig
from deployassure.evaluation import GAP_METRICS, ScoreIndex
from deployassure.stability import (
    MAX_SWEEP_STEPS,
    assess_at_threshold,
    check_sweep_range,
    classify_zone,
)

from conftest import confusions_below, make_dataset
from oracles import fill_flagged, flagging_sweep, naive_confusion

H = 0.05


def profile_from(fn, t_min=0.2, n=15, h=H):
    points = tuple(
        (t_min + i * h, min(1.0, max(0.0, fn(t_min + i * h)))) for i in range(n)
    )
    return FdiProfile(points=points, h=h)


def constant_score_dataset():
    samples = []
    for group in ("A", "B"):
        for label in (0, 1):
            for i in range(20):
                samples.append(Sample(f"{group}{label}{i}", 0.5, label, group))
    return samples


class TestSweep:
    def test_default_range_has_15_grid_points(self):
        profile = sweep(make_dataset())
        assert len(profile.points) == 15
        assert profile.thresholds[0] == pytest.approx(0.20, abs=1e-12)
        assert profile.thresholds[-1] == pytest.approx(0.90, abs=1e-12)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            sweep(make_dataset(), t_min=0.5, t_max=0.5)

    def test_range_must_span_two_steps(self):
        with pytest.raises(ValueError):
            sweep(make_dataset(), t_min=0.4, t_max=0.5, h=0.1)

    @pytest.mark.parametrize(
        "h",
        [1e-300, 5e-324, 1 / (MAX_SWEEP_STEPS + 1)],
        ids=["1e-300", "5e-324", "one-step-over"],
    )
    def test_range_over_the_step_limit_rejected(self, h):
        # Checked before any grid is built: a 1e-300 step asks for ~1e300 points.
        with pytest.raises(DomainError, match="at most 1000000 steps"):
            check_sweep_range(0.0, 1.0, h)

    def test_range_at_the_step_limit_accepted(self):
        assert check_sweep_range(0.0, 1.0, 1 / MAX_SWEEP_STEPS) is None

    def test_two_steps_less_a_rounding_error_accepted(self):
        # (0.3 - 0.1) / 0.1 is 1.9999999999999998 in floats; sweep counts
        # it as two intervals, so the check takes it too.
        assert check_sweep_range(0.1, 0.3, 0.1) is None
        profile = sweep(make_dataset(), 0.1, 0.3, 0.1)
        assert profile.thresholds == pytest.approx((0.1, 0.2, 0.3), abs=1e-12)
        with pytest.raises(DomainError, match="at least two steps"):
            check_sweep_range(0.4, 0.5, 0.1)

    def test_constant_scores_give_constant_profile(self):
        # Identical confusion matrices on each side of 0.5 make every gap
        # zero, so the disagreement index is 0 across the whole grid.
        profile = sweep(constant_score_dataset())
        assert set(profile.values) == {0.0}

    def test_all_points_flagged_is_degenerate(self):
        # Subgroup B has no positives at all: the fnr gap never has two
        # eligible subgroups at any threshold.
        samples = [
            Sample(f"a{i}", i / 40, i % 2, "A") for i in range(40)
        ] + [
            Sample(f"b{i}", i / 40, 0, "B") for i in range(40)
        ]
        with pytest.raises(SweepDegenerateError) as excinfo:
            sweep(samples, panel_config=PanelConfig(min_support=1))
        assert str(excinfo.value) == (
            "15 of 15 grid points had insufficient eligible subgroups"
        )

    @pytest.mark.parametrize(
        "t_min,t_max,h",
        [
            (0.9, 0.2, 0.05),
            (0.0, 1.0, 0.0),
            (float("nan"), 1.0, 0.1),
            (0.0, float("nan"), 0.1),
            (0.0, 1.0, float("nan")),
            (0.0, 1.0, float("inf")),
            (0.4, 0.5, 0.1),
        ],
    )
    def test_bad_range_rejected_before_samples_are_read(self, t_min, t_max, h):
        with pytest.raises(DomainError):
            sweep([], t_min, t_max, h)

    def test_grid_never_passes_t_max(self):
        # In floating point 0.09 + 26 * 0.035 is 1.0000000000000002.
        profile = sweep(make_dataset(), 0.09, 1.0, 0.035)
        assert len(profile.points) == 27
        assert profile.thresholds[-1] == 1.0

    def test_matches_single_threshold_evaluation(self):
        samples = make_dataset()
        config = PanelConfig()
        profile = sweep(samples, panel_config=config)
        for t, value in profile.points:
            assert value == fdi_at_threshold(samples, t, config)

    def test_malformed_sample_named(self):
        samples = make_dataset() + [Sample("bad7", 1.5, 1, "A")]
        with pytest.raises(MalformedSampleError) as excinfo:
            sweep(samples)
        assert excinfo.value.sample_id == "bad7"

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            sweep([])

    def test_no_single_threshold_pass_per_grid_point(self, monkeypatch):
        # Counts, not timings: a sweep that rescans every sample at each
        # grid point would call compute_confusion once per point.
        calls = []

        def counting(samples, threshold):
            calls.append(threshold)
            return original(samples, threshold)

        original = deployassure.evaluation.compute_confusion
        monkeypatch.setattr(deployassure.evaluation, "compute_confusion", counting)
        monkeypatch.setattr(deployassure.stability, "compute_confusion", counting)
        samples = make_dataset()
        profile = sweep(samples, 0.0, 1.0, 0.005)
        assert len(profile.points) == 201
        assert calls == []
        # The patch is live: the single-threshold path goes through it.
        fdi_at_threshold(samples, 0.5, PanelConfig())
        assert calls == [0.5]

    def test_no_record_per_subgroup_and_grid_point(self, monkeypatch):
        # Counts, not timings: the grid is counted and rated in columns,
        # and only the panel of each point is scored on its own.
        built = collections.Counter()
        for cls in (ConfusionCounts, RatePanel):
            def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                built[_cls.__name__] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        scored = []
        compute_fdi = deployassure.stability.compute_fdi
        monkeypatch.setattr(
            deployassure.stability,
            "compute_fdi",
            lambda *args: scored.append(args) or compute_fdi(*args),
        )
        samples = make_dataset(groups=("A", "B", "C"))
        profile = sweep(samples, 0.0, 1.0, 0.005)
        assert len(profile.points) == len(scored) == 201
        assert built["ConfusionCounts"] <= 3 and built["RatePanel"] <= 3
        # The patches are live: one point of the record path builds one of each.
        built.clear()
        [confusion] = confusions_below(ScoreIndex(samples), [0.5])
        assess_at_threshold(confusion, PanelConfig())
        assert built == {"ConfusionCounts": 3, "RatePanel": 3}


class TestFillFlagged:
    """The oracle sweep's interpolation, kept in ``tests/oracles.py``."""

    def test_interior_hole_interpolates_linearly(self):
        filled = fill_flagged([0.0, 0.1, 0.2], [0.2, None, 0.6])
        assert filled == pytest.approx([0.2, 0.4, 0.6])

    def test_edge_holes_copy_nearest_valid(self):
        filled = fill_flagged([0.0, 0.1, 0.2, 0.3], [None, 0.5, 0.7, None])
        assert filled == pytest.approx([0.5, 0.5, 0.7, 0.7])

    def test_fully_flagged_rejected(self):
        with pytest.raises(ValueError):
            fill_flagged([0.0, 0.1], [None, None])


@st.composite
def sweep_datasets(draw):
    """1-4 subgroups, each with mixed, all-positive or all-negative labels."""
    samples = []
    for g in range(draw(st.integers(1, 4))):
        labels = draw(st.sampled_from(("mixed", "positive", "negative")))
        for i in range(draw(st.integers(1, 10))):
            label = {"mixed": i % 2, "positive": 1, "negative": 0}[labels]
            score = draw(st.integers(0, 20)) / 20
            samples.append(Sample(f"g{g}s{i}", score, label, f"g{g}"))
    return samples


class TestSweepAgainstFlaggingOracle:
    """A sweep fails outright where the old one flagged and interpolated.

    Eligibility reads subgroup sizes and label counts, never the
    threshold, so the old sweep flagged every grid point or none: its
    interpolation never filled a point, and its 50% test was all or none.
    """

    @given(
        sweep_datasets(),
        st.integers(1, 8),
        st.sampled_from(MODES),
        st.sampled_from(((0.2, 0.9, 0.05), (0.0, 1.0, 0.1), (0.1, 0.3, 0.1))),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_points_or_same_error(self, samples, min_support, mode, grid):
        config = PanelConfig(mode=mode, min_support=min_support)
        outcomes = []
        for run in (sweep, flagging_sweep):
            try:
                outcomes.append(("ok", run(samples, *grid, config).points))
            except SweepDegenerateError as exc:
                outcomes.append(("degenerate", str(exc)))
        event(outcomes[0][0])
        assert outcomes[0] == outcomes[1]


# (t_min, t_max, h) and its grid, as sweep spaces it: t_min + i*h, capped at t_max.
GRIDS = {
    spec: [min(spec[0] + i * spec[2], spec[1]) for i in range(n)]
    for spec, n in (((0.2, 0.9, 0.05), 15), ((0.0, 1.0, 0.1), 11), ((0.1, 0.3, 0.1), 3),
                    ((0.09, 1.0, 0.035), 27), ((0.0, 1.0, 0.005), 201))
}


@st.composite
def tied_sweeps(draw):
    """A sweep's samples, grid and panel config, drawn to reach every rule.

    Scores mostly sit on the grid's own thresholds, so ``score >= t`` ties
    at grid points. A subgroup may fall below ``min_support``, or hold
    only positives or only negatives; the panel may leave out the gap that
    such a subgroup fails.
    """
    spec = draw(st.sampled_from(sorted(GRIDS)))
    grid = GRIDS[spec]
    score = st.one_of(st.sampled_from(grid), st.floats(0.0, 1.0))
    samples = []
    for g in range(draw(st.integers(1, 5))):
        labels = draw(st.sampled_from(("mixed", "mixed", "mixed", "positive", "negative")))
        for i in range(draw(st.integers(1, 12))):
            label = {"mixed": draw(st.integers(0, 1)), "positive": 1, "negative": 0}[labels]
            samples.append(Sample(f"g{g}s{i}", draw(score), label, f"g{g}"))
    gaps = draw(st.permutations(list(GAP_METRICS)))
    unit = st.floats(0.0, 1.0)
    config = PanelConfig(
        metrics=tuple(gaps[: draw(st.integers(2, 4))]),
        mode=draw(st.sampled_from(MODES)),
        tolerances=draw(st.dictionaries(st.sampled_from(list(GAP_METRICS)), unit)),
        default_tolerance=draw(unit),
        min_support=draw(st.integers(1, 6)),
    )
    return samples, spec, config


class TestSweepAgainstNaiveOracle:
    """The column sweep against the record path, point by point.

    Each point of the oracle counts every sample (``naive_confusion``) and
    then takes rates, gaps and the index through ``assess_at_threshold``.
    """

    @given(tied_sweeps())
    @settings(max_examples=300, deadline=None)
    def test_same_points_or_same_error(self, drawn):
        samples, spec, config = drawn
        grid = GRIDS[spec]
        try:
            values = [
                assess_at_threshold(naive_confusion(samples, t), config)[2].value
                for t in grid
            ]
            expected = ("ok", tuple(zip(grid, values)))
        except InsufficientSubgroupsError:
            n = len(grid)
            message = f"{n} of {n} grid points had insufficient eligible subgroups"
            expected = ("degenerate", message)
        try:
            outcome = ("ok", sweep(samples, *spec, config).points)
        except SweepDegenerateError as exc:
            outcome = ("degenerate", str(exc))
        event(f"{outcome[0]}, {config.mode}")
        assert outcome == expected


class TestProfileValidation:
    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            FdiProfile(points=((0.1, 0.5), (0.2, 0.5)), h=0.1)

    def test_requires_increasing_thresholds(self):
        with pytest.raises(ValueError):
            FdiProfile(points=((0.2, 0.5), (0.2, 0.5), (0.3, 0.5)), h=0.1)

    def test_requires_uniform_spacing(self):
        with pytest.raises(ValueError):
            FdiProfile(points=((0.1, 0.5), (0.2, 0.5), (0.4, 0.5)), h=0.1)

    def test_requires_unit_interval_values(self):
        with pytest.raises(ValueError):
            FdiProfile(points=((0.1, 0.5), (0.2, 1.5), (0.3, 0.5)), h=0.1)

    def test_requires_positive_step(self):
        with pytest.raises(ValueError, match="step must be positive, got 0"):
            FdiProfile(points=((0.1, 0.5), (0.2, 0.5), (0.3, 0.5)), h=0)


class TestSensitivity:
    def test_linear_profile_is_exact_everywhere(self):
        profile = profile_from(lambda t: 0.9 - t)
        sens = sensitivity(profile)
        for point in sens.points:
            assert point.s == pytest.approx(1.0, abs=1e-12)

    def test_constant_profile_is_zero_and_stable(self):
        profile = profile_from(lambda t: 0.37)
        sens = sensitivity(profile)
        assert all(p.s == 0.0 for p in sens.points)
        assert all(p.zone is ZoneLabel.STABLE for p in sens.points)

    def test_quadratic_central_difference_exact_at_interior(self):
        profile = profile_from(lambda t: t * t)
        sens = sensitivity(profile)
        mid = next(p for p in sens.points if abs(p.threshold - 0.5) < 1e-9)
        assert mid.s == pytest.approx(1.0, abs=1e-12)
        for point in sens.points[1:-1]:
            assert point.s == pytest.approx(2 * point.threshold, abs=1e-12)

    def test_reflection_leaves_sensitivity_unchanged(self):
        profile = profile_from(lambda t: 0.1 + t * t * 0.8)
        mirrored = FdiProfile(
            points=tuple((t, 1.0 - f) for t, f in profile.points), h=profile.h
        )
        for ours, theirs in zip(
            sensitivity(profile).points, sensitivity(mirrored).points
        ):
            assert ours.s == pytest.approx(theirs.s, abs=1e-12)

    def test_halving_step_quarters_interior_error(self):
        # Cubic profile: the central-difference error term is exactly h^2.
        def cubic(t):
            return t ** 3

        def max_interior_error(h):
            n = int(round(0.6 / h)) + 1
            profile = profile_from(cubic, t_min=0.2, n=n, h=h)
            sens = sensitivity(profile)
            return max(
                abs(p.s - 3 * p.threshold ** 2) for p in sens.points[1:-1]
            )

        ratio = max_interior_error(0.05) / max_interior_error(0.025)
        assert 3.5 < ratio < 4.5

    def test_sensitivity_never_negative(self):
        profile = profile_from(lambda t: abs(0.5 - t))
        assert all(p.s >= 0 for p in sensitivity(profile).points)


class TestClassifyZone:
    def test_defaults_table(self):
        assert classify_zone(0.0) is ZoneLabel.STABLE
        assert classify_zone(1.0) is ZoneLabel.AMPLIFIED_DISAGREEMENT
        assert classify_zone(2.0) is ZoneLabel.GOVERNANCE_FRAGILITY

    def test_boundaries_are_closed_above(self):
        zones = ZoneConfig(z1=0.25, z2=0.75, z3=1.5)
        assert classify_zone(0.25, zones) is ZoneLabel.SENSITIVE
        assert classify_zone(0.75, zones) is ZoneLabel.AMPLIFIED_DISAGREEMENT
        assert classify_zone(1.5, zones) is ZoneLabel.GOVERNANCE_FRAGILITY

    def test_negative_sensitivity_rejected(self):
        with pytest.raises(ValueError):
            classify_zone(-0.1)

    def test_non_increasing_boundaries_rejected(self):
        with pytest.raises(ConfigInvalidError):
            ZoneConfig(z1=0.5, z2=0.5, z3=1.0)

    def test_infinite_boundary_rejected(self):
        # z3 = inf would switch GovernanceFragility off.
        with pytest.raises(ConfigInvalidError, match="zone_boundaries"):
            ZoneConfig(z1=0.25, z2=0.75, z3=float("inf"))

    @given(st.floats(0, 5), st.floats(0, 5))
    def test_monotone_in_sensitivity(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert classify_zone(lo).severity <= classify_zone(hi).severity


class TestTszScalar:
    def sens(self, values):
        return SensitivityProfile(
            points=tuple(
                SensitivityPoint(0.1 * (i + 1), s, classify_zone(s))
                for i, s in enumerate(values)
            )
        )

    def test_mean_aggregation(self):
        assert tsz_scalar(self.sens([1.0, 1.0, 1.0]), "mean", 2.0).value == 0.5

    def test_zero_profile(self):
        assert tsz_scalar(self.sens([0.0, 0.0, 0.0])).value == 0.0

    def test_clipped_at_one(self):
        assert tsz_scalar(self.sens([5.0, 5.0, 5.0]), "mean", 2.0).value == 1.0

    def test_max_aggregation(self):
        assert tsz_scalar(self.sens([0.2, 1.0, 0.2]), "max", 2.0).value == 0.5

    def test_invalid_s_ref_rejected(self):
        with pytest.raises(ValueError):
            tsz_scalar(self.sens([0.1, 0.1, 0.1]), s_ref=0.0)

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValueError):
            tsz_scalar(self.sens([0.1, 0.1, 0.1]), aggregation="median")

    @pytest.mark.parametrize("s_ref", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_s_ref_rejected(self, s_ref):
        # Either would pass an `s_ref <= 0` check and score the most stable TSZ.
        profile = sensitivity(sweep(make_dataset()))
        with pytest.raises(DomainError, match="s_ref"):
            tsz_scalar(profile, "mean", s_ref)

    def test_worst_zone_picks_harshest(self):
        assert worst_zone(self.sens([0.1, 2.0, 0.1])) is ZoneLabel.GOVERNANCE_FRAGILITY
