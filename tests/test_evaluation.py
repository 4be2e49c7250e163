"""Tests for confusion counting, rate panels, and disparity gaps."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deployassure import (
    ConfusionCounts,
    DomainError,
    EmptyInputError,
    EngineError,
    InsufficientSubgroupsError,
    MalformedSampleError,
    RatePanel,
    Sample,
    compute_confusion,
    compute_gaps,
    compute_rates,
    macro_mean,
    subgroup_sizes,
)
from deployassure.evaluation import Predictions, ScoreIndex

from conftest import confusions_below, random_samples
from oracles import naive_confusion


def brute_force_confusion(samples, threshold):
    """Independent recount: tally (subgroup, label, predicted) triples."""
    tally = Counter(
        (s.subgroup, s.label, s.score >= threshold) for s in samples
    )
    out = {}
    for group in {s.subgroup for s in samples}:
        out[group] = ConfusionCounts(
            tp=tally[(group, 1, True)],
            fp=tally[(group, 0, True)],
            tn=tally[(group, 0, False)],
            fn=tally[(group, 1, False)],
        )
    return out


@st.composite
def sample_sets(draw, min_size=1, max_size=60, max_groups=4):
    n_groups = draw(st.integers(1, max_groups))
    n = draw(st.integers(min_size, max_size))
    return [
        Sample(
            sample_id=f"s{i}",
            score=draw(st.floats(0, 1)),
            label=draw(st.integers(0, 1)),
            subgroup=f"g{draw(st.integers(0, n_groups - 1))}",
        )
        for i in range(n)
    ]


# Three-decimal scores, as a model that rounds its outputs would emit:
# many samples share each score, so ``score >= t`` is tested on exact ties.
three_decimal_scores = st.integers(0, 1000).map(lambda k: k / 1000)


@st.composite
def tied_sample_sets(draw):
    pool = draw(st.lists(three_decimal_scores, min_size=1, max_size=6))
    n_groups = draw(st.integers(1, 4))
    return [
        Sample(
            sample_id=f"s{i}",
            score=draw(st.sampled_from(pool)),
            label=draw(st.integers(0, 1)),
            subgroup=f"g{draw(st.integers(0, n_groups - 1))}",
        )
        for i in range(draw(st.integers(1, 80)))
    ]


@st.composite
def degenerate_subgroup_sets(draw):
    """Every subgroup has a single member or a single label."""
    samples = []
    for g in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("one member", "all positive", "all negative")))
        if kind == "one member":
            labels = [draw(st.integers(0, 1))]
        else:
            labels = [int(kind == "all positive")] * draw(st.integers(1, 10))
        for label in labels:
            samples.append(
                Sample(f"s{len(samples)}", draw(three_decimal_scores), label, f"g{g}")
            )
    return samples


def thresholds_at_scores(samples):
    """Each score, its float neighbours inside [0, 1], and both ends."""
    out = {0.0, 1.0}
    for s in samples:
        for t in (s.score, math.nextafter(s.score, 0.0), math.nextafter(s.score, 1.0)):
            out.add(t)
    return sorted(out)


def assert_index_matches_oracle(samples, thresholds):
    # One counts_below call over the whole list, as sweep makes it.
    confusions = confusions_below(ScoreIndex(samples), thresholds)
    assert len(confusions) == len(thresholds)
    for t, confusion in zip(thresholds, confusions):
        # items(), not the dicts: the subgroup order must match as well.
        expected = list(compute_confusion(samples, t).items())
        assert list(confusion.items()) == expected
        assert list(naive_confusion(samples, t).items()) == expected


class TestScoreIndex:
    """The sort-once index against the single-pass counter as oracle."""

    @given(sample_sets(), st.lists(st.floats(0, 1), min_size=1, max_size=10))
    @settings(max_examples=80, deadline=None)
    def test_random_sets(self, samples, thresholds):
        assert_index_matches_oracle(samples, thresholds)

    @given(tied_sample_sets())
    @settings(max_examples=80, deadline=None)
    def test_tied_scores_at_every_score(self, samples):
        assert_index_matches_oracle(samples, thresholds_at_scores(samples))

    @given(degenerate_subgroup_sets())
    @settings(max_examples=80, deadline=None)
    def test_single_label_and_single_member_subgroups(self, samples):
        assert_index_matches_oracle(samples, thresholds_at_scores(samples))

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            ScoreIndex([])

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
    def test_threshold_out_of_range(self, threshold):
        index = ScoreIndex([Sample("s1", 0.5, 1, "A")])
        with pytest.raises(DomainError):
            index.counts_below([threshold])
        with pytest.raises(DomainError):  # anywhere in the list
            index.counts_below([0.0, 0.5, threshold, 1.0])
        with pytest.raises(DomainError):
            compute_confusion([Sample("s1", 0.5, 1, "A")], threshold)

    @pytest.mark.parametrize(
        "bad",
        [
            Sample("bad1", 1.5, 1, "A"),
            Sample("bad2", float("nan"), 0, "A"),
            Sample("bad3", 0.5, 2, "A"),
            Sample("bad4", 0.5, 1, ""),
        ],
    )
    def test_malformed_sample_names_offender(self, bad):
        with pytest.raises(MalformedSampleError) as excinfo:
            ScoreIndex([Sample("ok", 0.5, 1, "A"), bad, Sample("bad9", 2.0, 1, "A")])
        assert excinfo.value.sample_id == bad.sample_id


class TestPredictions:
    """Columnar counting against the naive per-sample loop as oracle."""

    @given(tied_sample_sets())
    @settings(max_examples=80, deadline=None)
    def test_counts_match_naive_loop_on_ties(self, samples):
        predictions = Predictions.from_samples(samples)
        thresholds = thresholds_at_scores(samples)
        confusions = confusions_below(ScoreIndex(predictions), thresholds)
        for t, confusion in zip(thresholds, confusions):
            expected = list(naive_confusion(samples, t).items())
            # items(), not the dicts: the subgroup order must match as well.
            assert list(compute_confusion(predictions, t).items()) == expected
            assert list(confusion.items()) == expected

    @given(sample_sets(), st.integers(0, 1000).map(lambda k: k / 1000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_and_samples_path(self, samples, threshold):
        predictions = Predictions.from_samples(samples)
        columns = (predictions.scores, predictions.labels, predictions.subgroups)
        assert [list(column) for column in columns] == [
            [s.score for s in samples],
            [s.label for s in samples],
            [s.subgroup for s in samples],
        ]
        assert len(predictions) == len(samples)
        assert Predictions.from_samples(predictions) is predictions
        assert list(compute_confusion(samples, threshold).items()) == list(
            naive_confusion(samples, threshold).items()
        )

    @given(
        st.lists(
            st.builds(
                Sample,
                st.sampled_from(("s1", "s2", "s3")),
                st.sampled_from((0.0, 0.5, 1, 1.5, -0.1, float("nan"))),
                st.sampled_from((0, 1, True, 1.0, 2, -1)),
                st.sampled_from(("A", "B", "")),
            ),
            max_size=6,
        ),
        st.sampled_from((0, 0.5, 1.0, 1.5)),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_first_error_as_naive_loop(self, samples, threshold):
        def outcome(count):
            try:
                return "ok", list(count(samples, threshold).items())
            except EngineError as exc:
                return type(exc), str(exc), getattr(exc, "sample_id", None)

        expected = outcome(naive_confusion)
        assert outcome(compute_confusion) == expected
        if threshold <= 1.0:  # the index is built, and checked, before any threshold
            counted = outcome(lambda s, t: confusions_below(ScoreIndex(s), [t])[0])
            assert counted == expected


class TestComputeConfusion:
    def test_hand_counted_example(self):
        samples = [
            Sample("s1", 0.9, 1, "A"),
            Sample("s2", 0.1, 0, "A"),
            Sample("s3", 0.8, 0, "B"),
            Sample("s4", 0.3, 1, "B"),
        ]
        counts = compute_confusion(samples, 0.5)
        assert counts["A"] == ConfusionCounts(tp=1, fp=0, tn=1, fn=0)
        assert counts["B"] == ConfusionCounts(tp=0, fp=1, tn=0, fn=1)

    def test_high_threshold_predicts_all_negative(self):
        samples = [
            Sample("s1", 0.9, 1, "A"),
            Sample("s2", 0.1, 0, "A"),
            Sample("s3", 0.8, 0, "B"),
            Sample("s4", 0.3, 1, "B"),
        ]
        counts = compute_confusion(samples, 0.95)
        assert counts["A"] == ConfusionCounts(tp=0, fp=0, tn=1, fn=1)
        assert counts["B"] == ConfusionCounts(tp=0, fp=0, tn=1, fn=1)

    def test_threshold_zero_predicts_all_positive(self):
        """score >= 0 always holds, so t=0 selects everything."""
        samples = [Sample("s1", 0.0, 0, "A"), Sample("s2", 1.0, 1, "A")]
        counts = compute_confusion(samples, 0.0)
        assert counts["A"] == ConfusionCounts(tp=1, fp=1, tn=0, fn=0)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            compute_confusion([], 0.5)

    def test_threshold_out_of_range(self):
        with pytest.raises(ValueError):
            compute_confusion([Sample("s1", 0.5, 1, "A")], 1.5)

    @pytest.mark.parametrize(
        "bad",
        [
            Sample("bad1", 1.5, 1, "A"),
            Sample("bad2", -0.1, 0, "A"),
            Sample("bad3", float("nan"), 0, "A"),
            Sample("bad4", 0.5, 2, "A"),
            Sample("bad5", 0.5, 1, ""),
        ],
    )
    def test_malformed_sample_names_offender(self, bad):
        with pytest.raises(MalformedSampleError) as excinfo:
            compute_confusion([Sample("ok", 0.5, 1, "A"), bad], 0.5)
        assert bad.sample_id in str(excinfo.value)

    @given(sample_sets(), st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_cells_sum_to_sample_count(self, samples, threshold):
        counts = compute_confusion(samples, threshold)
        assert sum(c.total for c in counts.values()) == len(samples)

    @given(sample_sets(), st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_recount(self, samples, threshold):
        assert compute_confusion(samples, threshold) == brute_force_confusion(
            samples, threshold
        )

    @given(sample_sets(min_size=2), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_selection_rate_monotone_in_threshold(self, samples, t1, t2):
        """Raising the threshold never selects more."""
        lo, hi = min(t1, t2), max(t1, t2)
        at_lo = compute_confusion(samples, lo)
        at_hi = compute_confusion(samples, hi)
        for group in at_lo:
            assert (at_hi[group].tp + at_hi[group].fp) <= (
                at_lo[group].tp + at_lo[group].fp
            )


class TestComputeRates:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1)

    def test_hand_arithmetic(self):
        panel = compute_rates(ConfusionCounts(tp=1, tn=1))
        assert panel == RatePanel(fpr=0.0, fnr=0.0, tpr=1.0, selection_rate=0.5)

    def test_empty_subgroup_all_undefined(self):
        panel = compute_rates(ConfusionCounts())
        assert panel == RatePanel(fpr=None, fnr=None, tpr=None, selection_rate=None)

    def test_zero_denominators_partial(self):
        panel = compute_rates(ConfusionCounts(tn=2))
        assert panel == RatePanel(fpr=0.0, fnr=None, tpr=None, selection_rate=0.0)

    @given(
        st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)
    )
    def test_defined_rates_within_unit_interval(self, tp, fp, tn, fn):
        panel = compute_rates(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
        for value in (panel.fpr, panel.fnr, panel.tpr, panel.selection_rate):
            if value is not None:
                assert 0.0 <= value <= 1.0
                assert value == value  # never NaN


class TestComputeGaps:
    def test_two_group_subtraction(self):
        rates = {
            "A": RatePanel(0.10, 0.0, 1.0, 0.5),
            "B": RatePanel(0.4043, 0.0, 1.0, 0.5),
        }
        gaps = compute_gaps(rates, {"A": 100, "B": 100})
        assert gaps.delta_fpr == pytest.approx(0.3043, abs=1e-12)
        assert gaps.excluded_subgroups == ()

    def test_unknown_gap_name_rejected(self):
        panel = RatePanel(0.2, 0.2, 0.8, 0.5)
        gaps = compute_gaps({g: panel for g in "AB"}, {g: 50 for g in "AB"})
        with pytest.raises(KeyError, match="unknown gap 'delta_xyz'"):
            gaps.value("delta_xyz")

    def test_identical_rates_give_zero(self):
        panel = RatePanel(0.2, 0.2, 0.8, 0.5)
        gaps = compute_gaps({g: panel for g in "ABC"}, {g: 50 for g in "ABC"})
        assert gaps.delta_fpr == 0.0
        assert gaps.delta_fnr == 0.0

    def test_below_support_excluded_and_reported(self):
        rates = {
            "A": RatePanel(0.1, 0.1, 0.9, 0.5),
            "B": RatePanel(0.9, 0.9, 0.1, 0.5),
        }
        with pytest.raises(InsufficientSubgroupsError) as excinfo:
            compute_gaps(rates, {"A": 100, "B": 5}, min_support=30)
        assert excinfo.value.gap == "delta_fpr"
        assert "below_support" in str(excinfo.value)

    def test_undefined_rate_excludes_from_that_gap_only(self):
        # C has no positives: fnr/tpr undefined, but its fpr still counts.
        rates = {
            "A": RatePanel(0.1, 0.2, 0.8, 0.5),
            "B": RatePanel(0.3, 0.4, 0.6, 0.5),
            "C": RatePanel(0.9, None, None, 0.4),
        }
        gaps = compute_gaps(rates, {g: 50 for g in "ABC"})
        assert gaps.delta_fpr == pytest.approx(0.8)
        assert gaps.delta_fnr == pytest.approx(0.2)
        assert ("C", "undefined_rate") in gaps.excluded_subgroups

    def test_gap_invariant_under_relabel_and_reorder(self):
        rng = random.Random(3)
        samples = random_samples(rng, 120, 3)
        base_counts = compute_confusion(samples, 0.4)
        base = compute_gaps(
            {g: compute_rates(c) for g, c in base_counts.items()},
            subgroup_sizes(base_counts),
            min_support=1,
        )

        renamed = [
            Sample(s.sample_id, s.score, s.label, "x" + s.subgroup)
            for s in samples
        ]
        rng.shuffle(renamed)
        other_counts = compute_confusion(renamed, 0.4)
        other = compute_gaps(
            {g: compute_rates(c) for g, c in other_counts.items()},
            subgroup_sizes(other_counts),
            min_support=1,
        )
        assert other.delta_fpr == base.delta_fpr
        assert other.delta_fnr == base.delta_fnr
        assert other.delta_tpr == base.delta_tpr
        assert other.delta_sr == base.delta_sr

    @given(
        st.one_of(sample_sets(max_size=30), degenerate_subgroup_sets()),
        st.integers(1, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_eligibility_is_the_same_at_every_threshold(self, samples, min_support):
        # Sizes and label counts, all that eligibility reads, do not move
        # with the threshold: gaps fail at every threshold or at none.
        outcomes = set()
        thresholds = thresholds_at_scores(samples)
        for confusion in confusions_below(ScoreIndex(samples), thresholds):
            rates = {g: compute_rates(c) for g, c in confusion.items()}
            try:
                gaps = compute_gaps(rates, subgroup_sizes(confusion), min_support)
            except InsufficientSubgroupsError as exc:
                outcomes.add(("raised", str(exc)))
            else:
                outcomes.add(("excluded", gaps.excluded_subgroups))
        assert len(outcomes) == 1


def test_macro_mean_skips_undefined():
    rates = {
        "A": RatePanel(0.2, None, None, 0.5),
        "B": RatePanel(0.4, 0.3, 0.7, 0.5),
    }
    assert macro_mean(rates, "fpr") == pytest.approx(0.3)
    assert macro_mean(rates, "fnr") == pytest.approx(0.3)
    assert macro_mean({"A": RatePanel(None, None, None, None)}, "fpr") is None
