"""Per-subgroup confusion counting, rate panels, and disparity gaps.

The decision rule is fixed: a sample is predicted positive iff its score
is greater than or equal to the threshold, so a threshold of 0 selects
everything. All functions here are pure; none touch shared state.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from itertools import repeat
from operator import attrgetter, sub
from typing import Iterable, Mapping, Sequence

from .errors import (
    DomainError,
    EmptyInputError,
    InsufficientSubgroupsError,
    MalformedSampleError,
)
from .record import Record

DEFAULT_MIN_SUPPORT = 30

EXCLUDE_BELOW_SUPPORT = "below_support"
EXCLUDE_UNDEFINED_RATE = "undefined_rate"

# Gap name -> the RatePanel attribute it spans, in the panel's field order.
GAP_METRICS: dict[str, str] = {
    "delta_fpr": "fpr",
    "delta_fnr": "fnr",
    "delta_tpr": "tpr",
    "delta_sr": "selection_rate",
}
_rates_of = attrgetter(*GAP_METRICS.values())  # a RatePanel's rates, in gap order


class Sample(Record):
    """One scored, labelled, subgroup-annotated prediction."""

    sample_id: str
    score: float
    label: int
    subgroup: str


class ConfusionCounts(Record):
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "tn", "fn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


class RatePanel(Record):
    """Rates for one subgroup; ``None`` marks a zero-denominator rate.

    ``fpr`` is defined iff the subgroup has negatives, ``fnr``/``tpr`` iff
    it has positives, ``selection_rate`` iff it has any samples. Undefined
    rates are values, never errors, and never NaN.
    """

    fpr: float | None
    fnr: float | None
    tpr: float | None
    selection_rate: float | None


class DisparityGaps(Record):
    """Max-minus-min spread of each rate across eligible subgroups.

    ``excluded_subgroups`` records, per excluded subgroup, why it was left
    out of at least one gap: ``below_support`` or ``undefined_rate``.
    """

    delta_fpr: float
    delta_fnr: float
    delta_tpr: float
    delta_sr: float
    excluded_subgroups: tuple[tuple[str, str], ...] = ()

    def value(self, gap: str) -> float:
        if gap not in GAP_METRICS:
            raise KeyError(f"unknown gap {gap!r}")
        return getattr(self, gap)


def _check_sample(sample: Sample) -> None:
    if not 0.0 <= sample.score <= 1.0:
        raise MalformedSampleError(
            sample.sample_id, f"score out of range [0, 1]: {sample.score!r}"
        )
    if sample.label not in (0, 1):
        raise MalformedSampleError(
            sample.sample_id, f"label must be 0 or 1, got {sample.label!r}"
        )
    if not sample.subgroup:
        raise MalformedSampleError(sample.sample_id, "subgroup is empty")


class Predictions:
    """Validated predictions held in columns, in input order.

    :func:`deployassure.io.parse_predictions` fills the columns as it
    checks the file, and :meth:`from_samples` checks each :class:`Sample`
    as it copies it in; nothing downstream checks a row again. Sample ids
    are checked on the way in but not kept: no result reads them.
    """

    __slots__ = ("scores", "labels", "subgroups")

    def __init__(self) -> None:
        self.scores = array("d")
        self.labels = bytearray()
        self.subgroups: list[str] = []

    def __len__(self) -> int:
        return len(self.scores)

    @classmethod
    def from_samples(cls, samples: Iterable[Sample]) -> Predictions:
        """Check each sample once and store it; a ``Predictions`` passes as is.

        Raises:
            MalformedSampleError: a score, label, or subgroup is out of
                domain (the first such sample, in input order).
        """
        if isinstance(samples, Predictions):
            return samples
        out = cls()
        for sample in samples:
            _check_sample(sample)
            out.scores.append(sample.score)
            out.labels.append(sample.label == 1)
            out.subgroups.append(sample.subgroup)
        return out


def check_threshold(threshold: float) -> None:
    """Raise :class:`DomainError` for a threshold outside [0, 1] or NaN."""
    if not 0.0 <= threshold <= 1.0:
        raise DomainError(f"threshold must lie in [0, 1], got {threshold!r}")


# (label, predicted) -> index of the cell in [tp, fp, tn, fn]
_CELL = {(1, True): 0, (0, True): 1, (0, False): 2, (1, False): 3}


def compute_confusion(
    samples: Predictions | Iterable[Sample], threshold: float
) -> dict[str, ConfusionCounts]:
    """Count tp/fp/tn/fn per subgroup at the given decision threshold.

    Every sample lands in exactly one cell of its subgroup's matrix;
    subgroups appear in first-seen order. A :class:`Predictions` is
    counted as it is; other samples pass through
    :meth:`Predictions.from_samples` first.

    Raises:
        EmptyInputError: the sample set is empty.
        MalformedSampleError: a score, label, or subgroup is out of domain.
        DomainError: threshold outside [0, 1].
    """
    check_threshold(threshold)
    predictions = Predictions.from_samples(samples)
    if not predictions:
        raise EmptyInputError("sample set is empty")

    # float.__le__ so that an int threshold compares too: t <= score.
    predicted = map(float(threshold).__le__, predictions.scores)
    tally = Counter(zip(predictions.subgroups, predictions.labels, predicted))
    cells: dict[str, list[int]] = {}
    for (group, label, positive), n in tally.items():
        cells.setdefault(group, [0, 0, 0, 0])[_CELL[label, positive]] += n
    return {
        group: ConfusionCounts(tp=c[0], fp=c[1], tn=c[2], fn=c[3])
        for group, c in cells.items()
    }


class ScoreIndex:
    """Per-subgroup sorted scores, for confusion counts at many thresholds.

    Building the index sorts each subgroup's negative and positive scores
    once, and keeps each sorted run as an ``array('d')``: 8 bytes a score
    rather than a boxed float and a list slot. :meth:`counts_below` then
    counts a subgroup's cells for a whole threshold grid at once, by
    ``bisect_left`` mapped over the grid: it counts the scores below
    ``t``, which are exactly the samples that ``score >= t`` predicts
    negative. A T-point sweep over N samples in G subgroups so costs
    O(N log N + T*G*log N): two bisections per subgroup and grid point,
    and no per-subgroup record, rather than T passes over every sample.
    Samples that are not a :class:`Predictions` pass through
    :meth:`Predictions.from_samples` first.

    Raises:
        EmptyInputError: the sample set is empty.
        MalformedSampleError: a score, label, or subgroup is out of domain.
    """

    def __init__(self, samples: Predictions | Iterable[Sample]) -> None:
        predictions = Predictions.from_samples(samples)
        # subgroup -> (negative scores, positive scores), indexed by label
        groups: dict[str, tuple[array, array]] = {}
        columns = (predictions.subgroups, predictions.labels, predictions.scores)
        for group, label, score in zip(*columns):
            by_label = groups.get(group)
            if by_label is None:
                by_label = groups[group] = (array("d"), array("d"))
            by_label[label].append(score)
        if not groups:
            raise EmptyInputError("sample set is empty")
        # One subgroup's scores are boxed at a time, to sort them.
        for group, by_label in groups.items():
            groups[group] = tuple(array("d", sorted(scores)) for scores in by_label)
        self._groups = groups

    def counts_below(
        self, thresholds: Sequence[float]
    ) -> dict[str, tuple[int, int, list[int], list[int]]]:
        """Per subgroup, in first-seen order: its counts of negatives and
        positives, and the columns of how many of each score below each
        threshold (``tn`` and ``fn``). Raises :class:`DomainError` for a
        threshold outside [0, 1].
        """
        for threshold in thresholds:
            check_threshold(threshold)
        return {
            group: (len(negatives), len(positives),
                    list(map(bisect_left, repeat(negatives), thresholds)),
                    list(map(bisect_left, repeat(positives), thresholds)))
            for group, (negatives, positives) in self._groups.items()
        }


def rate_columns(
    negatives: int, positives: int, tn: Sequence[int], fn: Sequence[int]
) -> tuple[list[float] | None, ...]:
    """A subgroup's rates at each point of its :meth:`ScoreIndex.counts_below`.

    fpr = fp/(fp+tn), fnr = fn/(fn+tp), tpr = tp/(tp+fn) and
    selection_rate = (tp+fp)/n, in :data:`GAP_METRICS` order; a zero
    denominator yields ``None`` for the column.
    """
    n = negatives + positives
    return (
        [(negatives - x) / negatives for x in tn] if negatives else None,
        [x / positives for x in fn] if positives else None,
        [(positives - x) / positives for x in fn] if positives else None,
        [(n - x - y) / n for x, y in zip(tn, fn)] if n else None,
    )


def eligible_columns(
    rates: Mapping[str, Sequence[Sequence[float] | None]],
    sizes: Mapping[str, int],
    min_support: int,
) -> tuple[list[list[Sequence[float]]], tuple[tuple[str, str], ...]]:
    """Per gap, the :func:`rate_columns` of its eligible subgroups; and the
    ``(subgroup, reason)`` exclusions, sorted.

    A subgroup takes part in a gap only if its size (0 if absent from
    ``sizes``) reaches ``min_support`` and the gap's rate is defined; an
    undefined rate excludes it from that gap only. Neither reads a
    threshold. Fewer than two eligible subgroups for any gap raise
    :class:`InsufficientSubgroupsError`, which names the gap.
    """
    excluded: dict[tuple[str, str], None] = {}
    by_gap = []
    for rate, gap_name in enumerate(GAP_METRICS):
        eligible = []
        for group, columns in rates.items():
            if sizes.get(group, 0) < min_support:
                excluded[(group, EXCLUDE_BELOW_SUPPORT)] = None
            elif columns[rate] is None:
                excluded[(group, EXCLUDE_UNDEFINED_RATE)] = None
            else:
                eligible.append(columns[rate])
        if len(eligible) < 2:
            detail = "; ".join(f"{g} {reason}" for (g, reason) in excluded)
            raise InsufficientSubgroupsError(
                gap_name,
                f"needs at least 2 eligible subgroups, found {len(eligible)}"
                + (f" ({detail})" if detail else ""),
            )
        by_gap.append(eligible)
    return by_gap, tuple(sorted(excluded))


def spread(columns: Sequence[Sequence[float]]) -> list[float]:
    """Max minus min across two or more columns, at each point."""
    return list(map(sub, map(max, *columns), map(min, *columns)))


def compute_rates(counts: ConfusionCounts) -> RatePanel:
    """Derive the rate panel from confusion counts (see :func:`rate_columns`)."""
    negatives, positives = counts.fp + counts.tn, counts.tp + counts.fn
    rates = rate_columns(negatives, positives, (counts.tn,), (counts.fn,))
    return RatePanel(*(None if rate is None else rate[0] for rate in rates))


def compute_gaps(
    rates: Mapping[str, RatePanel],
    counts: Mapping[str, int],
    min_support: int = DEFAULT_MIN_SUPPORT,
) -> DisparityGaps:
    """Max-minus-min disparity gaps across the subgroups of sizes ``counts``.

    Raises:
        InsufficientSubgroupsError: fewer than two eligible subgroups
            remain for some gap (see :func:`eligible_columns`).
    """
    columns = {
        group: [None if rate is None else (rate,) for rate in _rates_of(panel)]
        for group, panel in rates.items()
    }
    by_gap, excluded = eligible_columns(columns, counts, min_support)
    return DisparityGaps(*(spread(e)[0] for e in by_gap), excluded_subgroups=excluded)


def subgroup_sizes(confusion: Mapping[str, ConfusionCounts]) -> dict[str, int]:
    """Per-subgroup sample counts, as needed by :func:`compute_gaps`."""
    return {group: c.total for group, c in confusion.items()}


def macro_mean(rates: Mapping[str, RatePanel], attr: str) -> float | None:
    """Unweighted mean of a rate over the subgroups where it is defined."""
    defined = [
        getattr(panel, attr) for panel in rates.values()
        if getattr(panel, attr) is not None
    ]
    if not defined:
        return None
    return sum(defined) / len(defined)
