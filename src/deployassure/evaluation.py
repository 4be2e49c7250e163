"""Per-subgroup confusion counting, rate panels, and disparity gaps.

The decision rule is fixed: a sample is predicted positive iff its score
is greater than or equal to the threshold, so a threshold of 0 selects
everything. All functions here are pure; none touch shared state.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import chain, repeat
from operator import attrgetter, ge, sub
from typing import Iterable, Iterator, Mapping, Sequence

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


class _Codes(dict):
    """Subgroup name -> code; a name not seen before takes the next code and
    joins ``names``, so ``names[code]`` is the code's name."""

    def __init__(self, names: list[str]) -> None:
        self.names = names

    def __missing__(self, name: str) -> int:
        code = self[name] = len(self)
        self.names.append(name)
        return code


class Predictions:
    """Validated predictions held in columns, in input order.

    A row's subgroup is held as its code in ``codes``, which indexes
    ``names``, the subgroups in first-seen order: 4 bytes a row, and one
    string per subgroup. :func:`deployassure.io.parse_predictions` fills
    the columns as it checks the file, and :meth:`from_samples` checks
    each :class:`Sample` as it copies it in; nothing downstream checks a
    row again. Sample ids are checked on the way in but not kept: no
    result reads them.
    """

    __slots__ = ("scores", "labels", "codes", "names", "_codes")

    def __init__(self) -> None:
        self.scores = array("d")
        self.labels = bytearray()
        self.codes = array("I")
        self.names: list[str] = []
        self._codes = _Codes(self.names)

    def __len__(self) -> int:
        return len(self.scores)

    def extend(
        self, scores: Iterable[float], labels: Iterable[int], subgroups: Iterable[str]
    ) -> None:
        """Append checked columns, coding each subgroup in the same pass."""
        self.scores.extend(scores)
        self.labels.extend(labels)
        self.codes.extend(map(self._codes.__getitem__, subgroups))

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
            out.codes.append(out._codes[sample.subgroup])
        return out


def check_threshold(threshold: float) -> None:
    """Raise :class:`DomainError` for a threshold outside [0, 1] or NaN."""
    if not 0.0 <= threshold <= 1.0:
        raise DomainError(f"threshold must lie in [0, 1], got {threshold!r}")


# Rows per chunk of row_keys. Its ints and byte copies take 4 bytes a row
# each: over a whole 10^6-row column they took evaluate to 57 MB, from 32.
_KEY_ROWS = 1 << 16


def row_keys(
    codes: array, flags: Sequence[bytes], byteorder: str = sys.byteorder
) -> Iterator[array]:
    """Each row's code with its 0/1 ``flags`` appended as low bits, as an
    ``array('I')`` per ``_KEY_ROWS`` rows: ``code * 4 + label * 2 +
    predicted`` for the flags ``(labels, predicted)``.

    A chunk is worked whole, with no Python code per row: its codes'
    bytes (4-byte lanes, read in ``byteorder``) are one int, shifted up a
    bit per flag, and each flag column, spread into the lanes' low bytes
    by a stride slice assignment, is or-ed in. No lane carries into the
    next while every code is below ``2**(32 - len(flags))``.
    """
    width = codes.itemsize
    low = slice(width - 1 if byteorder == "big" else 0, None, width)
    for start in range(0, len(codes), _KEY_ROWS):
        rows = slice(start, start + _KEY_ROWS)
        part = codes[rows]
        keys = int.from_bytes(part, byteorder)
        lanes = bytearray(width * len(part))
        for flag in flags:
            lanes[low] = flag[rows]
            keys = keys << 1 | int.from_bytes(lanes, byteorder)
        part = array("I", keys.to_bytes(len(lanes), byteorder))
        if byteorder != sys.byteorder:
            part.byteswap()
        yield part


# A row's cell as label * 2 + predicted, in ConfusionCounts' field order.
_CELLS = (3, 1, 0, 2)  # tp, fp, tn, fn


def compute_confusion(
    samples: Predictions | Iterable[Sample], threshold: float
) -> dict[str, ConfusionCounts]:
    """Count tp/fp/tn/fn per subgroup at the given decision threshold.

    Every sample lands in exactly one cell of its subgroup's matrix;
    subgroups appear in first-seen order. A :class:`Predictions` is
    counted as it is; other samples pass through
    :meth:`Predictions.from_samples` first. One ``Counter`` tallies each
    row's :func:`row_keys` key, which names its subgroup and its cell.

    Raises:
        EmptyInputError: the sample set is empty.
        MalformedSampleError: a score, label, or subgroup is out of domain.
        DomainError: threshold outside [0, 1].
    """
    check_threshold(threshold)
    predictions = Predictions.from_samples(samples)
    if not predictions:
        raise EmptyInputError("sample set is empty")

    predicted = bytes(map(ge, predictions.scores, repeat(threshold)))
    flags = (predictions.labels, predicted)
    tally = Counter(chain.from_iterable(row_keys(predictions.codes, flags)))
    return {
        group: ConfusionCounts(*(tally[4 * code + cell] for cell in _CELLS))
        for code, group in enumerate(predictions.names)
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
        if not predictions:
            raise EmptyInputError("sample set is empty")
        # Bucket code * 2 + label: a subgroup's negative, then positive scores.
        buckets = [array("d") for _ in range(2 * len(predictions.names))]
        keys = chain.from_iterable(row_keys(predictions.codes, (predictions.labels,)))
        for key, score in zip(keys, predictions.scores):
            buckets[key].append(score)
        # One bucket's scores are boxed at a time, to sort them.
        for key, bucket in enumerate(buckets):
            buckets[key] = array("d", sorted(bucket))
        self._groups = {
            group: (buckets[2 * code], buckets[2 * code + 1])
            for code, group in enumerate(predictions.names)
        }

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
