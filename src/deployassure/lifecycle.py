"""Governance-state machine over ordered snapshot assessments.

Transition semantics:

* the per-snapshot target is the stateless readiness classification,
  capped at EscalatedGovernance when the snapshot's threshold sweep hit
  the GovernanceFragility zone;
* degradations (target less favorable than the current state) are adopted
  immediately and are never gated;
* recoveries require a remediation event and a score that clears the
  destination band's lower boundary by the hysteresis margin; with
  recovery gating on (the default) favorability improves at most one
  level per step, and the first move out of BlockedDeployment can land
  no higher than ReassessmentRequired.

Replays fold these rules over a snapshot sequence, fill in the
assurance-score delta between consecutive snapshots, and serialise to a
fixed-column CSV or JSON trace whose bytes are reproducible.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from typing import Any, Iterable, Sequence, TextIO

from .assurance import (
    BY_FAVORABILITY,
    DEFAULT_BANDS,
    DEFAULT_GES_THRESHOLDS,
    DEFAULT_WEIGHTS,
    AssuranceSignals,
    DeploymentState,
    DrcBands,
    EscalationLevel,
    GesThresholds,
    WeightVector,
    classify_drc,
    compute_das,
    compute_ges,
    fragility_cap,
    less_favorable,
    remediation_progression,
)
from .errors import ConfigInvalidError, EmptySequenceError
from .fingerprint import canonical_fingerprint

REASON_DAS_BAND = "das_band_change"
REASON_FRAGILITY = "fragility_override"
REASON_RECOVERY_GATED = "recovery_gated"
REASON_FAILED_REMEDIATION = "failed_remediation"

DEFAULT_INITIAL_STATE = DeploymentState.REASSESSMENT_REQUIRED
DEFAULT_HYSTERESIS = 0.02

TRACE_COLUMNS = (
    "snapshot_id",
    "fdi",
    "delta_fpr",
    "delta_fnr",
    "tsz",
    "das",
    "ges",
    "stateless_drc",
    "governed_state",
    "transition",
    "r_p",
)


@dataclass(frozen=True)
class RulesConfig:
    """Scoring and replay inputs: bands, gating, hysteresis, weights, GES cuts."""

    bands: DrcBands = DEFAULT_BANDS
    recovery_gating: bool = True
    hysteresis: float = DEFAULT_HYSTERESIS
    weights: WeightVector = DEFAULT_WEIGHTS
    ges_thresholds: GesThresholds = DEFAULT_GES_THRESHOLDS

    def __post_init__(self) -> None:
        if not 0 <= self.hysteresis < math.inf:  # NaN fails too
            raise ConfigInvalidError(
                f"hysteresis: must be finite and >= 0, got {self.hysteresis!r}"
            )

    def fingerprint(self) -> str:
        return canonical_fingerprint(self)


@dataclass(frozen=True)
class SnapshotAssessment:
    """One snapshot's signals plus its derived scores and classifications."""

    snapshot_id: str
    signals: AssuranceSignals
    das: float
    stateless_drc: DeploymentState
    ges: EscalationLevel
    r_p: float | None = None


@dataclass(frozen=True)
class TransitionRecord:
    from_state: DeploymentState
    to_state: DeploymentState
    trigger_reasons: tuple[str, ...]
    r_p: float | None = None

    def __post_init__(self) -> None:
        if self.from_state is not self.to_state and not self.trigger_reasons:
            raise ValueError("a state change requires at least one trigger reason")


@dataclass(frozen=True)
class TraceEntry:
    assessment: SnapshotAssessment
    governed_state: DeploymentState
    transition: TransitionRecord | None


@dataclass(frozen=True)
class GovernanceTrace:
    entries: tuple[TraceEntry, ...]
    config_fingerprint: str


def _backfill_r_m(signals: AssuranceSignals, r_p: float | None) -> AssuranceSignals:
    """Give a remediation event with no explicit ``r_m`` its ``r_p``."""
    if signals.remediation_event and signals.r_m is None and r_p is not None:
        return replace(signals, r_m=r_p)
    return signals


def build_assessments(
    rows: Iterable[tuple[str, AssuranceSignals]],
    rules: RulesConfig = RulesConfig(),
) -> list[SnapshotAssessment]:
    """Score an ordered signal sequence into snapshot assessments.

    The assurance-score delta between consecutive snapshots becomes each
    snapshot's ``r_p``; on a remediation event with no explicit
    effectiveness value, that delta also backfills ``r_m`` before the
    escalation level is computed.
    """
    assessments: list[SnapshotAssessment] = []
    prev_das: float | None = None
    for snapshot_id, signals in rows:
        das = compute_das(signals, rules.weights)
        r_p = None if prev_das is None else remediation_progression(prev_das, das)
        signals = _backfill_r_m(signals, r_p)
        assessments.append(
            SnapshotAssessment(
                snapshot_id=snapshot_id,
                signals=signals,
                das=das,
                stateless_drc=classify_drc(das, rules.bands),
                ges=compute_ges(signals, rules.ges_thresholds),
                r_p=r_p,
            )
        )
        prev_das = das
    return assessments


def step(
    current: DeploymentState,
    assessment: SnapshotAssessment,
    rules: RulesConfig = RulesConfig(),
) -> tuple[DeploymentState, TransitionRecord | None]:
    """Advance the governed state by one snapshot.

    Returns the new state and a transition record, or ``(current, None)``
    when the state holds (same band, or an ungated/unearned recovery).
    A failed remediation is read from ``signals.r_m`` alone: the ``r_p``
    backfill of a missing ``r_m`` (see :func:`replay`) happens before
    ``step`` is called.
    """
    band_state = assessment.stateless_drc
    target = fragility_cap(band_state, assessment.signals.worst_zone)

    if target.favorability < current.favorability:
        reasons: list[str] = []
        if band_state.favorability < current.favorability:
            reasons.append(REASON_DAS_BAND)
        if target.favorability < band_state.favorability:
            reasons.append(REASON_FRAGILITY)
        r_m = assessment.signals.r_m
        if r_m is not None and r_m < 0:
            reasons.append(REASON_FAILED_REMEDIATION)
        record = TransitionRecord(
            from_state=current,
            to_state=target,
            trigger_reasons=tuple(reasons),
            r_p=assessment.r_p,
        )
        return target, record

    if target.favorability > current.favorability:
        if not assessment.signals.remediation_event:
            return current, None
        destination = target
        if rules.recovery_gating:
            destination = BY_FAVORABILITY[current.favorability + 1]
            if current is DeploymentState.BLOCKED_DEPLOYMENT:
                destination = less_favorable(
                    destination, DeploymentState.REASSESSMENT_REQUIRED
                )
        if assessment.das < rules.bands.floor(destination) + rules.hysteresis:
            return current, None
        reason = REASON_RECOVERY_GATED if rules.recovery_gating else REASON_DAS_BAND
        record = TransitionRecord(
            from_state=current,
            to_state=destination,
            trigger_reasons=(reason,),
            r_p=assessment.r_p,
        )
        return destination, record

    return current, None


def replay(
    assessments: Sequence[SnapshotAssessment],
    initial_state: DeploymentState = DEFAULT_INITIAL_STATE,
    rules: RulesConfig = RulesConfig(),
) -> GovernanceTrace:
    """Fold the transition rules over an ordered assessment sequence.

    Missing ``r_p`` values are computed from consecutive assurance scores
    (the first snapshot never has one), and a remediation event without an
    explicit effectiveness value inherits that delta. Each assessment's
    stateless classification must agree with the active bands.

    Raises:
        EmptySequenceError: no assessments supplied.
        ValueError: an assessment's stateless classification is
            inconsistent with the replay's bands.
    """
    if not assessments:
        raise EmptySequenceError("no assessments to replay")

    entries: list[TraceEntry] = []
    current = initial_state
    prev_das: float | None = None
    for assessment in assessments:
        expected = classify_drc(assessment.das, rules.bands)
        if expected is not assessment.stateless_drc:
            raise ValueError(
                f"snapshot {assessment.snapshot_id!r}: stateless_drc "
                f"{assessment.stateless_drc.value} does not match "
                f"{expected.value} under the active bands"
            )
        if assessment.r_p is None and prev_das is not None:
            r_p = remediation_progression(prev_das, assessment.das)
            assessment = replace(assessment, r_p=r_p)
        signals = _backfill_r_m(assessment.signals, assessment.r_p)
        if signals is not assessment.signals:
            assessment = replace(assessment, signals=signals)
        current, record = step(current, assessment, rules)
        entries.append(
            TraceEntry(
                assessment=assessment, governed_state=current, transition=record
            )
        )
        prev_das = assessment.das
    return GovernanceTrace(
        entries=tuple(entries), config_fingerprint=rules.fingerprint()
    )


def format_real(value: float) -> str:
    """Render a real with 4 decimal places, ties to even."""
    return f"{value:.4f}"


def _round4(value: float | None) -> float | None:
    """:func:`format_real`'s rounding as a float; ``None`` passes through."""
    return None if value is None else float(format_real(value))


class _LineFeedRows:
    r"""Write target that ends each CSV row in ``\n`` rather than ``\r\n``."""

    def __init__(self, stream: TextIO) -> None:
        self._stream = stream

    def write(self, row: str) -> int:
        return self._stream.write(row[:-2] + "\n")


def csv_writer(stream: TextIO) -> Any:
    r"""A ``csv.writer`` onto ``stream`` whose rows end in ``\n``.

    The csv module quotes a field only for the characters of its own line
    terminator, so a ``lineterminator="\n"`` writer leaves a field holding
    a lone ``\r`` bare, and readers split the row there. This writer keeps
    the default ``\r\n`` terminator, so such fields are quoted, and cuts
    each row's terminator to ``\n`` on the way out; the csv module hands
    over one whole row per ``write`` call.
    """
    return csv.writer(_LineFeedRows(stream))


def _transition_cell(record: TransitionRecord | None) -> str:
    if record is None:
        return ""
    reasons = "|".join(record.trigger_reasons)
    return f"{record.from_state.value}->{record.to_state.value}[{reasons}]"


def emit_trace(trace: GovernanceTrace, format: str = "csv") -> bytes:
    """Serialise a trace deterministically to CSV or JSON bytes.

    The CSV column order is fixed; reals carry 4 decimal places. Repeated
    serialisation of the same trace is byte-identical.
    """
    if format == "csv":
        buffer = io.StringIO()
        writer = csv_writer(buffer)
        writer.writerow(TRACE_COLUMNS)
        for entry in trace.entries:
            a = entry.assessment
            writer.writerow(
                [
                    a.snapshot_id,
                    format_real(a.signals.fdi),
                    format_real(a.signals.delta_fpr),
                    format_real(a.signals.delta_fnr),
                    format_real(a.signals.tsz),
                    format_real(a.das),
                    a.ges.value,
                    a.stateless_drc.value,
                    entry.governed_state.value,
                    _transition_cell(entry.transition),
                    "" if a.r_p is None else format_real(a.r_p),
                ]
            )
        return buffer.getvalue().encode("utf-8")
    if format == "json":
        payload = {
            "config_fingerprint": trace.config_fingerprint,
            "entries": [
                {
                    "snapshot_id": e.assessment.snapshot_id,
                    "fdi": _round4(e.assessment.signals.fdi),
                    "delta_fpr": _round4(e.assessment.signals.delta_fpr),
                    "delta_fnr": _round4(e.assessment.signals.delta_fnr),
                    "tsz": _round4(e.assessment.signals.tsz),
                    "das": _round4(e.assessment.das),
                    "ges": e.assessment.ges.value,
                    "stateless_drc": e.assessment.stateless_drc.value,
                    "governed_state": e.governed_state.value,
                    "transition": None
                    if e.transition is None
                    else {
                        "from_state": e.transition.from_state.value,
                        "to_state": e.transition.to_state.value,
                        "trigger_reasons": list(e.transition.trigger_reasons),
                        "r_p": _round4(e.transition.r_p),
                    },
                    "r_p": _round4(e.assessment.r_p),
                }
                for e in trace.entries
            ],
        }
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
