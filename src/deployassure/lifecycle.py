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
:func:`fold_trace` applies the same rules to validated signal rows in one
pass, with no per-snapshot objects, and gives the same bytes.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
from typing import Any, Iterable, Iterator, Sequence, TextIO

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
    band_of,
    classify_drc,
    compute_das,
    compute_ges,
    das_of,
    fragility_cap,
    ges_of,
    remediation_progression,
)
from .errors import ConfigInvalidError, EmptySequenceError
from .io import _BLOCK_ROWS
from .record import Record, canonical_fingerprint, replace
from .stability import ZoneLabel

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


class RulesConfig(Record):
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


class SnapshotAssessment(Record):
    """One snapshot's signals plus its derived scores and classifications."""

    snapshot_id: str
    signals: AssuranceSignals
    das: float
    stateless_drc: DeploymentState
    ges: EscalationLevel
    r_p: float | None = None


class TransitionRecord(Record):
    from_state: DeploymentState
    to_state: DeploymentState
    trigger_reasons: tuple[str, ...]
    r_p: float | None = None

    def __post_init__(self) -> None:
        if self.from_state is not self.to_state and not self.trigger_reasons:
            raise ValueError("a state change requires at least one trigger reason")


class TraceEntry(Record):
    assessment: SnapshotAssessment
    governed_state: DeploymentState
    transition: TransitionRecord | None


class GovernanceTrace(Record):
    entries: tuple[TraceEntry, ...]
    config_fingerprint: str


def _backfilled_r_m(
    remediation_event: bool, r_m: float | None, r_p: float | None
) -> float | None:
    """A remediation event with no explicit ``r_m`` takes its ``r_p``."""
    return r_p if remediation_event and r_m is None else r_m


def _backfill_r_m(signals: AssuranceSignals, r_p: float | None) -> AssuranceSignals:
    r_m = _backfilled_r_m(signals.remediation_event, signals.r_m, r_p)
    return signals if r_m is signals.r_m else replace(signals, r_m=r_m)


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


def _advance(
    current: DeploymentState,
    band_state: DeploymentState,
    worst_zone: ZoneLabel | None,
    remediation_event: bool,
    r_m: float | None,
    das: float,
    rules: RulesConfig,
) -> tuple[DeploymentState, tuple[str, ...]]:
    """The transition rule on plain values: the new state and its reasons.

    The reasons are empty exactly when the state holds.
    """
    target = fragility_cap(band_state, worst_zone)
    if target is current:
        return current, ()

    if target.favorability < current.favorability:
        reasons: tuple[str, ...] = ()
        if band_state.favorability < current.favorability:
            reasons += (REASON_DAS_BAND,)
        if target is not band_state:
            reasons += (REASON_FRAGILITY,)
        if r_m is not None and r_m < 0:
            reasons += (REASON_FAILED_REMEDIATION,)
        return target, reasons

    if not remediation_event:
        return current, ()
    # One level up from BlockedDeployment is EscalatedGovernance, so a gated
    # first move out of it stays below ReassessmentRequired too.
    destination = target
    if rules.recovery_gating:
        destination = BY_FAVORABILITY[current.favorability + 1]
    if das < rules.bands.floor(destination) + rules.hysteresis:
        return current, ()
    if rules.recovery_gating:
        return destination, (REASON_RECOVERY_GATED,)
    return destination, (REASON_DAS_BAND,)


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
    a, s = assessment, assessment.signals
    new, reasons = _advance(
        current, a.stateless_drc, s.worst_zone, s.remediation_event, s.r_m, a.das, rules
    )
    if not reasons:
        return current, None
    return new, TransitionRecord(current, new, reasons, a.r_p)


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


_REAL = "%.4f"
# A CSV trace row after its snapshot id: five reals, then the three enum
# values, the transition cell and the r_p cell. None of these cells holds a
# character the csv module quotes.
_TRACE_CELLS = ",".join([_REAL] * 5 + ["%s"] * 5)
# The characters for which the csv module quotes a cell, and NUL, which
# Python 3.10's csv module refuses to write.
_CSV_TRIGGERS = re.compile(r'[,"\r\n\x00]')


def format_real(value: float) -> str:
    """Render a real with 4 decimal places, ties to even."""
    return _REAL % value


def _round4(value: float | None) -> float | None:
    """:func:`format_real`'s rounding as a float; ``None`` passes through."""
    return None if value is None else float(format_real(value))


_JSON = json.JSONEncoder(indent=2, sort_keys=True)
json_string = json.encoder.encode_basestring_ascii  # a str as _JSON writes it
_SLOT, _STRING_SLOT = re.compile(r": 0(?=,?\n)"), re.compile(r': ""(?=,?\n)')


def json_text(payload: object) -> str:
    """The engine's JSON output: sorted keys, 2-space indent, a final newline."""
    return _JSON.encode(payload) + "\n"


def _json_template(shape: dict, indent: str) -> str:
    """``_JSON``'s text of ``shape`` as a ``%`` template, lines indented by ``indent``.

    A value 0 becomes ``%s`` and a value "" becomes ``"%s"``. A string's
    text holds no raw line break, so no string is taken for a placeholder.
    """
    text = _SLOT.sub(": %s", _JSON.encode(shape).replace("%", "%%"))
    return _STRING_SLOT.sub(': "%s"', text).replace("\n", indent)


def json_rows(
    out: TextIO, shape: dict, rows: Iterable[tuple], depth=0, head="", tail="\n"
) -> None:
    """Write ``head``, an array of row objects at nesting ``depth``, ``tail``.

    Each row fills one template of ``shape`` in ``_JSON``'s layout, with a
    cell per key in sorted key order: its JSON text for a 0 value (a real as
    its 4-decimal float), a string that needs no escape for a "" value.
    """
    indent = "\n" + "  " * depth
    row = indent + "  " + _json_template(shape, indent + "  ")
    write, separator = out.write, head + "["
    for cells in rows:
        write(separator + row % cells)
        separator = ","
    write((indent if separator == "," else separator) + "]" + tail)


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


def csv_rows(out: TextIO, columns: Sequence[str], rows: Iterable[tuple]) -> None:
    """Write a CSV header, then each ``(id, cells)`` row as ``id,cells``.

    ``cells`` is the row's text after its id, a filled ``%`` template, and
    holds no character the csv module quotes. The id is the only free-text
    cell. Rows are checked and written ``_BLOCK_ROWS`` at a time: one
    search over the block's ids, then one write. A block in which an id
    holds such a character (or NUL) goes through :func:`csv_writer` whole,
    so the csv module decides its quoting on every Python version; it
    leaves the clean ids and the cells as they are. If ``rows`` raises,
    only the whole blocks before the failing row have been written.
    """
    writer = csv_writer(out)
    writer.writerow(columns)
    write, needs_quoting = out.write, _CSV_TRIGGERS.search
    rows = iter(rows)
    while block := list(itertools.islice(rows, _BLOCK_ROWS)):
        if needs_quoting("".join([sid for sid, _ in block])) is None:
            write("".join([f"{sid},{cells}\n" for sid, cells in block]))
            continue
        writer.writerows((sid, *cells.split(",")) for sid, cells in block)


def _transition_cell(transition: tuple) -> str:
    from_state, to_state, reasons, _ = transition
    return f"{from_state._value_}->{to_state._value_}[{'|'.join(reasons)}]"


def _entry_row(entry: TraceEntry) -> tuple:
    a, signals, t = entry.assessment, entry.assessment.signals, entry.transition
    return (
        a.snapshot_id,
        signals.fdi,
        signals.delta_fpr,
        signals.delta_fnr,
        signals.tsz,
        a.das,
        a.ges,
        a.stateless_drc,
        entry.governed_state,
        None if t is None else (t.from_state, t.to_state, t.trigger_reasons, t.r_p),
        a.r_p,
    )


# A JSON trace, and its rows' shape: its enum values (TRACE_COLUMNS[6:9]) are
# strings. A row's keys sit at depth 3, and so do the lines of its transition.
_TRACE_JSON = _json_template({"config_fingerprint": 0, "entries": 0}, "\n") + "\n"
_TRACE_HEAD, _TRACE_TAIL = _TRACE_JSON.rsplit("%s", 1)
_TRACE_ROW = dict.fromkeys(TRACE_COLUMNS, 0) | dict.fromkeys(TRACE_COLUMNS[6:9], "")


def _serialise(
    out: TextIO, rows: Iterable[tuple], format: str, fingerprint: str
) -> None:
    """Write trace rows into ``out`` as CSV or JSON.

    A trace row holds the TRACE_COLUMNS values unformatted, in that order;
    its transition is None or (from_state, to_state, trigger_reasons, r_p).

    A CSV row fills one ``%`` template and goes through :func:`csv_rows`. A
    JSON row fills one :func:`json_rows` template, its transition one kept
    per states and reasons: the text of ``json_text`` over the whole trace.
    Enum values are read from ``_value_``; the ``value`` property costs ten
    times as much per read.
    """
    if format == "csv":
        cells = (
            (sid, _TRACE_CELLS % (fdi, dfpr, dfnr, tsz, das, ges._value_, drc._value_,
             state._value_, "" if t is None else _transition_cell(t),
             "" if r_p is None else _REAL % r_p))
            for sid, fdi, dfpr, dfnr, tsz, das, ges, drc, state, t, r_p in rows
        )
        csv_rows(out, TRACE_COLUMNS, cells)
    elif format == "json":
        templates: dict[tuple, str] = {}

        def transition(t: tuple) -> str:
            if (template := templates.get(key := (t[0], t[1], *t[2]))) is None:
                shape = {"from_state": t[0]._value_, "to_state": t[1]._value_}
                shape.update(trigger_reasons=list(t[2]), r_p=0)
                template = templates[key] = _json_template(shape, "\n" + "  " * 3)
            return template % ("null" if t[3] is None else float(_REAL % t[3]))

        cells = (  # in sorted-key order
            (float(_REAL % das), float(_REAL % dfnr), float(_REAL % dfpr),
             float(_REAL % fdi), ges._value_, state._value_,
             "null" if r_p is None else float(_REAL % r_p), json_string(sid),
             drc._value_, "null" if t is None else transition(t), float(_REAL % tsz))
            for sid, fdi, dfpr, dfnr, tsz, das, ges, drc, state, t, r_p in rows
        )
        head = _TRACE_HEAD % _JSON.encode(fingerprint)
        json_rows(out, _TRACE_ROW, cells, 1, head, _TRACE_TAIL)
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")


def emit_trace(trace: GovernanceTrace, format: str = "csv") -> bytes:
    """Serialise a trace deterministically to CSV or JSON bytes.

    The CSV column order is fixed; reals carry 4 decimal places. Repeated
    serialisation of the same trace is byte-identical.
    """
    out = io.StringIO()
    _serialise(out, map(_entry_row, trace.entries), format, trace.config_fingerprint)
    return out.getvalue().encode("utf-8")


def _fold(
    records: Iterable[tuple], initial_state: DeploymentState, rules: RulesConfig
) -> Iterator[tuple]:
    """Validated signal rows to trace rows in one pass.

    Per row: DAS, the stateless DRC, ``r_p`` and the ``r_m`` backfill,
    GES, then the transition; the same rules :func:`build_assessments`
    and :func:`replay` apply, each called once per row, with no record
    built. A file has no ``worst_zone``, so the fragility cap never binds.
    A trace row holds its transition unformatted: only the writer formats
    it, and only on a transition row.
    """
    weights, bands, cuts = rules.weights, rules.bands, rules.ges_thresholds
    current = initial_state
    prev_das: float | None = None
    for snapshot_id, fdi, dfpr, dfnr, tsz, event, r_m in records:
        das = das_of(fdi, dfpr, dfnr, tsz, weights)
        r_p = None if prev_das is None else remediation_progression(prev_das, das)
        r_m = _backfilled_r_m(event, r_m, r_p)
        drc = band_of(das, bands)
        new, reasons = _advance(current, drc, None, event, r_m, das, rules)
        ges = ges_of(fdi, dfpr, dfnr, tsz, r_m, cuts)
        transition = (current, new, reasons, r_p) if reasons else None
        yield snapshot_id, fdi, dfpr, dfnr, tsz, das, ges, drc, new, transition, r_p
        current, prev_das = new, das


def fold_trace(
    out: TextIO, records: Iterable[tuple], initial_state: DeploymentState,
    rules: RulesConfig, format: str
) -> None:
    """Write the governed trace of signal records into ``out``, as ``lifecycle`` does.

    Each record is ``(snapshot_id, fdi, delta_fpr, delta_fnr, tsz,
    remediation_event, r_m)``, as ``io.iter_signals`` yields it: four reals
    in [0, 1], a bool, and ``r_m`` a real or None. No value is checked
    here, so records built in code must hold to that. They are scored and
    folded from ``initial_state`` under ``rules`` in one pass, and the
    text equals the staged ``emit_trace(replay(build_assessments(...)))``.

    ``format`` is ``"csv"`` (a header, then one row per record) or
    ``"json"`` (the rules' ``config_fingerprint`` and an ``entries`` list);
    anything else raises ValueError with nothing written. Zero records give
    a header-only CSV or an empty ``entries`` list, where ``replay``
    raises EmptySequenceError. A row error from ``records`` is raised with
    part of the trace written: in JSON every row before the failing one,
    in CSV only the whole :func:`csv_rows` blocks before it.
    """
    fingerprint = rules.fingerprint() if format == "json" else ""  # CSV prints none
    _serialise(out, _fold(records, initial_state, rules), format, fingerprint)
