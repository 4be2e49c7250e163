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
:func:`fold_trace` applies the same rules to checked signal rows a block
of rows at a time, with no per-snapshot objects, and gives the same bytes:
each rule, the state walk too, runs once per block over its columns.
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
    classify_drc,
    compute_das,
    compute_ges,
    das_column,
    drc_column,
    fragility_cap,
    ges_column,
    progression_column,
    remediation_progression,
)
from .errors import ConfigInvalidError, EmptySequenceError
from .io import checked_blocks
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


def _backfill_column(
    events: Sequence[bool], r_ms: Sequence[float | None], r_ps: Sequence[float | None]
) -> list[float | None]:
    """Each row's ``r_m``: on a remediation event with none, its ``r_p``."""
    return [p if e and m is None else m for e, m, p in zip(events, r_ms, r_ps)]


def _backfill_r_m(signals: AssuranceSignals, r_p: float | None) -> AssuranceSignals:
    r_m = _backfill_column((signals.remediation_event,), (signals.r_m,), (r_p,))[0]
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


def _advance_column(
    current: DeploymentState, bands: Sequence[DeploymentState],
    targets: Sequence[DeploymentState], events: Sequence[bool], r_ms: Sequence,
    das: Sequence[float], r_ps: Sequence, rules: RulesConfig,
) -> tuple[list[DeploymentState], list[tuple | None]]:
    """The transition rule, walked from ``current`` over a block's columns.

    ``bands`` are the rows' stateless states and ``targets`` the same,
    fragility-capped. Returns each row's new state and its move: None where
    the state holds, else ``(from_state, to_state, reasons, r_p)``.
    """
    floor, margin, gating = rules.bands.floor, rules.hysteresis, rules.recovery_gating
    recovered = (REASON_RECOVERY_GATED if gating else REASON_DAS_BAND,)
    states, moves = [], []
    state, move = states.append, moves.append
    rows = zip(bands, targets, events, r_ms, das, r_ps)
    for band, target, event, r_m, score, r_p in rows:
        new, reasons = current, ()
        if target is current:
            pass
        elif target.favorability < current.favorability:
            new = target
            if band.favorability < current.favorability:
                reasons += (REASON_DAS_BAND,)
            if target is not band:
                reasons += (REASON_FRAGILITY,)
            if r_m is not None and r_m < 0:
                reasons += (REASON_FAILED_REMEDIATION,)
        elif event:
            # One level up from BlockedDeployment is EscalatedGovernance, so a
            # gated first move out of it stays below ReassessmentRequired too.
            up = BY_FAVORABILITY[current.favorability + 1] if gating else target
            if not score < floor(up) + margin:
                new, reasons = up, recovered
        move((current, new, reasons, r_p) if reasons else None)
        state(current := new)
    return states, moves


def _advance(
    current: DeploymentState, band_state: DeploymentState, worst_zone: ZoneLabel | None,
    remediation_event: bool, r_m: float | None, das: float, rules: RulesConfig,
) -> tuple[DeploymentState, tuple[str, ...]]:
    """The new state and its reasons, empty exactly when the state holds.

    It caps ``band_state`` with :func:`fragility_cap`, then runs
    :func:`_advance_column` on one row.
    """
    target = fragility_cap(band_state, worst_zone)
    row = (band_state,), (target,), (remediation_event,), (r_m,), (das,), (None,)
    states, moves = _advance_column(current, *row, rules)
    return states[0], () if moves[0] is None else moves[0][2]


def step(
    current: DeploymentState,
    assessment: SnapshotAssessment,
    rules: RulesConfig = RulesConfig(),
) -> tuple[DeploymentState, TransitionRecord | None]:
    """Advance the governed state by one snapshot, through :func:`_advance`.

    Returns the new state and a transition record, or ``(current, None)``
    when the state holds (same band, or an ungated/unearned recovery). Only
    here, with a record's ``worst_zone``, can ``fragility_override`` apply.
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


class _Text:
    """Write target whose writer's ``writerow`` returns the row's text."""

    write = staticmethod(str)


def csv_blocks(
    out: TextIO, columns: Sequence[str], template: str, blocks: Iterable[Sequence]
) -> None:
    """Write a CSV header, then the rows of each block of columns, the ids first.

    A row is written as ``id,cells``: ``cells`` fills the ``%`` template
    with the row's other values and holds no character the csv module
    quotes; the id is the only free-text cell. A block takes one search
    over its ids, one ``map`` of the row template over its zipped columns
    and one write. An id holding such a character (or NUL) goes through
    :func:`csv_writer` alone, as a one-field row, so the csv module decides
    its quoting on every Python version; an empty id, which it would quote
    as a lone field, never does. If an id is refused (a NUL on Python
    3.10), the rows before it are written and the csv error is raised.
    """
    csv_writer(out).writerow(columns)
    write, needs_quoting, row = out.write, _CSV_TRIGGERS.search, f"%s,{template}\n"
    quote = csv_writer(_Text).writerow
    for ids, *cells in blocks:
        if needs_quoting("".join(ids)) is not None:
            quoted: list[str] = []
            try:
                quoted += (quote((i,))[:-1] if needs_quoting(i) else i for i in ids)
            except csv.Error:
                write("".join(map(row.__mod__, zip(quoted, *cells))))
                raise
            ids = quoted
        write("".join(map(row.__mod__, zip(ids, *cells))))


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


def _real_cells(values: Sequence[float | None]) -> list[str]:
    """A column of reals as :func:`format_real` cells, None as an empty one.

    ``float.__format__`` gives the same text in about 70% of the time.
    """
    try:
        return list(map(float.__format__, values, itertools.repeat(_REAL[1:])))
    except TypeError:  # a None: only the first r_p of a trace
        return ["" if v is None else _REAL % v for v in values]


def _serialise(
    out: TextIO, blocks: Iterable[Sequence], format: str, fingerprint: str
) -> None:
    """Write blocks of trace rows into ``out`` as CSV or JSON.

    A block holds the TRACE_COLUMNS columns of its rows, unformatted, in
    that order; a transition is None or (from_state, to_state,
    trigger_reasons, r_p).

    A CSV block fills one ``%`` template per row in :func:`csv_blocks`. A
    JSON row fills one :func:`json_rows` template, its transition one kept
    per states and reasons: the text of ``json_text`` over the whole trace.
    Enum values are read from ``_value_``; the ``value`` property costs ten
    times as much per read.
    """
    if format == "csv":
        cells = (
            (ids, fdi, dfpr, dfnr, tsz, das, [g._value_ for g in ges],
             [d._value_ for d in drc], [s._value_ for s in states],
             ["" if t is None else _transition_cell(t) for t in moves],
             _real_cells(r_p))
            for ids, fdi, dfpr, dfnr, tsz, das, ges, drc, states, moves, r_p in blocks
        )
        csv_blocks(out, TRACE_COLUMNS, _TRACE_CELLS, cells)
    elif format == "json":
        templates: dict[tuple, str] = {}

        def transition(t: tuple) -> str:
            if (template := templates.get(key := (t[0], t[1], *t[2]))) is None:
                shape = {"from_state": t[0]._value_, "to_state": t[1]._value_}
                shape.update(trigger_reasons=list(t[2]), r_p=0)
                template = templates[key] = _json_template(shape, "\n" + "  " * 3)
            return template % ("null" if t[3] is None else float(_REAL % t[3]))

        rows = itertools.chain.from_iterable(itertools.starmap(zip, blocks))
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
    out, rows = io.StringIO(), list(map(_entry_row, trace.entries))
    blocks = [list(zip(*rows))] if rows else []
    _serialise(out, blocks, format, trace.config_fingerprint)
    return out.getvalue().encode("utf-8")


def _fold(
    blocks: Iterable[Sequence], initial_state: DeploymentState, rules: RulesConfig
) -> Iterator[tuple]:
    """Checked signal blocks to blocks of trace rows, in one pass.

    Per block, each rule runs once over the block's columns: DAS, then
    ``r_p`` (carried over from the block before) and the ``r_m`` backfill,
    the stateless DRC and GES; the same rules :func:`build_assessments`
    applies. Then the state walk runs once, :func:`_advance_column` with
    the DRC column as both the bands and the targets: a file has no
    ``worst_zone``, so the fragility cap never binds. No record is built. A
    trace row holds its transition unformatted: only the writer formats it.
    """
    weights, bands, cuts = rules.weights, rules.bands, rules.ges_thresholds
    current, prev_das = initial_state, None
    for ids, *signals, events, r_ms in blocks:
        das = das_column(signals, weights)
        r_ps = progression_column(prev_das, das)
        r_ms = _backfill_column(events, r_ms, r_ps)
        drc = drc_column(das, bands)
        ges = ges_column(signals, r_ms, cuts)
        states, moves = _advance_column(
            current, drc, drc, events, r_ms, das, r_ps, rules
        )
        current = states[-1]
        yield ids, *signals, das, ges, drc, states, moves, r_ps
        prev_das = das[-1]


def fold_blocks(
    out: TextIO, blocks: Iterable[Sequence], initial_state: DeploymentState,
    rules: RulesConfig, format: str
) -> None:
    """:func:`fold_trace` on checked blocks, as ``io.signal_blocks`` yields them."""
    fingerprint = rules.fingerprint() if format == "json" else ""  # CSV prints none
    _serialise(out, _fold(blocks, initial_state, rules), format, fingerprint)


def fold_trace(
    out: TextIO, records: Iterable[tuple], initial_state: DeploymentState,
    rules: RulesConfig, format: str
) -> None:
    """Write the governed trace of signal records into ``out``, as ``lifecycle`` does.

    Each record is ``(snapshot_id, fdi, delta_fpr, delta_fnr, tsz,
    remediation_event, r_m)``, as ``io.iter_signals`` yields it: four reals
    in [0, 1], a bool, and ``r_m`` a real in [-1, 1] or None, set only on
    an event. The records are checked a block at a time as a
    signals file is (``io.checked_blocks``); a record that breaks a rule
    raises ValueError ``"record N: <message>"``, N its 1-based place. They
    are scored and folded from ``initial_state`` under ``rules`` a block at
    a time, and the text equals the staged
    ``emit_trace(replay(build_assessments(...)))``.

    ``format`` is ``"csv"`` (a header, then one row per record) or
    ``"json"`` (the rules' ``config_fingerprint`` and an ``entries`` list);
    anything else raises ValueError with nothing written. Zero records give
    a header-only CSV or an empty ``entries`` list, where ``replay``
    raises EmptySequenceError. A record that fails its check raises once
    the trace of the records before it is written; an error raised by
    ``records`` itself, once that of the whole blocks before it.
    """
    fold_blocks(out, checked_blocks(records), initial_state, rules, format)
