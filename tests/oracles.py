"""Naive reference implementations the optimised engine is checked against.

``naive_confusion`` is the single-pass, per-``Sample`` counting loop, and
``dictreader_parse_predictions`` the ``csv.DictReader`` + ``Sample``
parser, as the engine had them before predictions were held in columns.
Each re-checks every value itself, so a test can compare both results
and errors. Both file oracles, this one and ``staged_parse_signals``, read
line by line (``csv.DictReader``, or one ``json.loads`` per line) and share
no reader code with the engine.

``flagging_sweep`` is the sweep as the engine had it before a gap without
two eligible subgroups failed it outright: each such grid point was
flagged, ``fill_flagged`` interpolated the flagged points, and only a
sweep with more than half its points flagged was degenerate. It counts
each point with ``naive_confusion``, so it shares no counting code with
``sweep``.

``staged_trace`` is the staged lifecycle path as the engine had it before
the one-pass fold: ``AssuranceSignals`` per row, then assessments, replay
and emission, with its own DAS, DRC and GES rules. Its one change is the
DAS clamp, which fixed a perfect snapshot exiting 1 under simplex weights
whose float sum exceeds 1. ``staged_score`` is ``score``'s output built
from the same staged rules, each row on its own.

``row_fold`` is the lifecycle fold as it was before it ran each rule
once per block of rows: every rule called once per row, through the
scalar bodies ``scalar_das_of``, ``scalar_band_of``, ``scalar_ges_of``,
``scalar_progression``, ``scalar_backfilled_r_m`` and ``scalar_advance``
that the engine's column kernels replaced. ``row_trace`` writes its rows with the engine's
writer, so a comparison with ``fold_trace`` checks the fold alone.

``rowwise_csv_rows`` is the trace's CSV writer as it was before
``lifecycle.csv_blocks`` wrote a block of rows at a time: one id check and
one write per row.
``typed_signal_rows`` is ``io._signal_rows`` as it was before a column of
exact floats was kept as ``json.loads`` made it: every column
type-checked, then copied through an ``array('d')``.

``DATACLASS_TWINS`` maps each record type to the frozen dataclass it was
before records replaced the dataclass decorator: the same fields,
defaults, ``__post_init__`` and methods. ``to_twin`` rebuilds a record,
nested records included, as its twins, one twin per record object.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
import operator
import re
from array import array
from bisect import bisect_right
from typing import Any, Iterable, Iterator, Sequence

from deployassure import (
    ConfusionCounts,
    DeploymentState,
    DomainError,
    EmptyFileError,
    EmptyInputError,
    EmptySequenceError,
    EngineError,
    EscalationLevel,
    FdiProfile,
    GesThresholds,
    InsufficientSubgroupsError,
    MalformedRowError,
    MalformedSampleError,
    MissingColumnError,
    PanelConfig,
    RulesConfig,
    Sample,
    SweepDegenerateError,
    WeightVector,
    ZoneLabel,
)
from deployassure.assurance import (
    BY_FAVORABILITY,
    R_M_RANGE,
    AssuranceSignals,
    DrcBands,
)
from deployassure.evaluation import check_threshold
from deployassure.lifecycle import (
    REASON_DAS_BAND,
    REASON_FAILED_REMEDIATION,
    REASON_FRAGILITY,
    REASON_RECOVERY_GATED,
    TRACE_COLUMNS,
    GovernanceTrace,
    SnapshotAssessment,
    TraceEntry,
    TransitionRecord,
    _serialise,
    csv_writer,
)
from deployassure.record import Record, replace
from deployassure.stability import (
    _SPACING_TOLERANCE,
    assess_at_threshold,
    check_sweep_range,
)

PREDICTIONS_COLUMNS = ("sample_id", "score", "label", "subgroup")
SIGNALS_COLUMNS = (
    "snapshot_id", "fdi", "delta_fpr", "delta_fnr", "tsz", "remediation_event"
)


def naive_confusion(
    samples: Iterable[Sample], threshold: float
) -> dict[str, ConfusionCounts]:
    """Check and count every sample, subgroups in first-seen order."""
    check_threshold(threshold)
    samples = list(samples)
    if not samples:
        raise EmptyInputError("sample set is empty")
    cells: dict[str, list[int]] = {}
    for sample in samples:
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
        counts = cells.setdefault(sample.subgroup, [0, 0, 0, 0])
        if sample.score >= threshold:
            counts[0 if sample.label == 1 else 1] += 1
        else:
            counts[3 if sample.label == 1 else 2] += 1
    return {
        group: ConfusionCounts(tp=c[0], fp=c[1], tn=c[2], fn=c[3])
        for group, c in cells.items()
    }


def fill_flagged(
    thresholds: Sequence[float],
    values: list[float | None],
) -> list[float]:
    """Replace flagged (None) points by linear interpolation.

    Interior holes interpolate between the nearest valid neighbours; holes
    at either end copy the nearest valid value. Results are clamped to
    [0, 1]. At least one valid point must exist.
    """
    valid = [i for i, v in enumerate(values) if v is not None]
    if not valid:
        raise ValueError("cannot interpolate a fully flagged profile")
    filled: list[float] = []
    for i, v in enumerate(values):
        if v is not None:
            filled.append(v)
            continue
        left = max((j for j in valid if j < i), default=None)
        right = min((j for j in valid if j > i), default=None)
        if left is None:
            v = values[right]  # type: ignore[index]
        elif right is None:
            v = values[left]
        else:
            t, tl, tr = thresholds[i], thresholds[left], thresholds[right]
            vl, vr = values[left], values[right]
            v = vl + (vr - vl) * (t - tl) / (tr - tl)  # type: ignore[operator]
        filled.append(min(1.0, max(0.0, v)))  # type: ignore[arg-type]
    return filled


def flagging_sweep(
    samples: Iterable[Sample],
    t_min: float,
    t_max: float,
    h: float,
    panel_config: PanelConfig,
) -> FdiProfile:
    """Flag each grid point without two eligible subgroups, then fill it."""
    check_sweep_range(t_min, t_max, h)
    intervals = int((t_max - t_min) / h + _SPACING_TOLERANCE)
    thresholds = [min(t_min + i * h, t_max) for i in range(intervals + 1)]
    samples = list(samples)
    values: list[float | None] = []
    flagged = 0
    for t in thresholds:
        try:
            _, _, fdi = assess_at_threshold(naive_confusion(samples, t), panel_config)
            values.append(fdi.value)
        except InsufficientSubgroupsError:
            values.append(None)
            flagged += 1
    if 2 * flagged > len(thresholds):
        raise SweepDegenerateError(
            f"{flagged} of {len(thresholds)} grid points had insufficient "
            "eligible subgroups"
        )
    filled = fill_flagged(thresholds, values)
    return FdiProfile(points=tuple(zip(thresholds, filled)), h=h)

def _records(
    path: str, required: Sequence[str]
) -> Iterator[tuple[int, dict[str, Any]]]:
    """Each record as a dict with its physical row, read line by line."""
    try:
        yield from _decoded_records(path, required)
    except UnicodeDecodeError as exc:  # decoded in chunks: no row is known
        raise EngineError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def _decoded_records(
    path: str, required: Sequence[str]
) -> Iterator[tuple[int, dict[str, Any]]]:
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        row = 0
        for line in fh:
            row += 1
            if line.strip():
                break
        else:
            raise EmptyFileError(path)
        lines = itertools.chain((line,), fh)

        if not line.lstrip().startswith("{"):
            reader = csv.DictReader(lines)
            try:
                missing = [c for c in required if c not in reader.fieldnames]
                if missing:
                    raise MissingColumnError(path, missing)
                for record in reader:
                    yield row - 1 + reader.line_num, record
            except csv.Error as exc:  # DictReader counts only the rows it returned
                row += reader.reader.line_num - 1
                raise MalformedRowError(path, row, f"invalid CSV: {exc}") from exc
            return

        first = True
        for line_num, line in enumerate(lines, start=row):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            # A ValueError also for an integer past the int digit limit.
            except (ValueError, RecursionError) as exc:
                raise MalformedRowError(path, line_num, f"invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise MalformedRowError(path, line_num, "record is not an object")
            if first:
                missing = [c for c in required if c not in record]
                if missing:
                    raise MissingColumnError(path, missing)
                first = False
            yield line_num, record


def _field(record: dict[str, Any], name: str, path: str, row: int) -> Any:
    if name not in record or record[name] is None:
        raise MalformedRowError(path, row, f"missing value for {name!r}")
    return record[name]


def _as_string(value: Any, name: str, path: str, row: int) -> str:
    if not isinstance(value, str):
        raise MalformedRowError(path, row, f"{name} must be a string, got {value!r}")
    return value


def _parse_unit_interval(value: Any, name: str, path: str, row: int) -> float:
    if isinstance(value, bool):
        raise MalformedRowError(path, row, f"{name} is not a number: {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise MalformedRowError(path, row, f"{name} is not a number: {value!r}")
    if not 0.0 <= number <= 1.0:
        raise MalformedRowError(path, row, f"{name} out of range [0, 1]: {value!r}")
    return number


def _parse_binary(value: Any, name: str, path: str, row: int) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int) and value in (0, 1):
        return value
    if isinstance(value, str) and value.strip() in ("0", "1"):
        return int(value.strip())
    raise MalformedRowError(path, row, f"{name} must be 0 or 1, got {value!r}")


def dictreader_parse_predictions(path: str) -> list[Sample]:
    """One dict and one ``Sample`` per row, each field checked in column order."""
    samples: list[Sample] = []
    for row, record in _records(path, PREDICTIONS_COLUMNS):
        sample_id = _as_string(
            _field(record, "sample_id", path, row), "sample_id", path, row
        )
        score = _parse_unit_interval(
            _field(record, "score", path, row), "score", path, row
        )
        label = _parse_binary(_field(record, "label", path, row), "label", path, row)
        subgroup = _as_string(
            _field(record, "subgroup", path, row), "subgroup", path, row
        )
        if not subgroup:
            raise MalformedRowError(path, row, "subgroup is empty")
        samples.append(
            Sample(sample_id=sample_id, score=score, label=label, subgroup=subgroup)
        )
    if not samples:
        raise EmptyFileError(path)
    return samples


# --- The staged lifecycle path -------------------------------------------


def staged_parse_signals(path: str) -> list[tuple[str, AssuranceSignals]]:
    """One ``AssuranceSignals`` per row, each field checked in column order."""
    rows: list[tuple[str, AssuranceSignals]] = []
    for row, record in _records(path, SIGNALS_COLUMNS):
        snapshot_id = _as_string(
            _field(record, "snapshot_id", path, row), "snapshot_id", path, row
        )
        fdi, delta_fpr, delta_fnr, tsz = [
            _parse_unit_interval(_field(record, name, path, row), name, path, row)
            for name in SIGNALS_COLUMNS[1:5]
        ]
        event = _field(record, "remediation_event", path, row)
        remediation = bool(_parse_binary(event, "remediation_event", path, row))
        raw_r_m = record.get("r_m")
        r_m: float | None = None
        if raw_r_m is not None and raw_r_m != "":
            message = f"r_m is not a number: {raw_r_m!r}"
            if isinstance(raw_r_m, bool):
                raise MalformedRowError(path, row, message)
            try:
                r_m = float(raw_r_m)
            except (TypeError, ValueError, OverflowError):
                raise MalformedRowError(path, row, message) from None
            if not -1.0 <= r_m <= 1.0:
                message = f"r_m out of range [-1, 1]: {raw_r_m!r}"
                raise MalformedRowError(path, row, message)
            if not remediation:
                message = "r_m present but remediation_event is 0"
                raise MalformedRowError(path, row, message)
        signals = AssuranceSignals(
            fdi=fdi,
            delta_fpr=delta_fpr,
            delta_fnr=delta_fnr,
            tsz=tsz,
            remediation_event=remediation,
            r_m=r_m,
        )
        rows.append((snapshot_id, signals))
    if not rows:
        raise EmptyFileError(path)
    return rows


def staged_compute_das(signals: AssuranceSignals, weights: WeightVector) -> float:
    das = (
        weights.alpha * (1.0 - signals.fdi)
        + weights.beta * (1.0 - signals.delta_fpr)
        + weights.gamma * (1.0 - signals.delta_fnr)
        + weights.delta * (1.0 - signals.tsz)
    )
    return min(das, 1.0)  # the DAS clamp


def staged_classify_drc(
    das: float, bands: DrcBands, worst_zone: ZoneLabel | None = None
) -> DeploymentState:
    if not 0.0 <= das <= 1.0:
        raise DomainError(f"score out of range [0, 1]: {das!r}")
    if das >= bands.b_deployable:
        state = DeploymentState.DEPLOYABLE
    elif das >= bands.b_restricted:
        state = DeploymentState.RESTRICTED
    elif das >= bands.b_reassessment:
        state = DeploymentState.REASSESSMENT_REQUIRED
    elif das >= bands.b_escalated:
        state = DeploymentState.ESCALATED_GOVERNANCE
    else:
        state = DeploymentState.BLOCKED_DEPLOYMENT
    return staged_fragility_cap(state, worst_zone)


def less_favorable(a: DeploymentState, b: DeploymentState) -> DeploymentState:
    return min(a, b, key=BY_FAVORABILITY.index)


def staged_fragility_cap(
    state: DeploymentState, worst_zone: ZoneLabel | None
) -> DeploymentState:
    if worst_zone is ZoneLabel.GOVERNANCE_FRAGILITY:
        return less_favorable(state, DeploymentState.ESCALATED_GOVERNANCE)
    return state


def _severity(value: float, cuts: tuple[float, float, float]) -> int:
    for rank, cut in enumerate(cuts):
        if value < cut:
            return rank
    return 3


def staged_compute_ges(
    signals: AssuranceSignals, thresholds: GesThresholds
) -> EscalationLevel:
    severity = max(
        _severity(signals.fdi, thresholds.fdi),
        _severity(signals.delta_fpr, thresholds.delta_fpr),
        _severity(signals.delta_fnr, thresholds.delta_fnr),
        _severity(signals.tsz, thresholds.tsz),
    )
    if signals.remediation_event and signals.r_m is not None and signals.r_m < 0:
        severity = min(severity + 1, 3)
    return list(EscalationLevel)[severity]


def staged_remediation_progression(das_prev: float, das_next: float) -> float:
    if not 0.0 <= das_prev <= 1.0:
        raise DomainError(f"das_prev out of range [0, 1]: {das_prev!r}")
    if not 0.0 <= das_next <= 1.0:
        raise DomainError(f"das_next out of range [0, 1]: {das_next!r}")
    return das_next - das_prev


def _backfill_r_m(signals: AssuranceSignals, r_p: float | None) -> AssuranceSignals:
    if signals.remediation_event and signals.r_m is None and r_p is not None:
        return replace(signals, r_m=r_p)
    return signals


def staged_build_assessments(
    rows: Iterable[tuple[str, AssuranceSignals]], rules: RulesConfig
) -> list[SnapshotAssessment]:
    assessments: list[SnapshotAssessment] = []
    prev_das: float | None = None
    for snapshot_id, signals in rows:
        das = staged_compute_das(signals, rules.weights)
        r_p = (
            None
            if prev_das is None
            else staged_remediation_progression(prev_das, das)
        )
        signals = _backfill_r_m(signals, r_p)
        assessments.append(
            SnapshotAssessment(
                snapshot_id=snapshot_id,
                signals=signals,
                das=das,
                stateless_drc=staged_classify_drc(das, rules.bands),
                ges=staged_compute_ges(signals, rules.ges_thresholds),
                r_p=r_p,
            )
        )
        prev_das = das
    return assessments


def staged_step(
    current: DeploymentState, assessment: SnapshotAssessment, rules: RulesConfig
) -> tuple[DeploymentState, TransitionRecord | None]:
    band_state = assessment.stateless_drc
    target = staged_fragility_cap(band_state, assessment.signals.worst_zone)

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


def staged_replay(
    assessments: Sequence[SnapshotAssessment],
    initial_state: DeploymentState,
    rules: RulesConfig,
) -> GovernanceTrace:
    if not assessments:
        raise EmptySequenceError("no assessments to replay")

    entries: list[TraceEntry] = []
    current = initial_state
    prev_das: float | None = None
    for assessment in assessments:
        expected = staged_classify_drc(assessment.das, rules.bands)
        if expected is not assessment.stateless_drc:
            raise ValueError(
                f"snapshot {assessment.snapshot_id!r}: stateless_drc "
                f"{assessment.stateless_drc.value} does not match "
                f"{expected.value} under the active bands"
            )
        if assessment.r_p is None and prev_das is not None:
            r_p = staged_remediation_progression(prev_das, assessment.das)
            assessment = replace(assessment, r_p=r_p)
        signals = _backfill_r_m(assessment.signals, assessment.r_p)
        if signals is not assessment.signals:
            assessment = replace(assessment, signals=signals)
        current, record = staged_step(current, assessment, rules)
        entries.append(
            TraceEntry(
                assessment=assessment, governed_state=current, transition=record
            )
        )
        prev_das = assessment.das
    return GovernanceTrace(
        entries=tuple(entries), config_fingerprint=rules.fingerprint()
    )


def _format_real(value: float) -> str:
    return f"{value:.4f}"


def _round4(value: float | None) -> float | None:
    return None if value is None else float(_format_real(value))


def _transition_cell(record: TransitionRecord | None) -> str:
    if record is None:
        return ""
    reasons = "|".join(record.trigger_reasons)
    return f"{record.from_state.value}->{record.to_state.value}[{reasons}]"


def staged_emit_trace(trace: GovernanceTrace, format: str) -> bytes:
    if format == "csv":
        buffer = io.StringIO()
        writer = csv_writer(buffer)
        writer.writerow(TRACE_COLUMNS)
        for entry in trace.entries:
            a = entry.assessment
            writer.writerow(
                [
                    a.snapshot_id,
                    _format_real(a.signals.fdi),
                    _format_real(a.signals.delta_fpr),
                    _format_real(a.signals.delta_fnr),
                    _format_real(a.signals.tsz),
                    _format_real(a.das),
                    a.ges.value,
                    a.stateless_drc.value,
                    entry.governed_state.value,
                    _transition_cell(entry.transition),
                    "" if a.r_p is None else _format_real(a.r_p),
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


def staged_trace(
    rows: Sequence[tuple[str, AssuranceSignals]],
    initial_state: DeploymentState,
    rules: RulesConfig,
    format: str,
) -> bytes:
    """Signal rows to trace bytes the staged way."""
    assessments = staged_build_assessments(rows, rules)
    return staged_emit_trace(staged_replay(assessments, initial_state, rules), format)


def staged_score(
    rows: Sequence[tuple[str, AssuranceSignals]], rules: RulesConfig, format: str
) -> bytes:
    """Signal rows to ``score`` bytes; GES reads each row's own ``r_m``."""
    reals = ("fdi", "delta_fpr", "delta_fnr", "tsz", "das")
    scored = []
    for snapshot_id, s in rows:
        das = staged_compute_das(s, rules.weights)
        scored.append(
            (
                snapshot_id,
                (s.fdi, s.delta_fpr, s.delta_fnr, s.tsz, das),
                staged_compute_ges(s, rules.ges_thresholds).value,
                staged_classify_drc(das, rules.bands).value,
            )
        )
    if format == "csv":
        buffer = io.StringIO()
        writer = csv_writer(buffer)
        writer.writerow(["snapshot_id", *reals, "ges", "drc"])
        for snapshot_id, values, ges, drc in scored:
            writer.writerow([snapshot_id, *map(_format_real, values), ges, drc])
        return buffer.getvalue().encode("utf-8")
    payload = [
        {"snapshot_id": snapshot_id, "ges": ges, "drc": drc}
        | {k: _round4(v) for k, v in zip(reals, values)}
        for snapshot_id, values, ges, drc in scored
    ]
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


# --- The per-row fold ---------------------------------------------------


def scalar_das_of(fdi, delta_fpr, delta_fnr, tsz, weights: WeightVector) -> float:
    score = (
        weights.alpha * (1.0 - fdi)
        + weights.beta * (1.0 - delta_fpr)
        + weights.gamma * (1.0 - delta_fnr)
        + weights.delta * (1.0 - tsz)
    )
    return score if score <= 1.0 else 1.0


def scalar_band_of(das: float, bands: DrcBands) -> DeploymentState:
    return BY_FAVORABILITY[bisect_right(bands._floors, das) - 1]


def scalar_ges_of(
    fdi, delta_fpr, delta_fnr, tsz, r_m, thresholds: GesThresholds
) -> EscalationLevel:
    severity = max(
        bisect_right(thresholds.fdi, fdi),
        bisect_right(thresholds.delta_fpr, delta_fpr),
        bisect_right(thresholds.delta_fnr, delta_fnr),
        bisect_right(thresholds.tsz, tsz),
    )
    if r_m is not None and r_m < 0 and severity < 3:
        severity += 1
    return list(EscalationLevel)[severity]


def scalar_progression(das_prev: float, das_next: float) -> float:
    if not 0.0 <= das_prev <= 1.0:
        raise DomainError(f"das_prev out of range [0, 1]: {das_prev!r}")
    if not 0.0 <= das_next <= 1.0:
        raise DomainError(f"das_next out of range [0, 1]: {das_next!r}")
    return das_next - das_prev


def scalar_backfilled_r_m(event: bool, r_m: float | None, r_p: float | None):
    return r_p if event and r_m is None else r_m


def scalar_advance(
    current: DeploymentState,
    band_state: DeploymentState,
    worst_zone: ZoneLabel | None,
    remediation_event: bool,
    r_m: float | None,
    das: float,
    rules: RulesConfig,
) -> tuple[DeploymentState, tuple[str, ...]]:
    """The transition rule on one row: the new state and its reasons.

    The reasons are empty exactly when the state holds.
    """
    target = staged_fragility_cap(band_state, worst_zone)
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
    destination = target
    if rules.recovery_gating:
        destination = BY_FAVORABILITY[current.favorability + 1]
    if das < rules.bands.floor(destination) + rules.hysteresis:
        return current, ()
    if rules.recovery_gating:
        return destination, (REASON_RECOVERY_GATED,)
    return destination, (REASON_DAS_BAND,)


def row_fold(
    records: Iterable[tuple], initial_state: DeploymentState, rules: RulesConfig
) -> Iterator[tuple]:
    """Signal rows to trace rows, each rule called once per row."""
    weights, bands, cuts = rules.weights, rules.bands, rules.ges_thresholds
    current = initial_state
    prev_das: float | None = None
    for snapshot_id, fdi, dfpr, dfnr, tsz, event, r_m in records:
        das = scalar_das_of(fdi, dfpr, dfnr, tsz, weights)
        r_p = None if prev_das is None else scalar_progression(prev_das, das)
        r_m = scalar_backfilled_r_m(event, r_m, r_p)
        drc = scalar_band_of(das, bands)
        new, reasons = scalar_advance(current, drc, None, event, r_m, das, rules)
        ges = scalar_ges_of(fdi, dfpr, dfnr, tsz, r_m, cuts)
        transition = (current, new, reasons, r_p) if reasons else None
        yield snapshot_id, fdi, dfpr, dfnr, tsz, das, ges, drc, new, transition, r_p
        current, prev_das = new, das


def row_trace(
    records: Iterable[tuple],
    initial_state: DeploymentState,
    rules: RulesConfig,
    format: str,
) -> bytes:
    """``row_fold``'s rows as the engine writes a trace, in one block."""
    rows = list(row_fold(records, initial_state, rules))
    out = io.StringIO()
    fingerprint = rules.fingerprint() if format == "json" else ""
    _serialise(out, [list(zip(*rows))] if rows else [], format, fingerprint)
    return out.getvalue().encode("utf-8")


_CSV_TRIGGERS = re.compile(r'[,"\r\n\x00]')


def rowwise_csv_rows(out: Any, columns: Sequence[str], rows: Iterable[tuple]) -> None:
    """A CSV header, then each ``(id, cells)`` row, checked and written alone."""
    writer = csv_writer(out)
    writer.writerow(columns)
    for sid, cells in rows:
        if _CSV_TRIGGERS.search(sid) is None:
            out.write(f"{sid},{cells}\n")
        else:
            writer.writerow((sid, *cells.split(",")))


class Doubt(ValueError):
    """``typed_signal_rows`` cannot vouch for a block."""


def _typed(values: list[Any], types: set[type]) -> list[Any]:
    if set(map(type, values)) <= types:
        return values
    raise Doubt


def _bounded(values: list[Any], low: float = 0.0, high: float = 1.0) -> list[Any]:
    if low <= min(values) and max(values) <= high and not math.isnan(sum(values)):
        return values
    raise Doubt


def typed_signal_rows(columns: list[list[Any]]) -> Iterator[tuple]:
    """A decoded block's signal rows, or ``Doubt``: each column type-checked."""
    ids, *signals, events, r_ms = columns
    numbers, binary = {int, float}, {int, bool}
    _typed(ids, {str})
    signals = [array("d", _bounded(_typed(column, numbers))) for column in signals]
    _bounded(_typed(events, binary))
    present = list(map(operator.is_not, r_ms, itertools.repeat(None)))
    if any(present):
        given = _typed(list(itertools.compress(r_ms, present)), numbers)
        if not all(itertools.compress(events, present)):
            raise Doubt
        if int in set(map(type, _bounded(given, *R_M_RANGE))):
            r_ms = [r if r is None else float(r) for r in r_ms]
    return zip(ids, *signals, map(bool, events), r_ms)


def dataclass_twin(cls: type[Record]) -> type:
    """The frozen dataclass with ``cls``'s fields, defaults and methods."""
    specs = []
    for name in cls._fields:
        annotation = cls.__annotations__[name]
        if name in vars(cls):
            specs.append((name, annotation, dataclasses.field(default=vars(cls)[name])))
        else:
            specs.append((name, annotation))
    machinery = {"__init__", "__dict__", "__weakref__", "__module__", "_fields"}
    namespace = {
        key: value
        for key, value in vars(cls).items()
        if key not in machinery and key not in cls._fields and key != "__match_args__"
    }
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=namespace, frozen=True)


DATACLASS_TWINS = {cls: dataclass_twin(cls) for cls in Record.__subclasses__()}


# One twin per record object, so that one record held in two fields is one
# twin there too: ``TransitionRecord`` compares its states by identity.
# Records are immutable, and each is kept alive beside its twin, so an id is
# never reused for another record.
_TWINS: dict[int, tuple[Record, Any]] = {}


def to_twin(value: Any) -> Any:
    """``value`` with every record in it rebuilt as its dataclass twin."""
    if isinstance(value, Record):
        if (kept := _TWINS.get(id(value))) is None:
            fields = {name: to_twin(getattr(value, name)) for name in value._fields}
            kept = _TWINS[id(value)] = (value, DATACLASS_TWINS[type(value)](**fields))
        return kept[1]
    if isinstance(value, tuple):
        return tuple(map(to_twin, value))
    return value
