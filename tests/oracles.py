"""Naive reference implementations the optimised engine is checked against.

``naive_confusion`` is the single-pass, per-``Sample`` counting loop, and
``dictreader_parse_predictions`` the ``csv.DictReader`` + ``Sample``
parser, as the engine had them before predictions were held in columns.
Each re-checks every value itself, so a test can compare both results
and errors.

``staged_trace`` is the staged lifecycle path as the engine had it before
the one-pass fold: ``AssuranceSignals`` per row, then assessments, replay
and emission, with its own DAS, DRC and GES rules. Its one change is the
DAS clamp, which fixed a perfect snapshot exiting 1 under simplex weights
whose float sum exceeds 1. ``staged_score`` is ``score``'s output built
from the same staged rules, each row on its own.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import replace
from typing import Any, Iterable, Iterator, Sequence

from deployassure import (
    AssuranceSignals,
    ConfusionCounts,
    DeploymentState,
    DomainError,
    EmptyFileError,
    EmptyInputError,
    EmptySequenceError,
    EscalationLevel,
    GesThresholds,
    GovernanceTrace,
    MalformedRowError,
    MalformedSampleError,
    MissingColumnError,
    RulesConfig,
    Sample,
    SnapshotAssessment,
    TraceEntry,
    TransitionRecord,
    WeightVector,
    ZoneLabel,
)
from deployassure.assurance import BY_FAVORABILITY, DrcBands, less_favorable
from deployassure.evaluation import check_threshold
from deployassure.io import (
    SIGNALS_COLUMNS,
    _as_string as _io_as_string,
    _BadValue,
    _iter_records,
    _parse_binary as _io_parse_binary,
    _parse_unit_interval as _io_parse_unit_interval,
)
from deployassure.lifecycle import (
    REASON_DAS_BAND,
    REASON_FAILED_REMEDIATION,
    REASON_FRAGILITY,
    REASON_RECOVERY_GATED,
    TRACE_COLUMNS,
    csv_writer,
)

PREDICTIONS_COLUMNS = ("sample_id", "score", "label", "subgroup")


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


def _records(path: str) -> Iterator[tuple[int, dict[str, Any]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
            missing = [c for c in PREDICTIONS_COLUMNS if c not in reader.fieldnames]
            if missing:
                raise MissingColumnError(path, missing)
            for record in reader:
                yield row - 1 + reader.line_num, record
            return

        first = True
        for line_num, line in enumerate(lines, start=row):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRowError(path, line_num, f"invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise MalformedRowError(path, line_num, "record is not an object")
            if first:
                missing = [c for c in PREDICTIONS_COLUMNS if c not in record]
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
    for row, record in _records(path):
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
    records = _iter_records(path, SIGNALS_COLUMNS + ("r_m",), len(SIGNALS_COLUMNS))
    try:
        for row, values in records:
            snapshot_id, fdi, delta_fpr, delta_fnr, tsz, event, raw_r_m = values
            snapshot_id = _io_as_string(snapshot_id, "snapshot_id")
            fdi = _io_parse_unit_interval(fdi, "fdi")
            delta_fpr = _io_parse_unit_interval(delta_fpr, "delta_fpr")
            delta_fnr = _io_parse_unit_interval(delta_fnr, "delta_fnr")
            tsz = _io_parse_unit_interval(tsz, "tsz")
            remediation = bool(_io_parse_binary(event, "remediation_event"))
            r_m: float | None = None
            if raw_r_m is not None and raw_r_m != "":
                if isinstance(raw_r_m, bool):
                    raise _BadValue(f"r_m is not a number: {raw_r_m!r}")
                try:
                    r_m = float(raw_r_m)
                except (TypeError, ValueError, OverflowError):
                    raise _BadValue(f"r_m is not a number: {raw_r_m!r}") from None
                if not -1.0 <= r_m <= 1.0:
                    raise _BadValue(f"r_m out of range [-1, 1]: {raw_r_m!r}")
                if not remediation:
                    raise _BadValue("r_m present but remediation_event is 0")
            rows.append(
                (
                    snapshot_id,
                    AssuranceSignals(
                        fdi=fdi,
                        delta_fpr=delta_fpr,
                        delta_fnr=delta_fnr,
                        tsz=tsz,
                        remediation_event=remediation,
                        r_m=r_m,
                    ),
                )
            )
    except _BadValue as exc:
        raise MalformedRowError(path, row, str(exc)) from None
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
