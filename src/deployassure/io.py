"""File ingestion: prediction files and precomputed signal files.

Both readers accept CSV (with a header row) or JSON-lines (one object
per line, same keys as the CSV columns); the format is detected from the
first non-blank line. Extra columns are ignored; in particular, score
and classification columns on a signals file are recomputed, never
trusted. All diagnostics carry the file name and the 1-based physical
row number.
"""

from __future__ import annotations

import csv
import itertools
import json
from typing import Any, Iterator

from .assurance import AssuranceSignals
from .errors import (
    EmptyFileError,
    MalformedRowError,
    MissingColumnError,
)
from .evaluation import Sample

PREDICTIONS_COLUMNS = ("sample_id", "score", "label", "subgroup")
SIGNALS_COLUMNS = (
    "snapshot_id",
    "fdi",
    "delta_fpr",
    "delta_fnr",
    "tsz",
    "remediation_event",
)


def _iter_records(path: str, required: tuple[str, ...]) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield each record with its 1-based physical row number.

    The format is read from the first non-blank line, which is then
    parsed from the same handle. Both formats are read in this one
    generator: delegating each row to a nested generator cost about a
    tenth of the CSV read time.
    """
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
            missing = [c for c in required if c not in reader.fieldnames]
            if missing:
                raise MissingColumnError(path, missing)
            offset = row - 1
            for record in reader:
                yield offset + reader.line_num, record
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
    except (TypeError, ValueError):
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


def parse_predictions(path: str) -> list[Sample]:
    """Read and validate a predictions file into samples.

    Raises:
        MissingColumnError: a required column/key is absent.
        MalformedRowError: a row fails validation (reported with its
            1-based physical row number).
        EmptyFileError: no data rows.
        OSError: unreadable path.
    """
    samples: list[Sample] = []
    for row, record in _iter_records(path, PREDICTIONS_COLUMNS):
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


def parse_signals(path: str) -> list[tuple[str, AssuranceSignals]]:
    """Read and validate a signals file, preserving row order.

    The optional ``r_m`` column may only carry a value on rows whose
    ``remediation_event`` is 1. Any das/drc columns present are ignored.
    """
    rows: list[tuple[str, AssuranceSignals]] = []
    for row, record in _iter_records(path, SIGNALS_COLUMNS):
        snapshot_id = _as_string(
            _field(record, "snapshot_id", path, row), "snapshot_id", path, row
        )
        values = {
            name: _parse_unit_interval(_field(record, name, path, row), name, path, row)
            for name in ("fdi", "delta_fpr", "delta_fnr", "tsz")
        }
        remediation = bool(
            _parse_binary(
                _field(record, "remediation_event", path, row),
                "remediation_event",
                path,
                row,
            )
        )
        r_m: float | None = None
        raw_r_m = record.get("r_m")
        if raw_r_m is not None and raw_r_m != "":
            if isinstance(raw_r_m, bool):
                raise MalformedRowError(path, row, f"r_m is not a number: {raw_r_m!r}")
            try:
                r_m = float(raw_r_m)
            except (TypeError, ValueError):
                raise MalformedRowError(path, row, f"r_m is not a number: {raw_r_m!r}")
            if not -1.0 <= r_m <= 1.0:
                raise MalformedRowError(
                    path, row, f"r_m out of range [-1, 1]: {raw_r_m!r}"
                )
            if not remediation:
                raise MalformedRowError(
                    path, row, "r_m present but remediation_event is 0"
                )
        rows.append(
            (
                snapshot_id,
                AssuranceSignals(
                    fdi=values["fdi"],
                    delta_fpr=values["delta_fpr"],
                    delta_fnr=values["delta_fnr"],
                    tsz=values["tsz"],
                    remediation_event=remediation,
                    r_m=r_m,
                ),
            )
        )
    if not rows:
        raise EmptyFileError(path)
    return rows
