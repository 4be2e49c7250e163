"""Naive reference implementations the optimised engine is checked against.

``naive_confusion`` is the single-pass, per-``Sample`` counting loop, and
``dictreader_parse_predictions`` the ``csv.DictReader`` + ``Sample``
parser, as the engine had them before predictions were held in columns.
Each re-checks every value itself, so a test can compare both results
and errors.
"""

from __future__ import annotations

import csv
import itertools
import json
from typing import Any, Iterable, Iterator

from deployassure import (
    ConfusionCounts,
    EmptyFileError,
    EmptyInputError,
    MalformedRowError,
    MalformedSampleError,
    MissingColumnError,
    Sample,
)
from deployassure.evaluation import check_threshold

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
