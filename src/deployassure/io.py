"""File ingestion: prediction files and precomputed signal files.

Both readers accept CSV (with a header row) or JSON-lines (one object
per line, same keys as the CSV columns); the format is detected from the
first non-blank line. Extra columns are ignored; in particular, score
and classification columns on a signals file are recomputed, never
trusted. All diagnostics carry the file name, and all but a decoding
error (the file is not UTF-8) the 1-based physical row number.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
from array import array
from typing import Any, Iterator, Sequence, TextIO

from .assurance import AssuranceSignals
from .errors import (
    EmptyFileError,
    EngineError,
    MalformedRowError,
    MissingColumnError,
)
from .evaluation import Predictions

PREDICTIONS_COLUMNS = ("sample_id", "score", "label", "subgroup")
SIGNALS_COLUMNS = (
    "snapshot_id",
    "fdi",
    "delta_fpr",
    "delta_fnr",
    "tsz",
    "remediation_event",
)


# The C scanner behind json.loads, and what may follow the value it scans
# for a line to hold just that value.
_scan_json = json.JSONDecoder().scan_once
_LINE_ENDS = ("\n", "", "\r\n", "\r")


def _open_text(path: str) -> TextIO:
    return open(path, "r", encoding="utf-8", newline="")


def _iter_records(
    path: str, columns: tuple[str, ...], required: int, fh: TextIO | None = None
) -> Iterator[tuple[int, Sequence[Any]]]:
    """Yield each record's ``columns`` values with its 1-based physical row.

    The first ``required`` columns must be in the header (CSV) or in the
    first record (JSON-lines). An absent value reads as ``None``. CSV is
    read as ``csv.DictReader`` reads it: blank lines are skipped, a short
    row's missing cells are ``None``, and of two header cells with the
    same name the last one counts.

    The format is read from the first non-blank line, which is then
    parsed from the same handle. Both formats are read in this one
    generator: delegating each row to a nested generator cost about a
    tenth of the CSV read time.

    A JSON-lines record is read with the JSON decoder's C scanner, and is
    taken when the scanned value ends the line. Any other line (blank,
    padded, BOM-led, trailing data, a scan error) falls back to
    ``json.loads``, which skips blank lines and gives every error its
    message. A value the decoder refuses (nested too deep for it, or an
    integer past the int digit limit) is invalid JSON too.

    A file that is not UTF-8 raises :class:`EngineError` with the file name
    and no row: the file is decoded in chunks, so no row is known.

    ``fh``, a handle already open on ``path`` at its start, is read instead
    of opening the file again, and is closed at the end.
    """
    try:
        with (_open_text(path) if fh is None else fh) as fh:
            row = 0
            for line in fh:
                row += 1
                if line.strip():
                    break
            else:
                raise EmptyFileError(path)
            lines = itertools.chain((line,), fh)

            if not line.lstrip().startswith("{"):
                reader = csv.reader(lines)
                offset = row - 1
                try:
                    header = {name: i for i, name in enumerate(next(reader))}
                    missing = [c for c in columns[:required] if c not in header]
                    if missing:
                        raise MissingColumnError(path, missing)
                    positions = [header.get(c) for c in columns]
                    # The fast path needs every column in the header and the row.
                    if None in positions:
                        width, pick = math.inf, None
                    else:
                        width = 1 + max(positions)
                        pick = operator.itemgetter(*positions)
                    for cells in reader:
                        if len(cells) >= width:
                            yield offset + reader.line_num, pick(cells)
                        elif cells:
                            n = len(cells)
                            yield offset + reader.line_num, [
                                None if i is None or i >= n else cells[i]
                                for i in positions
                            ]
                except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
                    row = offset + reader.line_num
                    raise MalformedRowError(path, row, f"invalid CSV: {exc}") from exc
                return

            first = True
            for line_num, line in enumerate(lines, start=row):
                try:
                    record, end = _scan_json(line, 0)
                    whole_line = line[end:] in _LINE_ENDS
                except (StopIteration, ValueError, RecursionError):
                    whole_line = False
                if not whole_line:
                    if not line.strip():
                        continue
                    try:
                        record = json.loads(line)
                    except (ValueError, RecursionError) as exc:
                        message = f"invalid JSON: {exc}"
                        raise MalformedRowError(path, line_num, message) from exc
                if not isinstance(record, dict):
                    raise MalformedRowError(path, line_num, "record is not an object")
                if first:
                    missing = [c for c in columns[:required] if c not in record]
                    if missing:
                        raise MissingColumnError(path, missing)
                    first = False
                yield line_num, tuple(map(record.get, columns))
    except UnicodeDecodeError as exc:
        raise EngineError(f"{path}: not UTF-8 text: {exc.reason}") from exc


class _BadValue(Exception):
    """A field broke its rule; the reader adds the file and the row."""


def _bad(value: Any, name: str, message: str) -> _BadValue:
    if value is None:
        return _BadValue(f"missing value for {name!r}")
    return _BadValue(message)


def _as_string(value: Any, name: str) -> str:
    if isinstance(value, str):
        return value
    raise _bad(value, name, f"{name} must be a string, got {value!r}")


def _parse_unit_interval(value: Any, name: str, low: float = 0.0) -> float:
    """A number in ``[low, 1]``; a JSON bool is not a number.

    Scores and the four signals take the default ``low`` of 0; ``r_m``, a
    remediation's assurance-score delta, passes -1.
    """
    if value is None or isinstance(value, bool):
        raise _bad(value, name, f"{name} is not a number: {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise _BadValue(f"{name} is not a number: {value!r}") from None
    if not low <= number <= 1.0:
        raise _BadValue(f"{name} out of range [{low:g}, 1]: {value!r}")
    return number


def _parse_binary(value: Any, name: str) -> int:
    # Strings first: that is every CSV cell.
    if isinstance(value, str):
        text = value.strip()
        if text == "1":
            return 1
        if text == "0":
            return 0
    elif isinstance(value, bool):
        return int(value)
    elif isinstance(value, int) and value in (0, 1):
        return value
    raise _bad(value, name, f"{name} must be 0 or 1, got {value!r}")


# Rows per block on the clean-CSV path. Small on purpose: a larger block
# keeps more row lists alive for the garbage collector to walk and in
# memory; blocks of 4096 rows or more parsed slower than 512.
_BLOCK_ROWS = 512
# The label cells the block path takes; any other (" 1", "2") is doubt.
_LABELS = {"0": 0, "1": 1}


def _read_clean_csv(fh: TextIO) -> Predictions | None:
    """A clean CSV predictions file as columns, or ``None`` at any doubt.

    Rows are read a block at a time, and each block is checked by C-level
    iterators: ``float`` and two range checks for the scores (NaN fails
    both), a dict lookup that takes only ``"0"`` and ``"1"`` for labels, and
    one check for an empty subgroup at the end. The ``sample_id`` cell is
    picked from every row though it is not kept, so a row too short to
    hold it is doubt too. Doubt is anything these checks cannot vouch for:
    a short row, a value they refuse, a csv or decoding error, a missing
    column, a leading blank line, JSON-lines, or no data rows. No row
    number is counted.
    """
    out = Predictions()
    scores, labels, subgroups = out.scores, out.labels, out.subgroups
    groups: dict[str, str] = {}  # one string object per distinct subgroup
    label_of = _LABELS.__getitem__
    try:
        first = fh.readline()
        if not first.strip() or first.lstrip().startswith("{"):
            return None
        reader = csv.reader(itertools.chain((first,), fh))
        header = {name: i for i, name in enumerate(next(reader))}
        pick = operator.itemgetter(*map(header.__getitem__, PREDICTIONS_COLUMNS))
        rows = map(pick, filter(None, reader))
        while block := list(itertools.islice(rows, _BLOCK_ROWS)):
            _, score_cells, label_cells, group_cells = zip(*block)
            block_scores = array("d", map(float, score_cells))
            if not (
                all(map((0.0).__le__, block_scores))
                and all(map((1.0).__ge__, block_scores))
            ):
                return None
            scores += block_scores
            labels += bytes(map(label_of, label_cells))
            subgroups += map(groups.setdefault, group_cells, group_cells)
    except (LookupError, ValueError, csv.Error):  # ValueError: float(), UTF-8
        return None
    if "" in groups or not out:
        return None
    return out


def _parse_rows(records: Iterator[tuple[int, Sequence[Any]]], path: str) -> Predictions:
    """Check each record on its own, in file order; the exact path.

    Each record comes from :func:`_iter_records` with its physical row, so
    the first bad value is reported with its row.
    """
    out = Predictions()
    add_score, add_label = out.scores.append, out.labels.append
    add_subgroup = out.subgroups.append
    # One string object per distinct subgroup, not one per row.
    subgroups: dict[str, str] = {}
    try:
        for row, (sample_id, score, label, subgroup) in records:
            _as_string(sample_id, "sample_id")
            add_score(_parse_unit_interval(score, "score"))
            add_label(_parse_binary(label, "label"))
            subgroup = _as_string(subgroup, "subgroup")
            if not subgroup:
                raise _BadValue("subgroup is empty")
            add_subgroup(subgroups.setdefault(subgroup, subgroup))
    except _BadValue as exc:
        raise MalformedRowError(path, row, str(exc)) from None
    if not out:
        raise EmptyFileError(path)
    return out


def parse_predictions(path: str) -> Predictions:
    """Read and validate a predictions file into columns, in file order.

    A CSV file is first read a block of rows at a time, each block checked
    by C-level iterators with no per-row validator and no row count. If
    those checks have any doubt (a bad or padded value, a short row, a csv
    error, JSON-lines, ...), the same handle is read once more from its
    start on the exact path, which checks each record on its own. That
    path raises the first error with its 1-based physical row, or accepts
    a value the block checks were too strict for (a label of ``" 1"``). So
    a row number is computed only when there may be an error, and the
    result and every error are those of the exact path. A file that cannot
    be read twice (a pipe) takes the exact path alone.

    Each ``sample_id`` is checked (a row too short to hold one is an
    error) but not stored.

    Raises:
        MissingColumnError: a required column/key is absent.
        MalformedRowError: a row fails validation (reported with its
            1-based physical row number).
        EmptyFileError: no data rows.
        OSError: unreadable path.
    """
    with _open_text(path) as fh:
        if fh.seekable():
            out = _read_clean_csv(fh)
            if out is not None:
                return out
            fh.seek(0)
        records = _iter_records(path, PREDICTIONS_COLUMNS, len(PREDICTIONS_COLUMNS), fh)
        return _parse_rows(records, path)


def iter_signals(
    path: str,
) -> Iterator[tuple[str, float, float, float, float, bool, float | None]]:
    """Read and validate a signals file, one row at a time, in row order.

    Yields ``(snapshot_id, fdi, delta_fpr, delta_fnr, tsz,
    remediation_event, r_m)``, with ``r_m`` ``None`` where the row has
    none. The optional ``r_m`` column may only carry a value on rows whose
    ``remediation_event`` is 1. Any das/drc columns present are ignored.

    Raises:
        MissingColumnError: a required column/key is absent.
        MalformedRowError: a row fails validation, with its 1-based
            physical row number; the rows before it have been yielded.
        EmptyFileError: no data rows.
        OSError: unreadable path.
    """
    row = None
    records = _iter_records(path, SIGNALS_COLUMNS + ("r_m",), len(SIGNALS_COLUMNS))
    try:
        for row, values in records:
            snapshot_id, fdi, delta_fpr, delta_fnr, tsz, event, raw_r_m = values
            snapshot_id = _as_string(snapshot_id, "snapshot_id")
            fdi = _parse_unit_interval(fdi, "fdi")
            delta_fpr = _parse_unit_interval(delta_fpr, "delta_fpr")
            delta_fnr = _parse_unit_interval(delta_fnr, "delta_fnr")
            tsz = _parse_unit_interval(tsz, "tsz")
            remediation = bool(_parse_binary(event, "remediation_event"))
            r_m: float | None = None
            if raw_r_m is not None and raw_r_m != "":
                r_m = _parse_unit_interval(raw_r_m, "r_m", -1.0)
                if not remediation:
                    raise _BadValue("r_m present but remediation_event is 0")
            yield snapshot_id, fdi, delta_fpr, delta_fnr, tsz, remediation, r_m
    except _BadValue as exc:
        raise MalformedRowError(path, row, str(exc)) from None
    if row is None:
        raise EmptyFileError(path)


def parse_signals(path: str) -> list[tuple[str, AssuranceSignals]]:
    """The rows of :func:`iter_signals` as ``(snapshot_id, signals)``."""
    return [
        (sid, AssuranceSignals(*values, remediation_event=event, r_m=r_m))
        for sid, *values, event, r_m in iter_signals(path)
    ]
