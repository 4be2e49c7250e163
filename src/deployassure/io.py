"""File ingestion: prediction files and precomputed signal files.

Both readers accept CSV (with a header row) or JSON-lines (one object
per line, same keys as the CSV columns); the format is detected from the
first non-blank line. Extra columns are ignored; in particular, score
and classification columns on a signals file are recomputed, never
trusted. All diagnostics carry the file name, and a bad value or record
its 1-based physical row number; a missing column, an empty file and a
decoding error (the file is not UTF-8) carry no row. A file is read
once, a block at a time, by C-level iterators; only a block they doubt
is checked row by row, with the same results and errors. A CSV block
with no quote, ``\\r`` or NUL whose lines all have the header's width is
split at its commas by one ``str.split``. The csv module reads any other
block on its own, and the rest of the file from the first block with a
quote or ``\\r``, as a quoted cell may span lines: all of a CRLF file.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
from array import array
from typing import Any, Callable, Iterable, Iterator, Sequence

from .assurance import OUT_OF_RANGE, R_M_RANGE, UNIT_INTERVAL, AssuranceSignals
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


def _iter_records(
    path: str,
    columns: tuple[str, ...],
    required: int,
    checks: tuple[Callable[..., Any], ...],
) -> Iterator[Any]:
    """Read a file once, ``_BLOCK_ROWS`` records at a time, and check it.

    ``checks`` are one kind's checks of a CSV block's ``columns`` cells
    (picked from its split or transposed rows), of a JSON-lines block's
    :func:`_decode_block` columns, and of one record's ``columns`` values.
    The block checks return a block of columns, which is yielded; the row
    check returns one row. A block its check doubts (see :func:`_vouched`)
    goes through the row check record by record, and its rows are yielded
    as one block (:func:`_gathered`); then reading goes back to blocks. The
    row check's :class:`_BadValue` is raised as a :class:`MalformedRowError`
    with the record's 1-based physical row, once the rows before it are
    yielded.

    The first ``required`` columns must be in the header (CSV) or in the
    first record (JSON-lines). An absent value reads as ``None``. CSV is
    read as ``csv.DictReader`` reads it: blank lines are skipped, a short
    row's missing cells are ``None``, and of two header cells with the
    same name the last one counts. A JSON line is read by ``json.loads``,
    so a value it refuses (nested too deep for it, or an integer past the
    int digit limit) is invalid JSON too. A file with no data row but
    blank ones, after a CSV header or not, raises :class:`EmptyFileError`.

    A leading byte order mark is skipped. A file that is not UTF-8 raises
    :class:`EngineError` with the file name and no row (it is decoded in
    chunks), once the records before it are yielded.
    """
    rows: list = []  # a doubted block's checked rows
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            for row, line in enumerate(fh, 1):
                if line.strip():
                    break
            else:
                raise EmptyFileError(path)
            lines = itertools.chain((line,), fh)

            if line.lstrip().startswith("{"):
                first = end = row

                def decoded(block: list[str]) -> Any:
                    return checks[1](_decode_block(block, columns))

                for block in _blocks(lines):
                    start, end = end, end + len(block)
                    if (checked := _vouched(decoded, block)) is not None:
                        yield checked
                        continue
                    for row, line in enumerate(block, start):
                        if not line.strip():
                            continue
                        try:
                            record = json.loads(line)
                        except (ValueError, RecursionError) as exc:
                            raise _BadValue(f"invalid JSON: {exc}") from exc
                        if not isinstance(record, dict):
                            raise _BadValue("record is not an object")
                        if row == first:  # the first line is never blank
                            missing = [c for c in columns[:required] if c not in record]
                            if missing:
                                raise MissingColumnError(path, missing)
                        rows.append(checks[2](tuple(map(record.get, columns))))
                    yield from _gathered(rows)
                return

            reader = csv.reader(lines)
            start = row - 1  # the lines before the reader's first
            names = next(reader)
            header = {name: i for i, name in enumerate(names)}
            missing = [c for c in columns[:required] if c not in header]
            if missing:
                raise MissingColumnError(path, missing)
            positions = [header.get(c) for c in columns]
            present = [i for i in positions if i is not None]
            pick, absent = operator.itemgetter(*present), len(positions) - len(present)

            def picked(block: str | list[list[str]]) -> Any:
                # A block's text is split by _split; the csv module's rows are
                # transposed by one zip, which skips blank rows and stops at the
                # shortest: a short row leaves pick an IndexError. Absent
                # columns are optional ones, which come last: they are padded.
                if isinstance(block, str):
                    cells = pick(_split(block, len(names)))
                else:
                    cells = pick(tuple(zip(*filter(None, block))))
                return checks[0](cells + ((None,) * len(cells[0]),) * absent)

            end, data = start + reader.line_num, False
            for part in _blocks(lines):
                if (checked := _vouched(picked, text := "".join(part))) is not None:
                    end, data = end + len(part), True
                    yield checked
                    continue
                # A refused block holds whole records, unless a quote may open a
                # cell that spans lines: then the csv module reads to the end.
                if '"' in text or "\r" in text:
                    part = itertools.chain(part, lines)
                start, reader = end, csv.reader(part)
                for block in _blocks(reader):
                    row, end = end, start + reader.line_num
                    data = data or any(block)  # blank rows yield nothing
                    if (checked := _vouched(picked, block)) is not None:
                        yield checked
                        continue
                    for cells in block:
                        # A record's row is its last line, one more than the
                        # line breaks in its cells (\n, \r and \r\n one each),
                        # capped by the reader's count: a file's last record may
                        # end in an unclosed quote, whose cell holds a break.
                        text = ",".join(cells)
                        breaks = text.count("\n") + text.count("\r") - text.count("\r\n")
                        row = min(row + 1 + breaks, end)
                        if cells:  # missing cells and absent columns are None
                            values = map(dict(enumerate(cells)).get, positions)
                            rows.append(checks[2](list(values)))
                    yield from _gathered(rows)
            if not data:
                raise EmptyFileError(path)
    except _BadValue as exc:
        yield from _gathered(rows)
        raise MalformedRowError(path, row, str(exc)) from exc.__cause__
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        row = start + reader.line_num
        raise MalformedRowError(path, row, f"invalid CSV: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise EngineError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def _blocks(records: Iterator[Any]) -> Iterator[list]:
    """Lists of up to ``_BLOCK_ROWS`` records.

    A csv or decoding error that cuts a block short is raised once the
    records read before it are given out as a block: one may hold the first
    error. The caller checks each block after its loop let go of the last
    one; checking here, with the last block still held, set off a garbage
    collection for nearly every CSV block (15-20% slower at 200k rows).
    """
    while True:
        block: list = []
        try:
            block.extend(itertools.islice(records, _BLOCK_ROWS))
        except (csv.Error, UnicodeDecodeError):
            yield block
            raise
        if not block:
            return
        yield block


def _split(text: str, width: int) -> tuple[list[str], ...]:
    """A block of CSV lines' ``width`` (> 1) columns, as the csv module reads them,
    if it holds no quote, ``\\r`` or NUL, is shorter than the field size limit
    and each line holds ``width - 1`` commas; else :class:`_Doubt`."""
    text += "\n" * (not text.endswith("\n"))  # the file's last line may have none
    if len(text) >= csv.field_size_limit() or any(map(text.__contains__, '"\r\0')):
        raise _Doubt
    ruled = text.encode().translate(None, _NOT_SEPARATORS)  # its commas and \n
    if ruled != (b"," * (width - 1) + b"\n") * (len(ruled) // width):
        raise _Doubt
    cells = text.replace("\n", ",").split(",")
    return tuple(cells[i:-1:width] for i in range(width))


def _gathered(rows: list) -> Iterator[list]:
    """A doubted block's checked rows, if any, as one block of columns, in
    the shape a block check returns; ``rows`` is emptied."""
    if rows:
        block = list(zip(*rows))
        rows.clear()
        yield block


def _vouched(check: Callable[[Any], Any], block: Any) -> Any:
    """What ``check`` returns for a block, or None where it doubts the block."""
    try:
        return check(block)
    except (LookupError, ValueError, RecursionError):
        return None


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


def _parse_unit_interval(value: Any, name: str, bounds: tuple = UNIT_INTERVAL) -> float:
    """A number within ``bounds``; a JSON bool is not a number."""
    if value is None or isinstance(value, bool):
        raise _bad(value, name, f"{name} is not a number: {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise _BadValue(f"{name} is not a number: {value!r}") from None
    if not bounds[0] <= number <= bounds[1]:
        raise _BadValue(OUT_OF_RANGE.format(name, *bounds, value))
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


# Rows per block. Small on purpose: a larger block keeps more rows alive,
# in memory and, as the csv module's row lists, for the garbage collector
# to walk; read by csv.reader, blocks of 4096 rows or more parsed slower
# than 512. Split by _split, 512 and 2048 parse the same (200k rows, about
# 104 ms either way, CPython 3.11.7). `lifecycle.csv_blocks` writes the
# blocks it is given, so a retune moves the writer's memory and collections
# as well; tests/test_io.py TestBlockPathCollections bounds both.
_BLOCK_ROWS = 512
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",\n")
# The 0/1 cells the CSV block path takes, stripped as _parse_binary strips
# them; any other ("2", "") is doubt.
_LABELS = {"0": 0, "1": 1}
# Exact JSON types: a bool is no number; _BINARY in [0, 1] is 0, 1 or a bool.
_NUMBERS, _BINARY = {int, float}, {int, bool}


class _Doubt(ValueError):
    """The block checks cannot vouch for a block; the exact path decides."""


def _decode_block(lines: list[str], names: tuple[str, ...]) -> list[list[Any]]:
    """The ``names`` columns of a block of JSON lines, decoded as one array.

    Its items are the lines' own records if the block has no ``[`` (else
    ``{"a":[{"x":1}`` and ``{"z":1}]}, {"b":1}`` give two), each line starts
    with ``{`` and there is one item per line: a string holds no raw line
    break and no object takes the inserted ``,`` before a ``{``, so none
    spans two lines, and a line with two values adds an item. Else it
    raises ``ValueError`` (or the decoder's ``RecursionError``).
    """
    text = "[" + ",".join(lines) + "]"
    starts = map(str.startswith, lines, itertools.repeat("{"))
    if text.find("[", 1) >= 0 or not all(starts):
        raise _Doubt
    records = json.loads(text)
    if len(records) != len(lines):
        raise _Doubt
    return [list(map(dict.get, records, itertools.repeat(name))) for name in names]


def _typed(values: list[Any], types: set[type]) -> list[Any]:
    if set(map(type, values)) <= types:
        return values
    raise _Doubt


def _bounded(values: Any, bounds: tuple[float, float] = UNIT_INTERVAL) -> Any:
    # A NaN passes min and max but not the sum; a huge int fails before it.
    low, high = bounds
    if low <= min(values) and max(values) <= high and not math.isnan(sum(values)):
        return values
    raise _Doubt


def _prediction_block(columns: list[list[Any]]) -> tuple[array, bytes, list[str]]:
    """A decoded block's scores, labels and subgroups, or :class:`_Doubt`."""
    ids, scores, labels, subgroups = columns
    _typed(ids, {str})
    if not all(_typed(subgroups, {str})):  # an empty subgroup
        raise _Doubt
    scores = array("d", _bounded(_typed(scores, _NUMBERS)))
    return scores, bytes(_bounded(_typed(labels, _BINARY))), subgroups


def _reals(column: Sequence[Any]) -> Sequence[float]:
    """A column of numbers in [0, 1] as floats, or :class:`_Doubt`.

    A column of exact floats, as ``json.loads`` makes it, passes uncopied.
    ``float.__float__`` makes a float subclass exact and refuses a bool or an
    int, so only a column holding ints is converted.
    """
    if set(map(type, column)) == {float}:
        return _bounded(column)
    try:
        return _bounded(list(map(float.__float__, column)))
    except TypeError:
        return list(map(float, _bounded(_typed(column, _NUMBERS))))


def _signal_rows(columns: Sequence[Sequence[Any]]) -> list[Sequence[Any]]:
    """A decoded block's seven :func:`iter_signals` columns, or _Doubt."""
    ids, *signals, events, r_ms = columns
    _typed(ids, {str})
    signals = list(map(_reals, signals))
    _bounded(_typed(events, _BINARY))
    present = list(map(operator.is_not, r_ms, itertools.repeat(None)))
    if any(present):  # r_m: a number in [-1, 1], only on an event row
        given = _typed(list(itertools.compress(r_ms, present)), _NUMBERS)
        if not all(itertools.compress(events, present)):
            raise _Doubt
        if int in set(map(type, _bounded(given, R_M_RANGE))):  # as floats, as per row
            r_ms = [r if r is None else float(r) for r in r_ms]
    return [ids, *signals, list(map(bool, events)), r_ms]


def _binary_cells(cells: Sequence[str]) -> bytes:
    """A CSV column of 0/1 cells; only a column with a padded cell is stripped."""
    try:
        return bytes(map(_LABELS.__getitem__, cells))
    except KeyError:
        return bytes(map(_LABELS.__getitem__, map(str.strip, cells)))


def _prediction_cells(columns: tuple) -> tuple[array, bytes, Sequence[str]]:
    """A CSV block's cells as :func:`_prediction_block` returns its columns."""
    _, scores, labels, subgroups = columns
    if not all(subgroups):
        raise _Doubt
    scores = array("d", _bounded(list(map(float, scores))))
    return scores, _binary_cells(labels), subgroups


def _signal_cells(columns: tuple) -> list[Sequence[Any]]:
    """A CSV block's cells read as JSON values, then :func:`_signal_rows`."""
    ids, *signals, events, r_ms = columns
    signals = [list(map(float, column)) for column in signals]
    r_ms = [float(r) if r else None for r in r_ms]  # an empty cell is no r_m
    return _signal_rows([ids, *signals, _binary_cells(events), r_ms])


def _prediction_row(values: Sequence[Any]) -> tuple[float, int, str]:
    """One record's score, label and subgroup, as :func:`_prediction_block`
    returns a block's columns."""
    sample_id, score, label, subgroup = values
    _as_string(sample_id, "sample_id")
    score = _parse_unit_interval(score, "score")
    label = _parse_binary(label, "label")
    subgroup = _as_string(subgroup, "subgroup")
    if not subgroup:
        raise _BadValue("subgroup is empty")
    return score, label, subgroup


def _signal_row(values: Sequence[Any]) -> tuple:
    """One record's values as an :func:`iter_signals` row, a row of the
    columns :func:`_signal_rows` returns."""
    snapshot_id, fdi, delta_fpr, delta_fnr, tsz, event, raw_r_m = values
    snapshot_id = _as_string(snapshot_id, "snapshot_id")
    fdi = _parse_unit_interval(fdi, "fdi")
    delta_fpr = _parse_unit_interval(delta_fpr, "delta_fpr")
    delta_fnr = _parse_unit_interval(delta_fnr, "delta_fnr")
    tsz = _parse_unit_interval(tsz, "tsz")
    remediation = bool(_parse_binary(event, "remediation_event"))
    r_m: float | None = None
    if raw_r_m is not None and raw_r_m != "":
        r_m = _parse_unit_interval(raw_r_m, "r_m", R_M_RANGE)
        if not remediation:
            raise _BadValue("r_m present but remediation_event is 0")
    return snapshot_id, fdi, delta_fpr, delta_fnr, tsz, remediation, r_m


def parse_predictions(path: str) -> Predictions:
    """Read and validate a predictions file into columns, in file order.

    The file is read once, a block at a time, in both formats (see
    :func:`_iter_records`): :func:`_prediction_cells` checks a CSV block,
    :func:`_prediction_block` a JSON-lines one, and :func:`_prediction_row`
    each row of a block they doubt. That gives the first error its row or
    accepts what the blocks were too strict for (a JSON label ``" 1"``).
    So a pipe takes the block path too.

    Each ``sample_id`` is checked (a row too short to hold one is an
    error) but not stored.

    Raises:
        MissingColumnError: a required column/key is absent.
        MalformedRowError: a row fails validation (reported with its
            1-based physical row number).
        EmptyFileError: no data rows.
        OSError: unreadable path.
    """
    columns = PREDICTIONS_COLUMNS
    checks = (_prediction_cells, _prediction_block, _prediction_row)
    out = Predictions()
    # One string object per distinct subgroup, not one per row.
    subgroups: dict[str, str] = {}
    for scores, labels, names in _iter_records(path, columns, len(columns), checks):
        out.scores.extend(scores)
        out.labels.extend(labels)
        out.subgroups += map(subgroups.setdefault, names, names)
    return out


def iter_signals(
    path: str,
) -> Iterator[tuple[str, float, float, float, float, bool, float | None]]:
    """Read and validate a signals file, one row at a time, in row order.

    Yields ``(snapshot_id, fdi, delta_fpr, delta_fnr, tsz,
    remediation_event, r_m)``, with ``r_m`` ``None`` where the row has
    none. The optional ``r_m`` column may only carry a value on rows whose
    ``remediation_event`` is 1. Any das/drc columns present are ignored.

    The rows are those of :func:`signal_blocks`, zipped from each block's
    columns and handed on by ``itertools.chain``, which runs no Python code
    per row.

    Raises:
        MissingColumnError: a required column/key is absent.
        MalformedRowError: a row fails validation, with its 1-based
            physical row number; the rows before it have been yielded.
        EmptyFileError: no data rows.
        OSError: unreadable path.
    """
    blocks = signal_blocks(path)
    return itertools.chain.from_iterable(itertools.starmap(zip, blocks))


def signal_blocks(path: str) -> Iterator[list[Sequence[Any]]]:
    """Read and validate a signals file a block of rows at a time.

    Each block is the :func:`iter_signals` rows' seven columns: ids, four
    columns of floats, events as bools, and ``r_m`` a float or None.

    Like :func:`parse_predictions`, it reads the file once, a block at a
    time, a pipe too: :func:`_signal_cells` checks a CSV block,
    :func:`_signal_rows` a JSON-lines one, and :func:`_signal_row` each row
    of a block they doubt; the rows of such a block go on as one block. It
    raises what :func:`iter_signals` raises, once the rows before the
    failing one are yielded.
    """
    columns, required = SIGNALS_COLUMNS + ("r_m",), len(SIGNALS_COLUMNS)
    checks = (_signal_cells, _signal_rows, _signal_row)
    return _iter_records(path, columns, required, checks)


def checked_blocks(records: Iterable[Sequence[Any]]) -> Iterator[list[Sequence[Any]]]:
    """Signal records built in code, checked as :func:`signal_blocks` checks a file.

    Each record is an :func:`iter_signals` row. A block of ``_BLOCK_ROWS``
    records goes through the JSON-lines block check, and a block it doubts
    through the row check, record by record; its rows go on as one block.

    Raises:
        ValueError: ``"record N: <message>"`` for the first record, 1-based,
            that fails its row check or does not hold seven values, once
            the records before it are yielded.
    """
    records, start, rows = iter(records), 1, []
    while block := list(itertools.islice(records, _BLOCK_ROWS)):
        if (checked := _vouched(_record_block, block)) is not None:
            yield checked
        else:
            for n, record in enumerate(block, start):
                try:
                    rows.append(_signal_row(record))
                except (_BadValue, ValueError) as exc:  # ValueError: not 7 values
                    yield from _gathered(rows)
                    raise ValueError(f"record {n}: {exc}") from None
            yield from _gathered(rows)
        start += len(block)


def _record_block(block: list[Sequence[Any]]) -> list[Sequence[Any]]:
    """:func:`_signal_rows` over a block of records, or doubt."""
    columns = list(zip(*block, strict=True))
    if len(columns) != len(SIGNALS_COLUMNS) + 1:
        raise _Doubt
    return _signal_rows(columns)


def parse_signals(path: str) -> list[tuple[str, AssuranceSignals]]:
    """The rows of :func:`iter_signals` as ``(snapshot_id, signals)``."""
    return [
        (sid, AssuranceSignals(*values, remediation_event=event, r_m=r_m))
        for sid, *values, event, r_m in iter_signals(path)
    ]
