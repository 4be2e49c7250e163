"""Tests for predictions/signals file ingestion."""

from __future__ import annotations

import collections
import csv
import gc
import io
import json
import os
import random
import threading
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from deployassure import (
    DeploymentState,
    EmptyFileError,
    EngineError,
    MalformedRowError,
    MissingColumnError,
    RulesConfig,
    parse_predictions,
)
import deployassure.io
from deployassure.io import (
    PREDICTIONS_COLUMNS,
    SIGNALS_COLUMNS,
    iter_signals,
    parse_signals,
)
from deployassure.lifecycle import fold_trace, format_real

from oracles import (
    dictreader_parse_predictions,
    row_trace,
    staged_parse_signals,
    typed_signal_rows,
)


def columns(parsed):
    """Scores, labels and subgroups as lists, of predictions or of samples."""
    if isinstance(parsed, list):
        return [[getattr(s, c) for s in parsed] for c in PREDICTIONS_COLUMNS[1:]]
    return [list(parsed.scores), list(parsed.labels), list(parsed.subgroups)]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParsePredictions:
    def test_single_row(self, tmp_path):
        path = write(
            tmp_path, "p.csv", "sample_id,score,label,subgroup\ns1,0.9,1,A\n"
        )
        assert columns(parse_predictions(path)) == [[0.9], [1], ["A"]]

    def test_score_out_of_range_reports_row_two(self, tmp_path):
        path = write(
            tmp_path, "p.csv", "sample_id,score,label,subgroup\ns2,1.5,1,A\n"
        )
        with pytest.raises(MalformedRowError) as excinfo:
            parse_predictions(path)
        assert excinfo.value.row == 2
        assert "p.csv" in str(excinfo.value)
        assert "score" in str(excinfo.value)

    def test_header_only_is_empty(self, tmp_path):
        # Blank lines are no data rows, also past the first block.
        readers = [
            (PREDICTIONS_COLUMNS, parse_predictions),
            (SIGNALS_COLUMNS, lambda path: list(iter_signals(path))),
        ]
        for names, read in readers:
            for end, blanks in [("\n", 0), ("\n", 600), ("\r\n", 600)]:
                path = write(tmp_path, "p.csv", ",".join(names) + end * (1 + blanks))
                with pytest.raises(EmptyFileError):
                    read(path)

    def test_zero_byte_file_is_empty(self, tmp_path):
        path = write(tmp_path, "p.csv", "")
        with pytest.raises(EmptyFileError):
            parse_predictions(path)

    def test_missing_column_named(self, tmp_path):
        path = write(tmp_path, "p.csv", "sample_id,score,label\ns1,0.9,1\n")
        with pytest.raises(MissingColumnError) as excinfo:
            parse_predictions(path)
        assert "subgroup" in str(excinfo.value)

    def test_bad_label_rejected(self, tmp_path):
        path = write(
            tmp_path, "p.csv", "sample_id,score,label,subgroup\ns1,0.9,2,A\n"
        )
        with pytest.raises(MalformedRowError):
            parse_predictions(path)

    def test_empty_subgroup_rejected(self, tmp_path):
        path = write(
            tmp_path, "p.csv", "sample_id,score,label,subgroup\ns1,0.9,1,\n"
        )
        with pytest.raises(MalformedRowError):
            parse_predictions(path)

    def test_extra_columns_ignored(self, tmp_path):
        path = write(
            tmp_path,
            "p.csv",
            "sample_id,score,label,subgroup,note\ns1,0.9,1,A,keep\n",
        )
        assert columns(parse_predictions(path)) == [[0.9], [1], ["A"]]

    def test_jsonl_round(self, tmp_path):
        path = write(
            tmp_path,
            "p.jsonl",
            '{"sample_id": "s1", "score": 0.9, "label": 1, "subgroup": "A"}\n'
            '{"sample_id": "s2", "score": 0.1, "label": 0, "subgroup": "B"}\n',
        )
        assert columns(parse_predictions(path)) == [[0.9, 0.1], [1, 0], ["A", "B"]]

    def test_jsonl_bad_row_numbered(self, tmp_path):
        path = write(
            tmp_path,
            "p.jsonl",
            '{"sample_id": "s1", "score": 0.9, "label": 1, "subgroup": "A"}\n'
            '{"sample_id": "s2", "score": 2.0, "label": 1, "subgroup": "A"}\n',
        )
        with pytest.raises(MalformedRowError) as excinfo:
            parse_predictions(path)
        assert excinfo.value.row == 2

    def test_jsonl_missing_key_detected(self, tmp_path):
        path = write(tmp_path, "p.jsonl", '{"sample_id": "s1", "score": 0.9}\n')
        with pytest.raises(MissingColumnError):
            parse_predictions(path)


@pytest.mark.parametrize(
    "name,body",
    [
        ("p.csv", "sample_id,score,label,subgroup\ns1,0.9,1,A\ns2,2.0,1,A\n"),
        (
            "p.jsonl",
            '{"sample_id": "s1", "score": 0.9, "label": 1, "subgroup": "A"}\n'
            '{"sample_id": "s2", "score": 2.0, "label": 1, "subgroup": "A"}\n',
        ),
    ],
    ids=["csv", "jsonl"],
)
def test_leading_blank_lines_keep_physical_rows(monkeypatch, tmp_path, name, body):
    path = write(tmp_path, name, "\n  \n" + body)
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr("deployassure.io.open", counting_open, raising=False)
    with pytest.raises(MalformedRowError) as excinfo:
        parse_predictions(path)
    assert excinfo.value.row == 2 + len(body.splitlines())  # the last line
    assert opened == [path]
    good = write(tmp_path, "good-" + name, "\n  \n" + body.replace("2.0", "0.2"))
    assert list(parse_predictions(good).scores) == [0.9, 0.2]


class TestParseSignals:
    def test_reference_row(self, signals_file):
        rows = parse_signals(signals_file)
        assert [r[0] for r in rows] == ["baseline", "mitigation_a", "mitigation_b"]
        baseline = rows[0][1]
        assert baseline.fdi == 0.68
        assert baseline.delta_fpr == 0.304
        assert baseline.delta_fnr == 0.694
        assert baseline.tsz == 0.42
        assert baseline.remediation_event is False
        assert rows[1][1].remediation_event is True

    def test_signal_out_of_range(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            "snapshot_id,fdi,delta_fpr,delta_fnr,tsz,remediation_event\n"
            "snap,1.2,0.1,0.1,0.1,0\n",
        )
        with pytest.raises(MalformedRowError) as excinfo:
            parse_signals(path)
        assert "fdi" in str(excinfo.value)

    def test_first_bad_row_reported(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            "snapshot_id,fdi,delta_fpr,delta_fnr,tsz,remediation_event\n"
            "a,0.1,0.1,0.1,0.1,0\n"
            "b,1.4,0.1,0.1,0.1,0\n"
            "c,1.9,0.1,0.1,0.1,0\n",
        )
        with pytest.raises(MalformedRowError) as excinfo:
            parse_signals(path)
        assert excinfo.value.row == 3

    def test_r_m_without_remediation_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            "snapshot_id,fdi,delta_fpr,delta_fnr,tsz,remediation_event,r_m\n"
            "snap,0.1,0.1,0.1,0.1,0,0.2\n",
        )
        with pytest.raises(MalformedRowError) as excinfo:
            parse_signals(path)
        assert "r_m" in str(excinfo.value)

    def test_r_m_parsed_on_remediation(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            "snapshot_id,fdi,delta_fpr,delta_fnr,tsz,remediation_event,r_m\n"
            "snap,0.1,0.1,0.1,0.1,1,-0.25\n",
        )
        rows = parse_signals(path)
        assert rows[0][1].r_m == -0.25

    def test_score_columns_on_input_are_ignored(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            "snapshot_id,fdi,delta_fpr,delta_fnr,tsz,remediation_event,das,drc\n"
            "snap,0.1,0.1,0.1,0.1,0,0.99,Deployable\n",
        )
        rows = parse_signals(path)
        assert rows[0][0] == "snap"

    def test_jsonl_booleans(self, tmp_path):
        path = write(
            tmp_path,
            "s.jsonl",
            '{"snapshot_id": "snap", "fdi": 0.1, "delta_fpr": 0.1, '
            '"delta_fnr": 0.1, "tsz": 0.1, "remediation_event": true, "r_m": 0.05}\n',
        )
        rows = parse_signals(path)
        assert rows[0][1].remediation_event is True
        assert rows[0][1].r_m == 0.05

    def test_lossless_at_four_decimals(self, tmp_path):
        cells = [
            ("a", "0.6800", "0.3040", "0.6940", "0.4200"),
            ("b", "0.4100", "0.2060", "0.4240", "0.2800"),
            ("c", "0.0001", "0.9999", "0.5000", "0.1234"),
        ]
        text = "snapshot_id,fdi,delta_fpr,delta_fnr,tsz,remediation_event\n"
        text += "".join(",".join(row) + ",0\n" for row in cells)
        path = write(tmp_path, "s.csv", text)
        for (snapshot_id, signals), row in zip(parse_signals(path), cells):
            assert format_real(signals.fdi) == row[1]
            assert format_real(signals.delta_fpr) == row[2]
            assert format_real(signals.delta_fnr) == row[3]
            assert format_real(signals.tsz) == row[4]


# --- The columnar parser against the DictReader + Sample oracle ---------

def _mostly(valid, invalid):
    """``valid``, and one time in twenty ``invalid``."""
    return st.integers(0, 19).flatmap(lambda k: invalid if k == 0 else valid)


three_decimals = st.integers(0, 1000).map(lambda k: k / 1000)
CSV_CELLS = {
    "sample_id": st.sampled_from(("s1", "s,2", 's"3', "s\n4", "")),
    "score": _mostly(
        st.sampled_from(("1", "0", "1e0", " 0.3 ")) | three_decimals.map(str),
        st.sampled_from(("nan", "inf", "1.5", "-0.1", "", "x")),
    ),
    "label": _mostly(
        st.sampled_from(("0", "1", " 1", "1 ")), st.sampled_from(("2", "", "true"))
    ),
    "subgroup": _mostly(
        st.sampled_from(("A", "B", "a,b", 'q"x', "two\nlines", "cr\rlf", " ")),
        st.just(""),
    ),
    "note": st.text("ab,\"\n ", max_size=3),
}
JSON_VALUES = {
    "sample_id": _mostly(
        st.sampled_from(("s1", "s,2", "")), st.sampled_from((5, None))
    ),
    "score": _mostly(
        st.sampled_from((1, 0, "0.5", "1e0")) | three_decimals,
        st.sampled_from(
            (1.5, -0.1, float("nan"), float("inf"), -float("inf"), True, None, [1], "x")
        ),
    ),
    "label": _mostly(
        st.sampled_from((0, 1, True, False, "1", " 1")),
        st.sampled_from((2, 1.0, None, "x")),
    ),
    "subgroup": _mostly(
        st.sampled_from(("A", "B", "a,b")), st.sampled_from(("", 3, None))
    ),
}
BLANK_LINES = ("\n", "\r\n", "  \n")
# Around a JSON record: whitespace JSON skips, characters it does not
# (a BOM, \x0b, \x0c, a no-break space), and trailing data.
JSON_PADDING = ("", " ", "\t", "\ufeff", "\x0b", "\x0c", "\u00a0")
JSON_TRAILERS = ("", " ", "\t", "\x0b", "\u00a0", " x", "{}")
JSON_LINE_ENDS = ("\n", "\r\n", "\r")


def _outcome(parse, path):
    try:
        return "ok", columns(parse(path))
    except EngineError as exc:  # the cause: a JSON, csv or decoding error
        return type(exc), str(exc), getattr(exc, "row", None), type(exc.__cause__)


def assert_same_as_oracle(tmp_path_factory, name, text):
    """Same columns or first error as the oracle."""
    path = tmp_path_factory.mktemp("oracle") / name
    path.write_text(text, encoding="utf-8", newline="")
    outcome = _outcome(parse_predictions, str(path))
    assert outcome == _outcome(dictreader_parse_predictions, str(path))
    return f"{len(outcome[1][0])} rows" if outcome[0] == "ok" else outcome[0].__name__


@st.composite
def csv_texts(draw):
    header = list(draw(st.permutations(PREDICTIONS_COLUMNS)))
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, 4)), "note")
    if draw(st.integers(0, 4)) == 0:  # DictReader's last-wins duplicate
        header.insert(draw(st.integers(0, len(header))), draw(st.sampled_from(header)))
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(PREDICTIONS_COLUMNS)))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(("\n", "\r\n"))))
    out.write("".join(draw(st.lists(st.sampled_from(BLANK_LINES), max_size=2))))
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 6))):
        row = [draw(CSV_CELLS[column]) for column in header]
        shape = draw(st.integers(0, 9))
        if shape == 0:  # short row
            row = row[: draw(st.integers(1, len(row)))]
        elif shape == 1:  # extra cells
            row += ["extra"] * draw(st.integers(1, 2))
        elif shape == 2:
            out.write(draw(st.sampled_from(BLANK_LINES)))
        writer.writerow(row)
    return out.getvalue()


@st.composite
def jsonl_texts(draw):
    lines = draw(st.lists(st.sampled_from(BLANK_LINES), max_size=2))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            lines.append(draw(st.sampled_from(BLANK_LINES)))
        elif kind == 1:
            lines.append(draw(st.sampled_from(("[1]\n", "{bad\n"))))
        else:
            record = {
                column: draw(values)
                for column, values in JSON_VALUES.items()
                if draw(st.integers(0, 49))  # now and then a key is missing
            }
            text = json.dumps(record)
            lead = draw(_mostly(st.just(""), st.sampled_from(JSON_PADDING)))
            trail = draw(_mostly(st.just(""), st.sampled_from(JSON_TRAILERS)))
            if trail == "{}":
                trail = text
            ending = draw(_mostly(st.just("\n"), st.sampled_from(JSON_LINE_ENDS)))
            lines.append(lead + text + trail + ending)
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")  # no newline at the end
    return "".join(lines)


# Files longer than one block of the CSV fast path.

BLOCK = deployassure.io._BLOCK_ROWS
HEADER = ",".join(PREDICTIONS_COLUMNS)
NEEDS_FD = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")


def _clean_rows(n, header=PREDICTIONS_COLUMNS, seed=7):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        cells = {
            "sample_id": f"s{i}",
            "score": f"{rng.randint(0, 1000) / 1000:.3f}",
            "label": rng.choice("01"),
            "subgroup": rng.choice("ABC"),
        }
        rows.append(",".join(cells.get(c, c) for c in header))
    return rows


# Rows put after the first block; each but the clean quoted newline is the
# file's first doubt, and the last row of each checks the row count.
LATE_ROWS = {
    "nan": ["s,nan,1,A"],
    "inf": ["s,inf,1,A"],
    "above-one": ["s,1.5,1,A"],
    "padded-label": ["s,0.5, 1,A"],
    "empty-subgroup": ["s,0.5,1,"],
    "short-row": ["s,0.5"],
    "quoted-newline": ['s,0.5,1,"two\nlines"'],
    "quoted-newline-then-nan": ['s,0.5,1,"two\nlines"', "t,nan,0,B"],
}

# Rows of another width than the header: a header, the row put inside the
# second block, and whether the block path still reads the whole file.
REORDERED = ("note", "x", "subgroup", "label", "score", "sample_id")
DUPLICATE = ("sample_id", "score", "label", "subgroup", "score")
WIDTH_CASES = {
    "extra-trailing-cells": (PREDICTIONS_COLUMNS, "s,0.5,1,A,x,y", True),
    "after-extra-columns": (REORDERED, "n,x,A,1,0.5,s,y", True),
    "duplicate-header": (DUPLICATE, "s,x,1,A,0.5", True),  # the last one counts
    "short-of-last-needed": (PREDICTIONS_COLUMNS, "s,0.5,1", False),
    "after-extra-columns-short": (REORDERED, "n,x,A,1,0.5", False),
    "duplicate-header-short": (DUPLICATE, "s,0.5,1,A", False),
}


class TestParserOracle:
    """Same samples in the same order, or the same first error and row."""

    @given(csv_texts())
    @settings(max_examples=300, deadline=None)
    def test_csv(self, tmp_path_factory, text):
        event(assert_same_as_oracle(tmp_path_factory, "p.csv", text))

    @given(jsonl_texts())
    @settings(max_examples=300, deadline=None)
    def test_jsonl(self, tmp_path_factory, text):
        event(assert_same_as_oracle(tmp_path_factory, "p.jsonl", text))

    @pytest.mark.parametrize(
        "text",
        [
            "sample_id,score,label,subgroup,score\ns1,0.9,1,A,0.2\n",
            "sample_id,score,label,subgroup,score\ns1,0.9,1,A\n",
            "sample_id,score,label,subgroup\n\ns1,0.9, 1,\"a,\nb\"\n\ns2,1e0,0,B\n",
            "sample_id,score,label,subgroup\ns1,0.9\n",
            "sample_id,score,label,subgroup\ns1,nan,1,A\n",
            "sample_id,score,label,subgroup\n  \n",
        ],
        ids=["duplicate-column", "duplicate-column-short", "quoted-blank-padded",
             "short-row", "nan-score", "whitespace-line"],
    )
    def test_csv_examples(self, tmp_path_factory, text):
        assert_same_as_oracle(tmp_path_factory, "p.csv", text)

    def test_valid_examples_parse(self, tmp_path):
        path = write(
            tmp_path,
            "p.csv",
            "sample_id,score,label,subgroup,score\n\ns1,x,1 ,\"a,\nb\",1e0\n",
        )
        assert columns(parse_predictions(path)) == [[1.0], [1], ["a,\nb"]]

    @pytest.mark.parametrize("late", list(LATE_ROWS.values()), ids=list(LATE_ROWS))
    @pytest.mark.parametrize("offset", [0, 1, BLOCK - 1])
    def test_late_rows_match_oracle(self, tmp_path_factory, late, offset):
        rows = _clean_rows(2 * BLOCK + 10)
        at = BLOCK + offset
        rows[at:at] = late
        text = "\n".join([HEADER, *rows]) + "\n"
        assert_same_as_oracle(tmp_path_factory, "p.csv", text)

    @pytest.mark.parametrize("crlf", [True, False])
    def test_row_short_of_a_last_sample_id_is_an_error(self, tmp_path, crlf):
        header = ("score", "label", "subgroup", "sample_id")
        rows = _clean_rows(BLOCK + 5, header)
        rows[BLOCK + 2] = "0.5,1,A"  # no sample_id cell
        end = "\r\n" if crlf else "\n"
        text = end.join([",".join(header), *rows]) + end
        path = tmp_path / "p.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(MalformedRowError, match="value for 'sample_id'") as excinfo:
            parse_predictions(path)
        assert excinfo.value.row == BLOCK + 4

    @pytest.mark.parametrize("case", list(WIDTH_CASES))
    @pytest.mark.parametrize("offset", [0, 1, BLOCK - 1])
    def test_rows_of_other_widths_match_oracle(
        self, monkeypatch, tmp_path_factory, case, offset
    ):
        header, odd, kept = WIDTH_CASES[case]
        rows = _clean_rows(2 * BLOCK + 10, header)
        rows[BLOCK + offset] = odd
        calls = TestBlockPath._count(monkeypatch)
        text = "\n".join([",".join(header), *rows]) + "\n"
        assert_same_as_oracle(tmp_path_factory, "p.csv", text)
        assert ("_as_string" not in calls) == kept  # no row checked on its own

    def test_non_utf8_byte_in_a_late_block(self, tmp_path):
        rows = _clean_rows(2 * BLOCK + 200)
        path = tmp_path / "p.csv"
        path.write_bytes("\n".join([HEADER, *rows, ""]).encode() + b"s,0.5,1,\xff\n")
        outcome = _outcome(parse_predictions, str(path))
        assert outcome == _outcome(dictreader_parse_predictions, str(path))
        assert outcome[::2] == (EngineError, None)  # no row

    def test_sample_id_last_matches_oracle(self, tmp_path_factory):
        header = ("score", "label", "subgroup", "sample_id")
        rows = _clean_rows(BLOCK + 5, header)
        text = "\n".join([",".join(header), *rows]) + "\n"
        assert_same_as_oracle(tmp_path_factory, "p.csv", text)


class TestBlockPath:
    """Counts: a clean file takes the block path, a doubted block the exact one."""

    def test_clean_csv_makes_no_per_row_calls(self, monkeypatch, tmp_path):
        calls = self._count(monkeypatch)
        rows = _clean_rows(2 * BLOCK + 10)
        path = write(tmp_path, "p.csv", "\n".join([HEADER, *rows]))
        assert len(parse_predictions(path)) == len(rows)
        assert calls == {"open": 1, "_iter_records": 1}

    def test_padded_label_keeps_the_block_path(self, monkeypatch, tmp_path):
        calls = self._count(monkeypatch)
        rows = _clean_rows(2 * BLOCK + 10)
        rows[BLOCK + 3] = "s,0.5, 1,A"
        path = write(tmp_path, "p.csv", "\n".join([HEADER, *rows]))
        predictions = parse_predictions(path)
        assert (len(predictions), predictions.labels[BLOCK + 3]) == (len(rows), 1)
        # The block check strips the padded cell, as _parse_binary does.
        assert calls == {"open": 1, "_iter_records": 1}

    @pytest.mark.parametrize("kind", ["predictions", "signals"])
    def test_padded_binary_cells_in_every_block_keep_the_block_path(
        self, monkeypatch, tmp_path, kind
    ):
        row_checks = []
        for name in ("_prediction_row", "_signal_row"):
            def counted(values, _real=getattr(deployassure.io, name)):
                row_checks.append(values)
                return _real(values)

            monkeypatch.setattr(deployassure.io, name, counted)
        binary = {"predictions": "label", "signals": "remediation_event"}[kind]
        lines = _jsonl_lines(kind, 3 * BLOCK + 10, seed=4)
        for i in range(0, len(lines), 97):  # several in each block
            record = json.loads(lines[i])
            record[binary] = (" {}", "{} ", "\t{}\t")[i % 3].format(record[binary])
            lines[i] = json.dumps(record) + "\n"
        path = write(tmp_path, f"{kind}.csv", _csv_text(kind, lines))
        if kind == "predictions":
            got = columns(parse_predictions(path))
            assert got == columns(dictreader_parse_predictions(path))
        else:
            assert parse_signals(path) == staged_parse_signals(path)
        assert row_checks == []

    @pytest.mark.parametrize("kind", ["signals", "predictions"])
    def test_clean_jsonl_makes_no_per_row_calls(self, monkeypatch, tmp_path, kind):
        calls = self._count(monkeypatch)
        lines = _jsonl_lines(kind, 2 * BLOCK + 10, seed=4)
        path = write(tmp_path, "p.jsonl", "".join(lines))
        parse = parse_signals if kind == "signals" else parse_predictions
        assert len(parse(path)) == len(lines)
        assert calls == {"open": 1, "_iter_records": 1}

    @pytest.mark.parametrize("r_m", [True, False], ids=["r_m-column", "no-r_m-column"])
    def test_clean_csv_signals_make_no_per_row_calls(self, monkeypatch, tmp_path, r_m):
        calls = self._count(monkeypatch)
        text = _csv_text("signals", _jsonl_lines("signals", 2 * BLOCK + 10, seed=4))
        if not r_m:  # the optional column is absent, so the block path pads it
            text = "".join(row.rsplit(",", 1)[0] + "\n" for row in text.splitlines())
        path = write(tmp_path, "s.csv", text)
        assert parse_signals(path) == staged_parse_signals(path)
        assert calls == {"open": 1, "_iter_records": 1}

    def test_a_doubted_jsonl_block_is_checked_row_by_row_from_its_start(
        self, monkeypatch, tmp_path
    ):
        calls = self._count(monkeypatch)
        lines = _jsonl_lines("signals", 3 * BLOCK, seed=4)
        lines[BLOCK + 7] = " " + lines[BLOCK + 7]
        path = write(tmp_path, "s.jsonl", "".join(lines))
        assert len(parse_signals(path)) == len(lines)
        doubted = lines[BLOCK : 2 * BLOCK]  # and no line after it
        r_ms = sum('"r_m"' in line for line in doubted)
        assert calls == {
            "open": 1,
            "_iter_records": 1,
            "_as_string": BLOCK,
            "_parse_unit_interval": 4 * BLOCK + r_ms,
            "_parse_binary": BLOCK,
        }

    @pytest.mark.parametrize("source", ["file", "records"])
    def test_a_doubted_block_is_joined_back_into_one(self, tmp_path, source):
        # Its rows are checked one at a time, then handed on as one block.
        lines = _jsonl_lines("signals", 3 * BLOCK, seed=4)
        clean = staged_parse_signals(write(tmp_path, "clean.jsonl", "".join(lines)))
        expected = [
            (sid, s.fdi, s.delta_fpr, s.delta_fnr, s.tsz, s.remediation_event, s.r_m)
            for sid, s in clean
        ]
        if source == "file":  # a padded line
            lines[BLOCK + 7] = " " + lines[BLOCK + 7]
            path = write(tmp_path, "s.jsonl", "".join(lines))
            assert parse_signals(path) == clean
            blocks, records = list(deployassure.io.signal_blocks(path)), iter_signals(path)
        else:  # records built in code, one with the event " 1"
            sid, *values, _, r_m = expected[BLOCK + 7]
            records = [*expected[: BLOCK + 7], (sid, *values, " 1", r_m)]
            records += expected[BLOCK + 8 :]
            expected[BLOCK + 7] = (sid, *values, True, r_m)
            blocks = list(deployassure.io.checked_blocks(records))
        assert [len(block[0]) for block in blocks] == [BLOCK] * 3
        assert [row for block in blocks for row in zip(*block)] == expected
        initial, rules, out = DeploymentState.DEPLOYABLE, RulesConfig(), io.StringIO()
        fold_trace(out, records, initial, rules, "csv")
        trace = row_trace(expected, initial, rules, "csv")
        assert out.getvalue().encode("utf-8") == trace

    def test_each_block_of_lines_is_handed_on_as_one_block(self, tmp_path):
        # A blank line in every block leaves each CSV block a row short; it
        # goes on short, not joined with rows of the next block.
        text = _csv_text("signals", _jsonl_lines("signals", 4 * BLOCK, seed=4))
        rows = text.splitlines(keepends=True)
        text = "".join(row + "\n" * (i % 100 == 5) for i, row in enumerate(rows))
        path = write(tmp_path, "s.csv", text)
        data = text.splitlines()[1:]
        blocks = list(deployassure.io.signal_blocks(path))
        assert [len(block[0]) for block in blocks] == [
            len(list(filter(None, data[i : i + BLOCK]))) for i in range(0, len(data), BLOCK)
        ]
        assert parse_signals(path) == staged_parse_signals(path)

    def test_rows_before_a_bad_row_of_a_doubted_block_are_yielded(self, tmp_path):
        lines = _jsonl_lines("signals", 2 * BLOCK, seed=4)
        lines[BLOCK + 7] = " " + lines[BLOCK + 7]
        lines[BLOCK + 9] = _line("signals", fdi=2.0)
        path = write(tmp_path, "s.jsonl", "".join(lines))
        rows = iter_signals(path)
        assert len([next(rows) for _ in range(BLOCK + 9)]) == BLOCK + 9
        with pytest.raises(MalformedRowError) as excinfo:
            next(rows)
        assert excinfo.value.row == BLOCK + 10

    def test_an_integer_r_m_keeps_the_block_path_and_reads_as_a_float(
        self, monkeypatch, tmp_path
    ):
        calls = self._count(monkeypatch)
        lines = _jsonl_lines("signals", 2 * BLOCK + 10, seed=4)
        lines[3] = _line("signals", snapshot_id="int", remediation_event=1, r_m=0)
        path = write(tmp_path, "s.jsonl", "".join(lines))
        rows = list(deployassure.io.iter_signals(path))
        assert len(rows) == len(lines) and rows[3][0] == "int"
        assert (rows[3][-1], type(rows[3][-1])) == (0.0, float)
        assert calls == {"open": 1, "_iter_records": 1}

    @NEEDS_FD
    @pytest.mark.parametrize("bad", [False, True])
    def test_a_pipe_takes_the_block_path(self, monkeypatch, tmp_path, bad):
        rows = _clean_rows(BLOCK + 5)
        if bad:
            rows[BLOCK + 1] = "s,nan,1,A"
        text = "\n".join([HEADER, *rows]) + "\n"
        path = write(tmp_path, "p.csv", text)
        read_end, write_end = os.pipe()
        pipe = f"/dev/fd/{read_end}"
        try:
            with os.fdopen(write_end, "w", encoding="utf-8") as fh:
                fh.write(text)  # within the pipe's buffer
            calls = self._count(monkeypatch)
            outcome = _outcome(parse_predictions, pipe)
        finally:
            os.close(read_end)
        expected = _outcome(dictreader_parse_predictions, path)
        if bad:
            expected = (expected[0], expected[1].replace(path, pipe), *expected[2:])
        assert outcome == expected
        # The first block is vouched for; the second is checked row by row
        # up to its bad row, the second one.
        per_row = {"_as_string": 3, "_parse_unit_interval": 2, "_parse_binary": 1}
        assert calls == {"open": 1, "_iter_records": 1, **(per_row if bad else {})}

    @pytest.mark.parametrize("pipe", [False, pytest.param(True, marks=NEEDS_FD)],
                             ids=["file", "pipe"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("kind", ["predictions", "signals"])
    def test_each_input_is_read_once_and_only_a_doubted_block_row_by_row(
        self, monkeypatch, tmp_path, kind, fmt, pipe
    ):
        # A row the exact path takes and no block check does: a JSON label
        # or event of " 1"; in CSV, whose block checks strip a padded 0/1
        # cell, a signals row short of its r_m cell. A CSV predictions block
        # doubts no row that the exact path takes: there " 1" is read as a
        # block, and no row is checked on its own.
        lines = _jsonl_lines(kind, 2 * BLOCK + 10, seed=4)
        binary = {"predictions": "label", "signals": "remediation_event"}[kind]
        lines[BLOCK + 3] = _line(kind, **{binary: " 1"})
        if (kind, fmt) == ("signals", "csv"):
            lines[BLOCK + 3] = "s,0.1,0.2,0.3,0.4,1\n"  # kept as it is
        text = _csv_text(kind, lines) if fmt == "csv" else "".join(lines)
        path = write(tmp_path, f"p.{fmt}", text)
        calls = self._count(monkeypatch)
        counted_open, seen = deployassure.io.open, []
        monkeypatch.setattr(
            deployassure.io, "open", lambda *a, **k: _Lines(counted_open(*a, **k), seen)
        )
        parse = parse_signals if kind == "signals" else parse_predictions
        if pipe:  # more than a pipe buffer, so it is fed as it is read
            read_end, write_end = os.pipe()
            writer = threading.Thread(target=_feed, args=(write_end, text))
            writer.start()
            try:
                parsed = parse(f"/dev/fd/{read_end}")
            finally:
                writer.join(timeout=30)
                os.close(read_end)
            assert not writer.is_alive()
        else:
            parsed = parse(path)
        assert len(parsed) == len(lines)
        assert "".join(seen) == text  # every line read, and once
        r_ms = sum('"r_m"' in line for line in lines[BLOCK : 2 * BLOCK])
        per_row = {
            "predictions": {"_as_string": 2 * BLOCK, "_parse_unit_interval": BLOCK},
            "signals": {"_as_string": BLOCK, "_parse_unit_interval": 4 * BLOCK + r_ms},
        }[kind]
        if (kind, fmt) == ("predictions", "csv"):
            per_row = {}
        else:
            per_row["_parse_binary"] = BLOCK
        assert calls == {"open": 1, "_iter_records": 1, **per_row}

    @pytest.mark.parametrize("kind", ["predictions", "signals", "signals-no-r_m"])
    def test_a_clean_file_calls_the_csv_module_for_its_header_only(
        self, monkeypatch, tmp_path, kind
    ):
        if kind == "predictions":
            text = "\n".join([HEADER, *_clean_rows(2 * BLOCK + 10)]) + "\n"
        else:
            lines = _jsonl_lines("signals", 2 * BLOCK + 10, seed=4)
            text = _csv_text("signals", lines)
        if kind == "signals-no-r_m":
            text = "".join(row.rsplit(",", 1)[0] + "\n" for row in text.splitlines())
        path = write(tmp_path, "p.csv", text)
        parse, oracle = ORACLES[kind.split("-")[0]]
        expected = oracle(path)
        read = self._csv_readers(monkeypatch)
        assert parse(path) == expected
        assert read == [[text.partition("\n")[0] + "\n"]]

    @pytest.mark.parametrize("bad", [False, True], ids=["clean", "bad-row-after"])
    def test_a_quote_in_the_third_block_hands_on_the_rest_of_the_file(
        self, monkeypatch, tmp_path, bad
    ):
        rows = _clean_rows(4 * BLOCK + 10)
        rows[2 * BLOCK + 5] = 's,0.5,1,"A"'  # read as A
        if bad:
            rows[3 * BLOCK + 7] = "s,0.5,2,A"
        text = "\n".join([HEADER, *rows]) + "\n"
        path = write(tmp_path, "p.csv", text)
        expected = _outcome(dictreader_parse_predictions, path)
        read = self._csv_readers(monkeypatch)
        outcome = _outcome(parse_predictions, path)
        assert outcome == expected
        lines = text.splitlines(keepends=True)
        assert read[0] == lines[:1] and len(read) == 2
        if bad:  # at its physical row, after the header and the rows before it
            assert outcome[::2] == (MalformedRowError, 3 * BLOCK + 9)
            assert read[1] == lines[1 + 2 * BLOCK : 1 + 4 * BLOCK]
        else:
            assert outcome[1][2][2 * BLOCK + 5] == "A"
            assert read[1] == lines[1 + 2 * BLOCK :]

    def test_a_blank_line_sends_only_its_block_to_the_csv_module(
        self, monkeypatch, tmp_path
    ):
        rows = _clean_rows(3 * BLOCK + 10)
        rows[BLOCK + 7 : BLOCK + 7] = [""]
        text = "\n".join([HEADER, *rows]) + "\n"
        path = write(tmp_path, "p.csv", text)
        expected = _outcome(dictreader_parse_predictions, path)
        read = self._csv_readers(monkeypatch)
        assert _outcome(parse_predictions, path) == expected
        lines = text.splitlines(keepends=True)
        assert read == [lines[:1], lines[1 + BLOCK : 1 + 2 * BLOCK]]

    @staticmethod
    def _csv_readers(monkeypatch):
        """The lines that each ``csv.reader`` made after this call reads."""
        read, real = [], csv.reader

        def reader(lines, *args, **kwargs):
            seen = []
            read.append(seen)
            return real((seen.append(line) or line for line in lines), *args, **kwargs)

        monkeypatch.setattr(deployassure.io.csv, "reader", reader)
        return read

    @staticmethod
    def _count(monkeypatch):
        calls = {}
        module = deployassure.io
        for name, real in [
            ("open", open),
            *((n, getattr(module, n)) for n in
              ("_iter_records", "_as_string", "_parse_unit_interval", "_parse_binary")),
        ]:
            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting, raising=False)
        return calls


def _feed(fd, text):
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(text)


class _Lines:
    """A text file that puts each line it gives out into ``seen``."""

    def __init__(self, fh, seen):
        self.fh, self.seen = fh, seen

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self.fh)
        self.seen.append(line)
        return line


# --- JSON-lines blocks against the per-line oracles ---------------------

SIGNAL_KEYS = ("fdi", "delta_fpr", "delta_fnr", "tsz")


def _jsonl_lines(kind, n, seed):
    """``n`` clean JSON lines of signals or predictions."""
    rng = random.Random(seed)
    lines = []
    for i in range(n):
        if kind == "signals":
            record = {"snapshot_id": f"s{i}"}
            record.update((k, rng.randint(0, 1000) / 1000) for k in SIGNAL_KEYS)
            record["remediation_event"] = int(rng.random() < 0.3)
            if record["remediation_event"] and rng.random() < 0.5:
                record["r_m"] = rng.randint(-1000, 1000) / 1000
        else:
            record = {"sample_id": f"s{i}", "score": rng.randint(0, 1000) / 1000}
            record.update(label=rng.randint(0, 1), subgroup=rng.choice("AB"))
        lines.append(json.dumps(record) + "\n")
    return lines


def _line(kind, **changes):
    """One JSON line of ``kind`` with some values changed (``...`` drops a key)."""
    record = json.loads(_jsonl_lines(kind, 1, seed=3)[0])
    record.update(changes)
    return json.dumps({k: v for k, v in record.items() if v is not ...}) + "\n"


COLUMNS = {"signals": SIGNALS_COLUMNS + ("r_m",), "predictions": PREDICTIONS_COLUMNS}


def _csv_text(kind, lines):
    """A header, then each JSON line's record as a CSV row of JSON values.

    A null or absent value is an empty cell. A line that is no JSON object
    is kept as it is, and so is each line's ending.
    """
    out = io.StringIO()
    out.write(",".join(COLUMNS[kind]) + "\n")
    for line in lines:
        try:
            record = json.loads(line)
        except (ValueError, RecursionError):
            record = None
        if not isinstance(record, dict):
            out.write(line)
            continue
        values = map(record.get, COLUMNS[kind])
        cells = ["" if v is None else v if isinstance(v, str) else json.dumps(v)
                 for v in values]
        ending = line[len(line.rstrip("\r\n")):]
        csv.writer(out, lineterminator=ending).writerow(cells)
    return out.getvalue()


def _parsed(parse, path):
    try:
        return "ok", parse(path)
    except EngineError as exc:
        return type(exc), str(exc), getattr(exc, "row", None)


# Each kind's reader and its per-line oracle.
ORACLES = {
    "signals": (parse_signals, staged_parse_signals),
    "predictions": (
        lambda path: columns(parse_predictions(path)),
        lambda path: columns(dictreader_parse_predictions(path)),
    ),
}


def assert_blocks_as_oracle(tmp_path_factory, kind, data, suffix="jsonl"):
    """Same rows, or the same first error and row, as the per-line oracle."""
    path = tmp_path_factory.mktemp("blocks") / f"{kind}.{suffix}"
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.write_bytes(data)
    parse, oracle = ORACLES[kind]
    outcome = _parsed(parse, str(path))
    assert outcome == _parsed(oracle, str(path))
    return outcome[0] if outcome[0] == "ok" else outcome[0].__name__


SIGNAL_START = _line("signals")[:-2]  # a record without its closing brace
# Signal lines on which a block check and the per-row checks could part.
SIGNAL_CORPUS = {
    # Neither line parses alone; without the "[" rule, the block decodes
    # them as two valid records.
    "joined-array": [SIGNAL_START + ', "x": [{"y": 1}\n',
                     '{"z": 1}]}, ' + _line("signals")],
    "two-objects": [_line("signals")[:-1] + ", " + _line("signals")],
    "two-objects-no-comma": [_line("signals")[:-1] + _line("signals")],
    "blank": ["\n"],
    "whitespace": [" \t \n"],
    "bom": ["\ufeff" + _line("signals")],
    "padded": [" " + _line("signals")],
    "crlf": [_line("signals")[:-1] + "\r\n"],
    "lone-cr": [_line("signals")[:-1] + "\r"],
    "nan": [_line("signals", fdi=float("nan"))],
    "infinity": [_line("signals", tsz=float("inf"))],
    "bool-event": [_line("signals", remediation_event=True, r_m=-0.5)],
    "bool-signal": [_line("signals", delta_fpr=True)],
    "string-event": [_line("signals", remediation_event="1")],
    "string-signal": [_line("signals", fdi="0.5")],
    "int-signals": [_line("signals", fdi=0, tsz=1)],
    "over-digit-limit": [SIGNAL_START + ', "x": 1' + "0" * 5000 + "}\n"],
    "nested-500": [SIGNAL_START + ', "x": ' + '{"a": ' * 500 + "1" + "}" * 500 + "}\n"],
    "nested-past-limit": [SIGNAL_START + ', "x": ' + '{"a": ' * 100_000 + "}" * 100_001
                          + "\n"],
    "r_m-empty": [_line("signals", remediation_event=1, r_m="")],
    "r_m-int": [_line("signals", remediation_event=1, r_m=0)],
    "r_m-int-bounds": [_line("signals", remediation_event=1, r_m=k) for k in (-1, 1)],
    "r_m-int-no-event": [_line("signals", remediation_event=0, r_m=0)],
    "r_m-int-out-of-range": [_line("signals", remediation_event=1, r_m=2)],
    "r_m-bool": [_line("signals", remediation_event=1, r_m=True)],
    "r_m-null": [_line("signals", remediation_event=1, r_m=None)],
    "r_m-no-event": [_line("signals", remediation_event=0, r_m=0.25)],
    "r_m-out-of-range": [_line("signals", remediation_event=1, r_m=-1.5)],
    "missing-key": [_line("signals", tsz=...)],
    "null-value": [_line("signals", delta_fnr=None)],
    "not-an-object": ["[1]\n"],
    "snapshot-not-string": [_line("signals", snapshot_id=7)],
}


# Values for any key of a drawn line; ``...`` drops the key.
ODD_VALUES = st.sampled_from(
    (0, 1, 1.0, -0.0, 0.5, 2, -0.5, 1.5, True, False, None, "", "1", " 1", "0.5",
     float("nan"), float("inf"), -float("inf"), 10**400, [1], {"a": 1}, ...)
)


class TestJsonBlocksAgainstOracles:
    """JSON-lines over several blocks: same rows, or the same first error."""

    @pytest.mark.parametrize("name", list(SIGNAL_CORPUS))
    @pytest.mark.parametrize("at", [0, 3, BLOCK - 1, BLOCK, -1], ids=str)
    def test_signal_corpus(self, tmp_path_factory, name, at):
        lines = _jsonl_lines("signals", 2 * BLOCK + 10, seed=5)
        at = len(lines) if at == -1 else at
        lines[at:at] = SIGNAL_CORPUS[name]
        assert_blocks_as_oracle(tmp_path_factory, "signals", "".join(lines))

    @pytest.mark.parametrize("kind", list(ORACLES))
    def test_no_newline_at_the_end(self, tmp_path_factory, kind):
        text = "".join(_jsonl_lines(kind, BLOCK + 3, seed=6)).rstrip("\n")
        assert assert_blocks_as_oracle(tmp_path_factory, kind, text) == "ok"

    @pytest.mark.parametrize("kind", list(ORACLES))
    def test_non_utf8_byte_in_a_late_block(self, tmp_path, kind):
        # Far enough past two blocks that the chunk the decoder fails on
        # holds none of their lines.
        lines = _jsonl_lines(kind, 2 * BLOCK + 200, seed=7)
        path = tmp_path / "p.jsonl"
        path.write_bytes("".join(lines).encode() + b'{"\xff": 1}\n')
        expected = (EngineError, f"{path}: not UTF-8 text: invalid start byte", None)
        parse, oracle = ORACLES[kind]
        assert _parsed(parse, str(path)) == _parsed(oracle, str(path)) == expected
        if kind == "signals":
            rows = deployassure.io.iter_signals(str(path))
            for _ in range(2 * BLOCK):  # the rows before the error are yielded
                next(rows)
            with pytest.raises(EngineError, match="not UTF-8"):
                list(rows)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("kind", list(ORACLES))
    def test_a_bad_row_before_a_non_utf8_byte_in_its_block(self, tmp_path, kind, fmt):
        # Row 600 and the byte near row 1000 share the second block, but
        # (with long ids) not the chunk the decoder fails on: so the bad row
        # is the first error.
        records = map(json.loads, _jsonl_lines(kind, 2 * BLOCK, seed=7))
        id_key = COLUMNS[kind][0]
        lines = [
            json.dumps({**r, id_key: f"{i:060d}"}) + "\n" for i, r in enumerate(records)
        ]
        lines[599] = _line(kind, **{"fdi" if kind == "signals" else "score": 2.0})
        if fmt == "csv":  # the header is row 1
            lines = _csv_text(kind, lines[1:]).splitlines(keepends=True)
        path = tmp_path / f"p.{fmt}"
        head, tail = "".join(lines[:990]).encode(), "".join(lines[990:]).encode()
        path.write_bytes(head + b'{"\xff": 1}\n' + tail)
        parse, oracle = ORACLES[kind]
        outcome = _parsed(parse, str(path))
        assert outcome == _parsed(oracle, str(path))
        assert outcome[::2] == (MalformedRowError, 600)

    @pytest.mark.parametrize(
        "changes",
        [dict(score=float("nan")), dict(label=True), dict(label="1"), dict(label=1.0),
         dict(subgroup=""), dict(subgroup=None), dict(sample_id=...),
         dict(score="0.5"), dict(score=False)],
        ids=repr,
    )
    @pytest.mark.parametrize("at", [0, BLOCK, -1], ids=str)
    def test_prediction_values(self, tmp_path_factory, changes, at):
        lines = _jsonl_lines("predictions", 2 * BLOCK + 10, seed=8)
        at = len(lines) if at == -1 else at
        lines[at:at] = [_line("predictions", **changes)]
        assert_blocks_as_oracle(tmp_path_factory, "predictions", "".join(lines))

    @pytest.mark.parametrize("at", [0, BLOCK, -1], ids=str)
    def test_prediction_past_the_digit_limit(self, tmp_path_factory, at):
        lines = _jsonl_lines("predictions", 2 * BLOCK + 10, seed=8)
        at = len(lines) if at == -1 else at
        score = "1" + "0" * 5000  # json.loads refuses it with a bare ValueError
        lines[at:at] = [f'{{"sample_id": "s", "score": {score}, "label": 1, '
                        '"subgroup": "A"}\n']
        kind = assert_blocks_as_oracle(tmp_path_factory, "predictions", "".join(lines))
        assert kind == "MalformedRowError"

    def test_prediction_join_counterexample(self, tmp_path_factory):
        start = _line("predictions")[:-2]
        lines = _jsonl_lines("predictions", BLOCK + 10, seed=9)
        lines[5:5] = [start + ', "x": [{"y": 1}\n', '{"z": 1}]}, ' + lines[0]]
        assert assert_blocks_as_oracle(
            tmp_path_factory, "predictions", "".join(lines)
        ) == "MalformedRowError"

    @given(data=st.data(), kind=st.sampled_from(list(ORACLES)))
    @settings(max_examples=60, deadline=None)
    def test_bad_rows_anywhere(self, tmp_path_factory, data, kind):
        n = data.draw(st.integers(BLOCK + 1, 3 * BLOCK), label="rows")
        lines = _jsonl_lines(kind, n, seed=data.draw(st.integers(0, 99)))
        keys = list(json.loads(lines[0]))
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(
                st.sampled_from([0, BLOCK - 1, BLOCK, n - 1]) | st.integers(0, n - 1),
                label="at",
            )
            key = data.draw(st.sampled_from(keys + ["r_m"]), label="key")
            value = data.draw(ODD_VALUES, label="value")
            lead = data.draw(st.sampled_from(("", "", "", *JSON_PADDING)), label="lead")
            lines[at] = lead + _line(kind, **{key: value})
        if data.draw(st.booleans()):
            lines[-1] = lines[-1].rstrip("\n")
        event(assert_blocks_as_oracle(tmp_path_factory, kind, "".join(lines)))


# Signal values as JSON decodes them: exact floats (-0.0 among them), and
# what the exact-float check refuses: ints, one past float range among
# them, bools, None, strings.
EXACT_REALS = st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(0, 1)
SIGNAL_VALUES = EXACT_REALS | st.sampled_from(
    [0, 1, 2, 2**1024, True, False, None, "0.5", "", float("nan"), -1e-9]
)


def _vouched_rows(check, columns):
    """A block check's rows, each value as its repr, or "doubt"."""
    try:
        return [tuple(map(repr, row)) for row in check([list(c) for c in columns])]
    except (LookupError, ValueError):  # what the reader takes for doubt
        return "doubt"


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_exact_float_columns_match_the_typed_check(data):
    n = data.draw(st.integers(1, 6), label="rows")

    def column(values):
        return st.lists(values, min_size=n, max_size=n)

    signals = [data.draw(column(EXACT_REALS) | column(SIGNAL_VALUES)) for _ in range(4)]
    events = data.draw(column(st.sampled_from([0, 1])), label="events")
    r_m = st.none() | EXACT_REALS | st.sampled_from([-1, 0, 1, -0.5])
    r_ms = [data.draw(r_m) if e else None for e in events]
    columns = [[f"s{i}" for i in range(n)], *signals, events, r_ms]
    expected = _vouched_rows(typed_signal_rows, columns)
    block = deployassure.io._signal_rows  # a block's columns: zipped, its rows
    assert _vouched_rows(lambda c: zip(*block(c)), columns) == expected
    event("doubt" if expected == "doubt" else "rows")


# CSV rows after the header, on which a doubted block must number its
# rows from the line breaks in its cells, each with its first error's row.
CSV_ROW_CASES = {
    # The cell "A\n" holds a line break that no further line follows.
    "unclosed-quote-at-the-end": ('s0,0.5,1,A\ns1,2.0,1,"A\n', 3),
    "bad-label-then-two-blank-lines": (
        "s0,0.5,1,A\ns1,0.5,1,A\ns2,0.5,1,A\ns3,0.5,2,A\n\n\n", 5
    ),
    "quoted-cr": ('"a\rb",0.5,1,A\ns1,0.5,1,"x\ry"\ns2,0.5,2,A\n', 6),
    "quoted-crlf": ('"a\r\nb",0.5,1,A\r\ns1,0.5,1,"x\r\n\ry"\r\ns2,nan,1,A\r\n', 7),
    "bad-row-then-field-over-the-limit": (
        f"s0,0.5,1,A\ns1,0.5,2,A\ns2,0.5,1,{'A' * (csv.field_size_limit() + 1)}\n", 3
    ),
    "field-over-the-limit": (f"s0,0.5,1,{'A' * (csv.field_size_limit() + 1)}\n", 2),
}


class TestCsvRowsAgainstOracles:
    """A doubted CSV block gives each record the physical row the oracle gives."""

    @pytest.mark.parametrize("case", list(CSV_ROW_CASES))
    @pytest.mark.parametrize("clean", [0, BLOCK + 3], ids=str)  # rows before it
    def test_rows_of_a_doubted_block(self, tmp_path_factory, case, clean):
        body, row = CSV_ROW_CASES[case]
        text = "\n".join([HEADER, *_clean_rows(clean)]) + "\n" + body
        path = tmp_path_factory.mktemp("rows") / "p.csv"
        path.write_text(text, encoding="utf-8", newline="")
        outcome = _outcome(parse_predictions, str(path))
        assert outcome == _outcome(dictreader_parse_predictions, str(path))
        assert outcome[::2] == (MalformedRowError, row + clean)

    @pytest.mark.parametrize("name", list(SIGNAL_CORPUS))
    @pytest.mark.parametrize("at", [0, BLOCK - 1, BLOCK, -1], ids=str)
    def test_signal_corpus(self, tmp_path_factory, name, at):
        lines = _jsonl_lines("signals", 2 * BLOCK + 10, seed=5)
        at = len(lines) if at == -1 else at
        lines[at:at] = SIGNAL_CORPUS[name]
        text = _csv_text("signals", lines)
        assert_blocks_as_oracle(tmp_path_factory, "signals", text, suffix="csv")


# --- Split CSV blocks against the csv module ----------------------------

# Cell text a split block keeps as it is: whitespace, and characters at
# which str.splitlines ends a line (\x0b, \x1c, \x85, \u2028) but the file
# iterator and the csv module do not. So a block must never be cut into
# lines by str.splitlines: it would cut such a record in two.
CELL_TEXT = ("", "0", "1", "0.5", "A", "é", " ", "\t", "\x0b", "\x1c", "\x85", "\u2028")
# What breaks a line of cells: a comma too many, a quote, a NUL, a break.
LINE_BREAKERS = (",", '"', "\0", "\r", "\n", "\r\n")
# Cells of each column, valid and not.
HOSTILE_CELLS = {
    "sample_id": (("s1", "é\u2028", ""), ("\x85",)),
    "score": (("0.5", "1", "0", " 0.3"), ("nan", "", "\x0b")),
    "label": (("0", "1", " 1\t"), ("2", "")),
    "subgroup": (("A", "B", "\x1c", "A\x85B", "é"), ("",)),
    "snapshot_id": (("s1", "é", "\u2028"), ("",)),
    **dict.fromkeys(SIGNAL_KEYS, (("0.1", "1", "0", " 0.25"), ("1.5", ""))),
    "remediation_event": (("0", "1", " 1"), ("2",)),
    "r_m": (("", "0.5", "-1"), ("2", "x")),
}


@st.composite
def hostile_lines(draw, names):
    """Lines of a cell per name, as the file iterator gives them out.

    Now and then a line is blank or holds one of ``LINE_BREAKERS``, ends in
    ``\\r\\n`` or ``\\r``, or is the last and ends the file.
    """
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        bad = draw(_mostly(st.none(), st.sampled_from(names)))  # one invalid cell
        cells = []
        for name in names:
            valid, invalid = HOSTILE_CELLS.get(name, (CELL_TEXT, CELL_TEXT))
            cells.append(draw(st.sampled_from(invalid if name == bad else valid)))
        line = ",".join(cells)
        shape = draw(st.integers(0, 11))
        if shape == 0:
            line = draw(st.sampled_from(("", " ", "\t")))
        elif shape == 1:
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(st.sampled_from(LINE_BREAKERS)) + line[at:]
        end = _mostly(st.just("\n"), st.sampled_from(("\r\n", "\r")))
        lines.append(line + draw(end))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return list(io.StringIO("".join(lines), newline=""))


@st.composite
def hostile_headers(draw, kind):
    """4 to 7 columns: a kind's own in any order, and some it does not read."""
    names = list(draw(st.permutations(COLUMNS[kind][:6])))
    extras = ["r_m", "note"] if kind == "signals" else ["note", "x", "y"]
    more = st.lists(st.sampled_from(extras), unique=True, max_size=7 - len(names))
    for name in draw(more):
        names.insert(draw(st.integers(0, len(names))), name)
    return names


class TestSplitBlocksAgainstCsvReader:
    """A block split at its commas reads as ``csv.reader`` reads it."""

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_split_columns_are_the_csv_modules(self, data):
        names = data.draw(hostile_headers("predictions"))
        lines = data.draw(hostile_lines(names))
        if not lines:
            return
        text, rows = "".join(lines), list(csv.reader(lines))
        try:
            split = deployassure.io._split(text, len(names))
        except ValueError:
            # Refused only where the csv module reads what a split cannot.
            clean = not any(map(text.__contains__, '"\r\0'))
            assert not clean or {len(row) for row in rows} != {len(names)}
            event("refused")
            return
        assert {len(row) for row in rows} == {len(names)}
        assert split == tuple(map(list, zip(*rows)))
        event("split")

    @given(data=st.data(), kind=st.sampled_from(list(ORACLES)))
    @settings(max_examples=300, deadline=None)
    def test_files_read_as_the_oracles_read_them(self, tmp_path_factory, data, kind):
        names = data.draw(hostile_headers(kind))
        text = ",".join(names) + "\n" + "".join(data.draw(hostile_lines(names)))
        rows = data.draw(st.integers(1, 4), label="block rows")
        with mock.patch.object(deployassure.io, "_BLOCK_ROWS", rows):
            event(assert_blocks_as_oracle(tmp_path_factory, kind, text, suffix="csv"))


def test_huge_json_integer_is_a_row_error(tmp_path):
    # float() overflows on an integer past the double range.
    path = write(
        tmp_path,
        "p.jsonl",
        '{"sample_id": "s1", "score": 1'
        + "0" * 400
        + ', "label": 1, "subgroup": "A"}\n',
    )
    with pytest.raises(MalformedRowError, match="score is not a number") as excinfo:
        parse_predictions(path)
    assert excinfo.value.row == 1


def test_csv_reader_error_is_a_row_error(tmp_path):
    # The csv module raises csv.Error for a field over its size limit.
    big = "A" * (csv.field_size_limit() + 1)
    text = f"sample_id,score,label,subgroup\ns1,0.5,1,A\ns2,0.5,1,{big}\n"
    path = write(tmp_path, "p.csv", text)
    with pytest.raises(MalformedRowError, match="invalid CSV") as excinfo:
        parse_predictions(path)
    assert excinfo.value.row == 3


# --- Garbage collection on the block path ------------------------------


@pytest.fixture
def default_gc():
    """CPython's default collector thresholds, whatever the process had."""
    threshold, enabled = gc.get_threshold(), gc.isenabled()
    gc.set_threshold(700, 10, 10)
    gc.enable()
    yield
    gc.set_threshold(*threshold)
    if not enabled:
        gc.disable()


def _gen0_collections(read):
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    read()
    return gc.get_stats()[0]["collections"] - before


class TestBlockPathCollections:
    """A clean read lets go of each block before checking the next one.

    The block loop's speed hangs on that: checking a block while the one
    before it is still held set off a gen-0 collection for nearly every
    block (356 on 200k rows, against 3), and made the parse 15-20% slower.
    The trace writer, which holds a block of rows too, must not bring
    those collections back.
    """

    ROWS = 40 * BLOCK

    def test_clean_csv_predictions(self, default_gc, tmp_path):
        path = tmp_path / "p.csv"
        text = "\n".join([HEADER, *_clean_rows(self.ROWS)]) + "\n"
        path.write_text(text, encoding="utf-8")
        count = _gen0_collections(lambda: parse_predictions(str(path)))
        assert count <= self.ROWS // BLOCK // 8

    def test_clean_jsonl_signals(self, default_gc, tmp_path):
        path = tmp_path / "s.jsonl"
        text = "".join(_jsonl_lines("signals", self.ROWS, seed=12))
        path.write_text(text, encoding="utf-8")

        def read():  # each row is let go as it comes, as the lifecycle fold does
            collections.deque(iter_signals(str(path)), maxlen=0)

        assert _gen0_collections(read) <= self.ROWS // BLOCK // 8

    def test_clean_csv_trace(self, default_gc, tmp_path):
        path = tmp_path / "s.jsonl"
        text = "".join(_jsonl_lines("signals", self.ROWS, seed=12))
        path.write_text(text, encoding="utf-8")
        initial = DeploymentState.REASSESSMENT_REQUIRED

        def fold():  # read, fold and write, each a block of rows at a time
            rows = iter_signals(str(path))
            fold_trace(io.StringIO(), rows, initial, RulesConfig(), "csv")

        assert _gen0_collections(fold) <= self.ROWS // BLOCK // 8
