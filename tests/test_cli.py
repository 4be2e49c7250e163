"""Tests for the command-line interface: outputs and exit codes."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deployassure.cli
import deployassure.evaluation
import deployassure.io
import deployassure.lifecycle
from deployassure import (
    AssuranceSignals,
    Sample,
    SnapshotAssessment,
    TraceEntry,
    TransitionRecord,
    build_assessments,
    compute_confusion,
    fdi_at_threshold,
    load_config,
    parse_predictions,
    parse_signals,
    replay,
)
from deployassure.cli import FORMATS, main

from conftest import CSV_WRITES_NUL, SIGNALS_CSV, make_dataset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScore:
    def test_csv_rows(self, capsys, signals_file):
        code, out, err = run(capsys, "score", "--signals", signals_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "snapshot_id,fdi,delta_fpr,delta_fnr,tsz,das,ges,drc"
        assert lines[1] == (
            "baseline,0.6800,0.3040,0.6940,0.4200,0.4755,High,EscalatedGovernance"
        )
        assert lines[2].startswith("mitigation_a,0.4100")
        assert lines[2].endswith("0.6700,High,Restricted")

    def test_json_rows(self, capsys, signals_file):
        code, out, _ = run(capsys, "score", "--signals", signals_file, "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["das"] == 0.4755
        assert rows[0]["drc"] == "EscalatedGovernance"


class TestLifecycle:
    def test_ungated_states(self, capsys, signals_file):
        code, out, _ = run(
            capsys, "lifecycle", "--signals", signals_file, "--gating", "off"
        )
        assert code == 0
        lines = out.splitlines()
        governed = [line.split(",")[8] for line in lines[1:]]
        assert governed == ["EscalatedGovernance", "Restricted", "EscalatedGovernance"]

    def test_initial_state_flag(self, capsys, signals_file):
        code, out, _ = run(
            capsys,
            "lifecycle",
            "--signals",
            signals_file,
            "--initial",
            "EscalatedGovernance",
        )
        assert code == 0
        first = out.splitlines()[1].split(",")
        assert first[9] == ""  # no transition on the first snapshot

    def test_json_format(self, capsys, signals_file):
        code, out, _ = run(
            capsys, "lifecycle", "--signals", signals_file, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["entries"]) == 3


def trace_fingerprint(capsys, tmp_path, signals_file, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = ("lifecycle", "--signals", signals_file, "--format", "json")
    code, out, _ = run(capsys, *argv, "--config", str(path))
    assert code == 0
    return json.loads(out)["config_fingerprint"]


class TestTraceFingerprint:
    """The trace fingerprint moves exactly when a trace input moves."""

    @pytest.mark.parametrize(
        "config",
        [
            {"weights": {"alpha": 0.4, "beta": 0.2, "gamma": 0.2, "delta": 0.2}},
            {"ges_thresholds": {"fdi": [0.1, 0.2, 0.3]}},
        ],
        ids=["weights", "ges_thresholds"],
    )
    def test_trace_input_changes_it(self, capsys, tmp_path, signals_file, config):
        default = trace_fingerprint(capsys, tmp_path, signals_file, {})
        assert trace_fingerprint(capsys, tmp_path, signals_file, config) != default

    @pytest.mark.parametrize(
        "config",
        [{"zone_boundaries": [0.2, 0.7, 1.4]}, {"sweep": {"step": 0.1}}],
        ids=["zone_boundaries", "sweep"],
    )
    def test_other_input_leaves_it(self, capsys, tmp_path, signals_file, config):
        default = trace_fingerprint(capsys, tmp_path, signals_file, {})
        assert trace_fingerprint(capsys, tmp_path, signals_file, config) == default


class TestEvaluate:
    def test_small_dataset_needs_min_support_override(
        self, capsys, tmp_path, predictions_file
    ):
        config = tmp_path / "config.json"
        config.write_text('{"min_support": 5}', encoding="utf-8")
        code, out, _ = run(
            capsys,
            "evaluate",
            "--predictions",
            predictions_file,
            "--threshold",
            "0.5",
            "--config",
            str(config),
        )
        assert code == 0
        assert out.startswith("subgroup,n,tp,fp,tn,fn,fpr,fnr,tpr,selection_rate")
        assert "fdi," in out

    def test_json_format(self, capsys, predictions_file):
        code, out, _ = run(
            capsys,
            "evaluate",
            "--predictions",
            predictions_file,
            "--threshold",
            "0.5",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["subgroups"]) == {"A", "B"}
        assert set(payload["gaps"]) == {
            "delta_fpr",
            "delta_fnr",
            "delta_tpr",
            "delta_sr",
        }
        assert 0.0 <= payload["fdi"] <= 1.0

    def test_verdict_fdi_matches_fdi_at_threshold(
        self, capsys, tmp_path, predictions_file
    ):
        # A partial tolerance map: delta_fpr's own, the default for the rest.
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "min_support": 5,
                    "fdi": {
                        "mode": "verdict",
                        "tolerances": {"delta_fpr": 0.6},
                        "default_tolerance": 0.05,
                    },
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys,
            "evaluate",
            "--predictions",
            predictions_file,
            "--threshold",
            "0.5",
            "--config",
            str(config),
            "--format",
            "json",
        )
        assert code == 0
        expected = fdi_at_threshold(
            parse_predictions(predictions_file),
            0.5,
            load_config(str(config)).panel,
        )
        assert json.loads(out)["fdi"] == round(expected, 4)
        # Only delta_fpr (0.55) clears its tolerance: 1 fair of 4 metrics.
        assert expected == 0.5


class TestSweep:
    def test_table_and_summary(self, capsys, predictions_file):
        code, out, _ = run(capsys, "sweep", "--predictions", predictions_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "threshold,fdi,sensitivity,zone"
        assert len([l for l in lines if l and l[0] == "0"]) == 15
        assert any(l.startswith("tsz_scalar,") for l in lines)

    def test_range_flag(self, capsys, predictions_file):
        code, out, _ = run(
            capsys,
            "sweep",
            "--predictions",
            predictions_file,
            "--range",
            "0.3:0.7:0.1",
            "--format",
            "json",
        )
        assert code == 0
        assert len(json.loads(out)["points"]) == 5

    def test_bad_range_is_validation_error(self, capsys, predictions_file):
        code, _, err = run(
            capsys, "sweep", "--predictions", predictions_file, "--range", "0.3-0.7"
        )
        assert code == 1
        assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--range", "0.9:0.2:0.05"),
        ("sweep", "--range", "0:1:0"),
        ("sweep", "--range", "nan:1:0.1"),
        ("sweep", "--range", "0.4:0.5:0.1"),
        ("evaluate", "--threshold", "nan"),
        ("classify", "--das", "2"),
    ],
)
def test_out_of_domain_value_exits_one_with_one_line(capsys, predictions_file, argv):
    if argv[0] == "sweep":
        # A missing file would exit 2: exit 1 shows the range is checked first.
        argv += ("--predictions", "does-not-exist.csv")
    elif argv[0] == "evaluate":
        argv += ("--predictions", predictions_file)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_threshold_checked_before_predictions_are_read(capsys):
    code, out, err = run(
        capsys, "evaluate", "--threshold", "nan", "--predictions", "missing.csv"
    )
    assert (code, out) == (1, "")
    assert err == "error: threshold must lie in [0, 1], got nan\n"


@pytest.mark.parametrize(
    "config,field",
    [
        (
            {"weights": {"alpha": 0.5, "beta": 0.5, "gamma": 0.0, "delta": "NaN"}},
            "delta",
        ),
        ({"hysteresis": "NaN"}, "hysteresis"),
        ({"tsz": {"s_ref": "NaN"}}, "tsz.s_ref"),
        ({"hysteresis": "Infinity"}, "hysteresis"),
        ({"tsz": {"s_ref": "Infinity"}}, "tsz.s_ref"),
        ({"ges_thresholds": {"fdi": [0.25, 0.5, "Infinity"]}}, "ges_thresholds.fdi"),
        ({"zone_boundaries": [0.25, 0.75, "Infinity"]}, "zone_boundaries"),
    ],
    ids=[
        "weights",
        "hysteresis",
        "s_ref",
        "hysteresis-inf",
        "s_ref-inf",
        "ges_thresholds-inf",
        "zone_boundaries-inf",
    ],
)
def test_nan_config_value_exits_one(capsys, tmp_path, config, field):
    # json.loads reads a bare NaN, which passes any check written as `x < 0`,
    # and a bare Infinity, which passes any check written as `x > 0`.
    bad = "NaN" if "NaN" in json.dumps(config) else "Infinity"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config).replace(f'"{bad}"', bad), encoding="utf-8")
    code, out, err = run(capsys, "classify", "--das", "0.5", "--config", str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and field in err and repr(float(bad)) in err


@pytest.mark.parametrize(
    "content",
    [
        b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        b'{"hysteresis": 1' + b"0" * 5000 + b"}",
        b'{"hysteresis": 0.1\xff}',
    ],
    ids=["deeply-nested", "over-int-digit-limit", "not-utf-8"],
)
def test_config_the_decoder_refuses_exits_one(capsys, tmp_path, content):
    # RecursionError, ValueError past the int digit limit, and
    # UnicodeDecodeError all make a config that is not valid JSON.
    path = tmp_path / "config.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "classify", "--das", "0.5", "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: not valid JSON: ")
    assert len(err.splitlines()) == 1


def test_duplicate_ids_are_kept(capsys, tmp_path):
    # An id only labels error messages: every row counts, in file order.
    predictions = tmp_path / "predictions.csv"
    predictions.write_text(
        "sample_id,score,label,subgroup\ns1,0.9,1,A\ns1,0.2,0,A\n"
        "s2,0.8,1,B\ns3,0.3,0,B\n",
        encoding="utf-8",
    )
    config = tmp_path / "config.json"
    config.write_text('{"min_support": 1}', encoding="utf-8")
    argv = ("--predictions", str(predictions), "--threshold", "0.5")
    code, out, _ = run(
        capsys, "evaluate", *argv, "--config", str(config), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["subgroups"]["A"]["n"] == 2
    signals = tmp_path / "signals.csv"
    signals.write_text(SIGNALS_CSV.replace("mitigation_a", "baseline"), encoding="utf-8")
    code, out, _ = run(capsys, "lifecycle", "--signals", str(signals))
    assert code == 0
    ids = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert ids == ["baseline", "baseline", "mitigation_b"]


@pytest.mark.parametrize(
    "argv", [("evaluate", "--threshold", "0.5"), ("sweep",)], ids=["evaluate", "sweep"]
)
def test_predictions_checked_once_and_never_built_as_samples(
    monkeypatch, capsys, predictions_file, argv
):
    # Counts, not timings: the CLI reads predictions into columns, checking
    # each row once as it is parsed, and counts them without a second check.
    built, checked, scores_parsed = [], [], []
    real_init = Sample.__init__
    real_check = deployassure.evaluation._check_sample
    real_parse = deployassure.io._parse_unit_interval

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    def counting_check(sample):
        checked.append(sample)
        real_check(sample)

    def counting_parse(value, name):
        scores_parsed.append(value)
        return real_parse(value, name)

    monkeypatch.setattr(Sample, "__init__", counting_init)
    monkeypatch.setattr(deployassure.evaluation, "_check_sample", counting_check)
    monkeypatch.setattr(deployassure.io, "_parse_unit_interval", counting_parse)
    code, out, _ = run(capsys, *argv, "--predictions", predictions_file)
    assert code == 0 and out
    with open(predictions_file, encoding="utf-8") as fh:
        rows = len(fh.read().splitlines()) - 1
    assert (len(built), len(checked), len(scores_parsed)) == (0, 0, rows)
    # The patches are live: a list of samples is built and checked per sample.
    samples = list(parse_predictions(predictions_file))
    compute_confusion(samples, 0.5)
    assert (len(built), len(checked)) == (rows, rows)


@pytest.mark.parametrize("command", ["score", "lifecycle"])
def test_perfect_snapshot_under_simplex_weights(capsys, tmp_path, command):
    # 0.2 + 0.4 + 0.3 + 0.1 is 1.0000000000000002 in floats, within the
    # 1e-9 weight tolerance; the DAS of a perfect snapshot is still 1.
    config = tmp_path / "config.json"
    config.write_text(
        '{"weights": {"alpha": 0.2, "beta": 0.4, "gamma": 0.3, "delta": 0.1}}',
        encoding="utf-8",
    )
    signals = tmp_path / "signals.csv"
    signals.write_text(
        "snapshot_id,fdi,delta_fpr,delta_fnr,tsz,remediation_event\nok,0,0,0,0,0\n",
        encoding="utf-8",
    )
    argv = ("--signals", str(signals), "--config", str(config))
    code, out, err = run(capsys, command, *argv)
    assert (code, err) == (0, "")
    row = out.splitlines()[1].split(",")
    assert row[5:8] == ["1.0000", "Low", "Deployable"]


def _signals_with_bad_last_row(path, rows, jsonl):
    records = [
        {
            "snapshot_id": f"s{i}",
            "fdi": 0.1,
            "delta_fpr": 0.2,
            "delta_fnr": 0.3,
            "tsz": 0.4,
            "remediation_event": int(i % 3 == 0),
        }
        for i in range(rows)
    ]
    records[-1]["tsz"] = 1.5
    with open(path, "w", encoding="utf-8") as fh:
        if jsonl:
            fh.writelines(json.dumps(r) + "\n" for r in records)
        else:
            fh.write(",".join(records[0]) + "\n")
            fh.writelines(",".join(map(str, r.values())) + "\n" for r in records)


@pytest.mark.parametrize("output", ["csv", "json"])
@pytest.mark.parametrize("jsonl", [False, True], ids=["csv-input", "jsonl-input"])
def test_error_in_last_row_leaves_stdout_empty(capsys, tmp_path, jsonl, output):
    # The trace is built in one pass, but no byte of it is written until
    # the last row has been read and checked.
    rows = 5000
    path = tmp_path / ("signals.jsonl" if jsonl else "signals.csv")
    _signals_with_bad_last_row(path, rows, jsonl)
    argv = ("lifecycle", "--signals", str(path), "--format", output)
    code, out, err = run(capsys, *argv)
    # JSON holds a number; a CSV cell is a string, and the CSV header is row 1.
    row, bad = (rows, "1.5") if jsonl else (rows + 1, "'1.5'")
    assert (code, out) == (1, "")
    assert err == f"error: {path}: row {row}: tsz out of range [0, 1]: {bad}\n"


@pytest.mark.parametrize("command", ["lifecycle", "score"])
def test_signals_commands_build_no_per_row_objects(
    monkeypatch, capsys, signals_file, command
):
    # Counts, not timings: the CLI folds signal rows straight to output rows.
    built = []
    for cls in (AssuranceSignals, SnapshotAssessment, TraceEntry, TransitionRecord):
        real_init = cls.__init__

        def counting_init(self, *args, _real=real_init, **kwargs):
            built.append(type(self).__name__)
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    replaced = []

    def counting_replace(obj, **changes):
        replaced.append(type(obj).__name__)
        return dataclasses.replace(obj, **changes)

    for module in (deployassure.cli, deployassure.lifecycle):
        monkeypatch.setattr(module, "replace", counting_replace)
    code, out, _ = run(capsys, command, "--signals", signals_file)
    assert code == 0 and len(out.splitlines()) == 4
    assert (built, replaced) == ([], [])
    # The patches are live: the staged path builds every kind of object,
    # and backfills r_m with replace.
    replay(build_assessments(parse_signals(signals_file)))
    assert set(built) == {
        "AssuranceSignals",
        "SnapshotAssessment",
        "TraceEntry",
        "TransitionRecord",
    }
    assert replaced


def test_lifecycle_fast_paths_skip_csv_writer_and_json_loads(
    monkeypatch, capsys, tmp_path
):
    # Counts, not timings: the csv writer writes the header and the rows
    # whose id it must quote; json.loads reads only lines the scanner skips.
    written, loaded = [], []
    real_write, real_loads = deployassure.lifecycle._LineFeedRows.write, json.loads

    def counting_write(self, row):
        written.append(row)
        return real_write(self, row)

    def counting_loads(text, *args, **kwargs):
        loaded.append(text)
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr(deployassure.lifecycle._LineFeedRows, "write", counting_write)
    monkeypatch.setattr(json, "loads", counting_loads)
    signals = {"fdi": 0.1, "delta_fpr": 0.2, "delta_fnr": 0.3, "tsz": 0.4}
    path = tmp_path / "signals.jsonl"

    def lifecycle(snapshot_ids, padding=""):
        records = (
            {"snapshot_id": s, **signals, "remediation_event": 0} for s in snapshot_ids
        )
        lines = (padding + json.dumps(r) + "\n" for r in records)
        path.write_text("".join(lines), encoding="utf-8")
        written.clear()
        loaded.clear()
        code, out, err = run(capsys, "lifecycle", "--signals", str(path))
        assert (code, err) == (0, "")
        assert len(list(csv.reader(io.StringIO(out)))) == 1 + len(snapshot_ids)

    lifecycle(["s0", "s1", "s2"])
    assert (len(written), loaded) == (1, [])
    # The patches are live: quoted ids go through the csv writer, and
    # padded lines through json.loads.
    lifecycle(["s0", "a,b", 'q"', "x\ny", "x\ry", "s5"], padding=" ")
    assert (len(written), len(loaded)) == (5, 6)


@pytest.mark.parametrize("command", ["evaluate", "score", "lifecycle"])
@pytest.mark.parametrize(
    "line",
    ['{"a": ' + "[" * 100_000 + "]" * 100_000 + "}", '{"a": 1' + "0" * 5000 + "}"],
    ids=["deeply-nested", "over-int-digit-limit"],
)
def test_json_the_decoder_refuses_is_a_row_error(capsys, tmp_path, command, line):
    # The decoder raises RecursionError, or ValueError past the int digit
    # limit, on lines like these; both are invalid JSON in row 2.
    if command == "evaluate":
        first = {"sample_id": "s1", "score": 0.5, "label": 1, "subgroup": "A"}
        flags = ("--threshold", "0.5", "--predictions")
    else:
        first = {"snapshot_id": "s1", "fdi": 0.1, "delta_fpr": 0.2, "delta_fnr": 0.3}
        first.update(tsz=0.4, remediation_event=0)
        flags = ("--signals",)
    path = tmp_path / "input.jsonl"
    path.write_text(json.dumps(first) + "\n" + line + "\n", encoding="utf-8")
    code, out, err = run(capsys, command, *flags, str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: row 2: invalid JSON: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["evaluate", "sweep", "score", "lifecycle"])
@pytest.mark.parametrize("jsonl", [False, True], ids=["csv-input", "jsonl-input"])
def test_input_that_is_not_utf8_exits_one(capsys, tmp_path, command, jsonl):
    # The reader decodes in chunks, so the error names the file, not a row.
    if command in ("evaluate", "sweep"):
        record = {"sample_id": "s1", "score": 0.5, "label": 1, "subgroup": "A"}
        flags = ["--threshold", "0.5"] if command == "evaluate" else []
        flags.append("--predictions")
    else:
        record = {"snapshot_id": "s1", "fdi": 0.1, "delta_fpr": 0.2, "delta_fnr": 0.3}
        record.update(tsz=0.4, remediation_event=0)
        flags = ["--signals"]
    if jsonl:
        header, row = [], json.dumps(record)
    else:
        header, row = [",".join(record)], ",".join(map(str, record.values()))
    text = "".join(line + "\n" for line in [*header, row, row])
    # The third data row's id holds a 0xff byte.
    bad = row.encode("utf-8").replace(b"s1", b"s\xff", 1)
    path = tmp_path / ("input.jsonl" if jsonl else "input.csv")
    path.write_bytes(text.encode("utf-8") + bad + b"\n")
    code, out, err = run(capsys, command, *flags, str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: not UTF-8 text: invalid start byte\n"


@pytest.mark.parametrize("command", ["evaluate", "sweep", "score", "lifecycle"])
def test_csv_write_error_exits_one(
    monkeypatch, capsys, tmp_path, predictions_file, command
):
    # Python 3.10's csv module refuses to write a NUL in a cell. This writer
    # refuses the third row, after two rows have been written: no byte of
    # them may reach stdout.
    real_csv_writer = deployassure.lifecycle.csv_writer

    class RefusingWriter:
        def __init__(self, stream):
            self.writer, self.rows = real_csv_writer(stream), 0

        def writerow(self, row):
            self.rows += 1
            if self.rows == 3:
                raise csv.Error("need to escape, but no escapechar set")
            return self.writer.writerow(row)

    for module in (deployassure.cli, deployassure.lifecycle):
        monkeypatch.setattr(module, "csv_writer", RefusingWriter)
    config = tmp_path / "config.json"
    config.write_text('{"min_support": 5}', encoding="utf-8")
    if command in ("evaluate", "sweep"):
        argv = ["--predictions", predictions_file, "--config", str(config)]
        argv += ["--threshold", "0.5"] if command == "evaluate" else []
    else:
        # Ids with a comma, so that lifecycle too writes each row through
        # the csv writer.
        signals = tmp_path / "signals.csv"
        rows = (f'"s,{i}",0.1,0.2,0.3,0.4,0\n' for i in range(3))
        header = "snapshot_id,fdi,delta_fpr,delta_fnr,tsz,remediation_event\n"
        signals.write_text(header + "".join(rows), encoding="utf-8")
        argv = ["--signals", str(signals)]
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (1, "")
    message = "cannot write CSV output: need to escape, but no escapechar set"
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command", ["evaluate", "sweep", "score", "lifecycle", "classify"]
)
def test_output_is_utf8_whatever_the_stdout_encoding(tmp_path, command):
    # A latin-1 stdout cannot encode the euro sign in a subgroup or snapshot
    # id; the command writes the same UTF-8 bytes as under a UTF-8 stdout.
    config = tmp_path / "config.json"
    config.write_text('{"min_support": 5}', encoding="utf-8")
    if command in ("evaluate", "sweep"):
        path = tmp_path / "predictions.csv"
        lines = ["sample_id,score,label,subgroup"]
        lines += [
            f"{s.sample_id},{s.score:.6f},{s.label},{s.subgroup}"
            for s in make_dataset(groups=("\u20ac", "B"))
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = [command, "--predictions", str(path), "--config", str(config)]
        argv += ["--threshold", "0.5"] if command == "evaluate" else []
    elif command in ("score", "lifecycle"):
        path = tmp_path / "signals.csv"
        path.write_text(SIGNALS_CSV.replace("baseline", "\u20ac"), encoding="utf-8")
        argv = [command, "--signals", str(path)]
    else:
        argv = [command, "--das", "0.5"]
    formats = [[]] if command == "classify" else [["--format", f] for f in FORMATS]
    for output in formats:
        results = [
            subprocess.run(
                [sys.executable, "-m", "deployassure", *argv, *output],
                capture_output=True,
                env={**os.environ, "PYTHONIOENCODING": encoding},
                check=False,
            )
            for encoding in ("utf-8", "latin-1")
        ]
        for result in results:
            assert (result.returncode, result.stderr) == (0, b"")
        assert results[0].stdout and results[1].stdout == results[0].stdout
        if output == ["--format", "csv"] and command != "sweep":
            assert "\u20ac".encode("utf-8") in results[1].stdout


def test_nul_in_a_snapshot_id(capsys, tmp_path):
    record = {"snapshot_id": "a\0b", "fdi": 0.1, "delta_fpr": 0.2, "delta_fnr": 0.3}
    path = tmp_path / "signals.jsonl"
    record.update(tsz=0.4, remediation_event=0)
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "lifecycle", "--signals", str(path))
    if CSV_WRITES_NUL:
        assert (code, err) == (0, "")
        assert list(csv.reader(io.StringIO(out)))[1][0] == "a\0b"
    else:
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write CSV output: ")
        assert len(err.splitlines()) == 1


def _emit(argv, path, records):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)
    # A byte-backed stdout: main writes every command's bytes to sys.stdout.buffer.
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    out.flush()
    return list(csv.reader(io.StringIO(out.buffer.getvalue().decode("utf-8"))))


# Any text at all, bar lone surrogates, which no UTF-8 file can hold, and
# NUL where the csv module cannot write it (see test_nul_in_a_snapshot_id).
any_text = st.text(
    st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters="" if CSV_WRITES_NUL else "\0",
    )
)


class TestCsvRoundTrip:
    """Subgroup and snapshot strings survive CSV output and re-parsing."""

    @given(st.lists(any_text.filter(bool), min_size=2, max_size=2, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_evaluate_subgroups(self, groups):
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "config.json")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write('{"min_support": 1}')
            records = [
                {"sample_id": f"{g}{i}", "score": i / 3, "label": i % 2, "subgroup": g}
                for g in groups
                for i in range(4)
            ]
            path = os.path.join(tmp, "p.jsonl")
            argv = ["evaluate", "--predictions", path, "--threshold", "0.5"]
            rows = _emit(argv + ["--config", config], path, records)
        assert [row[0] for row in rows[1:3]] == sorted(groups)
        assert all(len(row) == 10 for row in rows[:3])

    @pytest.mark.parametrize("command,width", [("score", 8), ("lifecycle", 11)])
    @given(snapshot_ids=st.lists(any_text, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_snapshot_ids(self, command, width, snapshot_ids):
        signals = {"fdi": 0.1, "delta_fpr": 0.2, "delta_fnr": 0.3, "tsz": 0.4}
        records = [
            {"snapshot_id": s, **signals, "remediation_event": 0}
            for s in snapshot_ids
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.jsonl")
            rows = _emit([command, "--signals", path], path, records)
        assert [row[0] for row in rows[1:]] == snapshot_ids
        assert all(len(row) == width for row in rows)


class TestClassify:
    @pytest.mark.parametrize(
        "das,expected",
        [
            ("0.48", "EscalatedGovernance"),
            ("0.71", "Restricted"),
            ("0.52", "ReassessmentRequired"),
        ],
    )
    def test_states(self, capsys, das, expected):
        code, out, _ = run(capsys, "classify", "--das", das)
        assert code == 0
        assert out.strip() == expected


class TestExitCodes:
    def test_validation_error_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "snapshot_id,fdi,delta_fpr,delta_fnr,tsz,remediation_event\n"
            "snap,2.0,0.1,0.1,0.1,0\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "score", "--signals", str(bad))
        assert code == 1
        assert "row 2" in err

    def test_missing_file_is_two(self, capsys):
        code, _, err = run(capsys, "score", "--signals", "does-not-exist.csv")
        assert code == 2
        assert "error" in err

    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["score"])  # --signals is required
        assert excinfo.value.code == 1
