"""The command as a deployment pipeline runs it, from a temp directory."""

from __future__ import annotations

import csv
import io
import json
import random

import pytest

from deployassure import DeploymentState as D
from deployassure import RulesConfig, fold_trace, iter_signals, parse_predictions, sweep

from conftest import run_deployassure

BANDS = '"deployable": 0.8, "restricted": 0.65, "reassessment": 0.5, "escalated": 0.3'
SIGNAL = '"fdi": 0.1, "delta_fpr": 0.2, "delta_fnr": 0.3, "tsz": 0.4'
HEADER = "sample_id,score,label,subgroup"
EVALUATE = "evaluate --predictions {} --threshold 0.5"


@pytest.fixture(autouse=True)
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # 1,100 rows whose one id needing quotes, at row 600, puts a quoted row
    # in the trace writer's second block and none in the others.
    mixed = [json.dumps({
        "snapshot_id": "s,600" if i == 599 else f"s{i}", "fdi": w, "delta_fpr": w / 2,
        "delta_fnr": 1 - w, "tsz": w / 4, "remediation_event": int(i % 4 == 3),
    }) for i in range(1100) for w in [i * 37 % 100 / 100]]
    rng = random.Random(7)
    predictions = ["s%d,%.3f,%d,%s" % (i, min(1.0, max(0.0, rng.gauss(0.35 + 0.3 * y, 0.2))),
                   y, "ABCD"[i % 4]) for i in range(3000) for y in [int(rng.random() < 0.4)]]
    rng = random.Random(11)
    late = [HEADER] + ["s%d,%.3f,%d,%s" % (i, rng.random(), y, "ABCD"[i % 4])
                       for i in range(1100) for y in [int(rng.random() < 0.4)]]
    late[699] = late[699][:-1] + "A"  # row 700: the header is row 1
    rng = random.Random(13)
    rows = [{"sample_id": "s%d" % i, "score": round(rng.random(), 3),
             "label": int(rng.random() < 0.4), "subgroup": "ABCD"[i % 4]} for i in range(1100)]
    files = {
        "c.json": ['{"bands": {%s}}' % BANDS],
        "unknown.json": ['{"bands": {%s}, "wieghts": {}}' % BANDS],
        "signals.jsonl": ['{"snapshot_id": "%s", %s, "remediation_event": %d}'
                          % (sid, SIGNAL, event) for event, sid in enumerate("ab")],
        "mixed.jsonl": mixed,
        "padded.jsonl": [*mixed[:699], " " + mixed[699], *mixed[700:]],
        # A signals header and 600 blank lines: more than one 512-row block.
        "blank.csv": ["snapshot_id,fdi,delta_fpr,delta_fnr,tsz,remediation_event" + "\n" * 600],
        "predictions.csv": [HEADER, *predictions],
        "late-lf.csv": late,
        "late-crlf.csv": [line + "\r" for line in late],
        "late-quoted.csv": [*late[:699], late[699][:-1] + '"A"', *late[700:]],
    }
    for name, label in (("clean", 1), ("doubted", " 1")):
        rows[699]["label"] = label  # row 700
        files[f"rows-{name}.jsonl"] = list(map(json.dumps, rows))
    for name, lines in files.items():
        (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def run(argv, code=0):
    result = run_deployassure(*argv.split(), capture_output=True)
    assert result.returncode == code, result.stderr
    return result.stdout, result.stderr


@pytest.mark.parametrize("argv,code,out,err", [
    ("classify --das 0.5", 0, b"ReassessmentRequired\n", b""),
    ("classify --das 0.82", 0, b"Restricted\n", b""),  # the default bands
    ("classify --das 0.82 --config c.json", 0, b"Deployable\n", b""),
    ("classify --das 0.82 --config unknown.json", 1, b"",
     b"error: unknown.json: unknown field(s): wieghts\n"),
    ("lifecycle --signals blank.csv", 1, b"", b"error: blank.csv: no data rows\n"),
])
def test_exit_code_stdout_and_stderr(argv, code, out, err):
    assert run(argv, code) == (out, err)


@pytest.mark.parametrize("argv,first,second", [
    (EVALUATE, "late-lf.csv", "late-crlf.csv"),  # CRLF: all read by the csv module
    (EVALUATE, "late-lf.csv", "late-quoted.csv"),  # "A": handed to it at the quote
    (EVALUATE, "rows-clean.jsonl", "rows-doubted.jsonl"),  # " 1": rows checked
    ("lifecycle --signals {}", "mixed.jsonl", "padded.jsonl"),  # rows checked
], ids=["crlf", "quoted", "doubted-label", "padded-line"])
def test_twin_inputs_give_the_same_stdout(argv, first, second):
    assert run(argv.format(first)) == run(argv.format(second))


@pytest.mark.parametrize("options,output", [("", "csv"), ("--format json", "json"),
                                            ("--gating off", "csv")])
def test_the_library_fold_writes_the_command_bytes(options, output):
    out, rules = io.StringIO(), RulesConfig(recovery_gating="off" not in options)
    fold_trace(out, iter_signals("mixed.jsonl"), D.REASSESSMENT_REQUIRED, rules, output)
    assert run(f"lifecycle --signals mixed.jsonl {options}")[0] == out.getvalue().encode()


def test_signal_outputs_parse():
    json.loads(run("lifecycle --signals signals.jsonl --format json")[0])
    assert run("score --signals signals.jsonl")[0].count(b"\n") == 3


def test_a_quoted_id_in_the_second_block():
    out = run("lifecycle --signals mixed.jsonl --format csv")[0].decode("utf-8")
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert len(rows) == 1101 and {len(row) for row in rows} == {11}, rows[:2]
    assert rows[600][0] == "s,600" and rows[601][0] == "s600", rows[600:602]


def test_each_swept_fdi_is_the_library_value():
    argv = "sweep --predictions predictions.csv --range 0:1:0.001 --format json"
    points = json.loads(run(argv)[0])["points"]
    profile = sweep(parse_predictions("predictions.csv"), 0.0, 1.0, 0.001)
    assert len(points) == len(profile.points) == 1001, len(points)
    assert [p["fdi"] for p in points] == [float("%.4f" % v) for _, v in profile.points]
