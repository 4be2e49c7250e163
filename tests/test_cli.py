"""Tests for the command-line interface: outputs and exit codes."""

from __future__ import annotations

import contextlib
import csv
import errno
import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deployassure.cli
import deployassure.evaluation
import deployassure.io
import deployassure.lifecycle
from deployassure import (
    Sample,
    compute_confusion,
    fdi_at_threshold,
    load_config,
    parse_predictions,
)
from deployassure.assurance import AssuranceSignals
from deployassure.cli import FORMATS, entry, main
from deployassure.io import parse_signals
from deployassure.lifecycle import (
    SnapshotAssessment,
    TraceEntry,
    TransitionRecord,
    build_assessments,
    replay,
)
from deployassure.record import replace

from conftest import CSV_WRITES_NUL, SIGNALS_CSV, make_dataset, run_deployassure
from oracles import dictreader_parse_predictions


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


# The default config's trace fingerprint: when hashlib is loaded must not move it.
DEFAULT_TRACE_FINGERPRINT = "b0428fb931eddae9"

# Runs main for each argv in argv[2] in one interpreter and prints, per run,
# its exit code, whether _hashlib (OpenSSL) and hashlib are loaded, and stdout.
STARTUP_PROBE = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
from deployassure.cli import main
report = []
for argv in json.loads(sys.argv[2]):
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    code = main(argv)
    out = sys.stdout.buffer.getvalue().decode("utf-8")
    names = ("_hashlib", "hashlib", "dataclasses", "inspect")
    report.append([code, *(name in sys.modules for name in names), out])
sys.__stdout__.write(json.dumps(report))
"""


def test_only_a_printed_fingerprint_loads_openssl(predictions_file, signals_file):
    # Without site (-S), nothing but the engine imports a module here.
    src = os.path.dirname(os.path.dirname(deployassure.cli.__file__))
    runs = [
        ["classify", "--das", "0.5"],
        ["evaluate", "--predictions", predictions_file, "--threshold", "0.5"],
        ["sweep", "--predictions", predictions_file],
        ["score", "--signals", signals_file],
        ["lifecycle", "--signals", signals_file],
        ["lifecycle", "--signals", signals_file, "--format", "json"],
    ]
    result = subprocess.run(
        [sys.executable, "-S", "-c", STARTUP_PROBE, src, json.dumps(runs)],
        capture_output=True,
        check=True,
    )
    *csv_runs, (code, _, hashed, *slow_imports, out) = json.loads(result.stdout)
    assert [run[:5] for run in csv_runs] == [[0, False, False, False, False]] * 5
    assert (code, hashed) == (0, True)  # the probe sees hashlib once it loads
    # Records compile nothing and the fingerprint needs no dataclass: no
    # run pays for importing dataclasses and the inspect module under it.
    assert slow_imports == [False, False]
    assert json.loads(out)["config_fingerprint"] == DEFAULT_TRACE_FINGERPRINT


class _Flags:
    """``sys.flags`` with its ``dev_mode`` set."""

    def __init__(self, dev_mode):
        self.dev_mode, self._real = dev_mode, sys.flags

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestEntry:
    """The process entry runs main on sys.argv, then freezes the heap once."""

    @pytest.fixture
    def frozen(self, monkeypatch, capsys):
        """What stdout held at each gc.freeze call; none is really made."""
        calls = []
        # capsys's stdout is bytes-backed, as main's writes need.
        monkeypatch.setattr(gc, "freeze", lambda: calls.append(sys.stdout.buffer.getvalue()))
        monkeypatch.setattr(sys, "flags", _Flags(dev_mode=False))
        return calls

    def test_after_main_has_written_its_output(self, monkeypatch, frozen):
        monkeypatch.setattr(sys, "argv", ["deployassure", "classify", "--das", "0.5"])
        assert entry() == 0
        assert frozen == [b"ReassessmentRequired\n"]

    def test_after_a_usage_error(self, monkeypatch, capsys, frozen):
        monkeypatch.setattr(sys, "argv", ["deployassure", "classify"])
        with pytest.raises(SystemExit) as excinfo:
            entry()
        assert (excinfo.value.code, frozen) == (1, [b""])
        assert "the following arguments are required: --das" in capsys.readouterr().err

    def test_not_in_development_mode(self, monkeypatch, capsys, frozen):
        monkeypatch.setattr(sys, "flags", _Flags(dev_mode=True))
        monkeypatch.setattr(sys, "argv", ["deployassure", "classify", "--das", "0.5"])
        assert entry() == 0
        assert frozen == []
        assert capsys.readouterr().out == "ReassessmentRequired\n"

    def test_never_by_main(self, frozen):
        assert main(["classify", "--das", "0.5"]) == 0
        assert frozen == []


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
        summary = out.split("\n\n")[1].splitlines()
        assert [row.split(",")[0] for row in summary] == [
            "metric",
            "macro_mean_fpr",
            "macro_mean_fnr",
            "delta_fpr",
            "delta_fnr",
            "delta_tpr",
            "delta_sr",
            "fdi",
        ]

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
        assert list(payload["subgroups"]["A"]) == [
            "fn", "fnr", "fp", "fpr", "n", "selection_rate", "tn", "tp", "tpr"
        ]
        assert list(payload["macro_means"]) == ["fnr", "fpr"]
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
        summary = out.split("\n\n")[1].splitlines()
        assert [row.split(",")[0] for row in summary] == [
            "metric", "tsz_scalar", "aggregation", "s_ref", "worst_zone"
        ]

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
        payload = json.loads(out)
        assert len(payload["points"]) == 5
        assert list(payload["points"][0]) == ["fdi", "sensitivity", "threshold", "zone"]
        assert list(payload) == [
            "aggregation", "points", "s_ref", "tsz_scalar", "worst_zone"
        ]

    def test_range_two_steps_less_a_rounding_error(self, capsys, predictions_file):
        # (0.3 - 0.1) / 0.1 is 1.9999999999999998: two steps as sweep counts them.
        argv = ("sweep", "--predictions", predictions_file, "--range", "0.1:0.3:0.1")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        table = out.split("\n\n")[0].splitlines()[1:]
        assert [row.split(",")[0] for row in table] == ["0.1000", "0.2000", "0.3000"]

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
        ("sweep", "--range", "a:b:c"),
        # 1 / 5e-324 steps overflows to an infinite count.
        ("sweep", "--range", "0:1:5e-324"),
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


# config -> the stderr message, after "error: "; {path} is the config file.
CONFIG_ERRORS = {
    "number-is-bool": ({"hysteresis": True}, "hysteresis: expected a number, got True"),
    "number-is-string": (
        {"weights": {"alpha": "x", "beta": 0.5, "gamma": 0.25, "delta": 0.25}},
        "weights.alpha: expected a number, got 'x'",
    ),
    "section-not-object": (
        {"weights": [0.25, 0.25, 0.25, 0.25]},
        "weights: expected an object, got [0.25, 0.25, 0.25, 0.25]",
    ),
    "sweep-not-object": (
        {"sweep": "0:1:0.1"},
        "sweep: expected an object, got '0:1:0.1'",
    ),
    "unknown-section-field": (
        {"tsz": {"s_ref": 2.0, "scale": 1}},
        "tsz: unknown field(s): scale",
    ),
    "unknown-before-missing": (
        {"bands": {"deployable": 0.9, "floor": 0.1}},
        "bands: unknown field(s): floor",
    ),
    "zone-boundaries-two": (
        {"zone_boundaries": [0.25, 0.75]},
        "zone_boundaries: expected three numbers, got [0.25, 0.75]",
    ),
    "zone-boundaries-object": (
        {"zone_boundaries": {"z1": 0.25}},
        "zone_boundaries: expected three numbers, got {'z1': 0.25}",
    ),
    "top-level-list": ([], "{path}: top level must be an object"),
    "weights-missing": (
        {"weights": {"alpha": 1.0}},
        "weights: missing field(s): beta, delta, gamma",
    ),
    "bands-missing": (
        {"bands": {"deployable": 0.9, "restricted": 0.7}},
        "bands: missing field(s): escalated, reassessment",
    ),
    "bands-first-bad-in-field-order": (
        {
            "bands": {
                "escalated": "e",
                "deployable": "d",
                "restricted": 0.7,
                "reassessment": 0.5,
            }
        },
        "bands.deployable: expected a number, got 'd'",
    ),
    "sweep-first-bad-in-field-order": (
        {"sweep": {"step": "s", "t_min": "m"}},
        "sweep.t_min: expected a number, got 'm'",
    ),
    "tolerances-not-object": (
        {"fdi": {"tolerances": [0.1]}},
        "fdi.tolerances: expected an object, got [0.1]",
    ),
    "panel-metrics-not-strings": (
        {"panel_metrics": ["delta_fpr", 1]},
        "panel_metrics: expected a list of strings, got ['delta_fpr', 1]",
    ),
    "panel-metrics-not-list": (
        {"panel_metrics": "delta_fpr"},
        "panel_metrics: expected a list of strings, got 'delta_fpr'",
    ),
    "recovery-gating-not-bool": (
        {"recovery_gating": 1},
        "recovery_gating: expected a boolean, got 1",
    ),
    # ges_thresholds reads its fields in file order.
    "ges-thresholds-file-order": (
        {"ges_thresholds": {"tsz": "x", "fdi": "y"}},
        "ges_thresholds.tsz: expected three numbers, got 'x'",
    ),
    "default-tolerance-not-number": (
        {"fdi": {"default_tolerance": "0.1"}},
        "fdi.default_tolerance: expected a number, got '0.1'",
    ),
    "tolerance-not-number": (
        {"fdi": {"tolerances": {"delta_fpr": 0.1, "delta_sr": [0.2]}}},
        "fdi.tolerances.delta_sr: expected a number, got [0.2]",
    ),
    "unknown-fdi-field": (
        {"fdi": {"mode": "verdict", "tolerance": 0.1}},
        "fdi: unknown field(s): tolerance",
    ),
    "unknown-ges-thresholds-field": (
        {"ges_thresholds": {"fdi": [0.25, 0.5, 0.75], "dpd": [0.1, 0.2, 0.3]}},
        "ges_thresholds: unknown field(s): dpd",
    ),
    "s_ref-not-number": (
        {"tsz": {"s_ref": "2.0"}},
        "tsz.s_ref: expected a number, got '2.0'",
    ),
    "negative-weight": (
        {"weights": {"alpha": 0.5, "beta": -0.25, "gamma": 0.5, "delta": 0.25}},
        "weights: beta must be >= 0, got -0.25",
    ),
    # default_tolerance is read before tolerances, whatever the file order.
    "fdi-default-tolerance-before-tolerances": (
        {"fdi": {"tolerances": [0.1], "default_tolerance": "x"}},
        "fdi.default_tolerance: expected a number, got 'x'",
    ),
    # Unknown keys are found before any value is read.
    "unknown-key-before-bad-value": (
        {"hysteresis": "x", "wieghts": {}},
        "{path}: unknown field(s): wieghts",
    ),
}


@pytest.mark.parametrize(
    "config,message", list(CONFIG_ERRORS.values()), ids=list(CONFIG_ERRORS)
)
def test_config_error_exits_one_with_its_message(capsys, tmp_path, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run(capsys, "classify", "--das", "0.5", "--config", str(path))
    assert (code, out, err) == (1, "", f"error: {message.replace('{path}', str(path))}\n")


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
    # a clean file a block at a time with no per-row validator call, and
    # counts them without a second check.
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
    assert (len(built), len(checked), len(scores_parsed)) == (0, 0, 0)
    # The patches are live: a list of samples is built and checked per sample.
    samples = dictreader_parse_predictions(predictions_file)
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


_SIGNALS_HEADER = "snapshot_id,fdi,delta_fpr,delta_fnr,tsz,remediation_event"
_JSONL_SIGNALS = (
    '{"snapshot_id": "s", "fdi": 0.1, "delta_fpr": 0.1, "delta_fnr": 0.1, '
    '"tsz": 0.1, "remediation_event": 1, "r_m": %s}\n'
)
# name -> (file name, text, the stderr message after "error: {path}: ")
SIGNALS_ERRORS = {
    "r_m-json-bool": (
        "s.jsonl",
        _JSONL_SIGNALS % "true",
        "row 1: r_m is not a number: True",
    ),
    "r_m-csv-text": (
        "s.csv",
        f"{_SIGNALS_HEADER},r_m\ns,0.1,0.1,0.1,0.1,1,abc\n",
        "row 2: r_m is not a number: 'abc'",
    ),
    "r_m-below-minus-one": (
        "s.csv",
        f"{_SIGNALS_HEADER},r_m\ns,0.1,0.1,0.1,0.1,1,-1.5\n",
        "row 2: r_m out of range [-1, 1]: '-1.5'",
    ),
    "header-only": ("s.csv", f"{_SIGNALS_HEADER}\n", "no data rows"),
    # More blank lines than one 512-row block holds.
    "header-blank-lines": ("s.csv", _SIGNALS_HEADER + "\n" * 601, "no data rows"),
    "header-blank-lines-crlf": ("s.csv", _SIGNALS_HEADER + "\r\n" * 601, "no data rows"),
}


@pytest.mark.parametrize("command", ["score", "lifecycle"])
@pytest.mark.parametrize(
    "name,text,message", list(SIGNALS_ERRORS.values()), ids=list(SIGNALS_ERRORS)
)
def test_signals_error_exits_one_with_its_message(
    capsys, tmp_path, command, name, text, message
):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command, "--signals", str(path))
    assert (code, out, err) == (1, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize(
    "argv", [("evaluate", "--threshold", "0.5"), ("sweep",)], ids=["evaluate", "sweep"]
)
def test_predictions_of_a_header_and_blank_lines_exit_one(capsys, tmp_path, argv, end):
    path = tmp_path / "p.csv"
    path.write_text("sample_id,score,label,subgroup" + end * 601, encoding="utf-8")
    code, out, err = run(capsys, *argv, "--predictions", str(path))
    assert (code, out, err) == (1, "", f"error: {path}: no data rows\n")


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
        return replace(obj, **changes)

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


@pytest.mark.parametrize("command", ["lifecycle", "score"])
def test_lifecycle_fast_paths_skip_csv_writer_and_json_loads(
    monkeypatch, capsys, tmp_path, command
):
    # Counts, not timings: in both commands the csv writer writes the header
    # and each id that must be quoted, as a one-field row. json.loads
    # decodes each block of clean lines once; only the lines of a block the
    # block checks doubt are decoded one at a time.
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

    def signals_command(snapshot_ids, padded=()):
        records = (
            {"snapshot_id": s, **signals, "remediation_event": 0} for s in snapshot_ids
        )
        lines = (
            " " * (i in padded) + json.dumps(r) + "\n" for i, r in enumerate(records)
        )
        path.write_text("".join(lines), encoding="utf-8")
        for counts in (written, loaded):
            counts.clear()
        code, out, err = run(capsys, command, "--signals", str(path))
        assert (code, err) == (0, "")
        assert len(list(csv.reader(io.StringIO(out)))) == 1 + len(snapshot_ids)

    block = deployassure.io._BLOCK_ROWS
    many = [f"s{i}" for i in range(2 * block + 10)]
    signals_command(["s0", "s1", "s2"])
    assert (len(written), len(loaded)) == (1, 1)
    signals_command(many)
    assert (len(written), len(loaded)) == (1, 3)
    assert all(text.startswith("[") for text in loaded)
    # A padded line in the second block: the first and third blocks are
    # decoded whole, and each line of the second on its own.
    signals_command(many, padded={block + 5})
    assert len(loaded) == 2 + block
    assert [text[0] for text in loaded] == ["[", *"{" * 5, " ", *"{" * (block - 6), "["]
    # The patches are live: the quoted ids go through the csv writer, the
    # clean ids do not, and padded lines go through json.loads.
    signals_command(["s0", "a,b", 'q"', "x\ny", "x\ry", "s5"], padded=range(6))
    assert (len(written), len(loaded)) == (5, 6)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_lifecycle_reads_a_pipe_as_it_reads_the_file(capsys, tmp_path):
    # More than a pipe buffer, and a doubted block, so that both the block
    # path and the line path read from the pipe as it fills.
    rng = random.Random(12)
    lines = []
    for i in range(3 * deployassure.io._BLOCK_ROWS):
        record = {"snapshot_id": f"s{i}", "remediation_event": int(rng.random() < 0.3)}
        record.update((k, rng.randint(0, 1000) / 1000) for k in ("fdi", "tsz"))
        record.update(delta_fpr=rng.random() / 2, delta_fnr=rng.random() / 2)
        lines.append(json.dumps(record) + "\n")
    lines[-100] = " " + lines[-100]
    text = "".join(lines)
    path = tmp_path / "signals.jsonl"
    path.write_text(text, encoding="utf-8")
    expected = run(capsys, "lifecycle", "--signals", str(path))
    assert expected[0] == 0

    read_end, write_end = os.pipe()

    def feed():
        with os.fdopen(write_end, "w", encoding="utf-8") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        got = run(capsys, "lifecycle", "--signals", f"/dev/fd/{read_end}")
    finally:
        writer.join(timeout=30)
        os.close(read_end)
    assert not writer.is_alive()
    assert got == expected


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


# Commands per input kind. A spreadsheet's "CSV UTF-8" export, and some
# JSON-lines writers, start the file with a UTF-8 byte order mark.
BOM_COMMANDS = {
    "predictions": [["evaluate", "--threshold", "0.5"], ["sweep"]],
    "signals": [["score"], ["lifecycle"]],
}


def _bom_records(kind, n):
    rng = random.Random(kind)
    if kind == "predictions":
        return [
            {"sample_id": f"s{i}", "score": rng.randint(0, 1000) / 1000,
             "label": rng.randint(0, 1), "subgroup": "AB"[i % 2]}
            for i in range(n)
        ]
    keys = ("fdi", "delta_fpr", "delta_fnr", "tsz")
    return [
        {"snapshot_id": f"s{i}", **{k: rng.randint(0, 1000) / 1000 for k in keys},
         "remediation_event": 0}
        for i in range(n)
    ]


def _write_records(path, records, encoding):
    if path.suffix == ".jsonl":
        text = "".join(json.dumps(r) + "\n" for r in records)
    else:
        text = ",".join(records[0]) + "\n"
        text += "".join(",".join(map(str, r.values())) + "\n" for r in records)
    path.write_text(text, encoding=encoding)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("kind", list(BOM_COMMANDS))
def test_a_leading_bom_is_skipped(capsys, tmp_path, kind, fmt):
    records = _bom_records(kind, 600)  # more than one block
    plain, marked = tmp_path / f"plain.{fmt}", tmp_path / f"bom.{fmt}"
    _write_records(plain, records, "utf-8")
    _write_records(marked, records, "utf-8-sig")
    assert marked.read_bytes()[3:] == plain.read_bytes()
    for command in BOM_COMMANDS[kind]:
        for output in FORMATS:
            argv = [*command, "--format", output, f"--{kind}"]
            expected = run(capsys, *argv, str(plain))
            assert expected[0] == 0
            assert run(capsys, *argv, str(marked)) == expected


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("kind", list(BOM_COMMANDS))
def test_a_bad_row_after_a_bom_keeps_its_row(capsys, tmp_path, kind, fmt):
    records = _bom_records(kind, 600)
    records[3]["score" if kind == "predictions" else "tsz"] = 1.5
    plain, marked = tmp_path / f"plain.{fmt}", tmp_path / f"bom.{fmt}"
    _write_records(plain, records, "utf-8")
    _write_records(marked, records, "utf-8-sig")
    argv = [*BOM_COMMANDS[kind][0], f"--{kind}"]
    code, out, err = run(capsys, *argv, str(marked))
    assert (code, out) == (1, "")
    row = 4 if fmt == "jsonl" else 5  # the CSV header is row 1
    assert err.startswith(f"error: {marked}: row {row}: ")
    assert run(capsys, *argv, str(plain)) == (1, "", err.replace("bom.", "plain."))


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

        def writerows(self, rows):
            for row in rows:
                self.writerow(row)

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
            run_deployassure(
                *argv,
                *output,
                capture_output=True,
                env={**os.environ, "PYTHONIOENCODING": encoding},
            )
            for encoding in ("utf-8", "latin-1")
        ]
        for result in results:
            assert (result.returncode, result.stderr) == (0, b"")
        assert results[0].stdout and results[1].stdout == results[0].stdout
        if output == ["--format", "csv"] and command != "sweep":
            assert "\u20ac".encode("utf-8") in results[1].stdout


@pytest.mark.parametrize(
    "argv",
    [("classify", "--das", "0.5"), ("evaluate", "--threshold", "0.5")],
    ids=["classify", "evaluate"],
)
def test_text_only_stdout_gets_the_text(capsys, predictions_file, argv):
    # A StringIO has no .buffer; main writes the same output to it as text.
    if argv[0] == "evaluate":
        argv += ("--predictions", predictions_file)
    code, expected, _ = run(capsys, *argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    assert code == 0 and expected
    assert out.getvalue() == expected


@pytest.mark.parametrize(
    "argv", [("evaluate", "--threshold", "0.5"), ("sweep",)], ids=["evaluate", "sweep"]
)
def test_cli_predictions_hold_no_ids(monkeypatch, capsys, predictions_file, argv):
    parsed = []
    real_parse = deployassure.cli.parse_predictions

    def keeping_parse(*args, **kwargs):
        parsed.append(real_parse(*args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(deployassure.cli, "parse_predictions", keeping_parse)
    code, out, _ = run(capsys, *argv, "--predictions", predictions_file)
    assert code == 0 and out
    (predictions,) = parsed
    assert len(predictions) == 80
    assert predictions.__slots__ == ("scores", "labels", "codes", "names", "_codes")
    with pytest.raises(TypeError, match="not iterable"):
        iter(predictions)


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


def _lone_surrogate_input(tmp_path, command):
    """A JSON-lines input whose one id or subgroup holds a lone surrogate."""
    if command == "evaluate":
        name, records = "predictions", [
            {"sample_id": s.sample_id, "score": s.score, "label": s.label,
             "subgroup": "\ud800" if s.subgroup == "A" else s.subgroup}
            for s in make_dataset()
        ]
        extra = ("--threshold", "0.5")
    else:
        name, extra = "signals", ()
        records = [{"snapshot_id": "a\ud800b", "fdi": 0.1, "delta_fpr": 0.2,
                    "delta_fnr": 0.3, "tsz": 0.4, "remediation_event": 0}]
    path = tmp_path / f"{name}.jsonl"
    # json.dumps escapes the surrogate, so the file is valid UTF-8 and JSON.
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return (command, f"--{name}", str(path), *extra)


@pytest.mark.parametrize("command", ["evaluate", "score", "lifecycle"])
def test_lone_surrogate_in_csv_output_exits_one(capsys, tmp_path, command):
    argv = _lone_surrogate_input(tmp_path, command)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot write CSV output: ")
    assert len(err.splitlines()) == 1
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert "\\ud800" in out


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


# A broken pipe, as the command's one stderr line names it.
BROKEN_PIPE = f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n".encode()


def _lifecycle_over_many_rows(tmp_path):
    """A lifecycle command whose trace, about 1.6 MB, outgrows a pipe's buffer."""
    path = tmp_path / "signals.csv"
    lines = ["snapshot_id,fdi,delta_fpr,delta_fnr,tsz,remediation_event"]
    lines += [f"s{i},0.{i % 97:02d},0.1,0.2,0.3,{i % 3 == 0:d}" for i in range(20000)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["lifecycle", "--signals", str(path)]


def _child_env(buffered):
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    return env if buffered else {**env, "PYTHONUNBUFFERED": "1"}


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
class TestClosedStdout:
    """A stdout whose reader goes before all output is written exits 2, with
    one line on stderr and nothing from the interpreter's exit."""

    @pytest.mark.parametrize("large", [False, True], ids=["classify", "lifecycle"])
    def test_closed_before_the_write(self, tmp_path, buffered, large):
        argv = ["classify", "--das", "0.5"]
        if large:
            argv = _lifecycle_over_many_rows(tmp_path)
        read, write = os.pipe()
        os.close(read)
        try:
            result = run_deployassure(
                *argv,
                stdout=write,
                stderr=subprocess.PIPE,
                env=_child_env(buffered),
                timeout=120,
            )
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (2, BROKEN_PIPE)

    def test_closed_mid_write(self, tmp_path, buffered):
        argv = _lifecycle_over_many_rows(tmp_path)
        with run_deployassure(
            *argv,
            start=subprocess.Popen,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            bufsize=0,
            env=_child_env(buffered),
        ) as child:
            assert child.stdout.read(10)  # the write has begun
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=120)
        assert (code, err) == (2, BROKEN_PIPE)
