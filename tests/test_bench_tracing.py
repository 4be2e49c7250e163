"""The benchmark's traced run wraps package names that must exist."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from deployassure import cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    names = [entry[:2] for entry in tracing.SPANS + tracing.LEAVES]
    assert names
    missing = [
        f"deployassure.{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(f"deployassure.{module}"), attr)
    ]
    assert missing == []


@pytest.mark.parametrize(
    "argv,scanned",
    [(("evaluate", "--threshold", "0.5"), 1), (("sweep",), 0)],
    ids=["evaluate", "sweep"],
)
def test_row_counters_count_rows(capsys, tracing, predictions_file, argv, scanned):
    # The counters take len() of what parse_predictions returns and of what
    # compute_confusion is given; both must count prediction rows.
    rows = len(Path(predictions_file).read_text(encoding="utf-8").splitlines()) - 1
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cli.main([*argv, "--predictions", predictions_file]) == 0
    capsys.readouterr()
    metrics = tracer.layer_metrics()
    assert metrics["io.parse_predictions.rows"] == rows
    # A sweep counts by bisection, so it scans no rows.
    assert metrics.get("evaluation.compute_confusion.rows_scanned", 0) == scanned * rows
