"""The benchmark's traced run wraps package names that must exist."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    names = [entry[:2] for entry in tracing.SPANS + tracing.LEAVES]
    assert names
    missing = [
        f"deployassure.{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(f"deployassure.{module}"), attr)
    ]
    assert missing == []
