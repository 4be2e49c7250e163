"""The package declares no runtime dependencies and imports only the stdlib.

It also keeps its surface small: the exported names, the settable config
fields and the lines of ``src/`` are bounded, so a change that adds one
raises its bound.
"""

from __future__ import annotations

import ast
import inspect
import sys
from pathlib import Path

import pytest

import deployassure
from deployassure import EngineConfig, PanelConfig, RulesConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deployassure"


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_the_script_and_python_m_run_one_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    tree = ast.parse((PACKAGE / "__main__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name: f"deployassure.{node.module}:{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    # The function whose result __main__ hands to sys.exit.
    called = [
        node.args[0].func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "sys.exit"
    ]
    assert [imported[name] for name in called] == [scripts["deployassure"]]
    assert scripts["deployassure"] == "deployassure.cli:entry"


def test_every_import_is_stdlib_or_relative():
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []


def test_exports_and_config_fields_stay_within_their_bounds():
    exported = [
        name
        for name, value in vars(deployassure).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    fields = [
        f"{config.__name__}.{field}"
        for config in (EngineConfig, RulesConfig, PanelConfig)
        for field in config._fields
    ]
    assert len(exported) <= 54, sorted(exported)
    assert len(fields) <= 18, fields


def test_source_lines_stay_within_their_bound():
    # Physical lines, as ``wc -l src/deployassure/*.py`` counts them.
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert lines <= 3143, lines
