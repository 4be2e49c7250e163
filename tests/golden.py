"""Golden digests of the CLI's output: exit code, stdout sha256, stderr.

Each invocation calls ``deployassure.cli.main`` in-process on inputs
written into a temporary directory:

* the bench workloads (``bench/workloads.py``, seed 301, bench config) at
  a few thousand rows, as CSV and as JSON-lines;
* edge files whose ids or subgroups hold a comma, a quote, ``\\r``,
  ``\\n``, NUL, a lone surrogate or non-ASCII text;
* files with a leading BOM, and with a blank line or one bad row at row
  1, 512 or 513 (either side of the readers' 512-row block);
* signals files whose one id, at row 1, 512 or 513, holds a comma, so
  that the trace writer's clean and quoted blocks meet in one file; and
  one whose signal values include the JSON integers 0 and 1, and -0.0;
* CSV files of each kind whose first cell that needs quotes comes after
  row 1,100, so that the readers' split blocks meet the csv module's;
* a verdict-mode config with per-metric tolerances and a two-metric
  panel, on the bench predictions; and a predictions file in which one
  gap keeps a single eligible subgroup, so ``sweep`` is degenerate and
  ``evaluate`` names every exclusion, with either config.

Every command runs in both output formats, ``lifecycle`` also with
``--gating off`` and each ``--initial``. ``golden.json`` holds, per
invocation, the exit code, the sha256 of stdout and the stderr text with
the temporary directory written as ``<tmp>``. Entries that a Python
version gives differently (its csv module, say) are kept in that
version's own section, over the reference version's entries.

    python tests/golden.py           # check; list what differs, exit 1
    python tests/golden.py --write   # record the running Python's results

Only the stdlib is used, so every supported Python can run the check
without pytest. A change that moves an entry says which and why.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SEED = 301
WORKLOAD_ROWS = 3000
EDGE_ROWS = 1030  # past the second block's first row
LATE_ROWS = 1200  # into the third block
BAD_ROWS = (1, 512, 513)
SPECIALS = {
    "comma": ",",
    "quote": '"',
    "cr": "\r",
    "lf": "\n",
    "nul": "\0",
    "surrogate": "\ud800",
    "non-ascii": "é€😀",
}
STATES = (
    "Deployable",
    "Restricted",
    "ReassessmentRequired",
    "EscalatedGovernance",
    "BlockedDeployment",
)
PREDICTION_COLUMNS = ("sample_id", "score", "label", "subgroup")
SIGNAL_COLUMNS = (
    "snapshot_id", "fdi", "delta_fpr", "delta_fnr", "tsz", "remediation_event", "r_m"
)


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "golden_workloads", ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _csv_cell(value: object) -> str:
    text = "" if value is None else str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write(path: Path, columns: tuple, records: list[dict], jsonl: bool, prefix=""):
    """Records as JSON-lines, or as CSV quoted by hand, so that the input
    bytes do not depend on the running Python's csv module (3.10's refuses
    a NUL). A lone surrogate has no UTF-8 bytes: in CSV it is written as
    the bytes of its code point, which are not UTF-8."""
    if jsonl:
        lines = [json.dumps({k: r[k] for k in columns if k in r}) for r in records]
    else:
        lines = [",".join(columns)]
        lines += [",".join(_csv_cell(r.get(k)) for k in columns) for r in records]
    text = prefix + "".join(line + "\n" for line in lines)
    path.write_bytes(text.encode("utf-8", "surrogatepass"))


def _predictions(n: int, odd: str = "") -> list[dict]:
    rows = []
    for i in range(n):
        group = ("A", "B", f"x{odd}y")[i % 3]
        label = i % 2
        score = round((i * 7919 % 1000) / 1000 * 0.8 + 0.2 * label, 3)
        row = {"sample_id": f"s{odd}{i}", "score": score, "label": label}
        rows.append({**row, "subgroup": group})
    return rows


def _signals(n: int, odd: str = "") -> list[dict]:
    rows = []
    for i in range(n):
        wave = (i * 37 % 100) / 100
        event = int(i % 4 == 3)
        row = {
            "snapshot_id": f"s{odd}{i}" if i % 3 == 1 else f"s{i}",
            "fdi": round(wave, 4),
            "delta_fpr": round(wave * 0.9, 4),
            "delta_fnr": round(1 - wave, 4),
            "tsz": round(wave * 0.5, 4),
            "remediation_event": event,
        }
        if event and i % 8 == 7:
            row["r_m"] = round(wave - 0.5, 4)
        rows.append(row)
    return rows


def _commands(kind: str) -> list[tuple[str, ...]]:
    if kind == "predictions":
        return [("evaluate", "--threshold", "0.5"), ("sweep",)]
    return [("score",), ("lifecycle",)]


def invocations(tmp: Path) -> list[list[str]]:
    """Write every input into ``tmp``; return the argument lists to run."""
    workloads = _workloads()
    config = tmp / "config.json"
    workloads.write_config(config)
    runs: list[list[str]] = []

    def add(kind: str, name: str, commands=None, config=config) -> None:
        for command in commands or _commands(kind):
            for output in ("csv", "json"):
                runs.append(
                    [*command, f"--{kind}", str(tmp / name), "--config", str(config),
                     "--format", output]
                )

    # The bench workloads, each in both input formats.
    path = tmp / "workload-predictions.csv"
    workloads.write_predictions(path, WORKLOAD_ROWS, SEED)
    with open(path, encoding="utf-8", newline="") as fh:
        records = [
            {**r, "score": float(r["score"]), "label": int(r["label"])}
            for r in csv.DictReader(fh)
        ]
    _write(tmp / "workload-predictions.jsonl", PREDICTION_COLUMNS, records, True)
    path = tmp / "workload-signals.jsonl"
    workloads.write_signals(path, WORKLOAD_ROWS, SEED)
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    _write(tmp / "workload-signals.csv", SIGNAL_COLUMNS, records, False)
    lifecycles = [("lifecycle", "--gating", g) for g in ("on", "off")]
    lifecycles += [("lifecycle", "--initial", s) for s in STATES]
    sweeps = [("evaluate", "--threshold", "0.5"), ("sweep",)]
    sweeps += [("sweep", "--range", "0:1:0.005"), ("sweep", "--range", "0:1:0.001")]
    for ext in ("csv", "jsonl"):
        add("predictions", f"workload-predictions.{ext}", sweeps)
        add("signals", f"workload-signals.{ext}", [("score",), *lifecycles])

    # Verdict mode: tolerances for a panel metric and for one outside the
    # panel; the other panel metric takes the default tolerance.
    verdict = tmp / "config-verdict.json"
    verdict.write_text(json.dumps({
        **workloads.CONFIG,
        "fdi": {
            "mode": "verdict",
            "tolerances": {"delta_tpr": 0.05, "delta_fpr": 0.2},
            "default_tolerance": 0.08,
        },
        "panel_metrics": ["delta_sr", "delta_tpr"],
    }), encoding="utf-8")
    add("predictions", "workload-predictions.csv", sweeps[:3], verdict)
    # delta_fpr keeps one eligible subgroup: B is below min_support and C,
    # all positive, has no false positive rate. The verdict panel leaves
    # delta_fpr out, and is degenerate all the same.
    records = [
        {"sample_id": f"{group}{i}", "score": (i * 37 % 100) / 100,
         "label": 1 if group == "C" else i % 2, "subgroup": group}
        for group, n in (("A", 40), ("B", 10), ("C", 40))
        for i in range(n)
    ]
    _write(tmp / "predictions-degenerate.csv", PREDICTION_COLUMNS, records, False)
    for cfg in (config, verdict):
        add("predictions", "predictions-degenerate.csv", sweeps[:2], cfg)

    # Edge files, each kind in both input formats.
    for kind, make, columns in (
        ("predictions", _predictions, PREDICTION_COLUMNS),
        ("signals", _signals, SIGNAL_COLUMNS),
    ):
        value = "score" if kind == "predictions" else "fdi"
        files = {f"{kind}-{k}": (make(EDGE_ROWS, c), "") for k, c in SPECIALS.items()}
        files[f"{kind}-bom"] = (make(EDGE_ROWS), "\ufeff")
        for row in BAD_ROWS:
            records = make(EDGE_ROWS)
            records[row - 1][value] = 1.5
            files[f"{kind}-bad-row-{row}"] = (records, "")
        for ext in ("csv", "jsonl"):
            for name, (records, prefix) in files.items():
                _write(tmp / f"{name}.{ext}", columns, records, ext == "jsonl", prefix)
                add(kind, f"{name}.{ext}")
            # A blank line before record 1, 512 or 513; record 513 is bad too.
            for row in BAD_ROWS:
                path = tmp / f"{kind}-blank-line-{row}.{ext}"
                records = make(EDGE_ROWS)
                if row == BAD_ROWS[-1]:
                    records[row - 1][value] = 1.5
                _write(path, columns, records, ext == "jsonl")
                lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
                lines.insert(row - (ext == "jsonl"), "\n")
                path.write_text("".join(lines), encoding="utf-8")
                add(kind, path.name)

    files = {}
    for row in BAD_ROWS:
        records = _signals(EDGE_ROWS)
        records[row - 1]["snapshot_id"] = f"s,{row}"
        files[f"signals-comma-at-{row}"] = records
    records = _signals(EDGE_ROWS)
    for i, record in enumerate(records):
        if i % 5 == 0:
            record.update(fdi=0, delta_fnr=1)
        elif i % 5 == 2:
            record.update(delta_fpr=1, tsz=-0.0)
    files["signals-int-values"] = records
    for ext in ("csv", "jsonl"):
        for name, records in files.items():
            _write(tmp / f"{name}.{ext}", SIGNAL_COLUMNS, records, ext == "jsonl")
            add("signals", f"{name}.{ext}")

    # The first cell that needs quotes comes after row 1,100: the readers
    # split two clean blocks, then the csv module reads the rest.
    for kind, make, columns in (
        ("predictions", _predictions, PREDICTION_COLUMNS),
        ("signals", _signals, SIGNAL_COLUMNS),
    ):
        records = make(LATE_ROWS)
        records[1100:] = make(LATE_ROWS, '"')[1100:]
        _write(tmp / f"{kind}-quote-late.csv", columns, records, False)
        add(kind, f"{kind}-quote-late.csv")

    for das in ("0", "0.3", "0.5", "0.85", "1", "1.5", "nan"):
        runs.append(["classify", "--das", das, "--config", str(config)])
    for threshold in ("0.5", "2"):  # a missing file; a bad value checked first
        argv = ["--threshold", threshold, "--predictions", str(tmp / "absent.csv")]
        runs.append(["evaluate", *argv])
    return runs


def call(argv: list[str]) -> tuple[int, bytes, str]:
    """``main(argv)`` with stdout and stderr captured."""
    from deployassure.cli import main

    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    stdout.flush()
    return code, stdout.buffer.getvalue(), stderr.getvalue()


def results(tmp: Path) -> dict[str, dict]:
    """Each invocation's key and record, run over inputs written into ``tmp``."""
    out = {}
    for argv in invocations(tmp):
        code, stdout, stderr = call(argv)
        key = " ".join(argv).replace(f"{tmp}/", "")
        out[key] = {
            "exit": code,
            "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            "stderr": stderr.replace(str(tmp), "<tmp>"),
        }
    return out


def version() -> str:
    return "%d.%d" % sys.version_info[:2]


def expected(golden: dict) -> dict[str, dict]:
    """The reference entries, with the running version's own entries over them."""
    return {**golden["invocations"], **golden.get(version(), {})}


def check(tmp: Path) -> list[str]:
    """One line per invocation whose result differs from ``golden.json``."""
    want = expected(json.loads(GOLDEN.read_text(encoding="utf-8")))
    got = results(tmp)
    return [
        f"{key}: expected {want.get(key)}, got {got.get(key)}"
        for key in sorted(want.keys() | got.keys())
        if want.get(key) != got.get(key)
    ]


def write(tmp: Path) -> None:
    """Record the running version's results.

    The reference version (the first to write the file) rewrites the
    shared entries; any other version keeps only the entries in which it
    differs from them.
    """
    got = results(tmp)
    golden = {"reference": version(), "invocations": got}
    if GOLDEN.exists():
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        if golden["reference"] == version():
            golden["invocations"] = got
        else:
            shared = golden["invocations"]
            golden[version()] = {k: r for k, r in got.items() if shared.get(k) != r}
            if not golden[version()]:
                del golden[version()]
    text = json.dumps(golden, indent=1, sort_keys=True) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite golden.json")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        if args.write:
            write(Path(tmp))
            return 0
        differences = check(Path(tmp))
    print("\n".join(differences) or f"all entries match on Python {version()}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
