"""Fast self-test of the benchmark at tiny input sizes.

    python3 bench/selftest.py

Checks that:

* BENCHMARK.json names exactly the workloads and metrics run.py defines;
* every workload, untraced and traced, runs correct at a tiny size and
  reports every named metric with its unit;
* a wrong expected digest is counted as failed, not ignored;
* in a directory holding only BENCHMARK.json and bench/, run.py exits
  non-zero without printing a result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

SCALE = 0.005
SECONDS = 0.2


def _args(workload: str, trace: int) -> argparse.Namespace:
    return run.parse_args(
        ["--workload", workload, "--seed", "7", "--seconds", str(SECONDS),
         "--trace", str(trace), "--scale", str(SCALE)]
    )


def _quiet_run(args: argparse.Namespace, expected_override: str | None = None) -> dict:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run.run(args, expected_override)


def check_definitions(spec: dict, problems: list[str]) -> None:
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for key, defined in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        named = [(m["name"], m["unit"]) for m in spec[key]]
        if named != list(defined):
            problems.append(f"BENCHMARK.json {key} differs from run.py")


def check_runs(spec: dict, problems: list[str]) -> None:
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _quiet_run(_args(workload, trace))
            where = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: not correct: {result['failed']} of {result['attempted']} failed")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{where}: metrics {sorted(got.items())} != {sorted(wanted.items())}")


def check_wrong_digest(problems: list[str]) -> None:
    for trace in (0, 1):
        result = _quiet_run(_args("sweep_dense", trace), expected_override="0" * 64)
        if result["correct"] or result["failed"] < 1:
            problems.append(f"trace={trace}: a wrong digest was not counted as failed: {result}")


def check_without_source(problems: list[str]) -> None:
    bare = run.BUILD / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sweep_dense", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append(f"without source: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    check_definitions(spec, problems)
    check_runs(spec, problems)
    check_wrong_digest(problems)
    check_without_source(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
