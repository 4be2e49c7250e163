"""Benchmark of the deployassure CLI.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Inputs are generated from the seed before anything is timed, and the
expected stdout digest of every invocation comes from ``reference.py``.

``--trace 0`` runs the CLI as a child process, one invocation at a time
from this single process (a closed loop with one client), for ``--seconds``.
Each round is one workload invocation followed by a few ``classify``
invocations for set-up time, and each of those two is bracketed by runs
of the fixed reference job in ``pace.py``. Child CPU time and peak RSS
come from ``os.wait4``, per child. It reports the end-to-end metrics.

The shared host runs the same code up to half again slower for seconds to
minutes at a time, so raw times of one commit differ between runs by more
than any useful regression bound. Every time metric is therefore given at
the reference pace: an invocation's measured time times
``PACE_S / (mean time of the pace runs on either side of it)``. The pace
job shares no code with the engine, so a change to the engine moves these
figures as it moves raw time on an unloaded host. The raw medians are
printed beside them and saved with the results.

``--trace 1`` calls ``cli.main`` in this process instead, alternating an
untraced call and a traced call, and reports the per-layer metrics from
the traced calls' spans (see ``tracing.py``).

Every metric is printed by name with its unit and sample count, followed
by the failed/attempted count; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Full results
and spans are written under ``.bench_build/results/``. Without the
engine's source next to this directory the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import pace
import reference
from tracing import Tracer, installed
from workloads import (
    SETUP_DAS,
    WORKLOADS,
    Workload,
    write_config,
    write_predictions,
    write_signals,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

SETUP_PER_ROUND = 3  # classify runs per workload run: each is ~0.15 s
# Seconds that one pace.py run of each kind takes at the reference pace:
# about its wall time on an unloaded core of a 2-vCPU Xeon VM. Fixed
# constants, so times at the reference pace compare across runs and commits.
PACE_S = {"predictions": 0.25, "signals": 0.5}
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 120
CLI = ["-m", "deployassure"]

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("rows_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
PER_LAYER = (
    ("config.load_config.s", "s"),
    ("io.parse_predictions.s", "s"),
    ("io.parse_predictions.rows", "count"),
    ("io.parse_signals.s", "s"),
    ("io.parse_signals.rows", "count"),
    ("evaluation.compute_confusion.s", "s"),
    ("evaluation.compute_confusion.calls", "count"),
    ("evaluation.compute_confusion.rows_scanned", "count"),
    ("evaluation.compute_gaps.s", "s"),
    ("disagreement.compute_fdi.s", "s"),
    ("disagreement.compute_fdi.calls", "count"),
    ("stability.sweep.self_s", "s"),
    ("stability.fdi_at_threshold.calls", "count"),
    ("stability.fdi_at_threshold.failed", "count"),
    ("stability.sensitivity.s", "s"),
    ("stability.tsz_scalar.s", "s"),
    ("assurance.compute_das.s", "s"),
    ("assurance.compute_das.calls", "count"),
    ("assurance.compute_ges.s", "s"),
    ("assurance.classify_drc.s", "s"),
    ("assurance.classify_drc.calls", "count"),
    ("lifecycle.build_assessments.self_s", "s"),
    ("lifecycle.replay.self_s", "s"),
    ("lifecycle.step.s", "s"),
    ("lifecycle.step.calls", "count"),
    ("lifecycle.transitions", "count"),
    ("lifecycle.emit_trace.s", "s"),
    ("lifecycle.emit_trace.bytes", "bytes"),
    ("cli.main.s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass(frozen=True)
class Job:
    """One workload, generated and ready to run."""

    workload: Workload
    rows: int
    argv: list[str]
    expected: str  # sha256 of the reference stdout
    setup_argv: list[str]
    setup_expected: str


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ok: bool


@dataclass(frozen=True)
class Paced:
    """An invocation and the mean pace-job times measured on either side."""

    run: Invocation
    pace_wall_s: float
    pace_cpu_s: float
    reference_s: float  # PACE_S of the pace job's kind

    @property
    def wall_s(self) -> float:
        return self.run.wall_s * self.reference_s / self.pace_wall_s

    @property
    def cpu_s(self) -> float:
        return self.run.cpu_s * self.reference_s / self.pace_cpu_s


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def prepare(workload: Workload, seed: int, scale: float, work: Path) -> Job:
    """Write the workload's input and config; compute the expected digests."""
    config = work / "config.json"
    write_config(config)
    rows = workload.size(scale)
    command = workload.command
    if workload.kind == "predictions":
        path = work / "predictions.csv"
        data = write_predictions(path, rows, seed)
        if command[0] == "evaluate":
            expected = reference.evaluate(data, float(command[2]))
        else:
            expected = reference.sweep(data, *(float(x) for x in command[2].split(":")))
    else:
        path = work / "signals.jsonl"
        expected = reference.lifecycle(write_signals(path, rows, seed))
    return Job(
        workload=workload,
        rows=rows,
        argv=[*command, workload.input_flag, str(path), "--config", str(config)],
        expected=sha256(expected),
        setup_argv=["classify", "--das", str(SETUP_DAS), "--config", str(config)],
        setup_expected=sha256(f"{reference.classify(SETUP_DAS)}\n".encode()),
    )


def _timeout(signum, frame):
    raise TimeoutError(f"child ran longer than {CHILD_TIMEOUT_S} s")


def spawn(argv: list[str], expected: str, work: Path, env: dict) -> Invocation:
    """Run ``python ARGV`` to completion; check its stdout."""
    out, err = work / "stdout", work / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    exe = sys.executable
    start = perf_counter()
    pid = os.posix_spawn(exe, [exe, *argv], env, file_actions=actions)
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = perf_counter() - start
    ok = os.waitstatus_to_exitcode(status) == 0 and sha256(out.read_bytes()) == expected
    if not ok:
        sys.stderr.write(f"failed: {' '.join(argv)}\n{err.read_text(errors='replace')}")
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        ok=ok,
    )


def child_env() -> dict:
    # A fixed environment: inherited settings such as PYTHONUNBUFFERED or
    # PYTHONDONTWRITEBYTECODE would change what is measured.
    return {
        "PATH": os.environ.get("PATH", ""),
        "PYTHONPATH": str(SRC),
        "PYTHONPYCACHEPREFIX": str(BUILD / "pycache"),
        "PYTHONHASHSEED": "0",
    }


def run_untraced(job: Job, seconds: float, work: Path) -> tuple[list, list, list]:
    """Closed loop of child invocations; returns (warm-up, workload, setup).

    The order is pace, workload, pace, setups, pace, workload, ... so each
    workload invocation and each group of setups lies between two pace
    runs, and each pace run serves the invocations on both its sides.
    """
    env = child_env()
    kind = job.workload.kind
    pace_argv = [str(Path(pace.__file__).resolve()), kind]
    pace_expected = sha256(pace.JOBS[kind]().encode())

    def paced() -> Invocation:
        result = spawn(pace_argv, pace_expected, work, env)
        if not result.ok:
            raise RuntimeError("the pace job failed; see stderr")
        return result

    def between(before: Invocation, group: list[Invocation], after: Invocation) -> list[Paced]:
        wall = (before.wall_s + after.wall_s) / 2
        cpu = (before.cpu_s + after.cpu_s) / 2
        return [Paced(r, wall, cpu, PACE_S[kind]) for r in group]

    # Untimed but checked: fill the bytecode cache under .bench_build and
    # the page cache for the pace job.
    warmup = [spawn([*CLI, *job.setup_argv], job.setup_expected, work, env)]
    paced()
    runs: list[Paced] = []
    setups: list[Paced] = []
    before = paced()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(runs) < MIN_ROUNDS:
        invocation = spawn([*CLI, *job.argv], job.expected, work, env)
        middle = paced()
        runs.extend(between(before, [invocation], middle))
        group = [
            spawn([*CLI, *job.setup_argv], job.setup_expected, work, env)
            for _ in range(SETUP_PER_ROUND)
        ]
        before = paced()
        setups.extend(between(middle, group, before))
    return warmup, runs, setups


def end_to_end(job: Job, runs: list[Paced], setups: list[Paced]) -> dict:
    wall = statistics.median(r.wall_s for r in runs)
    values = {
        "wall_s": (wall, len(runs)),
        "cpu_s": (statistics.median(r.cpu_s for r in runs), len(runs)),
        "rows_per_s": (job.rows / wall, len(runs)),
        "peak_rss_mb": (statistics.median(r.run.peak_rss_mb for r in runs), len(runs)),
        "setup_s": (statistics.median(s.wall_s for s in setups), len(setups)),
    }
    return {name: (*values[name], unit) for name, unit in END_TO_END}


def raw_medians(runs: list[Paced], setups: list[Paced]) -> list[str]:
    """The measured medians before scaling to the reference pace."""
    pace_s = statistics.median(r.pace_wall_s for r in runs)
    return [
        f"raw medians: wall_s {statistics.median(r.run.wall_s for r in runs):.6f} s, "
        f"cpu_s {statistics.median(r.run.cpu_s for r in runs):.6f} s, "
        f"setup_s {statistics.median(s.run.wall_s for s in setups):.6f} s; "
        f"pace run {pace_s:.6f} s against PACE_S {runs[0].reference_s} s"
    ]


def _call_main(main, argv: list[str], expected: str, tracer: Tracer | None) -> tuple[float, bool]:
    """Call ``cli.main`` in-process with stdout captured; time the call."""
    buffer = io.BytesIO()
    stdout = io.TextIOWrapper(buffer, encoding="utf-8", newline="\n")
    saved = sys.stdout
    gc.collect()
    sys.stdout = stdout
    try:
        start = perf_counter()
        code = main(argv) if tracer is None else tracer.call("cli.main", main, (argv,))
        wall = perf_counter() - start
        stdout.flush()
    except Exception:
        traceback.print_exc()
        return perf_counter() - start, False
    finally:
        sys.stdout = saved
    ok = code == 0 and sha256(buffer.getvalue()) == expected
    stdout.detach()
    return wall, ok


def run_traced(job: Job, seconds: float) -> tuple[list, list[float], list[Tracer]]:
    """Alternate untraced and traced in-process calls of ``cli.main``."""
    sys.path.insert(0, str(SRC))
    from deployassure import cli

    # Untimed but checked: the first call grows the heap for the later ones.
    checks = [_call_main(cli.main, job.argv, job.expected, None)[1]]
    untraced: list[float] = []
    tracers: list[Tracer] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not tracers:
        wall, ok = _call_main(cli.main, job.argv, job.expected, None)
        untraced.append(wall)
        checks.append(ok)
        tracer = Tracer(invocation=len(tracers))
        with installed(tracer):
            _, ok = _call_main(cli.main, job.argv, job.expected, tracer)
        checks.append(ok)
        tracers.append(tracer)
    return checks, untraced, tracers


def per_layer(untraced: list[float], tracers: list[Tracer]) -> dict:
    """Median over traced calls of each layer metric."""
    rounds = [t.layer_metrics() for t in tracers]
    for m, plain in zip(rounds, untraced):
        m["cli.self_s"] = m.get("cli.main.self_s", 0.0)
        # Paired with the untraced call of the same round, so drift cancels.
        m["trace.overhead_s"] = m["cli.main.s"] - plain
    return {
        name: (statistics.median(m.get(name, 0.0) for m in rounds), len(rounds), unit)
        for name, unit in PER_LAYER
    }


def layer_summary(tracer: Tracer) -> list[str]:
    """Self time per layer, largest first, and the modules that have spans."""
    own = {
        name.removesuffix(".self_s"): value
        for name, value in tracer.layer_metrics().items()
        if name.endswith(".self_s")
    }
    ranked = sorted(own.items(), key=lambda kv: -kv[1])
    return [
        "self time by layer: " + ", ".join(f"{name} {s:.4f} s" for name, s in ranked),
        f"modules with spans: {', '.join(sorted({name.split('.')[0] for name in own}))}",
    ]


def machine() -> dict:
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    init = (SRC / "deployassure" / "__init__.py").read_text(encoding="utf-8")
    version = re.search(r'^__version__ = "([^"]+)"', init, re.M)
    commit = None
    if (ROOT / ".git").exists():
        try:
            result = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
            )
            commit = result.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "package_version": version.group(1) if version else None,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def report(
    args: argparse.Namespace,
    job: Job,
    metrics: dict,
    attempted: int,
    failed: int,
    notes: list[str],
    raw: dict,
) -> dict:
    """Print every metric with unit and sample count; return the result line."""
    info = machine()
    print(
        f"workload {job.workload.name}  seed {args.seed}  rows {job.rows}  "
        f"seconds {args.seconds}  trace {args.trace}"
    )
    print(f"why: {job.workload.why}")
    print(f"machine: {json.dumps(info, sort_keys=True)}")
    print(f"{'metric':<44} {'value':>16}  {'unit':<6} n")
    for name, (value, n, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6f}  {unit:<6} {n}")
    ratio = failed / attempted
    print(f"{'failed_ratio':<44} {ratio:>16.6f}  {'ratio':<6} {attempted}  ({failed} of {attempted} invocations failed)")
    for line in notes:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, _, unit) in metrics.items()},
    }
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{job.workload.name}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(
        json.dumps(
            {
                "workload": job.workload.name,
                "why": job.workload.why,
                "seed": args.seed,
                "seconds": args.seconds,
                "rows": job.rows,
                "machine": info,
                "samples": {name: n for name, (_, n, _) in metrics.items()},
                "raw": raw,
                "failed_ratio": ratio,
                **result,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    return result


def run(args: argparse.Namespace, expected_override: str | None = None) -> dict:
    """Generate, measure and report one run; returns the result object."""
    workload = WORKLOADS[args.workload]
    work = BUILD / "work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        job = prepare(workload, args.seed, args.scale, work)
        if expected_override is not None:
            job = replace(job, expected=expected_override)
        if args.trace:
            checks, untraced, tracers = run_traced(job, args.seconds)
            spans = BUILD / "results" / f"{workload.name}-seed{args.seed}-spans.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            spans.write_text(json.dumps([t.dump() for t in tracers]) + "\n", encoding="utf-8")
            return report(
                args,
                job,
                per_layer(untraced, tracers),
                len(checks),
                checks.count(False),
                layer_summary(tracers[-1]),
                {"untraced_s": untraced},
            )
        warmup, runs, setups = run_untraced(job, args.seconds, work)
        invocations = warmup + [p.run for p in runs + setups]
        return report(
            args,
            job,
            end_to_end(job, runs, setups),
            len(invocations),
            sum(not i.ok for i in invocations),
            raw_medians(runs, setups),
            {
                "pace_s": PACE_S[workload.kind],
                "runs": [{**vars(p.run), "pace_wall_s": p.pace_wall_s, "pace_cpu_s": p.pace_cpu_s} for p in runs],
                "setups": [{**vars(p.run), "pace_wall_s": p.pace_wall_s, "pace_cpu_s": p.pace_cpu_s} for p in setups],
            },
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="input size factor (the self-test shrinks it)"
    )
    return parser.parse_args(argv)


def main() -> int:
    args = parse_args()
    if not (SRC / "deployassure" / "cli.py").is_file():
        print(f"error: engine source not found at {SRC}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
