"""Command-line interface binding the engine's workflows together.

Commands:

* ``evaluate``:  per-subgroup rates, disparity gaps, and the
  disagreement index at one decision threshold.
* ``sweep``:     disagreement/sensitivity/zone table over a threshold
  grid plus the normalised stability scalar.
* ``score``:     assurance score, escalation level, and stateless
  readiness state for each row of a signals file.
* ``lifecycle``: governed state trace over a signals file.
* ``classify``:  readiness state for a single assurance score.

Each command writes its whole output into a text buffer that :func:`main`
hands it. :func:`main` alone encodes the buffer as UTF-8 and writes it to
stdout, so nothing reaches stdout unless the command succeeds, and the
bytes do not depend on the locale.

Exit codes: 0 success, 1 validation error (including usage, and a value
that CSV output cannot write), 2 I/O error, among them a stdout that
closes before all output is written.

``python -m deployassure`` and the installed ``deployassure`` script both
run :func:`entry`, which calls :func:`main` and then freezes the heap, so
that the interpreter's exit skips its cycle collections.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import itertools
import sys
from operator import attrgetter
from typing import Iterator, Sequence, TextIO

from .assurance import (
    DeploymentState,
    classify_drc,
    das_column,
    drc_column,
    ges_column,
)
from .config import load_config
from .errors import EngineError
from .evaluation import GAP_METRICS, check_threshold, compute_confusion, macro_mean
from .io import parse_predictions, signal_blocks
from .lifecycle import (
    DEFAULT_INITIAL_STATE,
    TRACE_COLUMNS,
    _REAL,
    RulesConfig,
    _round4,
    csv_blocks,
    csv_writer,
    fold_blocks,
    format_real,
    json_rows,
    json_string,
    json_text,
)
from .record import replace
from .stability import (
    assess_at_threshold,
    check_sweep_range,
    sensitivity,
    sweep,
    tsz_scalar,
    worst_zone,
)

# Not called here: bench/tracing.py times the engine by wrapping these
# names in this module, so they stay importable from it.
from .assurance import compute_das, compute_ges
from .disagreement import compute_fdi
from .evaluation import compute_gaps
from .io import parse_signals
from .lifecycle import build_assessments, emit_trace, replay

FORMATS = ("csv", "json")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, not argparse's 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cell(value: float | None) -> str:
    return "" if value is None else format_real(value)


def _parse_range(raw: str) -> tuple[float, float, float]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise EngineError(f"--range must look like MIN:MAX:STEP, got {raw!r}")
    try:
        t_min, t_max, step = (float(p) for p in parts)
    except ValueError:
        raise EngineError(f"--range must contain numbers, got {raw!r}")
    check_sweep_range(t_min, t_max, step)
    return t_min, t_max, step


def cmd_evaluate(args: argparse.Namespace, out: TextIO) -> None:
    panel_config = load_config(args.config).panel
    check_threshold(args.threshold)
    predictions = parse_predictions(args.predictions)
    confusion = compute_confusion(predictions, args.threshold)
    rates, gaps, fdi = assess_at_threshold(confusion, panel_config)

    counts = ("n", "tp", "fp", "tn", "fn")
    rate_names = tuple(GAP_METRICS.values())
    rates_of = attrgetter(*rate_names)
    table = [
        (g, (c.total, c.tp, c.fp, c.tn, c.fn), rates_of(rates[g]))
        for g, c in sorted(confusion.items())
    ]
    means = {r: macro_mean(rates, r) for r in ("fpr", "fnr")}
    if args.format == "json":
        out.write(json_text(
            {
                "threshold": args.threshold,
                "subgroups": {
                    g: dict(zip(counts + rate_names, (*n, *map(_round4, r))))
                    for g, n, r in table
                },
                "macro_means": {r: _round4(mean) for r, mean in means.items()},
                "gaps": {m: _round4(gaps.value(m)) for m in GAP_METRICS},
                "excluded_subgroups": [list(e) for e in gaps.excluded_subgroups],
                "fdi": _round4(fdi.value),
                "fdi_mode": fdi.mode,
            }
        ))
        return

    rows = [("subgroup", *counts, *rate_names)]
    rows += ((g, *n, *map(_cell, r)) for g, n, r in table)
    rows += [
        (),
        ("metric", "value"),
        *((f"macro_mean_{r}", _cell(mean)) for r, mean in means.items()),
        *((metric, format_real(gaps.value(metric))) for metric in GAP_METRICS),
        ("fdi", format_real(fdi.value)),
    ]
    csv_writer(out).writerows(rows)


def cmd_sweep(args: argparse.Namespace, out: TextIO) -> None:
    config = load_config(args.config)
    if args.range is not None:
        t_min, t_max, step = _parse_range(args.range)
    else:
        t_min, t_max, step = config.sweep_t_min, config.sweep_t_max, config.sweep_step
    predictions = parse_predictions(args.predictions)
    profile = sweep(predictions, t_min, t_max, step, config.panel)
    sens = sensitivity(profile, config.zones)
    scalar = tsz_scalar(sens, config.aggregation, config.s_ref)

    columns = ("threshold", "fdi", "sensitivity", "zone")
    table = [
        (point.threshold, fdi, point.s, point.zone.value)
        for point, (_, fdi) in zip(sens.points, profile.points)
    ]
    metrics = ("tsz_scalar", "aggregation", "s_ref", "worst_zone")
    tsz, aggregation, s_ref = scalar.value, scalar.aggregation, scalar.s_ref
    harshest = worst_zone(sens).value
    if args.format == "json":
        out.write(json_text(
            {
                "points": [
                    dict(zip(columns, (*map(_round4, reals), zone)))
                    for *reals, zone in table
                ],
                **dict(zip(metrics, (_round4(tsz), aggregation, s_ref, harshest))),
            }
        ))
        return

    rows = [columns, *((*map(format_real, reals), zone) for *reals, zone in table)]
    rows += [
        (),
        ("metric", "value"),
        *zip(metrics, (format_real(tsz), aggregation, format_real(s_ref), harshest)),
    ]
    csv_writer(out).writerows(rows)


def _scored(path: str, rules: RulesConfig) -> Iterator[tuple]:
    """Blocks of ``score`` columns; GES reads each row's own r_m, never backfilled."""
    weights, bands, cuts = rules.weights, rules.bands, rules.ges_thresholds
    for ids, *signals, _, r_ms in signal_blocks(path):
        das = das_column(signals, weights)
        ges = [level._value_ for level in ges_column(signals, r_ms, cuts)]
        yield ids, *signals, das, ges, [s._value_ for s in drc_column(das, bands)]


def cmd_score(args: argparse.Namespace, out: TextIO) -> None:
    blocks = _scored(args.signals, load_config(args.config).rules)
    columns = (*TRACE_COLUMNS[:7], "drc")
    if args.format == "json":
        shape = dict.fromkeys(columns, 0) | {"ges": "", "drc": ""}
        cells = (  # in sorted-key order
            (float(_REAL % das), float(_REAL % dfnr), float(_REAL % dfpr), drc,
             float(_REAL % fdi), ges, json_string(sid), float(_REAL % tsz))
            for sid, fdi, dfpr, dfnr, tsz, das, ges, drc
            in itertools.chain.from_iterable(itertools.starmap(zip, blocks))
        )
        json_rows(out, shape, cells)
    else:  # five reals, then GES and the DRC
        csv_blocks(out, columns, ",".join([_REAL] * 5 + ["%s"] * 2), blocks)


def cmd_lifecycle(args: argparse.Namespace, out: TextIO) -> None:
    rules = load_config(args.config).rules
    if args.gating is not None:
        rules = replace(rules, recovery_gating=args.gating == "on")
    blocks = signal_blocks(args.signals)
    fold_blocks(out, blocks, DeploymentState(args.initial), rules, args.format)


def cmd_classify(args: argparse.Namespace, out: TextIO) -> None:
    state = classify_drc(args.das, load_config(args.config).rules.bands)
    out.write(f"{state.value}\n")


def _add_common(parser: argparse.ArgumentParser, formats: bool = True) -> None:
    parser.add_argument("--config", help="path to a JSON config file", default=None)
    if formats:
        parser.add_argument(
            "--format", choices=FORMATS, default="csv", help="output format"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="deployassure", description=__doc__.split("\n")[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser(
        "evaluate", help="rates, gaps, and disagreement at one threshold"
    )
    p.add_argument("--predictions", required=True, help="predictions file (csv/jsonl)")
    p.add_argument("--threshold", required=True, type=float)
    _add_common(p)
    p.set_defaults(handler=cmd_evaluate)

    p = subparsers.add_parser("sweep", help="disagreement profile over thresholds")
    p.add_argument("--predictions", required=True, help="predictions file (csv/jsonl)")
    p.add_argument("--range", default=None, metavar="MIN:MAX:STEP")
    _add_common(p)
    p.set_defaults(handler=cmd_sweep)

    p = subparsers.add_parser(
        "score", help="assurance score and readiness per signals row"
    )
    p.add_argument("--signals", required=True, help="signals file (csv/jsonl)")
    _add_common(p)
    p.set_defaults(handler=cmd_score)

    p = subparsers.add_parser("lifecycle", help="governed state trace over signals")
    p.add_argument("--signals", required=True, help="signals file (csv/jsonl)")
    p.add_argument(
        "--initial",
        default=DEFAULT_INITIAL_STATE.value,
        choices=[s.value for s in DeploymentState],
        help="starting governance state",
    )
    p.add_argument(
        "--gating",
        choices=("on", "off"),
        default=None,
        help="override recovery gating (default: config value)",
    )
    _add_common(p)
    p.set_defaults(handler=cmd_lifecycle)

    p = subparsers.add_parser("classify", help="readiness state for one score")
    p.add_argument("--das", required=True, type=float)
    _add_common(p, formats=False)
    p.set_defaults(handler=cmd_classify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = io.StringIO()
    try:
        args.handler(args, out)
        output = out.getvalue().encode("utf-8")
        stream = getattr(sys.stdout, "buffer", None)
        if stream is None:  # a text-only stdout (a StringIO, say) takes the text
            sys.stdout.write(output.decode("utf-8"))
            output = b""
        sys.stdout.flush()
        # Past any buffer, so no refused bytes wait for the flush at exit. A
        # write that a closing reader cuts short returns its count without
        # raising; a full non-blocking stdout returns None, which slices as 0.
        stream = getattr(stream, "raw", stream)
        while output:
            output = output[stream.write(output):]
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Input errors are MalformedRowError by now. A lone surrogate, which a
    # JSON string may hold, has no UTF-8 bytes; JSON output escapes it.
    except (csv.Error, UnicodeEncodeError) as exc:
        print(f"error: cannot write CSV output: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> int:
    """The process entry of ``python -m deployassure`` and the installed script.

    Runs :func:`main` on ``sys.argv``, then moves every object alive to the
    permanent generation (``gc.freeze``), which the collections at
    interpreter exit skip: about 13k objects in a ``classify`` process,
    over half of them from ``site``. The rest of the exit still runs:
    atexit handlers, the flush of ``sys.stdout`` and ``sys.stderr``, and
    refcount finalizers. Under ``-X dev`` nothing is frozen, so the full
    collection still reports a file handle leaked in a reference cycle.
    :func:`main` itself changes nothing process-wide, so an in-process
    caller's heap is never frozen.
    """
    try:
        return main()
    finally:
        if not sys.flags.dev_mode:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
