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

Each command returns its whole output as UTF-8 bytes, and :func:`main`
alone writes them to stdout, so nothing reaches stdout unless the
command succeeds, and the bytes do not depend on the locale.

Exit codes: 0 success, 1 validation error (including usage, and a value
the csv module cannot write), 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import sys
from dataclasses import replace
from typing import Iterable, Iterator, Sequence

from .assurance import DeploymentState, band_of, classify_drc, das_of, ges_of
from .config import load_config
from .errors import EngineError
from .evaluation import GAP_METRICS, check_threshold, compute_confusion, macro_mean
from .io import iter_signals, parse_predictions
from .lifecycle import (
    DEFAULT_INITIAL_STATE,
    RulesConfig,
    _round4,
    csv_writer,
    fold_trace,
    format_real,
    json_bytes,
)
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


def _csv_bytes(rows: Iterable[Sequence]) -> bytes:
    """CSV rows as UTF-8 bytes, every row written before any byte is out."""
    buffer = io.StringIO()
    out = csv_writer(buffer)
    for row in rows:
        out.writerow(row)
    return buffer.getvalue().encode("utf-8")


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


def cmd_evaluate(args: argparse.Namespace) -> bytes:
    panel_config = load_config(args.config).panel
    check_threshold(args.threshold)
    predictions = parse_predictions(args.predictions)
    confusion = compute_confusion(predictions, args.threshold)
    rates, gaps, fdi = assess_at_threshold(confusion, panel_config)

    groups = sorted(confusion)
    if args.format == "json":
        return json_bytes(
            {
                "threshold": args.threshold,
                "subgroups": {
                    g: {
                        "n": confusion[g].total,
                        "tp": confusion[g].tp,
                        "fp": confusion[g].fp,
                        "tn": confusion[g].tn,
                        "fn": confusion[g].fn,
                        "fpr": _round4(rates[g].fpr),
                        "fnr": _round4(rates[g].fnr),
                        "tpr": _round4(rates[g].tpr),
                        "selection_rate": _round4(rates[g].selection_rate),
                    }
                    for g in groups
                },
                "macro_means": {
                    "fpr": _round4(macro_mean(rates, "fpr")),
                    "fnr": _round4(macro_mean(rates, "fnr")),
                },
                "gaps": {m: _round4(gaps.value(m)) for m in GAP_METRICS},
                "excluded_subgroups": [list(e) for e in gaps.excluded_subgroups],
                "fdi": _round4(fdi.value),
                "fdi_mode": fdi.mode,
            }
        )

    rows = [
        ("subgroup", "n", "tp", "fp", "tn", "fn", "fpr", "fnr", "tpr", "selection_rate")
    ]
    for g in groups:
        c, r = confusion[g], rates[g]
        cells = (_cell(v) for v in (r.fpr, r.fnr, r.tpr, r.selection_rate))
        rows.append((g, c.total, c.tp, c.fp, c.tn, c.fn, *cells))
    rows += [
        (),
        ("metric", "value"),
        ("macro_mean_fpr", _cell(macro_mean(rates, "fpr"))),
        ("macro_mean_fnr", _cell(macro_mean(rates, "fnr"))),
        *((metric, format_real(gaps.value(metric))) for metric in GAP_METRICS),
        ("fdi", format_real(fdi.value)),
    ]
    return _csv_bytes(rows)


def cmd_sweep(args: argparse.Namespace) -> bytes:
    config = load_config(args.config)
    if args.range is not None:
        t_min, t_max, step = _parse_range(args.range)
    else:
        t_min, t_max, step = config.sweep_t_min, config.sweep_t_max, config.sweep_step
    predictions = parse_predictions(args.predictions)
    profile = sweep(predictions, t_min, t_max, step, config.panel)
    sens = sensitivity(profile, config.zones)
    scalar = tsz_scalar(sens, config.aggregation, config.s_ref)
    harshest = worst_zone(sens)

    if args.format == "json":
        return json_bytes(
            {
                "points": [
                    {
                        "threshold": _round4(point.threshold),
                        "fdi": _round4(fdi),
                        "sensitivity": _round4(point.s),
                        "zone": point.zone.value,
                    }
                    for point, (_, fdi) in zip(sens.points, profile.points)
                ],
                "tsz_scalar": _round4(scalar.value),
                "aggregation": scalar.aggregation,
                "s_ref": scalar.s_ref,
                "worst_zone": harshest.value,
            }
        )

    rows = [("threshold", "fdi", "sensitivity", "zone")]
    rows += (
        (*map(format_real, (point.threshold, fdi, point.s)), point.zone.value)
        for point, (_, fdi) in zip(sens.points, profile.points)
    )
    rows += [
        (),
        ("metric", "value"),
        ("tsz_scalar", format_real(scalar.value)),
        ("aggregation", scalar.aggregation),
        ("s_ref", format_real(scalar.s_ref)),
        ("worst_zone", harshest.value),
    ]
    return _csv_bytes(rows)


def _scored(path: str, rules: RulesConfig) -> Iterator[tuple]:
    """Score each signals row on its own: GES reads r_m, never backfilled."""
    weights, bands, cuts = rules.weights, rules.bands, rules.ges_thresholds
    for snapshot_id, *signals, _, r_m in iter_signals(path):
        das = das_of(*signals, weights)
        ges = ges_of(*signals, r_m, cuts).value
        yield snapshot_id, (*signals, das), ges, band_of(das, bands).value


def cmd_score(args: argparse.Namespace) -> bytes:
    scored = _scored(args.signals, load_config(args.config).rules)
    reals = ("fdi", "delta_fpr", "delta_fnr", "tsz", "das")
    columns = ("snapshot_id", *reals, "ges", "drc")
    if args.format == "json":
        return json_bytes(
            [
                dict(zip(columns, (sid, *map(_round4, values), ges, drc)))
                for sid, values, ges, drc in scored
            ]
        )
    rows = ((s, *map(format_real, values), ges, drc) for s, values, ges, drc in scored)
    return _csv_bytes(itertools.chain([columns], rows))


def cmd_lifecycle(args: argparse.Namespace) -> bytes:
    rules = load_config(args.config).rules
    if args.gating is not None:
        rules = replace(rules, recovery_gating=args.gating == "on")
    records = iter_signals(args.signals)
    return fold_trace(records, DeploymentState(args.initial), rules, args.format)


def cmd_classify(args: argparse.Namespace) -> bytes:
    state = classify_drc(args.das, load_config(args.config).rules.bands)
    return f"{state.value}\n".encode("utf-8")


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
    try:
        sys.stdout.buffer.write(args.handler(args))
        sys.stdout.buffer.flush()
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except csv.Error as exc:  # input errors are MalformedRowError by now
        print(f"error: cannot write CSV output: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
