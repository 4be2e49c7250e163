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

Exit codes: 0 success, 1 validation error (including usage), 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Sequence

from .assurance import DeploymentState, classify_drc, compute_das, compute_ges
from .config import load_config
from .disagreement import compute_fdi, panel_from_gaps
from .errors import EngineError
from .evaluation import (
    GAP_METRICS,
    check_threshold,
    compute_confusion,
    compute_gaps,
    compute_rates,
    macro_mean,
    subgroup_sizes,
)
from .io import iter_signals, parse_predictions, parse_signals

# cmd_lifecycle runs fold_trace; build_assessments, replay and emit_trace
# are not called here, but bench/tracing.py wraps them by these names.
from .lifecycle import (
    DEFAULT_INITIAL_STATE,
    _round4,
    build_assessments,
    csv_writer,
    emit_trace,
    fold_trace,
    format_real,
    replay,
)
from .stability import (
    check_sweep_range,
    sensitivity,
    sweep,
    tsz_scalar,
    worst_zone,
)

FORMATS = ("csv", "json")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, not argparse's 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cell(value: float | None) -> str:
    return "" if value is None else format_real(value)


def _write(text: str) -> None:
    sys.stdout.write(text)


def _emit_json(payload: object) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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


def cmd_evaluate(args: argparse.Namespace) -> int:
    panel_config = load_config(args.config).panel
    check_threshold(args.threshold)
    predictions = parse_predictions(args.predictions)
    confusion = compute_confusion(predictions, args.threshold)
    rates = {group: compute_rates(c) for group, c in confusion.items()}
    gaps = compute_gaps(rates, subgroup_sizes(confusion), panel_config.min_support)
    panel = panel_from_gaps(gaps, panel_config.metrics, panel_config.panel_tolerances())
    fdi = compute_fdi(panel, panel_config.mode)

    groups = sorted(confusion)
    if args.format == "json":
        _emit_json(
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
        return 0

    out = csv_writer(sys.stdout)
    out.writerow(
        ("subgroup", "n", "tp", "fp", "tn", "fn", "fpr", "fnr", "tpr", "selection_rate")
    )
    for g in groups:
        c = confusion[g]
        r = rates[g]
        out.writerow(
            (g, c.total, c.tp, c.fp, c.tn, c.fn)
            + tuple(_cell(v) for v in (r.fpr, r.fnr, r.tpr, r.selection_rate))
        )
    out.writerow(())
    out.writerow(("metric", "value"))
    out.writerow(("macro_mean_fpr", _cell(macro_mean(rates, "fpr"))))
    out.writerow(("macro_mean_fnr", _cell(macro_mean(rates, "fnr"))))
    for metric in GAP_METRICS:
        out.writerow((metric, format_real(gaps.value(metric))))
    out.writerow(("fdi", format_real(fdi.value)))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
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
        _emit_json(
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
        return 0

    out = csv_writer(sys.stdout)
    out.writerow(("threshold", "fdi", "sensitivity", "zone"))
    for point, (_, fdi) in zip(sens.points, profile.points):
        reals = map(format_real, (point.threshold, fdi, point.s))
        out.writerow((*reals, point.zone.value))
    out.writerow(())
    out.writerow(("metric", "value"))
    out.writerow(("tsz_scalar", format_real(scalar.value)))
    out.writerow(("aggregation", scalar.aggregation))
    out.writerow(("s_ref", format_real(scalar.s_ref)))
    out.writerow(("worst_zone", harshest.value))
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    rules = load_config(args.config).rules
    rows = parse_signals(args.signals)
    reals = ("fdi", "delta_fpr", "delta_fnr", "tsz", "das")
    scored = []
    for snapshot_id, signals in rows:
        das = compute_das(signals, rules.weights)
        scored.append(
            {
                "snapshot_id": snapshot_id,
                "fdi": signals.fdi,
                "delta_fpr": signals.delta_fpr,
                "delta_fnr": signals.delta_fnr,
                "tsz": signals.tsz,
                "das": das,
                "ges": compute_ges(signals, rules.ges_thresholds).value,
                "drc": classify_drc(das, rules.bands).value,
            }
        )

    if args.format == "json":
        _emit_json(
            [
                {
                    **row,
                    **{k: _round4(row[k]) for k in reals},
                }
                for row in scored
            ]
        )
        return 0

    out = csv_writer(sys.stdout)
    out.writerow(("snapshot_id", *reals, "ges", "drc"))
    for row in scored:
        cells = (format_real(row[k]) for k in reals)
        out.writerow((row["snapshot_id"], *cells, row["ges"], row["drc"]))
    return 0


def cmd_lifecycle(args: argparse.Namespace) -> int:
    rules = load_config(args.config).rules
    if args.gating is not None:
        rules = replace(rules, recovery_gating=args.gating == "on")
    records = iter_signals(args.signals)
    trace = fold_trace(records, DeploymentState(args.initial), rules, args.format)
    sys.stdout.buffer.write(trace)
    sys.stdout.buffer.flush()
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    state = classify_drc(args.das, load_config(args.config).rules.bands)
    _write(state.value + "\n")
    return 0


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
        return args.handler(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
