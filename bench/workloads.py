"""Seeded workload inputs for the benchmark.

Each workload is one CLI command over one generated input file. The
generator is the only source of what the program receives; the same
seed and scale always give the same bytes. Values handed to the
reference model are the exact floats the program parses from the file.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Every default from the README, spelled out so that load_config parses
# each section on the measured path.
CONFIG: dict = {
    "weights": {"alpha": 0.25, "beta": 0.25, "gamma": 0.25, "delta": 0.25},
    "bands": {
        "deployable": 0.85,
        "restricted": 0.65,
        "reassessment": 0.50,
        "escalated": 0.30,
    },
    "zone_boundaries": [0.25, 0.75, 1.5],
    "ges_thresholds": {
        "fdi": [0.25, 0.50, 0.75],
        "delta_fpr": [0.15, 0.35, 0.70],
        "delta_fnr": [0.15, 0.35, 0.70],
        "tsz": [0.20, 0.40, 0.70],
    },
    "sweep": {"t_min": 0.20, "t_max": 0.90, "step": 0.05},
    "fdi": {"mode": "continuous", "tolerances": {}, "default_tolerance": 0.1},
    "panel_metrics": ["delta_fpr", "delta_fnr", "delta_tpr", "delta_sr"],
    "recovery_gating": True,
    "hysteresis": 0.02,
    "min_support": 30,
    "tsz": {"s_ref": 2.0, "aggregation": "mean"},
}

# (subgroup, share of rows, positive rate, score shift). Sizes are skewed
# so per-subgroup rates differ in precision as well as in level.
SUBGROUPS = (
    ("female|dark", 0.27, 0.36, -0.06),
    ("female|medium", 0.20, 0.40, -0.02),
    ("female|light", 0.15, 0.45, 0.00),
    ("male|dark", 0.13, 0.38, 0.03),
    ("male|medium", 0.11, 0.42, 0.05),
    ("male|light", 0.08, 0.47, 0.08),
    ("female|fair", 0.06, 0.50, -0.04),
)
# An eighth subgroup with a fixed row count below min_support, so the
# below_support exclusion runs at every size.
RARE_SUBGROUP = "male|fair"
RARE_ROWS = 12

SETUP_DAS = 0.5  # classify input for setup_s: lands exactly on a band floor


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple[str, ...]
    input_flag: str
    kind: str  # "predictions" or "signals"
    rows: int  # input rows at scale 1

    def size(self, scale: float) -> int:
        return max(200, int(self.rows * scale))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="evaluate_large",
            why=(
                "single threshold on many rows: parsing dominates and confusion "
                "counting runs once, so a sort-once index must not help or hurt"
            ),
            command=("evaluate", "--threshold", "0.5"),
            input_flag="--predictions",
            kind="predictions",
            rows=200_000,
        ),
        Workload(
            name="sweep_dense",
            why=(
                "201-point sweep: confusion counting is ~98% of the time and "
                "3-decimal score ties catch any off-by-one at score >= t"
            ),
            command=("sweep", "--range", "0:1:0.005"),
            input_flag="--predictions",
            kind="predictions",
            rows=20_000,
        ),
        Workload(
            name="lifecycle_long",
            why=(
                "drifting JSONL signals with remediations: only io, assurance and "
                "lifecycle run, so sweep work should leave it unchanged"
            ),
            command=("lifecycle",),
            input_flag="--signals",
            kind="signals",
            rows=50_000,
        ),
    )
}


@dataclass(frozen=True)
class Prediction:
    score: float
    label: int
    subgroup: str


@dataclass(frozen=True)
class SignalRow:
    snapshot_id: str
    fdi: float
    delta_fpr: float
    delta_fnr: float
    tsz: float
    remediation_event: bool
    r_m: float | None


def write_config(path: Path) -> None:
    path.write_text(json.dumps(CONFIG, indent=2) + "\n", encoding="utf-8")


def write_predictions(path: Path, n: int, seed: int) -> list[Prediction]:
    """Write ``n`` CSV prediction rows; return what the parser will read."""
    rng = random.Random(f"predictions:{seed}")
    names = [g[0] for g in SUBGROUPS]
    shares = [g[1] for g in SUBGROUPS]
    params = {g[0]: (g[2], g[3]) for g in SUBGROUPS}
    params[RARE_SUBGROUP] = (0.5, 0.0)
    rare_rows = set(rng.sample(range(n), RARE_ROWS))
    rows: list[Prediction] = []
    lines = ["sample_id,score,label,subgroup\n"]
    for i in range(n):
        group = RARE_SUBGROUP if i in rare_rows else rng.choices(names, shares)[0]
        positive_rate, shift = params[group]
        label = 1 if rng.random() < positive_rate else 0
        centre = (0.64 if label else 0.36) + shift
        # Three decimals make many scores equal to a grid threshold.
        milli = min(1000, max(0, round(rng.gauss(centre, 0.18) * 1000)))
        text = f"{milli / 1000:.3f}"
        rows.append(Prediction(float(text), label, group))
        lines.append(f"s{i:07d},{text},{label},{group}\n")
    path.write_text("".join(lines), encoding="utf-8")
    return rows


def _unit(value: float) -> float:
    return round(min(1.0, max(0.0, value)), 4)


def write_signals(path: Path, n: int, seed: int) -> list[SignalRow]:
    """Write ``n`` JSONL signal snapshots; return what the parser will read.

    A latent health level drifts around a slow wave with occasional
    incidents, so the assurance score crosses every band; about 30% of
    snapshots are remediation events, half with an explicit ``r_m`` and
    half left for the engine to backfill.
    """
    rng = random.Random(f"signals:{seed}")
    health = 0.75
    rows: list[SignalRow] = []
    lines: list[str] = []
    for i in range(n):
        target = 0.62 + 0.25 * math.sin(i / 300.0)
        health += 0.08 * (target - health) + rng.gauss(0.0, 0.03)
        if rng.random() < 0.01:
            health -= rng.uniform(0.10, 0.35)
        event = rng.random() < 0.30
        r_m: float | None = None
        if event:
            health += rng.uniform(-0.03, 0.08)
            if rng.random() < 0.5:
                r_m = round(rng.uniform(-0.15, 0.25), 4)
        health = min(0.98, max(0.05, health))
        risk = 1.0 - health
        row = SignalRow(
            snapshot_id=f"snap-{i:07d}",
            fdi=_unit(risk + rng.gauss(0.0, 0.05)),
            delta_fpr=_unit(0.9 * risk + rng.gauss(0.0, 0.05)),
            delta_fnr=_unit(1.1 * risk + rng.gauss(0.0, 0.05)),
            tsz=_unit(risk + rng.gauss(0.0, 0.08)),
            remediation_event=event,
            r_m=r_m,
        )
        rows.append(row)
        record = {
            "snapshot_id": row.snapshot_id,
            "fdi": row.fdi,
            "delta_fpr": row.delta_fpr,
            "delta_fnr": row.delta_fnr,
            "tsz": row.tsz,
            "remediation_event": int(event),
        }
        if r_m is not None:
            record["r_m"] = r_m
        lines.append(json.dumps(record) + "\n")
    path.write_text("".join(lines), encoding="utf-8")
    return rows
