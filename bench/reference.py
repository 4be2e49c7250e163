"""Reference model of the CLI's stdout for the benchmark's workloads.

The expected bytes, and so the expected sha256, of every invocation come
from here, never from the program under test. Confusion counts use
per-subgroup sorted score lists and bisection instead of the engine's
scan, and the state machine is written out from the README rules. The
arithmetic that produces printed reals (rates, gaps, FDI, slopes, DAS)
follows the same formulas in the same order as the README defines them,
so the 4-decimal output matches bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

from workloads import CONFIG, Prediction, SignalRow

GAP_RATES = (
    ("delta_fpr", "fpr"),
    ("delta_fnr", "fnr"),
    ("delta_tpr", "tpr"),
    ("delta_sr", "selection_rate"),
)
# Governance states, most to least favorable.
STATES = (
    "Deployable",
    "Restricted",
    "ReassessmentRequired",
    "EscalatedGovernance",
    "BlockedDeployment",
)
# Lower score boundary of each state.
FLOORS = dict(
    zip(
        STATES,
        [CONFIG["bands"][k] for k in ("deployable", "restricted", "reassessment", "escalated")]
        + [0.0],
    )
)
LEVELS = ("Low", "Moderate", "High", "Critical")
INITIAL_STATE = "ReassessmentRequired"


def _real(value: float) -> str:
    return f"{value:.4f}"


def _cell(value: float | None) -> str:
    return "" if value is None else _real(value)


class _Insufficient(Exception):
    pass


class _ScoreIndex:
    """Sorted scores per (subgroup, label), in first-appearance order."""

    def __init__(self, samples: Sequence[Prediction]) -> None:
        self.by_group: dict[str, tuple[list[float], list[float]]] = {}
        for s in samples:
            pos, neg = self.by_group.setdefault(s.subgroup, ([], []))
            (pos if s.label == 1 else neg).append(s.score)
        for pos, neg in self.by_group.values():
            pos.sort()
            neg.sort()

    def confusion(self, t: float) -> dict[str, tuple[int, int, int, int]]:
        """(tp, fp, tn, fn) per subgroup; positive iff score >= t."""
        out = {}
        for group, (pos, neg) in self.by_group.items():
            fn = bisect_left(pos, t)
            tn = bisect_left(neg, t)
            out[group] = (len(pos) - fn, len(neg) - tn, tn, fn)
        return out


def _rates(tp: int, fp: int, tn: int, fn: int) -> dict[str, float | None]:
    negatives, positives, n = fp + tn, tp + fn, tp + fp + tn + fn
    return {
        "fpr": fp / negatives if negatives else None,
        "fnr": fn / positives if positives else None,
        "tpr": tp / positives if positives else None,
        "selection_rate": (tp + fp) / n if n else None,
    }


def _gaps(confusion, rates) -> dict[str, float]:
    gaps = {}
    for gap, attr in GAP_RATES:
        eligible = [
            rates[g][attr]
            for g in rates
            if sum(confusion[g]) >= CONFIG["min_support"] and rates[g][attr] is not None
        ]
        if len(eligible) < 2:
            raise _Insufficient(gap)
        gaps[gap] = max(eligible) - min(eligible)
    return gaps


def _fdi(gaps: dict[str, float]) -> float:
    ordered = sorted(gaps[m] for m in CONFIG["panel_metrics"])
    k = len(ordered)
    total = math.fsum(d * (2 * i - (k - 1)) for i, d in enumerate(ordered))
    return min(1.0, max(0.0, total / (k * (k - 1) / 2)))


def evaluate(samples: Sequence[Prediction], threshold: float) -> bytes:
    confusion = _ScoreIndex(samples).confusion(threshold)
    rates = {g: _rates(*c) for g, c in confusion.items()}
    gaps = _gaps(confusion, rates)
    lines = ["subgroup,n,tp,fp,tn,fn,fpr,fnr,tpr,selection_rate\n"]
    for g in sorted(confusion):
        tp, fp, tn, fn = confusion[g]
        r = rates[g]
        lines.append(
            f"{g},{tp + fp + tn + fn},{tp},{fp},{tn},{fn},{_cell(r['fpr'])},"
            f"{_cell(r['fnr'])},{_cell(r['tpr'])},{_cell(r['selection_rate'])}\n"
        )
    lines.append("\nmetric,value\n")
    for attr in ("fpr", "fnr"):
        defined = [r[attr] for r in rates.values() if r[attr] is not None]
        mean = sum(defined) / len(defined) if defined else None
        lines.append(f"macro_mean_{attr},{_cell(mean)}\n")
    for gap, _ in GAP_RATES:
        lines.append(f"{gap},{_real(gaps[gap])}\n")
    lines.append(f"fdi,{_real(_fdi(gaps))}\n")
    return "".join(lines).encode("utf-8")


def _zone(s: float) -> tuple[int, str]:
    z1, z2, z3 = CONFIG["zone_boundaries"]
    if s < z1:
        return 0, "Stable"
    if s < z2:
        return 1, "Sensitive"
    if s < z3:
        return 2, "AmplifiedDisagreement"
    return 3, "GovernanceFragility"


def sweep(samples: Sequence[Prediction], t_min: float, t_max: float, h: float) -> bytes:
    index = _ScoreIndex(samples)
    intervals = int(math.floor((t_max - t_min) / h + 1e-9))
    ts = [t_min + i * h for i in range(intervals + 1)]
    values: list[float | None] = []
    for t in ts:
        confusion = index.confusion(t)
        try:
            values.append(_fdi(_gaps(confusion, {g: _rates(*c) for g, c in confusion.items()})))
        except _Insufficient:
            values.append(None)
    if 2 * values.count(None) > len(ts):
        raise ValueError("degenerate sweep")
    valid = [i for i, v in enumerate(values) if v is not None]
    fs = []
    for i, v in enumerate(values):
        if v is None:
            left = max((j for j in valid if j < i), default=None)
            right = min((j for j in valid if j > i), default=None)
            if left is None:
                v = values[right]
            elif right is None:
                v = values[left]
            else:
                vl, vr = values[left], values[right]
                v = vl + (vr - vl) * (ts[i] - ts[left]) / (ts[right] - ts[left])
            v = min(1.0, max(0.0, v))
        fs.append(v)
    n = len(fs)
    slopes = [
        abs(fs[1] - fs[0]) / h
        if i == 0
        else abs(fs[n - 1] - fs[n - 2]) / h
        if i == n - 1
        else abs(fs[i + 1] - fs[i - 1]) / (2 * h)
        for i in range(n)
    ]
    zones = [_zone(s) for s in slopes]
    lines = ["threshold,fdi,sensitivity,zone\n"]
    for t, f, s, (_, zone) in zip(ts, fs, slopes, zones):
        lines.append(f"{_real(t)},{_real(f)},{_real(s)},{zone}\n")
    s_ref = CONFIG["tsz"]["s_ref"]
    scalar = min(1.0, max(0.0, (sum(slopes) / len(slopes)) / s_ref))
    lines.append("\nmetric,value\n")
    lines.append(f"tsz_scalar,{_real(scalar)}\n")
    lines.append("aggregation,mean\n")
    lines.append(f"s_ref,{_real(s_ref)}\n")
    lines.append(f"worst_zone,{max(zones)[1]}\n")
    return "".join(lines).encode("utf-8")


def classify(das: float) -> str:
    """Readiness state for a score; band floors are closed below."""
    for state, floor in FLOORS.items():
        if das >= floor:
            return state
    raise ValueError(f"score out of range: {das!r}")


def _level(row: SignalRow, r_m: float | None) -> str:
    cuts = CONFIG["ges_thresholds"]
    severity = max(
        sum(value >= c for c in cuts[name])
        for name, value in (
            ("fdi", row.fdi),
            ("delta_fpr", row.delta_fpr),
            ("delta_fnr", row.delta_fnr),
            ("tsz", row.tsz),
        )
    )
    if row.remediation_event and r_m is not None and r_m < 0:
        severity = min(severity + 1, 3)
    return LEVELS[severity]


def lifecycle(rows: Sequence[SignalRow]) -> bytes:
    """Governed CSV trace with recovery gating on and no fragility zone."""
    w = CONFIG["weights"]
    hysteresis = CONFIG["hysteresis"]
    rank = {state: i for i, state in enumerate(STATES)}  # 0 is most favorable
    lines = [
        "snapshot_id,fdi,delta_fpr,delta_fnr,tsz,das,ges,stateless_drc,"
        "governed_state,transition,r_p\n"
    ]
    current = INITIAL_STATE
    prev_das: float | None = None
    for row in rows:
        das = (
            w["alpha"] * (1.0 - row.fdi)
            + w["beta"] * (1.0 - row.delta_fpr)
            + w["gamma"] * (1.0 - row.delta_fnr)
            + w["delta"] * (1.0 - row.tsz)
        )
        r_p = None if prev_das is None else das - prev_das
        r_m = row.r_m if row.r_m is not None else (r_p if row.remediation_event else None)
        band = classify(das)
        transition = ""
        if rank[band] > rank[current]:
            reasons = "das_band_change"
            if r_m is not None and r_m < 0:
                reasons += "|failed_remediation"
            transition = f"{current}->{band}[{reasons}]"
            current = band
        elif rank[band] < rank[current] and row.remediation_event:
            # Gated recovery: one level per step, out of BlockedDeployment
            # no higher than EscalatedGovernance, clearing the hysteresis.
            destination = STATES[rank[current] - 1]
            if das >= FLOORS[destination] + hysteresis:
                transition = f"{current}->{destination}[recovery_gated]"
                current = destination
        lines.append(
            f"{row.snapshot_id},{_real(row.fdi)},{_real(row.delta_fpr)},"
            f"{_real(row.delta_fnr)},{_real(row.tsz)},{_real(das)},"
            f"{_level(row, r_m)},{band},{current},{transition},{_cell(r_p)}\n"
        )
        prev_das = das
    return "".join(lines).encode("utf-8")
