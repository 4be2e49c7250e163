"""Shared fixtures: reference signal rows and dataset builders."""

from __future__ import annotations

import csv
import io
import random

import pytest

from deployassure import ConfusionCounts, Sample
from deployassure.assurance import AssuranceSignals

# Calibration fixture: three lifecycle snapshots (an unmitigated baseline
# followed by two mitigation attempts) with their target aggregate scores.
REFERENCE_ROWS = (
    ("baseline", AssuranceSignals(0.68, 0.304, 0.694, 0.42)),
    ("mitigation_a", AssuranceSignals(0.41, 0.206, 0.424, 0.28, remediation_event=True)),
    ("mitigation_b", AssuranceSignals(0.62, 0.304, 0.701, 0.39, remediation_event=True)),
)
REFERENCE_DAS = (0.48, 0.71, 0.52)


def _csv_writes_nul() -> bool:
    try:
        csv.writer(io.StringIO()).writerow(["\0"])
    except csv.Error:
        return False
    return True


# Python 3.10's csv module refuses to write a NUL; later versions write it.
CSV_WRITES_NUL = _csv_writes_nul()

SIGNALS_CSV = (
    "snapshot_id,fdi,delta_fpr,delta_fnr,tsz,remediation_event,r_m\n"
    "baseline,0.68,0.304,0.694,0.42,0,\n"
    "mitigation_a,0.41,0.206,0.424,0.28,1,\n"
    "mitigation_b,0.62,0.304,0.701,0.39,1,\n"
)


@pytest.fixture
def signals_file(tmp_path):
    path = tmp_path / "signals.csv"
    path.write_text(SIGNALS_CSV, encoding="utf-8")
    return str(path)


def make_dataset(
    n_per_group: int = 40,
    groups: tuple[str, ...] = ("A", "B"),
    seed: int = 11,
    group_bias: float = 0.15,
) -> list[Sample]:
    """Two-class dataset with a per-group score shift, balanced labels."""
    rng = random.Random(seed)
    samples = []
    for g_index, group in enumerate(groups):
        bias = g_index * group_bias
        for i in range(n_per_group):
            label = i % 2
            center = 0.65 if label else 0.35 + bias
            score = min(1.0, max(0.0, rng.gauss(center, 0.18)))
            samples.append(
                Sample(
                    sample_id=f"{group}{i}",
                    score=score,
                    label=label,
                    subgroup=group,
                )
            )
    return samples


def random_samples(rng: random.Random, n: int, n_groups: int) -> list[Sample]:
    return [
        Sample(
            sample_id=f"s{i}",
            score=rng.random(),
            label=rng.randint(0, 1),
            subgroup=f"g{rng.randrange(n_groups)}",
        )
        for i in range(n)
    ]


def confusions_below(index, thresholds) -> list[dict[str, ConfusionCounts]]:
    """Each threshold's confusion counts, from one ``counts_below`` call
    over the whole list, as ``sweep`` makes it."""
    below = index.counts_below(thresholds).items()
    return [
        {
            group: ConfusionCounts(tp=pos - fn[i], fp=neg - tn[i], tn=tn[i], fn=fn[i])
            for group, (neg, pos, tn, fn) in below
        }
        for i in range(len(thresholds))
    ]


@pytest.fixture
def predictions_file(tmp_path):
    samples = make_dataset()
    path = tmp_path / "predictions.csv"
    lines = ["sample_id,score,label,subgroup"]
    lines += [
        f"{s.sample_id},{s.score:.6f},{s.label},{s.subgroup}" for s in samples
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)
