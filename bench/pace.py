"""Fixed reference job that measures the host's pace.

The host this benchmark runs on is shared: its CPU runs the same code up
to half again slower for seconds to minutes at a time, and a process
inside it cannot see why (there is no steal time). So every timed CLI
invocation is bracketed by runs of this job, in a child process started
the same way, and ``run.py`` expresses each invocation's time in units of
this job's time next to it.

The job does the kind of work its workload's command does, on fixed data
that no seed changes, because the host's slow spells slow some kinds of
work more than others: for prediction files, CSV parsing into frozen
dataclasses, per-group threshold counting and formatted output; for
signal files, JSON decoding of many snapshots into a large heap, banding
and a per-snapshot state walk, and a CSV trace. Both start an interpreter
as the CLI does. It touches nothing in ``src/``, so no change to the
engine changes its time.

Run on its own it prints one checksum line:

    python3 bench/pace.py predictions|signals
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass

PREDICTION_ROWS = 15_000
SIGNAL_ROWS = 20_000
GROUPS = ("a|x", "a|y", "b|x", "b|y", "c|x", "c|y")
BAND_FLOORS = (0.85, 0.65, 0.50, 0.30)


@dataclass(frozen=True)
class Row:
    score: float
    label: int
    group: str


@dataclass(frozen=True)
class Snapshot:
    snapshot_id: str
    signals: tuple[float, float, float, float]
    event: bool
    r_m: float | None


def predictions() -> str:
    text = "sample_id,score,label,group\n" + "".join(
        f"s{i:07d},{i * 7919 % 1001 / 1000:.3f},{i * 31 % 7 % 2},{GROUPS[i % len(GROUPS)]}\n"
        for i in range(PREDICTION_ROWS)
    )
    rows = [
        Row(float(r["score"]), int(r["label"]), r["group"])
        for r in csv.DictReader(io.StringIO(text))
    ]
    positives = 0
    for step in range(1, 20):
        threshold = step / 20
        cells: dict[str, list[int]] = {}
        for row in rows:
            counts = cells.setdefault(row.group, [0, 0, 0, 0])
            if row.score >= threshold:
                counts[0 if row.label == 1 else 1] += 1
            else:
                counts[3 if row.label == 1 else 2] += 1
        positives += sum(c[0] for c in cells.values())
    out = io.StringIO()
    for row in rows:
        out.write(f"{row.group},{row.score:.6f},{row.label}\n")
    return f"{len(rows)} {positives} {len(out.getvalue())}\n"


def signals() -> str:
    lines = []
    for i in range(SIGNAL_ROWS):
        record = {
            "snapshot_id": f"snap-{i:07d}",
            "fdi": i % 97 / 97,
            "delta_fpr": i % 89 / 89,
            "delta_fnr": i % 83 / 83,
            "tsz": i % 79 / 79,
            "remediation_event": int(i % 3 == 0),
        }
        if i % 6 == 0:
            record["r_m"] = i % 13 / 13
        lines.append(json.dumps(record))
    snapshots = []
    for line in lines:
        record = json.loads(line)
        snapshots.append(
            Snapshot(
                record["snapshot_id"],
                tuple(float(record[k]) for k in ("fdi", "delta_fpr", "delta_fnr", "tsz")),
                bool(record["remediation_event"]),
                record.get("r_m"),
            )
        )
    state = 0
    moves = 0
    trace = []
    for snapshot in snapshots:
        score = 1.0 - sum(0.25 * x for x in snapshot.signals)
        band = next((b for b, floor in enumerate(BAND_FLOORS) if score >= floor), len(BAND_FLOORS))
        if band != state and not (snapshot.event and band > state):
            moves += 1
            state = band
        trace.append((snapshot.snapshot_id, score, band, state))
    out = io.StringIO()
    for snapshot_id, score, band, now in trace:
        out.write(f"{snapshot_id},{score:.6f},{band},{now}\n")
    return f"{len(snapshots)} {moves} {len(out.getvalue())}\n"


JOBS = {"predictions": predictions, "signals": signals}


if __name__ == "__main__":
    sys.stdout.write(JOBS[sys.argv[1]]())
