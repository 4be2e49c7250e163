"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass line on success (run with ``-s`` to see them,
or rely on ``-v`` for pytest's own per-criterion verdicts).
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

from deployassure import (
    DeploymentState,
    DisparityPanel,
    FdiProfile,
    RulesConfig,
    Sample,
    WeightVector,
    classify_drc,
    compute_confusion,
    compute_fdi,
    remediation_progression,
    sensitivity,
)
from deployassure.assurance import AssuranceSignals, compute_das, compute_ges
from deployassure.lifecycle import SnapshotAssessment, build_assessments, replay

from conftest import REFERENCE_DAS, REFERENCE_ROWS

D = DeploymentState

FIVE_STATES_DESC = [
    D.DEPLOYABLE,
    D.RESTRICTED,
    D.REASSESSMENT_REQUIRED,
    D.ESCALATED_GOVERNANCE,
    D.BLOCKED_DEPLOYMENT,
]


def report(criterion: int, text: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS - {text}")


def collapse(states):
    return [state for state, _ in itertools.groupby(states)]


def test_c1_reference_scores_classify_exactly():
    """Reference aggregate scores map to their expected readiness states."""
    expected = [D.ESCALATED_GOVERNANCE, D.RESTRICTED, D.REASSESSMENT_REQUIRED]
    classify_drc(0.5)  # warm up
    start = time.perf_counter()
    states = [classify_drc(das) for das in REFERENCE_DAS]
    elapsed = time.perf_counter() - start
    assert states == expected
    assert elapsed < 0.001
    report(1, f"0.48/0.71/0.52 classified exactly in {elapsed * 1e6:.0f} us")


def test_c2_equal_weight_scores_near_reference():
    """Equal weights land within 0.05 of each reference score."""
    engine_expected = (0.4755, 0.67, 0.49625)
    signals = [row[1] for row in REFERENCE_ROWS]
    compute_das(signals[0])  # warm up
    start = time.perf_counter()
    scores = [compute_das(s) for s in signals]
    elapsed = time.perf_counter() - start
    for score, exact, reference in zip(scores, engine_expected, REFERENCE_DAS):
        assert score == pytest.approx(exact, abs=1e-9)
        assert abs(score - reference) <= 0.05
    assert elapsed < 0.001
    report(2, f"scores {[f'{s:.4f}' for s in scores]} within 0.05 of references")


def test_c3_progression_and_ungated_replay():
    """Score deltas are exact; ungated replay matches per-row states."""
    assert remediation_progression(0.48, 0.71) == pytest.approx(0.23, abs=1e-12)
    assert remediation_progression(0.48, 0.52) == pytest.approx(0.04, abs=1e-12)

    assessments = [
        SnapshotAssessment(
            snapshot_id=snapshot_id,
            signals=signals,
            das=das,
            stateless_drc=classify_drc(das),
            ges=compute_ges(signals),
        )
        for (snapshot_id, signals), das in zip(REFERENCE_ROWS, REFERENCE_DAS)
    ]
    trace = replay(assessments, rules=RulesConfig(recovery_gating=False))
    governed = [entry.governed_state for entry in trace.entries]
    assert governed == [D.ESCALATED_GOVERNANCE, D.RESTRICTED, D.REASSESSMENT_REQUIRED]
    report(3, "deltas +0.23/+0.04 exact; ungated replay matches row states")


def test_c4_five_state_traversal_and_gated_recovery():
    start = time.perf_counter()

    def rows(das_values, remediation):
        return [
            (f"snap{i}", AssuranceSignals(x, x, x, x, remediation_event=remediation))
            for i, x in enumerate(round(1.0 - das, 2) for das in das_values)
        ]

    descending = [round(0.95 - 0.05 * i, 2) for i in range(19)]
    trace = replay(
        build_assessments(rows(descending, remediation=False)),
        initial_state=D.DEPLOYABLE,
    )
    governed = [entry.governed_state for entry in trace.entries]
    assert collapse(governed) == FIVE_STATES_DESC

    ascending = list(reversed(descending))
    trace_up = replay(
        build_assessments(rows(ascending, remediation=True)),
        initial_state=D.BLOCKED_DEPLOYMENT,
    )
    governed_up = [entry.governed_state for entry in trace_up.entries]
    favorability = D.BLOCKED_DEPLOYMENT.favorability
    for state in governed_up:
        assert 0 <= state.favorability - favorability <= 1
        favorability = state.favorability
    assert governed_up[-1] is D.DEPLOYABLE
    assert collapse(governed_up) == list(reversed(FIVE_STATES_DESC))

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(4, f"descent and gated recovery traverse all five states in {elapsed:.3f} s")


def test_c5_confusion_oracle_equivalence():
    """Engine counts equal an independent recount on random datasets."""
    rng = random.Random(20260809)
    start = time.perf_counter()
    for _ in range(100):
        n_groups = rng.randint(1, 5)
        samples = [
            Sample(
                sample_id=f"s{i}",
                score=rng.random(),
                label=rng.randint(0, 1),
                subgroup=f"g{rng.randrange(n_groups)}",
            )
            for i in range(rng.randint(1, 200))
        ]
        for _ in range(50):
            threshold = rng.random()
            engine = compute_confusion(samples, threshold)
            tally = Counter(
                (s.subgroup, s.label, s.score >= threshold) for s in samples
            )
            for group, counts in engine.items():
                assert counts.tp == tally[(group, 1, True)]
                assert counts.fp == tally[(group, 0, True)]
                assert counts.tn == tally[(group, 0, False)]
                assert counts.fn == tally[(group, 1, False)]
            assert sum(c.total for c in engine.values()) == len(samples)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(5, f"100 datasets x 50 thresholds recounted exactly in {elapsed:.2f} s")


def test_c6_fdi_property_suite():
    rng = random.Random(8101)
    start = time.perf_counter()
    for _ in range(1000):
        k = rng.randint(2, 8)
        disparities = [rng.random() for _ in range(k)]
        panel = DisparityPanel(
            entries=tuple((f"m{i}", d) for i, d in enumerate(disparities))
        )
        value = compute_fdi(panel).value

        assert 0.0 <= value <= 1.0

        pairs = list(itertools.combinations(disparities, 2))
        brute = sum(abs(a - b) for a, b in pairs) / len(pairs)
        assert value == pytest.approx(brute, abs=1e-12)

        shuffled = disparities[:]
        rng.shuffle(shuffled)
        permuted = DisparityPanel(
            entries=tuple((f"m{i}", d) for i, d in enumerate(shuffled))
        )
        assert compute_fdi(permuted).value == pytest.approx(value, abs=1e-12)

        assert (value == 0.0) == (len(set(disparities)) == 1)

        shift = rng.uniform(0.0, 1.0 - max(disparities))
        shifted = DisparityPanel(
            entries=tuple((f"m{i}", d + shift) for i, d in enumerate(disparities))
        )
        assert compute_fdi(shifted).value == pytest.approx(value, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(6, f"1000 random panels pass bounds/permutation/zero/shift in {elapsed:.2f} s")


def test_c7_sensitivity_exactness():
    start = time.perf_counter()
    h = 0.05
    grid = [0.2 + i * h for i in range(15)]

    linear = FdiProfile(
        points=tuple((t, min(1.0, max(0.0, 0.9 - t))) for t in grid), h=h
    )
    for point in sensitivity(linear).points:
        assert point.s == pytest.approx(1.0, abs=1e-9)

    quadratic = FdiProfile(points=tuple((t, t * t) for t in grid), h=h)
    sens = sensitivity(quadratic)
    for point in sens.points[1:-1]:
        assert point.s == pytest.approx(2 * point.threshold, abs=1e-9)

    constant = FdiProfile(points=tuple((t, 0.4) for t in grid), h=h)
    assert all(p.s == 0.0 for p in sensitivity(constant).points)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(7, "linear/quadratic/constant profiles differentiate exactly")


def test_c8_das_gradient_check():
    """Finite-difference partials equal the negated weights to 1e-9."""
    rng = random.Random(4242)
    eps = 1e-5
    start = time.perf_counter()
    for _ in range(100):
        raw = [rng.uniform(0.05, 1.0) for _ in range(4)]
        total = sum(raw)
        weights = WeightVector(*(w / total for w in raw))
        base = [rng.uniform(0.01, 0.99) for _ in range(4)]

        def das_at(values):
            return compute_das(AssuranceSignals(*values), weights)

        for index, weight in enumerate(weights.as_tuple()):
            upper = base[:]
            lower = base[:]
            upper[index] += eps
            lower[index] -= eps
            partial = (das_at(upper) - das_at(lower)) / (2 * eps)
            assert partial == pytest.approx(-weight, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(8, f"400 finite-difference partials match -weights in {elapsed:.2f} s")


def test_c9_cli_runs_are_byte_identical(signals_file):
    def run(*argv):
        result = subprocess.run(
            [sys.executable, "-m", "deployassure", *argv],
            capture_output=True,
            check=False,
        )
        assert result.returncode == 0, result.stderr.decode()
        return result.stdout

    for command in (
        ("score", "--signals", signals_file),
        ("lifecycle", "--signals", signals_file),
        ("lifecycle", "--signals", signals_file, "--format", "json"),
    ):
        first = run(*command)
        second = run(*command)
        assert first == second
        assert first  # non-empty output
    report(9, "score and lifecycle outputs byte-identical across invocations")
