"""Tests for the governance-state machine, replay, and trace emission."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deployassure import (
    ConfigInvalidError,
    DeploymentState,
    EmptySequenceError,
    EscalationLevel,
    GesThresholds,
    RulesConfig,
    WeightVector,
    ZoneLabel,
    classify_drc,
    load_config,
)
import deployassure.io
import deployassure.lifecycle
from deployassure.assurance import (
    AssuranceSignals,
    DrcBands,
    compute_das,
    compute_ges,
    das_column,
    drc_column,
    ges_column,
    progression_column,
    remediation_progression,
)
from deployassure.cli import main
from deployassure.errors import DomainError
from deployassure.io import _BLOCK_ROWS, checked_blocks, iter_signals
from deployassure.lifecycle import (
    REASON_DAS_BAND,
    REASON_FAILED_REMEDIATION,
    REASON_FRAGILITY,
    REASON_RECOVERY_GATED,
    TRACE_COLUMNS,
    GovernanceTrace,
    SnapshotAssessment,
    TraceEntry,
    TransitionRecord,
    _advance,
    _advance_column,
    _backfill_column,
    _backfill_r_m,
    build_assessments,
    csv_blocks,
    emit_trace,
    fold_trace,
    json_rows,
    json_text,
    replay,
    step,
)
from deployassure.record import replace

import oracles
from conftest import CSV_WRITES_NUL, REFERENCE_ROWS

D = DeploymentState

GOLDEN_ROW = (
    "snapshot_id,fdi,delta_fpr,delta_fnr,tsz,das,ges,stateless_drc,"
    "governed_state,transition,r_p\n"
    "baseline,0.6800,0.3040,0.6940,0.4200,0.4755,High,EscalatedGovernance,"
    "EscalatedGovernance,,\n"
)


def assessment(das, snapshot_id="snap", remediation=False, r_m=None, zone=None):
    """Assessment whose signals are neutral; the score is given directly."""
    signals = AssuranceSignals(
        0.5, 0.5, 0.5, 0.5, worst_zone=zone, remediation_event=remediation, r_m=r_m
    )
    return SnapshotAssessment(
        snapshot_id=snapshot_id,
        signals=signals,
        das=das,
        stateless_drc=classify_drc(das),
        ges=compute_ges(signals),
        r_p=None,
    )


def reference_assessments(das_values=(0.48, 0.71, 0.52)):
    out = []
    for (snapshot_id, signals), das in zip(REFERENCE_ROWS, das_values):
        out.append(
            SnapshotAssessment(
                snapshot_id=snapshot_id,
                signals=signals,
                das=das,
                stateless_drc=classify_drc(das),
                ges=compute_ges(signals),
            )
        )
    return out


class TestStep:
    def test_degradation_is_immediate(self):
        new, record = step(D.DEPLOYABLE, assessment(0.20))
        assert new is D.BLOCKED_DEPLOYMENT
        assert record.trigger_reasons == ("das_band_change",)

    def test_recovery_gated_to_one_level(self):
        new, record = step(
            D.ESCALATED_GOVERNANCE, assessment(0.71, remediation=True)
        )
        assert new is D.REASSESSMENT_REQUIRED
        assert record.trigger_reasons == ("recovery_gated",)

    def test_same_band_holds(self):
        new, record = step(D.RESTRICTED, assessment(0.70))
        assert new is D.RESTRICTED
        assert record is None

    def test_recovery_without_gating_jumps_to_target(self):
        rules = RulesConfig(recovery_gating=False)
        new, record = step(
            D.ESCALATED_GOVERNANCE, assessment(0.71, remediation=True), rules
        )
        assert new is D.RESTRICTED

    def test_recovery_requires_remediation_event(self):
        new, record = step(D.ESCALATED_GOVERNANCE, assessment(0.71))
        assert new is D.ESCALATED_GOVERNANCE
        assert record is None

    def test_recovery_blocked_below_hysteresis_margin(self):
        # Destination ReassessmentRequired needs das >= 0.50 + 0.02.
        new, _ = step(D.ESCALATED_GOVERNANCE, assessment(0.51, remediation=True))
        assert new is D.ESCALATED_GOVERNANCE
        new, _ = step(D.ESCALATED_GOVERNANCE, assessment(0.53, remediation=True))
        assert new is D.REASSESSMENT_REQUIRED

    def test_first_recovery_out_of_blocked_is_escalated(self):
        new, _ = step(D.BLOCKED_DEPLOYMENT, assessment(0.95, remediation=True))
        assert new is D.ESCALATED_GOVERNANCE

    def test_fragility_override_degrades_without_band_change(self):
        fragile = assessment(0.90, zone=ZoneLabel.GOVERNANCE_FRAGILITY)
        new, record = step(D.DEPLOYABLE, fragile)
        assert new is D.ESCALATED_GOVERNANCE
        assert record.trigger_reasons == ("fragility_override",)

    def test_band_drop_and_fragility_both_reported(self):
        fragile = assessment(0.70, zone=ZoneLabel.GOVERNANCE_FRAGILITY)
        new, record = step(D.DEPLOYABLE, fragile)
        assert new is D.ESCALATED_GOVERNANCE
        assert record.trigger_reasons == ("das_band_change", "fragility_override")

    def test_failed_remediation_reason_on_degradation(self):
        failed = assessment(0.20, remediation=True, r_m=-0.3)
        new, record = step(D.RESTRICTED, failed)
        assert new is D.BLOCKED_DEPLOYMENT
        assert "failed_remediation" in record.trigger_reasons


class TestTransitionRecord:
    def test_state_change_requires_reasons(self):
        with pytest.raises(ValueError):
            TransitionRecord(D.DEPLOYABLE, D.RESTRICTED, trigger_reasons=())

    def test_identity_needs_no_reason(self):
        TransitionRecord(D.RESTRICTED, D.RESTRICTED, trigger_reasons=())


class TestReplay:
    def test_gated_recovery_passes_through_reassessment(self):
        trace = replay(reference_assessments()[:2])
        states = [e.governed_state for e in trace.entries]
        assert states == [D.ESCALATED_GOVERNANCE, D.REASSESSMENT_REQUIRED]
        assert trace.entries[1].assessment.r_p == pytest.approx(0.23, abs=1e-12)

    def test_ungated_replay_matches_stateless_column(self):
        trace = replay(
            reference_assessments(), rules=RulesConfig(recovery_gating=False)
        )
        states = [e.governed_state for e in trace.entries]
        assert states == [
            D.ESCALATED_GOVERNANCE,
            D.RESTRICTED,
            D.REASSESSMENT_REQUIRED,
        ]

    def test_single_snapshot_trace(self):
        trace = replay([assessment(0.55)])
        assert len(trace.entries) == 1
        assert trace.entries[0].transition is None
        assert trace.entries[0].assessment.r_p is None

    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptySequenceError):
            replay([])

    def test_inconsistent_stateless_classification_rejected(self):
        bad = SnapshotAssessment(
            snapshot_id="bad",
            signals=AssuranceSignals(0.5, 0.5, 0.5, 0.5),
            das=0.9,
            stateless_drc=D.BLOCKED_DEPLOYMENT,
            ges=compute_ges(AssuranceSignals(0.5, 0.5, 0.5, 0.5)),
        )
        with pytest.raises(ValueError):
            replay([bad])

    def test_r_m_backfilled_from_progression(self):
        assessments = build_assessments(REFERENCE_ROWS)
        # Second snapshot is a remediation: its effectiveness defaults to
        # the score delta against the previous snapshot.
        assert assessments[1].signals.r_m == pytest.approx(
            assessments[1].das - assessments[0].das
        )
        assert assessments[0].signals.r_m is None

    def test_transitions_carry_reasons(self):
        rng = random.Random(5)
        assessments = [
            assessment(rng.random(), snapshot_id=f"s{i}", remediation=True)
            for i in range(30)
        ]
        trace = replay(assessments)
        for entry in trace.entries:
            if entry.transition is not None:
                assert entry.transition.trigger_reasons

    def test_gated_recovery_never_skips_levels(self):
        rng = random.Random(7)
        assessments = [
            assessment(rng.random(), snapshot_id=f"s{i}", remediation=True)
            for i in range(60)
        ]
        trace = replay(assessments, initial_state=D.BLOCKED_DEPLOYMENT)
        favorability = D.BLOCKED_DEPLOYMENT.favorability
        for entry in trace.entries:
            assert entry.governed_state.favorability - favorability <= 1
            favorability = entry.governed_state.favorability

    def test_degradations_always_adopted(self):
        rng = random.Random(9)
        assessments = [
            assessment(rng.random(), snapshot_id=f"s{i}") for i in range(60)
        ]
        trace = replay(assessments, initial_state=D.DEPLOYABLE)
        for entry in trace.entries:
            target = entry.assessment.stateless_drc
            if target.favorability < entry.governed_state.favorability:
                pytest.fail("a degradation was not adopted immediately")


class TestEmitTrace:
    def single_row_trace(self):
        assessments = build_assessments(REFERENCE_ROWS[:1])
        return replay(assessments, initial_state=D.ESCALATED_GOVERNANCE)

    def test_golden_csv_row(self):
        assert emit_trace(self.single_row_trace(), "csv").decode() == GOLDEN_ROW

    def test_serialisation_is_byte_identical(self):
        trace = replay(build_assessments(REFERENCE_ROWS))
        assert emit_trace(trace, "csv") == emit_trace(trace, "csv")
        assert emit_trace(trace, "json") == emit_trace(trace, "json")

    def test_json_structure(self):
        trace = replay(build_assessments(REFERENCE_ROWS))
        payload = json.loads(emit_trace(trace, "json"))
        assert payload["config_fingerprint"] == trace.config_fingerprint
        assert [e["snapshot_id"] for e in payload["entries"]] == [
            "baseline",
            "mitigation_a",
            "mitigation_b",
        ]
        first = payload["entries"][0]
        assert first["das"] == 0.4755
        assert first["r_p"] is None

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_trace(self.single_row_trace(), "xml")

    def test_fingerprint_tracks_rules(self):
        assessments = build_assessments(REFERENCE_ROWS)
        gated = replay(assessments)
        ungated = replay(assessments, rules=RulesConfig(recovery_gating=False))
        assert gated.config_fingerprint != ungated.config_fingerprint


class TestRulesConfig:
    def test_nan_hysteresis_rejected(self):
        with pytest.raises(ValueError, match="hysteresis"):
            RulesConfig(hysteresis=float("nan"))

    def test_infinite_hysteresis_rejected(self):
        with pytest.raises(ConfigInvalidError, match="hysteresis"):
            RulesConfig(hysteresis=math.inf)

    def test_weights_and_cuts_reach_the_assessments(self):
        rules = RulesConfig(
            weights=WeightVector(1.0, 0.0, 0.0, 0.0),
            ges_thresholds=GesThresholds(fdi=(0.1, 0.2, 0.3)),
        )
        first = build_assessments(REFERENCE_ROWS, rules)[0]
        assert first.das == pytest.approx(1.0 - 0.68)
        assert first.ges is EscalationLevel.CRITICAL  # High under default cuts


# --- The one-pass fold against the staged oracle --------------------------

# Signal values for one file: spread out, or low enough that most
# snapshots score in the favorable bands, where gating and caps act.
signal_values = st.sampled_from(
    [
        st.one_of(st.sampled_from([0.0, 0.15, 0.3, 0.5, 0.85, 1.0]), st.floats(0, 1)),
        st.floats(0, 0.25),
    ]
)


# Ids holding each character a CSV cell is quoted for, padding, non-ASCII
# and, where the csv module can write it, NUL.
SNAPSHOT_IDS = ["", "a,b", 'a,"b"', '"', "x\ry", "x\ny", "x\r\ny", " lead", "é"]
SNAPSHOT_IDS += ["a\x00b"] if CSV_WRITES_NUL else []


@st.composite
def signal_records(draw, bad_values=True):
    """A signals file's records: explicit and backfilled r_m, id edge cases."""
    values = draw(signal_values)
    records = []
    for i in range(draw(st.integers(1, 25))):
        record = {
            "snapshot_id": draw(st.sampled_from(SNAPSHOT_IDS + [f"s{i}"])),
            "fdi": draw(values),
            "delta_fpr": draw(values),
            "delta_fnr": draw(values),
            "tsz": draw(values),
            "remediation_event": draw(st.sampled_from([0, 1])),
        }
        if record["remediation_event"] and draw(st.booleans()):
            record["r_m"] = draw(st.floats(-1, 1))
        records.append(record)
    if bad_values and draw(st.booleans()):
        # One bad value: both paths must stop at the same row, same message.
        bad = draw(st.sampled_from(records))
        field, value = draw(
            st.sampled_from(
                [("tsz", 1.5), ("fdi", -0.1), ("delta_fnr", "x"), ("r_m", 2.0)]
            )
        )
        bad[field] = value
        if field == "r_m":
            bad["remediation_event"] = draw(st.sampled_from([0, 1]))
    return records


# A sweep's worst zone; only GovernanceFragility caps, so it is drawn most.
zones = st.one_of(
    st.just(ZoneLabel.GOVERNANCE_FRAGILITY), st.sampled_from([None, *ZoneLabel])
)


@st.composite
def rule_configs(draw):
    parts = draw(st.lists(st.integers(0, 1000), min_size=4, max_size=4))
    parts = parts if sum(parts) else [1, 1, 1, 1]
    weights = (part / sum(parts) for part in parts)
    config = {
        "weights": dict(zip(("alpha", "beta", "gamma", "delta"), weights)),
        "hysteresis": draw(st.sampled_from([0.0, 0.02, 0.1])),
        "recovery_gating": draw(st.booleans()),
    }
    bands = draw(
        st.sampled_from(
            [
                None,
                dict(deployable=0.9, restricted=0.7, reassessment=0.55, escalated=0.25),
                dict(deployable=0.6, restricted=0.45, reassessment=0.3, escalated=0.1),
            ]
        )
    )
    if bands is not None:
        config["bands"] = bands
    if draw(st.booleans()):
        config["ges_thresholds"] = {"fdi": [0.1, 0.3, 0.6], "tsz": [0.05, 0.2, 0.5]}
    return config


@st.composite
def score_configs(draw):
    """Random simplex weights, DRC bands and GES cuts."""
    config = {"weights": draw(rule_configs())["weights"]}
    bands = draw(st.lists(st.floats(0.01, 0.99), min_size=4, max_size=4, unique=True))
    names = ("deployable", "restricted", "reassessment", "escalated")
    config["bands"] = dict(zip(names, sorted(bands, reverse=True)))
    # Cuts on the drawn signal values test the closed-below severity rule.
    cut = st.one_of(st.sampled_from([0.0, 0.15, 0.3, 0.5, 0.85, 1.0]), st.floats(0, 1))
    config["ges_thresholds"] = {
        name: sorted(draw(st.lists(cut, min_size=3, max_size=3, unique=True)))
        for name in ("fdi", "delta_fpr", "delta_fnr", "tsz")
    }
    return config


def _write_inputs(tmp, records, config, jsonl, padded=()):
    """Write a signals file and a config file; return their paths.

    A JSON line whose index is in ``padded`` starts with a space, which
    the block check doubts.
    """
    path = os.path.join(tmp, "signals.jsonl" if jsonl else "signals.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if jsonl:
            fh.writelines(
                " " * (i in padded) + json.dumps(r) + "\n" for i, r in enumerate(records)
            )
        else:
            columns = [*oracles.SIGNALS_COLUMNS, "r_m"]
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows([r.get(c, "") for c in columns] for r in records)
    config_path = os.path.join(tmp, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return path, config_path


def _run_cli(argv):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


class TestFoldMatchesStaged:
    """The CLI's one-pass fold gives the staged path's bytes and errors."""

    @given(
        records=signal_records(),
        config=rule_configs(),
        gating=st.sampled_from([None, "on", "off"]),
        initial=st.sampled_from(list(D)),
        jsonl=st.booleans(),
        output=st.sampled_from(["csv", "json"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_cli_trace(self, records, config, gating, initial, jsonl, output):
        with tempfile.TemporaryDirectory() as tmp:
            path, config_path = _write_inputs(tmp, records, config, jsonl)
            argv = ["lifecycle", "--signals", path, "--config", config_path]
            argv += ["--initial", initial.value, "--format", output]
            if gating is not None:
                argv += ["--gating", gating]
            code, out, err = _run_cli(argv)

            rules = load_config(config_path).rules
            if gating is not None:
                rules = replace(rules, recovery_gating=gating == "on")
            try:
                rows = oracles.staged_parse_signals(path)
            except oracles.MalformedRowError as exc:
                assert (code, out, err) == (1, b"", f"error: {exc}\n")
                return
        assert (code, err) == (0, "")
        assert out == oracles.staged_trace(rows, initial, rules, output)

    @given(
        records=signal_records(bad_values=False),
        zones=st.lists(zones, min_size=25, max_size=25),
        config=rule_configs(),
        initial=st.sampled_from(list(D)),
        output=st.sampled_from(["csv", "json"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_library_path(self, records, zones, config, initial, output):
        # worst_zone reaches step only through the library path.
        rows = [
            (
                r["snapshot_id"],
                AssuranceSignals(
                    *(r[k] for k in ("fdi", "delta_fpr", "delta_fnr", "tsz")),
                    worst_zone=zone,
                    remediation_event=bool(r["remediation_event"]),
                    r_m=r.get("r_m"),
                ),
            )
            for r, zone in zip(records, zones)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            rules = load_config(_write_inputs(tmp, records, config, True)[1]).rules
        expected = oracles.staged_trace(rows, initial, rules, output)
        assessments = build_assessments(rows, rules)
        trace = replay(assessments, initial, rules)
        assert emit_trace(trace, output) == expected
        # replay fills r_p and backfills r_m itself when they are missing.
        bare = [
            replace(a, signals=signals, r_p=None)
            for a, (_, signals) in zip(assessments, rows)
        ]
        staged = oracles.staged_replay(bare, initial, rules)
        assert replay(bare, initial, rules) == staged


class TestScoreMatchesStaged:
    """``score`` scores each signals row on its own, as the staged rules do."""

    @given(
        records=signal_records(),
        config=score_configs(),
        jsonl=st.booleans(),
        output=st.sampled_from(["csv", "json"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_cli_score(self, records, config, jsonl, output):
        # A remediation row with no r_m keeps it missing: a backfill from the
        # previous row's score would raise GES on a negative delta.
        with tempfile.TemporaryDirectory() as tmp:
            path, config_path = _write_inputs(tmp, records, config, jsonl)
            argv = ["score", "--signals", path, "--config", config_path]
            code, out, err = _run_cli([*argv, "--format", output])
            rules = load_config(config_path).rules
            try:
                rows = oracles.staged_parse_signals(path)
            except oracles.MalformedRowError as exc:
                assert (code, out, err) == (1, b"", f"error: {exc}\n")
                return
        assert (code, err) == (0, "")
        assert out == oracles.staged_score(rows, rules, output)


def _as_records(rows):
    """Staged ``(snapshot_id, signals)`` rows as ``iter_signals`` records."""
    return [
        (sid, s.fdi, s.delta_fpr, s.delta_fnr, s.tsz, s.remediation_event, s.r_m)
        for sid, s in rows
    ]


def _folded(records, initial, rules, output):
    out = io.StringIO()
    fold_trace(out, records, initial, rules, output)
    return out.getvalue().encode("utf-8")


def _block_rows(n):
    """Blocks of ``n`` rows in the readers and the record check, so in the
    fold and the writer too."""
    return mock.patch.object(deployassure.io, "_BLOCK_ROWS", n)


class TestFoldAcrossBlocks:
    """The fold carries ``r_p`` and the governed state over each block edge."""

    @given(
        records=signal_records(),
        rows_per_block=st.integers(1, 6),
        padded=st.sets(st.integers(0, 24), max_size=3),
        config=rule_configs(),
        gating=st.sampled_from([None, "on", "off"]),
        initial=st.sampled_from(list(D)),
        jsonl=st.booleans(),
        output=st.sampled_from(["csv", "json"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_small_blocks(
        self, records, rows_per_block, padded, config, gating, initial, jsonl, output
    ):
        # Padded lines are doubted rows mid-file: each is read on its own.
        with _block_rows(rows_per_block), tempfile.TemporaryDirectory() as tmp:
            path, config_path = _write_inputs(tmp, records, config, jsonl, padded)
            argv = ["--signals", path, "--config", config_path, "--format", output]
            trace = ["lifecycle", *argv, "--initial", initial.value]
            trace += [] if gating is None else ["--gating", gating]
            got, score = _run_cli(trace), _run_cli(["score", *argv])
            rules = load_config(config_path).rules
            if gating is not None:
                rules = replace(rules, recovery_gating=gating == "on")
            try:
                rows = oracles.staged_parse_signals(path)
            except oracles.MalformedRowError as exc:
                assert got == score == (1, b"", f"error: {exc}\n")
                return
            records = _as_records(rows)
            expected = oracles.staged_trace(rows, initial, rules, output)
            assert oracles.row_trace(records, initial, rules, output) == expected
            assert got == (0, expected, "")
            assert score == (0, oracles.staged_score(rows, rules, output), "")
            assert _folded(records, initial, rules, output) == expected
            assert _folded(iter_signals(path), initial, rules, output) == expected

    @pytest.mark.parametrize("output", ["csv", "json"])
    @pytest.mark.parametrize("gating", ["on", "off"])
    def test_three_full_blocks(self, tmp_path, output, gating):
        # 1,100 rows: an id needing quotes at row 600, a padded line (a
        # doubted block) at row 700, integer signal values at row 800.
        rng = random.Random(23)
        lines = []
        for i in range(1100):
            record = {"snapshot_id": "s,600" if i == 599 else f"s{i}"}
            record.update((k, rng.random()) for k in oracles.SIGNALS_COLUMNS[1:5])
            record["remediation_event"] = int(rng.random() < 0.3)
            if record["remediation_event"] and rng.random() < 0.5:
                record["r_m"] = rng.uniform(-0.3, 0.3)
            if i == 799:
                record.update(fdi=0, tsz=1)
            lines.append(" " * (i == 699) + json.dumps(record) + "\n")
        path = tmp_path / "signals.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        argv = ["lifecycle", "--signals", str(path), "--format", output]
        code, out, err = _run_cli([*argv, "--gating", gating])
        rules = RulesConfig(recovery_gating=gating == "on")
        rows = oracles.staged_parse_signals(str(path))
        expected = oracles.staged_trace(rows, D.REASSESSMENT_REQUIRED, rules, output)
        records = _as_records(rows)
        assert oracles.row_trace(records, D.REASSESSMENT_REQUIRED, rules, output) == (
            expected
        )
        assert (code, out, err) == (0, expected, "")
        assert _folded(records, D.REASSESSMENT_REQUIRED, rules, output) == expected

    def test_the_walk_is_one_kernel_call_per_block(self, monkeypatch, tmp_path):
        rng = random.Random(29)
        path = tmp_path / "signals.jsonl"
        path.write_text("".join(
            json.dumps({"snapshot_id": f"s{i}", "remediation_event": i % 3 == 0}
                       | {k: rng.random() for k in oracles.SIGNALS_COLUMNS[1:5]}) + "\n"
            for i in range(1100)
        ), encoding="utf-8")
        calls = {"_advance": 0, "_advance_column": 0}
        for name in calls:
            def counted(*args, name=name, real=getattr(deployassure.lifecycle, name)):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(deployassure.lifecycle, name, counted)
        code, out, err = _run_cli(["lifecycle", "--signals", str(path)])
        assert (code, out.count(b"\n"), err) == (0, 1 + 1100, "")
        assert calls == {"_advance": 0, "_advance_column": -(-1100 // _BLOCK_ROWS)}

    def test_float_subclass_records_fold_as_floats(self, monkeypatch):
        class Real(float):  # as numpy.float64 is
            pass

        rng = random.Random(31)
        records = [
            (f"s{i}", *(rng.random() for _ in range(4)), i % 3 == 0,
             rng.uniform(-0.2, 0.2) if i % 6 == 0 else None)
            for i in range(_BLOCK_ROWS + 9)
        ]
        subclassed = [(sid, *map(Real, reals), event, r_m)
                      for sid, *reals, event, r_m in records]
        rows_checked = []
        real = deployassure.io._signal_row
        monkeypatch.setattr(
            deployassure.io, "_signal_row", lambda v: rows_checked.append(v) or real(v)
        )
        for output in ("csv", "json"):
            expected = _folded(records, D.DEPLOYABLE, RulesConfig(), output)
            assert _folded(subclassed, D.DEPLOYABLE, RulesConfig(), output) == expected
        assert rows_checked == []
        # Exact floats are handed on as the check got them: here as tuples,
        # so a fold that wrote into a signals column would raise.
        block = next(checked_blocks(records))
        assert {type(column) for column in block[1:5]} == {tuple}
        assert {type(v) for v in next(checked_blocks(subclassed))[1]} == {float}


# Scores on and around the default band floors, and out of [0, 1].
scores = st.sampled_from([0.0, 0.3, 0.5, 0.65, 0.85, 1.0]) | st.floats(0, 1)
bad_scores = scores | st.sampled_from([-0.1, 1.5, math.nan, math.inf])
r_ms = st.none() | st.floats(-1, 1)


# GES edge rows on the default cuts: each signal on each of its cuts, the
# others at 0; severity 3 from one signal; a failed remediation on a
# Critical and on a Low row.
_CUTS = GesThresholds()._values()
_ON_THE_CUTS = [
    (*(cut if i == signal else 0.0 for i in range(4)), None)
    for signal, cuts in enumerate(_CUTS) for cut in cuts
]
_SEVERITY_3 = [(*(1.0 if i == signal else 0.0 for i in range(4)), None)
               for signal in range(4)]
_BUMPS = [(0.9, 0.0, 0.0, 0.0, -0.5), (0.0, 0.0, 0.0, 0.0, -0.5)]
# 600 rows: the severities' bytes run past 256 rows and past a block.
_LONG = [
    (i % 11 / 10, i % 7 / 6, i % 5 / 4, i % 3 / 2, (i % 13 - 6) / 6 if i % 4 else None)
    for i in range(600)
]


class TestKernelsMatchTheScalarBodies:
    """Each rule's column kernel, and its door on one row, give what the
    per-row body it replaced gave."""

    @given(
        rows=st.lists(st.tuples(scores, scores, scores, scores, r_ms), min_size=1),
        config=score_configs(),
    )
    @example(rows=_ON_THE_CUTS, config={})
    @example(rows=_SEVERITY_3, config={})
    @example(rows=_BUMPS, config={})
    @example(rows=_LONG, config={})
    @settings(max_examples=200, deadline=None)
    def test_das_drc_and_ges(self, rows, config):
        with tempfile.TemporaryDirectory() as tmp:
            rules = load_config(_write_inputs(tmp, [], config, True)[1]).rules
        weights, bands, cuts = rules.weights, rules.bands, rules.ges_thresholds
        signals = [list(column) for column in zip(*rows)][:4]
        records = [
            AssuranceSignals(*row[:4], remediation_event=row[4] is not None, r_m=row[4])
            for row in rows
        ]
        das = [oracles.scalar_das_of(*row[:4], weights) for row in rows]
        assert [compute_das(record, weights) for record in records] == das
        assert das_column(signals, weights) == das
        drc = [oracles.scalar_band_of(score, bands) for score in das]
        assert [classify_drc(score, bands) for score in das] == drc
        assert drc_column(das, bands) == drc
        ges = [oracles.scalar_ges_of(*row, cuts) for row in rows]
        assert [compute_ges(record, cuts) for record in records] == ges
        assert ges_column(signals, [row[4] for row in rows], cuts) == ges

    @given(
        prev=st.none() | bad_scores,
        das=st.lists(bad_scores, min_size=1),
        events=st.lists(st.booleans(), min_size=1),
        r_m=st.lists(r_ms, min_size=1),
    )
    @settings(max_examples=200, deadline=None)
    def test_progression_and_backfill(self, prev, das, events, r_m):
        def outcome(call, *args):
            try:
                return call(*args)
            except DomainError as exc:
                return str(exc)

        steps = list(zip([prev, *das], das))  # no step into a first score
        r_p = [
            None if a is None else outcome(oracles.scalar_progression, a, b)
            for a, b in steps
        ]
        for (a, b), p in zip(steps, r_p):
            if a is not None:
                assert outcome(remediation_progression, a, b) == p
        if any(isinstance(p, str) for p in r_p):
            return  # the kernel takes only das_column output, in [0, 1]
        assert progression_column(prev, das) == r_p
        rows = list(zip(events, r_m, r_p))
        backfilled = [oracles.scalar_backfilled_r_m(*row) for row in rows]
        assert _backfill_column(*zip(*rows)) == backfilled
        # A record holds an r_m only on a remediation event.
        for (event, m, p), expected in zip(rows, backfilled):
            if event or m is None:
                record = AssuranceSignals(
                    0.5, 0.5, 0.5, 0.5, remediation_event=event, r_m=m
                )
                assert _backfill_r_m(record, p).r_m == expected

    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(list(D)), zones, st.booleans(), r_ms, scores, r_ms),
            max_size=30,
        ),
        bands=st.sampled_from([DrcBands(), DrcBands(0.9, 0.7, 0.55, 0.25)]),
        gating=st.booleans(),
        hysteresis=st.sampled_from([0.0, 0.02]) | st.floats(0, 0.3),
        initial=st.sampled_from(list(D)),
        split=st.integers(0, 30),
    )
    @settings(max_examples=300, deadline=None)
    def test_state_walk(self, rows, bands, gating, hysteresis, initial, split):
        rules = RulesConfig(bands=bands, recovery_gating=gating, hysteresis=hysteresis)
        states, moves, current = [], [], initial
        for band, zone, event, r_m, das, r_p in rows:
            new, reasons = oracles.scalar_advance(
                current, band, zone, event, r_m, das, rules
            )
            assert _advance(current, band, zone, event, r_m, das, rules) == (new, reasons)
            moves.append((current, new, reasons, r_p) if reasons else None)
            states.append(current := new)

        def walk(current, rows):
            targets = [oracles.staged_fragility_cap(row[0], row[1]) for row in rows]
            band, _, event, r_m, das, r_p = ([row[i] for row in rows] for i in range(6))
            return _advance_column(current, band, targets, event, r_m, das, r_p, rules)

        assert walk(initial, rows) == (states, moves)
        # Split at a row, the state carried across as the fold carries it.
        first = walk(initial, rows[:split])
        rest = walk(first[0][-1] if first[0] else initial, rows[split:])
        assert (first[0] + rest[0], first[1] + rest[1]) == (states, moves)


GOOD_RECORD = ("s", 0.1, 0.2, 0.3, 0.4, False, None)


class TestFoldTraceChecksRecords:
    """Records built in code go through the signals file's checks."""

    @pytest.mark.parametrize(
        "record,message",
        [
            (("a", 5.0, 0.1, 0.1, 0.1, False, None), "fdi out of range [0, 1]: 5.0"),
            (("a", 0.1, math.nan, 0.1, 0.1, False, None),
             "delta_fpr out of range [0, 1]: nan"),
            (("a", 0.1, 0.1, True, 0.1, False, None),
             "delta_fnr is not a number: True"),
            (("a", 0.1, 0.1, 0.1, None, False, None), "missing value for 'tsz'"),
            ((7, 0.1, 0.1, 0.1, 0.1, False, None),
             "snapshot_id must be a string, got 7"),
            (("a", 0.1, 0.1, 0.1, 0.1, 2, None),
             "remediation_event must be 0 or 1, got 2"),
            (("a", 0.1, 0.1, 0.1, 0.1, True, -1.5), "r_m out of range [-1, 1]: -1.5"),
            (("a", 0.1, 0.1, 0.1, 0.1, False, 0.2),
             "r_m present but remediation_event is 0"),
            (("a", 0.1, 0.1, 0.1), "not enough values to unpack (expected 7, got 4)"),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_a_bad_record_names_its_place_and_field(self, record, message, output):
        out = io.StringIO()
        records = [GOOD_RECORD] * (_BLOCK_ROWS + 2) + [record, GOOD_RECORD]
        with pytest.raises(ValueError) as excinfo:
            fold_trace(out, records, D.DEPLOYABLE, RulesConfig(), output)
        assert str(excinfo.value) == f"record {_BLOCK_ROWS + 3}: {message}"
        # The trace of every record before the bad one is written.
        if output == "csv":
            assert out.getvalue().count("\n") == 1 + _BLOCK_ROWS + 2

    def test_the_first_record(self):
        with pytest.raises(ValueError, match=r"^record 1: fdi out of range"):
            fold_trace(io.StringIO(), [("a", 5.0) + GOOD_RECORD[2:]],
                       D.DEPLOYABLE, RulesConfig(), "csv")

    @pytest.mark.parametrize("record,message", [
        (GOOD_RECORD + ("GovernanceFragility",), "too many values to unpack"),
        (GOOD_RECORD[:6], r"not enough values to unpack \(expected 7, got 6\)"),
    ], ids=["eight", "six"])
    def test_a_block_of_records_all_of_the_wrong_length(self, record, message):
        # Every record the same length: the block check doubts the block
        # for its width, and the row check names the first record.
        out = io.StringIO()
        with pytest.raises(ValueError, match=rf"^record 1: {message}"):
            fold_trace(out, [record] * 3, D.DEPLOYABLE, RulesConfig(), "csv")
        assert out.getvalue().count("\n") == 1  # the header only

    def test_clean_records_are_checked_a_block_at_a_time(self, monkeypatch):
        rows_checked = []
        real = deployassure.io._signal_row
        monkeypatch.setattr(
            deployassure.io, "_signal_row", lambda v: rows_checked.append(v) or real(v)
        )
        # Integer values and r_m, and 0/1 events, are what a JSON line holds.
        records = [("s", 0, 0.5, 1, 0.25, i % 2, -1 if i % 2 else None)
                   for i in range(2 * _BLOCK_ROWS + 5)]
        expected = oracles.row_trace(
            [(r[0], *map(float, r[1:5]), bool(r[5]), None if r[6] is None else -1.0)
             for r in records], D.DEPLOYABLE, RulesConfig(), "csv"
        )
        assert _folded(records, D.DEPLOYABLE, RulesConfig(), "csv") == expected
        assert rows_checked == []

    def test_the_command_does_not_check_rows_twice(self, monkeypatch, signals_file):
        expected = _run_cli(["lifecycle", "--signals", signals_file])
        monkeypatch.setattr(deployassure.lifecycle, "checked_blocks", None)
        assert _run_cli(["lifecycle", "--signals", signals_file]) == expected


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)
# Any key: one holding "%", '": 0' or '": ""' is no placeholder.
json_keys = st.text(max_size=8) | st.sampled_from(["%", "%s", 'a": 0', 'b": ""'])


@st.composite
def json_tables(draw):
    """A row shape, each row's cells as ``json_rows`` takes them, and the rows.

    A ``0`` key's cell is its value's JSON text; a ``""`` key's is a string
    that needs no escape.
    """
    keys = draw(st.lists(json_keys, min_size=1, max_size=5, unique=True))
    plain = {k for k in keys if draw(st.booleans())}
    shape = {k: "" if k in plain else 0 for k in keys}
    rows = [
        {
            k: draw(st.text("ABCxyz_ ", max_size=6) if k in plain else json_scalars)
            for k in keys
        }
        for _ in range(draw(st.integers(0, 4)))
    ]
    cells = [
        tuple(r[k] if k in plain else json.dumps(r[k]) for k in sorted(keys))
        for r in rows
    ]
    return shape, cells, rows


def _json_rows(*args) -> str:
    out = io.StringIO()
    json_rows(out, *args)
    return out.getvalue()


class TestJsonRowsMatchWholeEncoding:
    """Rows written one at a time give the text of the whole payload."""

    @given(table=json_tables())
    @settings(max_examples=200, deadline=None)
    def test_top_level_array(self, table):
        shape, cells, rows = table
        assert _json_rows(shape, iter(cells)) == json_text(rows)

    @given(table=json_tables(), head=json_values)
    @settings(max_examples=200, deadline=None)
    def test_array_under_the_last_key(self, table, head):
        shape, cells, rows = table
        # The text around the array is the encoder's, with the array empty.
        around = json_text({"config_fingerprint": head, "entries": []})
        before, after = around[: -len("[]\n}\n")], "\n}\n"
        written = _json_rows(shape, iter(cells), 1, before, after)
        assert written == json_text({"config_fingerprint": head, "entries": rows})


# Ids holding what a JSON string escapes: quotes, backslashes, control
# characters, non-ASCII, and lone surrogates, which st.text() never draws;
# and what a CSV cell quotes.
ESCAPED = ['"', "\\", "\x00", "\x1f", "\n", "\x7f", "é", "\u2028", "\U0001f600"]
surrogates = st.integers(0xD800, 0xDFFF).map(chr)
pieces = (
    st.text(max_size=3)
    | st.sampled_from(ESCAPED + ["%", "%s"])
    | st.sampled_from([",", '"', "\r", "\n"])
)
json_ids = st.lists(pieces | surrogates, max_size=4).map("".join)
# Ids that UTF-8 can encode, so that CSV output can hold them.
text_ids = st.lists(pieces, max_size=4).map("".join)
# None, one that rounds to -0.0, and any other.
r_ps = st.none() | st.just(-0.00004) | st.floats(-1, 1)
units = st.floats(0, 1)
REASONS = [REASON_DAS_BAND, REASON_FRAGILITY, REASON_RECOVERY_GATED]
REASONS += [REASON_FAILED_REMEDIATION, 'a "r_p": 0, %s']


@st.composite
def trace_entries(draw):
    """A hand-built trace entry: any states, any transition shape."""
    signals = AssuranceSignals(*(draw(units) for _ in range(4)))
    a = SnapshotAssessment(
        draw(json_ids),
        signals,
        draw(units),
        draw(st.sampled_from(D)),
        draw(st.sampled_from(EscalationLevel)),
        draw(r_ps),
    )
    transition = None
    if draw(st.booleans()):
        reasons = draw(st.lists(st.sampled_from(REASONS), min_size=1, max_size=3))
        states = draw(st.tuples(st.sampled_from(D), st.sampled_from(D)))
        transition = TransitionRecord(*states, tuple(reasons), draw(r_ps))
    return TraceEntry(a, draw(st.sampled_from(D)), transition)


class TestJsonRowsMatchJsonDumps:
    """The row writer gives ``json.dumps(whole, indent=2, sort_keys=True)``."""

    @given(entries=st.lists(trace_entries(), max_size=6), fingerprint=json_ids)
    @settings(max_examples=200, deadline=None)
    def test_trace_rows(self, entries, fingerprint):
        trace = GovernanceTrace(tuple(entries), fingerprint)
        assert emit_trace(trace, "json") == oracles.staged_emit_trace(trace, "json")

    @pytest.mark.parametrize("output", ["csv", "json"])
    @given(
        ids=st.lists(text_ids | json_ids, min_size=1, max_size=6),
        values=st.lists(st.tuples(units, units, units, units), min_size=6, max_size=6),
    )
    @example(ids=["a,b", 'q"', "x\ry", "x\ny", "é"], values=[(0.5,) * 4] * 6)
    @settings(max_examples=100, deadline=None)
    def test_score_rows(self, output, ids, values):
        # What the file gives back: JSON joins an escaped surrogate pair.
        read = [json.loads(json.dumps(sid)) for sid in ids]
        rows = [(sid, AssuranceSignals(*v)) for sid, v in zip(read, values)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "signals.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                for sid, v in zip(ids, values):
                    record = dict(zip(oracles.SIGNALS_COLUMNS, (sid, *v, 0)))
                    fh.write(json.dumps(record) + "\n")
            code, out, err = _run_cli(["score", "--signals", path, "--format", output])
        try:
            expected = oracles.staged_score(rows, RulesConfig(), output)
        except (csv.Error, UnicodeEncodeError):
            # A lone surrogate, or a NUL on Python 3.10, in a CSV cell.
            assert output == "csv" and (code, out) == (1, b"")
            assert err.startswith("error: cannot write CSV output: ")
            assert len(err.splitlines()) == 1
            return
        assert (code, err) == (0, "")
        assert out == expected


# Rows either side of the writer's block edges, and the cells after an id:
# any text with no character the csv module quotes, empty cells included.
WRITER_ROWS = [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 6]
odd_ids = st.lists(pieces | surrogates, min_size=1, max_size=4).map("".join)
trace_cells = st.text(st.characters(exclude_characters=',"\r\n\x00'), max_size=6)


@st.composite
def csv_row_blocks(draw):
    """Clean ``(id, cells)`` rows, a few ids swapped for odd ones, often at
    a block's first, middle or last row."""
    n = draw(st.sampled_from(WRITER_ROWS))
    cells = draw(st.lists(st.lists(trace_cells, max_size=4).map(",".join), min_size=1))
    rows = [(f"s{i}", cells[i % len(cells)]) for i in range(n)]
    if n:
        edges = [i for i in range(n) if i % _BLOCK_ROWS in (0, _BLOCK_ROWS // 2)]
        edges += [i for i in range(n) if (i + 1) % _BLOCK_ROWS == 0 or i == n - 1]
        at = st.sampled_from(edges) | st.integers(0, n - 1)
        for i in draw(st.lists(at, max_size=4)):
            rows[i] = (draw(odd_ids), rows[i][1])
    return rows


def _csv_written(write) -> tuple[str, str | None]:
    out = io.StringIO()
    try:
        write(out)
    except csv.Error as exc:  # a NUL on Python 3.10
        return out.getvalue(), repr(exc)
    return out.getvalue(), None


@given(rows=csv_row_blocks())
@example(rows=[("s0", "0.5000,,")] * (_BLOCK_ROWS - 1) + [("a,b", "")])
@example(rows=[("s0", "")] * _BLOCK_ROWS + [("\0", "x,y"), ("s1", "")])
@settings(max_examples=150, deadline=None)
def test_block_csv_rows_match_the_row_writer(rows):
    columns, n = TRACE_COLUMNS, _BLOCK_ROWS
    expected = _csv_written(lambda out: oracles.rowwise_csv_rows(out, columns, rows))
    blocks = [list(zip(*rows[i : i + n])) for i in range(0, len(rows), n)]
    assert _csv_written(lambda out: csv_blocks(out, columns, "%s", blocks)) == expected
    refused = not CSV_WRITES_NUL and any("\0" in sid for sid, _ in rows)
    assert (expected[1] is not None) == refused
