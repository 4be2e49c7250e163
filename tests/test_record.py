"""Records behave as the frozen dataclasses they replaced.

Each record type is checked against its twin in ``oracles``: a frozen
dataclass with the same fields, defaults, ``__post_init__`` and methods.
Both are built from the same drawn arguments, valid or not, and every
observable result must agree: the record or the exception, its type and
its text.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from deployassure import (
    ConfigInvalidError,
    ConfusionCounts,
    DeploymentState,
    DisparityGaps,
    DisparityPanel,
    DrcBands,
    EngineConfig,
    EscalationLevel,
    FdiProfile,
    FdiValue,
    GesThresholds,
    PanelConfig,
    RatePanel,
    RulesConfig,
    Sample,
    SensitivityPoint,
    SensitivityProfile,
    TszScalar,
    WeightVector,
    ZoneConfig,
    ZoneLabel,
)
from deployassure.assurance import AssuranceSignals
from deployassure.config import load_config
from deployassure.lifecycle import (
    GovernanceTrace,
    SnapshotAssessment,
    TraceEntry,
    TransitionRecord,
)
from deployassure.record import Record, asdict, canonical_fingerprint, replace

D = DeploymentState
SIGNALS = AssuranceSignals(0.1, 0.2, 0.3, 0.4, ZoneLabel.SENSITIVE, True, 0.1)
ASSESSMENT = SnapshotAssessment("s1", SIGNALS, 0.6, D.REASSESSMENT_REQUIRED, EscalationLevel.LOW)
TRANSITION = TransitionRecord(D.RESTRICTED, D.REASSESSMENT_REQUIRED, ("das_band_change",), 0.1)
POINT = SensitivityPoint(0.5, 0.2, ZoneLabel.STABLE)
# One valid record of every type; the test draws changes to its fields.
EXAMPLES = {
    type(record): record
    for record in (
        Sample("s1", 0.5, 1, "a"),
        ConfusionCounts(1, 2, 3, 4),
        RatePanel(0.1, None, 0.3, 0.4),
        DisparityGaps(0.1, 0.2, 0.3, 0.4, (("a", "below_support"),)),
        ZoneConfig(),
        FdiProfile(((0.1, 0.2), (0.2, 0.3), (0.3, 0.1)), 0.1),
        POINT,
        SensitivityProfile((POINT,)),
        TszScalar(0.5, "mean", 2.0),
        DisparityPanel((("delta_fpr", 0.1),), {"delta_fpr": 0.1}),
        FdiValue(0.2, "continuous"),
        PanelConfig(),
        SIGNALS,
        WeightVector(0.1, 0.2, 0.3, 0.4),
        DrcBands(),
        GesThresholds(),
        EngineConfig(),
        RulesConfig(),
        ASSESSMENT,
        TRANSITION,
        TraceEntry(ASSESSMENT, D.RESTRICTED, TRANSITION),
        GovernanceTrace((TraceEntry(ASSESSMENT, D.RESTRICTED, None),), "abc"),
    )
}
TYPES = sorted(EXAMPLES, key=lambda cls: cls.__name__)

unit = st.floats(-0.5, 1.5, allow_nan=False)
values = st.one_of(
    unit,
    st.integers(-2, 40),
    st.none(),
    st.booleans(),
    st.sampled_from(["", "a", "mean", "max", "verdict", "delta_fpr"]),
    st.tuples(unit, unit, unit),
    st.lists(st.tuples(unit, unit), min_size=3, max_size=4).map(tuple),
    st.dictionaries(st.sampled_from(["delta_fpr", "delta_sr", "x"]), unit, max_size=2),
    st.sampled_from([*ZoneLabel, *DeploymentState, *EscalationLevel]),
    st.sampled_from(list(EXAMPLES.values())),
)


def outcome(build):
    """What ``build()`` gives: its repr, or its exception's type and text."""
    try:
        return ("ok", repr(build()))
    except Exception as exc:  # the engine's checks raise several kinds
        return (type(exc).__name__, str(exc))


@st.composite
def arguments(draw, cls=None):
    """A record type (``cls`` if given) and its example's fields, some changed."""
    cls = cls or draw(st.sampled_from(TYPES))
    record = EXAMPLES[cls]
    changed = draw(st.sets(st.sampled_from(cls._fields)))
    fields = {name: getattr(record, name) for name in cls._fields}
    fields |= {name: draw(values) for name in sorted(changed)}
    return cls, fields


def test_every_record_type_has_an_example_and_a_twin():
    assert len(EXAMPLES) == 22
    assert set(EXAMPLES) == set(Record.__subclasses__()) == set(oracles.DATACLASS_TWINS)
    for cls, twin in oracles.DATACLASS_TWINS.items():
        assert cls._fields == cls.__match_args__ == twin.__match_args__
        assert cls._fields == tuple(field.name for field in dataclasses.fields(twin))


@given(arguments())
@settings(max_examples=300, deadline=None)
def test_construction_matches_the_dataclass(drawn):
    cls, fields = drawn
    twin = oracles.DATACLASS_TWINS[cls]
    nested = {name: oracles.to_twin(value) for name, value in fields.items()}
    ordered = list(fields.values())
    assert outcome(lambda: cls(*ordered)) == outcome(lambda: twin(*nested.values()))
    assert outcome(lambda: cls(**fields)) == outcome(lambda: twin(**nested))
    # Defaults fill what is left out; a missing, unknown or duplicate
    # argument, or one too many, is a TypeError with the dataclass's text.
    required = [name for name in cls._fields if name not in vars(cls)]
    for kept in (required, required[:-1]):
        given_ = {name: fields[name] for name in kept}
        twin_given = {name: nested[name] for name in kept}
        assert outcome(lambda: cls(**given_)) == outcome(lambda: twin(**twin_given))
    first = cls._fields[0]
    for extra in ({"unknown": 1}, {first: fields[first]}):
        assert outcome(lambda: cls(*ordered, **extra)) == outcome(
            lambda: twin(*nested.values(), **extra)
        )
    assert outcome(lambda: cls(*ordered, 0)) == outcome(lambda: twin(*nested.values(), 0))


def built(drawn):
    """The drawn record and its twin; the type's example if the draw is invalid."""
    cls, fields = drawn
    try:
        record = cls(**fields)
    except Exception:  # the engine's checks raise several kinds
        record = EXAMPLES[cls]
    return record, oracles.to_twin(record)


@given(arguments(), arguments())
@settings(max_examples=200, deadline=None)
def test_equality_hash_and_repr_match_the_dataclass(first, second):
    (a, twin_a), (b, twin_b) = built(first), built(second)
    assert repr(a) == repr(twin_a)
    assert outcome(lambda: hash(a)) == outcome(lambda: hash(twin_a))
    for other, twin_other in ((b, twin_b), (a, twin_a), (copy.copy(a), copy.copy(twin_a))):
        assert (a == other) == (twin_a == twin_other)
        assert (a != other) == (twin_a != twin_other)
    # Only the same type compares: never another record type or a tuple.
    values = tuple(getattr(a, name) for name in a._fields)
    assert (a == values, a != values) == (twin_a == values, twin_a != values) == (False, True)
    assert a.__eq__(values) is NotImplemented
    for other in EXAMPLES.values():
        assert (a == other) == (type(other) is type(a) and a._values() == other._values())


@given(arguments(), st.data())
@settings(max_examples=200, deadline=None)
def test_replace_matches_the_dataclass_and_checks_again(drawn, data):
    cls, fields = drawn
    record, twin = built(data.draw(arguments(cls)))
    changes = {name: fields[name] for name in data.draw(st.sets(st.sampled_from(cls._fields)))}
    if data.draw(st.booleans()):
        changes["unknown"] = 1
    twin_changes = {name: oracles.to_twin(value) for name, value in changes.items()}
    expected = outcome(lambda: dataclasses.replace(twin, **twin_changes))
    assert outcome(lambda: replace(record, **changes)) == expected
    assert outcome(lambda: record.__replace__(**changes)) == expected
    if hasattr(copy, "replace"):  # Python 3.13+
        assert outcome(lambda: copy.replace(record, **changes)) == expected


def test_records_of_two_types_differ_with_equal_values():
    values = (0.1, 0.2, 0.3, 0.4)
    for make in (lambda cls: cls, oracles.DATACLASS_TWINS.get):
        panel, weights = make(RatePanel)(*values), make(WeightVector)(*values)
        assert (panel == weights, panel != weights) == (False, True)


def test_replace_runs_post_init():
    with pytest.raises(ConfigInvalidError, match="hysteresis"):
        replace(RulesConfig(), hysteresis=-1.0)
    with pytest.raises(ValueError, match="tp must be >= 0"):
        replace(ConfusionCounts(), tp=-1)


@pytest.mark.parametrize("body", [
    {"__annotations__": {f"f{i}": "int" for i in range(9)}},
    {"__annotations__": {"first": "int", "second": "int"}, "first": 0},
], ids=["nine-fields", "undefaulted-after-defaulted"])
def test_a_record_has_1_to_8_fields_defaults_last(body):
    with pytest.raises(TypeError, match="^Bad: a record has 1 to 8 fields, defaults last$"):
        type("Bad", (Record,), body)
    gc.collect()  # the class that failed stays a subclass of Record until collected


@given(arguments())
@settings(max_examples=150, deadline=None)
def test_frozen_and_copied_as_the_dataclass(drawn):
    record, twin = built(drawn)
    for name in (*record._fields, "other"):
        for change in (lambda r: setattr(r, name, 1), lambda r: delattr(r, name)):
            with pytest.raises(AttributeError) as raised:
                change(record)
            with pytest.raises(AttributeError) as twin_raised:
                change(twin)
            assert str(raised.value) == str(twin_raised.value)
    assert repr(record) == repr(twin)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(record, protocol))
        assert (restored == record, repr(restored)) == (True, repr(record))
    for duplicate in (copy.copy, copy.deepcopy):
        assert repr(duplicate(record)) == repr(duplicate(twin))
        assert duplicate(record) == record


@given(
    weights=st.lists(st.integers(0, 5), min_size=4, max_size=4).filter(any),
    hysteresis=st.floats(0, 0.5),
    gating=st.booleans(),
    tolerances=st.none()
    | st.dictionaries(st.sampled_from(["delta_fpr", "delta_sr"]), st.floats(0, 1)),
    metrics=st.sampled_from([("delta_fpr", "delta_fnr"), ("delta_sr", "delta_tpr", "delta_fpr")]),
)
@settings(max_examples=100, deadline=None)
def test_asdict_and_fingerprint_match_the_dataclass(
    weights, hysteresis, gating, tolerances, metrics
):
    total = sum(weights)
    rules = RulesConfig(
        recovery_gating=gating,
        hysteresis=hysteresis,
        weights=WeightVector(*(w / total for w in weights[:3]), 1 - sum(weights[:3]) / total),
    )
    panel = PanelConfig(metrics=metrics, tolerances=tolerances)
    for config in (rules, EngineConfig(rules=rules, panel=panel), load_config(None)):
        as_dict = dataclasses.asdict(oracles.to_twin(config))
        assert asdict(config) == as_dict
        text = json.dumps(as_dict, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        assert canonical_fingerprint(config) == config.fingerprint() == digest


def test_drc_bands_caches_its_floors():
    bands = DrcBands()
    assert bands._floors is vars(bands)["_floors"] == (0.0, 0.3, 0.5, 0.65, 0.85)


def test_bands_config_error_prints_the_dataclass_repr(tmp_path):
    config = tmp_path / "config.json"
    bands = {"deployable": 0.5, "restricted": 0.65, "reassessment": 0.5, "escalated": 0.3}
    config.write_text(json.dumps({"bands": bands}), encoding="utf-8")
    with pytest.raises(ConfigInvalidError) as raised:
        load_config(str(config))
    with pytest.raises(ConfigInvalidError) as twin_raised:
        oracles.DATACLASS_TWINS[DrcBands](*bands.values())
    assert str(raised.value) == str(twin_raised.value)
    assert str(raised.value).endswith(
        "got DrcBands(b_deployable=0.5, b_restricted=0.65, b_reassessment=0.5, "
        "b_escalated=0.3)"
    )
