import copy
import json
import random
import sys

import pytest

import oracles
from oconform import ocel
from oconform.fixtures import fixture_text
from oconform.ocel import (Event, EventLog, LogError, ObjectId, make_log,
                           parse_log, serialize_log, validate_log)


def test_l1_shape(l1):
    assert len(l1.events) == 18
    assert len(l1.objects) == 6
    assert sorted(l1.object_types) == ["baggage", "plane"]
    assert l1.activities == {"Fuel plane", "Check-in", "Load cargo",
                             "Lift off", "Unload", "Clean", "Pick up @ dest"}
    assert [e.id for e in l1.events] == [f"e{i}" for i in range(1, 19)]
    assert all(e.index == i for i, e in enumerate(l1.events))


def test_l1_event_contents(l1):
    e4 = l1.event("e4")
    assert e4.activity == "Load cargo"
    assert sorted(o.id for o in e4.omap) == ["b1", "b2", "p1"]
    assert e4.objects_of_type("plane") == {ObjectId("p1", "plane")}
    assert e4.otypes() == {"plane", "baggage"}
    assert l1.objects_by_id["b3"].otype == "baggage"


def test_round_trip_is_identity_on_canonical_log():
    text = fixture_text("l1_log.json")
    assert serialize_log(parse_log(text)) == text


def test_serialize_is_idempotent_on_messy_document():
    doc = {
        "object_types": ["plane", "baggage"],
        "objects": {
            "p1": {"type": "plane", "tail": "D-ABCD"},
            "b1": "baggage",
        },
        "events": [
            {"id": "e1", "activity": "Fuel plane", "omap": ["p1"],
             "timestamp": "2024-01-05T10:00:00Z", "crew": 3},
            {"id": "e2", "activity": "Load cargo", "omap": ["b1", "p1"]},
        ],
    }
    once = serialize_log(parse_log(json.dumps(doc)))
    assert serialize_log(parse_log(once)) == once
    parsed = parse_log(once)
    assert parsed.event_extras["e1"] == {"crew": 3}
    assert parsed.object_extras["p1"] == {"tail": "D-ABCD"}
    assert parsed.event("e1").timestamp == "2024-01-05T10:00:00Z"
    assert parsed.event("e2").timestamp is None


def test_serialize_sorts_types_objects_and_omaps():
    log = make_log([
        ("e1", "a", [ObjectId("z9", "zulu"), ObjectId("a1", "alpha")]),
    ])
    doc = json.loads(serialize_log(log))
    assert doc["object_types"] == ["alpha", "zulu"]
    assert list(doc["objects"]) == ["a1", "z9"]
    assert doc["events"][0]["omap"] == ["a1", "z9"]


@pytest.mark.parametrize("text, message", [
    ("{", "malformed JSON"),
    ("[]", "must be a JSON object"),
    ('{"objects": {}, "events": []}', "missing 'object_types'"),
    ('{"object_types": ["t"], "events": []}', "missing 'objects'"),
    ('{"object_types": ["t"], "objects": {}}', "missing 'events'"),
    ('{"object_types": "t", "objects": {}, "events": []}',
     "'object_types' must be an array"),
    ('{"object_types": ["t"], "objects": [], "events": []}',
     "'objects' must be an object"),
    ('{"object_types": ["t"], "objects": {"o": 3}, "events": []}',
     "expected a type name"),
    ('{"object_types": ["t"], "objects": {"o": {}}, "events": []}',
     "missing or non-string 'type'"),
    ('{"object_types": ["t"], "objects": {}, "events": {}}',
     "'events' must be an array"),
    ('{"object_types": ["t"], "objects": {}, "events": [3]}',
     "is not a JSON object"),
    ('{"object_types": ["t"], "objects": {}, "events": [{"activity": "a", "omap": []}]}',
     "missing or empty 'id'"),
    ('{"object_types": ["t"], "objects": {}, "events": [{"id": "e1", "omap": []}]}',
     "missing or empty 'activity'"),
    ('{"object_types": ["t"], "objects": {}, '
     '"events": [{"id": "e1", "activity": "a", "omap": "o"}]}',
     "'omap' must be an array"),
    ('{"object_types": ["t"], "objects": {"o": "t"}, '
     '"events": [{"id": "e1", "activity": "a", "omap": [1]}]}',
     "omap entries must be object ids"),
    ('{"object_types": ["t"], "objects": {"o": "t"}, '
     '"events": [{"id": "e1", "activity": "a", "omap": ["nope"]}]}',
     "unknown object 'nope'"),
    ('{"object_types": ["t"], "objects": {"o": "t"}, '
     '"events": [{"id": "e1", "activity": "a", "omap": ["o"], "timestamp": 7}]}',
     "'timestamp' must be a string"),
    ('{"object_types": ["t"], "objects": {"o": "t", "o": "t"}, "events": []}',
     "duplicate key 'o'"),
    ('{"object_types": ["t", "t"], "objects": {}, "events": []}',
     "duplicate object type 't'"),
    ('{"object_types": ["t"], "objects": {"o": "u"}, "events": []}',
     "unknown object type 'u'"),
    ('{"object_types": ["t"], "objects": {"o": "t"}, '
     '"events": [{"id": "e1", "activity": "a", "omap": []}]}',
     "empty omap"),
    ('{"object_types": ["t"], "objects": {"o": "t"}, '
     '"events": [{"id": "e1", "activity": "a", "omap": ["o"]}, '
     '{"id": "e1", "activity": "b", "omap": ["o"]}]}',
     "duplicate event id 'e1'"),
])
def test_parse_rejects_bad_documents(text, message):
    with pytest.raises(LogError, match=message):
        parse_log(text)


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                  '{"a": ' * 100_000 + "1" + "}" * 100_000])
def test_parse_rejects_deeply_nested_json(text):
    with pytest.raises(LogError, match="nested too deeply"):
        parse_log(text)


@pytest.mark.parametrize("data", [b'\xc3(', b'{"object_types": \xff}',
                                  "{}".encode("utf-16")[:-1]])
def test_parse_rejects_undecodable_bytes(data):
    with pytest.raises(LogError, match="^malformed JSON: "):
        parse_log(data)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on int digits in this Python")
def test_parse_rejects_numbers_past_the_digit_limit():
    text = f'{{"object_types": [], "objects": {{}}, "events": [], "n": {"7" * 5000}}}'
    with pytest.raises(LogError, match="^malformed JSON: "):
        parse_log(text)


def test_duplicate_key_is_not_called_malformed():
    with pytest.raises(LogError) as info:
        parse_log('{"object_types": [], "objects": {"o": "t", "o": "t"}, "events": []}')
    assert str(info.value) == "duplicate key 'o' in JSON object"


def test_parse_reads_json_in_utf16_and_utf32():
    text = fixture_text("l1_log.json")
    log = parse_log(text)
    for encoding in ("utf-8", "utf-16", "utf-32-le"):
        assert parse_log(text.encode(encoding)) == log


def test_validate_reports_index_and_type_mismatches():
    obj = ObjectId("o1", "t")
    wrong_type = ObjectId("o1", "u")
    log = EventLog(
        object_types=("t", "u"),
        objects=(obj,),
        events=(
            Event("e1", "a", frozenset({obj}), 0),
            Event("e2", "b", frozenset({wrong_type}), 5),
        ),
    )
    violations = validate_log(log)
    assert any("index 5 != position 1" in v for v in violations)
    assert any("used with type 'u' but declared 't'" in v for v in violations)


def test_validate_reports_duplicate_object_ids():
    obj = ObjectId("o1", "t")
    log = EventLog(object_types=("t",), objects=(obj, obj), events=())
    assert validate_log(log) == ["duplicate object id 'o1'"]


def test_validate_reports_undeclared_objects():
    obj = ObjectId("o1", "t")
    log = EventLog(object_types=("t",), objects=(obj,),
                   events=(Event("e1", "a", frozenset({obj, ObjectId("zz", "t")}), 0),))
    assert validate_log(log) == ["event 'e1': unknown object 'zz'"]


def test_validate_clean_log_returns_no_violations(l1):
    assert validate_log(l1) == []


def test_unknown_event_lookup_raises():
    log = make_log([("e1", "a", [ObjectId("o1", "t")])])
    with pytest.raises(LogError, match="unknown event id 'e9'"):
        log.event("e9")


def test_make_log_derives_objects_and_types():
    log = make_log([
        ("e1", "a", [ObjectId("o2", "t"), ObjectId("o1", "t")]),
        ("e2", "b", [ObjectId("o1", "t"), ObjectId("q1", "u")]),
    ])
    assert log.object_types == ("t", "u")
    assert [o.id for o in log.objects] == ["o1", "o2", "q1"]
    assert log.event("e2").index == 1
    assert validate_log(log) == []


def test_make_log_rejects_what_parse_log_rejects():
    plane = ObjectId("p1", "plane")
    with pytest.raises(LogError, match="^duplicate event id 'e1'$"):
        make_log([("e1", "a", [plane]), ("e1", "b", [plane])])
    with pytest.raises(LogError, match="^event 'e2': object 'p1' used with type 'bag' "
                                       "but declared 'plane'$"):
        make_log([("e1", "a", [plane]), ("e2", "b", [ObjectId("p1", "bag")])])
    with pytest.raises(LogError, match="^event 'e1': empty omap$"):
        make_log([("e1", "a", [])])
    with pytest.raises(LogError, match="^event at position 0: missing or empty 'id'$"):
        make_log([("", "a", [ObjectId("o1", "t")])])
    with pytest.raises(LogError, match="^event 'e1': missing or empty 'activity'$"):
        make_log([("e1", "", [ObjectId("o1", "t")])])
    empty = make_log([])
    assert empty.events == () and validate_log(empty) == []


def test_object_ids_hash_print_and_order_as_their_fields():
    obj = ObjectId("p1", "plane")
    assert ObjectId._fields == ("id", "otype")
    assert hash(obj) == hash(("p1", "plane"))
    assert repr(obj) == "ObjectId(id='p1', otype='plane')"
    assert obj == ObjectId(id="p1", otype="plane")
    ids = [ObjectId("b", "t"), ObjectId("a", "u"), ObjectId("a", "t")]
    assert sorted(ids) == [ObjectId("a", "t"), ObjectId("a", "u"), ObjectId("b", "t")]
    assert sorted(ids) == sorted(ids, key=lambda o: (o.id, o.otype))
    with pytest.raises(AttributeError):
        obj.id = "p2"


def test_events_hash_and_print_as_their_fields():
    obj = ObjectId("o1", "t")
    event = Event("e1", "a", frozenset({obj}), 0)
    assert Event._fields == ("id", "activity", "omap", "index", "timestamp")
    assert event.timestamp is None
    assert hash(event) == hash(("e1", "a", frozenset({obj}), 0, None))
    assert repr(event) == ("Event(id='e1', activity='a', omap=frozenset("
                           "{ObjectId(id='o1', otype='t')}), index=0, timestamp=None)")
    stamped = Event("e2", "b", frozenset({obj}), 1, "2021-01-01T00:00:00")
    assert hash(stamped) == hash(("e2", "b", frozenset({obj}), 1, "2021-01-01T00:00:00"))
    assert stamped.objects_of_type("t") == {obj} and stamped.otypes() == {"t"}
    for name in Event._fields:
        with pytest.raises(AttributeError):
            setattr(event, name, None)


def test_empty_event_list_parses():
    log = parse_log('{"object_types": [], "objects": {}, "events": []}')
    assert log.events == ()
    assert validate_log(log) == []


# ---------------------------------------------------------------------------
# the one-pass parse against the reference parser in tests/oracles.py

def random_document(rng) -> dict:
    """A valid log document built from ``oracles.random_log``, with event
    extras, timestamps (a string, null or absent), objects declared by a
    type name or a dict, sometimes an object no event uses, and repeated
    omap entries."""
    log = oracles.random_log(rng)
    objects: dict = {}
    for o in log.objects:
        kind = rng.randrange(3)
        objects[o.id] = (o.otype if kind == 0 else {"type": o.otype} if kind == 1
                         else {"type": o.otype, "tail": f"T-{o.id}"})
    if rng.random() < 0.3:
        objects["spare"] = {"type": log.object_types[0], "weight": 3}
    events = []
    for e in log.events:
        omap = sorted(o.id for o in e.omap)
        if rng.random() < 0.2:
            omap.append(omap[0])
        rng.shuffle(omap)
        raw = {"id": e.id, "activity": e.activity, "omap": omap}
        roll = rng.random()
        if roll < 0.3:
            raw["timestamp"] = f"2024-01-05T10:{e.index:02d}:00Z"
        elif roll < 0.5:
            raw["timestamp"] = None
        if rng.random() < 0.3:
            raw["crew"] = rng.randrange(4)
        if rng.random() < 0.2:
            raw["note"] = {"gate": ["B", 7]}
        events.append(raw)
    types = list(log.object_types)
    rng.shuffle(types)
    return {"object_types": types, "objects": objects, "events": events}


def _event(rng, doc) -> dict:
    return rng.choice([e for e in doc["events"] if isinstance(e, dict)])


def _set_object(value):
    def fault(rng, doc):
        doc["objects"][rng.choice(sorted(doc["objects"]))] = copy.deepcopy(value)
    return fault


def _set_event_key(key, value):
    def fault(rng, doc):
        _event(rng, doc)[key] = copy.deepcopy(value)
    return fault


def _drop_event_key(key):
    def fault(rng, doc):
        _event(rng, doc).pop(key, None)
    return fault


def _insert_omap_entry(choices):
    def fault(rng, doc):
        omap = _event(rng, doc).get("omap")
        if isinstance(omap, list):  # an earlier fault may have replaced it
            omap.insert(rng.randrange(len(omap) + 1), copy.deepcopy(rng.choice(choices)))
    return fault


def _replace_event(rng, doc):
    doc["events"][rng.randrange(len(doc["events"]))] = 3


def _duplicate_event_id(rng, doc):
    first, second = rng.sample(range(len(doc["events"])), 2)
    if isinstance(doc["events"][first], dict) and isinstance(doc["events"][second], dict):
        doc["events"][second]["id"] = doc["events"][first].get("id")


def _without(key):
    return lambda rng, doc: {k: v for k, v in doc.items() if k != key}


# json.dumps writes no repeated key, so _text writes one in place of this mark
_DUPLICATE_MARK = "duplicate-key-mark"

# The faults of test_parse_rejects_bad_documents, plus the empty type name
# and the empty object id, at a random position of a valid document.  Faults
# that replace the document or one of its three parts are applied alone.
WHOLE_FAULTS = {
    "not an object": lambda rng, doc: [doc],
    "missing object_types": _without("object_types"),
    "missing objects": _without("objects"),
    "missing events": _without("events"),
    "object_types not an array": lambda rng, doc: {**doc, "object_types": "X"},
    "objects not an object": lambda rng, doc: {**doc, "objects": []},
    "events not an array": lambda rng, doc: {**doc, "events": {}},
}
LOCAL_FAULTS = {
    "object is a number": _set_object(3),
    "object without type": _set_object({"tail": "T"}),
    "event not an object": _replace_event,
    "missing id": _drop_event_key("id"),
    "empty id": _set_event_key("id", ""),
    "missing activity": _drop_event_key("activity"),
    "omap not an array": _set_event_key("omap", "x1"),
    "omap entry not an id": _insert_omap_entry([1, None, ["x1"], {"a": 1}]),
    "unknown object": _insert_omap_entry(["nope", "X"]),
    "timestamp not a string": _set_event_key("timestamp", 7),
    "duplicate key": _set_event_key(_DUPLICATE_MARK, True),
    "duplicate object type": lambda rng, doc: doc["object_types"].append(
        rng.choice(doc["object_types"])),
    "empty object type": lambda rng, doc: doc["object_types"].append(""),
    "unknown object type": _set_object("Zulu"),
    "empty object id": lambda rng, doc: doc["objects"].update({"": doc["object_types"][0]}),
    "empty omap": _set_event_key("omap", []),
    "duplicate event id": _duplicate_event_id,
}


def _text(doc) -> str:
    return json.dumps(doc).replace(f'"{_DUPLICATE_MARK}": true', '"crew": 1, "crew": 2')


def _outcome(parse, data):
    try:
        return parse(data)
    except LogError as exc:
        return f"LogError: {exc}"


def _assert_same_outcome(data) -> object:
    expected = _outcome(oracles.reference_parse_log, data)
    assert _outcome(parse_log, data) == expected
    return expected


def test_parse_matches_reference_on_valid_documents():
    rng = random.Random(1601)
    for _ in range(150):
        doc = random_document(rng)
        text = _text(doc)
        log = _assert_same_outcome(text)
        assert isinstance(log, EventLog)
        assert validate_log(log) == []


def test_parse_matches_reference_on_one_fault():
    rng = random.Random(1602)
    for _ in range(40):
        valid = random_document(rng)
        text = _text(valid)
        assert _assert_same_outcome(text[:rng.randrange(len(text))]).startswith(
            "LogError: malformed JSON")
        for name, fault in {**WHOLE_FAULTS, **LOCAL_FAULTS}.items():
            doc = copy.deepcopy(valid)
            doc = fault(rng, doc) or doc  # a whole-document fault returns the new one
            outcome = _assert_same_outcome(_text(doc))
            assert isinstance(outcome, str), name


# faults that only the checks on whole sets of types, ids and omaps catch
SET_FAULTS = ["duplicate object type", "empty object type", "unknown object type",
              "empty object id", "empty omap", "duplicate event id"]


def test_parse_matches_reference_on_two_faults():
    rng = random.Random(1603)
    names = sorted(LOCAL_FAULTS)
    for k in range(600):
        doc = random_document(rng)
        for name in rng.sample(SET_FAULTS if k % 3 == 0 else names, 2):
            LOCAL_FAULTS[name](rng, doc)
        _assert_same_outcome(_text(doc))


def test_parse_runs_validate_log_only_on_a_failing_log(monkeypatch):
    # the documents are built first: make_log, behind them, validates
    rng = random.Random(1604)
    valid = [_text(random_document(rng)) for _ in range(20)]
    faulty = []
    for name in SET_FAULTS:
        doc = random_document(rng)
        LOCAL_FAULTS[name](rng, doc)
        faulty.append((name, _text(doc)))
    calls = []
    real = ocel.validate_log
    monkeypatch.setattr(ocel, "validate_log",
                        lambda log: calls.append(log) or real(log))
    for text in valid:
        parse_log(text)
    parse_log(fixture_text("l1_log.json"))
    assert calls == []
    for name, text in faulty:
        with pytest.raises(LogError):
            parse_log(text)
        assert len(calls) == 1, name
        calls.clear()
