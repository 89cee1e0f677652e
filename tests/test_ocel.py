import json

import pytest

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


def test_empty_event_list_parses():
    log = parse_log('{"object_types": [], "objects": {}, "events": []}')
    assert log.events == ()
    assert validate_log(log) == []
