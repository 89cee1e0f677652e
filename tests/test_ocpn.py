import json
import random
from collections import Counter

import pytest

import oracles
from oconform.fixtures import fixture_text
from oconform.ocel import LogError, ObjectId, make_log
from oconform.ocpn import (AcceptingOCPN, Arc, Binding, Marking, ModelError,
                           Place, Transition, binding_enabled,
                           binding_well_formed, consumed, enabled_visible_labels,
                           enumerate_bindings, execute_binding, flower_model,
                           initial_marking_for, is_final, parse_model,
                           produced, serialize_model)

LOADED = Marking([("pl3", "p1"), ("pl4", "b1"), ("pl4", "b2")])
LOAD_BINDING = Binding.make("t_load", {"plane": ["p1"], "baggage": ["b1", "b2"]})


# --- marking algebra ---

def test_marking_multiset_basics():
    m = Marking([("p", "a"), ("p", "a"), ("q", "b")])
    assert len(m) == 3
    assert m.count(("p", "a")) == 2
    assert m.count(("x", "y")) == 0
    assert m.objects_at("p") == {"a"}
    assert m.objects_at("nowhere") == frozenset()
    assert m == Marking({("p", "a"): 2, ("q", "b"): 1})
    assert hash(m) == hash(Marking([("q", "b"), ("p", "a"), ("p", "a")]))
    assert bool(m) and not bool(Marking())
    assert repr(m) == "Marking([(p,a), (p,a), (q,b)])"


def test_marking_addition_subtraction_inclusion():
    m = Marking([("p", "a"), ("q", "b")])
    n = Marking([("p", "a")])
    assert n <= m
    assert not m <= n
    assert m - n == Marking([("q", "b")])
    assert n + n == Marking({("p", "a"): 2})
    with pytest.raises(ModelError, match="absent token"):
        m - Marking([("r", "c")])
    with pytest.raises(ModelError, match="negative token count"):
        Marking({("p", "a"): -1})


def test_marking_zero_counts_are_dropped():
    assert Marking({("p", "a"): 0}) == Marking()
    assert (Marking([("p", "a")]) - Marking([("p", "a")])).key() == ()


# --- firing rule on the running example net ---

def test_load_cargo_binding_fires(ocpn1):
    assert binding_well_formed(ocpn1, LOAD_BINDING)
    assert binding_enabled(ocpn1, LOADED, LOAD_BINDING)
    assert consumed(ocpn1, LOAD_BINDING) == LOADED
    after = execute_binding(ocpn1, LOADED, LOAD_BINDING)
    assert after == Marking([("pl5", "p1"), ("pl6", "b1"), ("pl6", "b2")])
    assert produced(ocpn1, LOAD_BINDING) == after


def test_binding_not_enabled_without_tokens(ocpn1):
    liftoff = Binding.make("t_liftoff", {"plane": ["p1"]})
    assert binding_well_formed(ocpn1, liftoff)
    assert not binding_enabled(ocpn1, LOADED, liftoff)
    with pytest.raises(ModelError, match="not enabled"):
        execute_binding(ocpn1, LOADED, liftoff)


@pytest.mark.parametrize("objects", [
    {"plane": ["p1"]},                             # variable type missing
    {"baggage": ["b1"]},                           # non-variable type missing
    {"plane": ["p1", "p2"], "baggage": ["b1"]},    # two objects, non-variable
    {"plane": ["p1"], "baggage": []},              # empty object set
    {"plane": ["p1"], "baggage": ["b1"], "crew": ["c1"]},  # foreign type
])
def test_malformed_load_bindings_are_never_enabled(ocpn1, objects):
    binding = Binding.make("t_load", objects)
    assert not binding_well_formed(ocpn1, binding)
    assert not binding_enabled(ocpn1, LOADED, binding)


def test_binding_for_unknown_transition_is_malformed(ocpn1):
    assert not binding_well_formed(ocpn1, Binding.make("nope", {}))


def test_silent_transition_moves_one_bag(ocpn1):
    binding = Binding.make("t_tau", {"baggage": ["b1"]})
    before = Marking([("pl6", "b1")])
    assert execute_binding(ocpn1, before, binding) == Marking([("pl8", "b1")])


# --- enabled visible labels ---

def test_enabled_labels_on_quoted_markings(ocpn1):
    m = Marking([("pl5", "p1"), ("pl8", "b1"), ("pl8", "b2")])
    assert enabled_visible_labels(ocpn1, m) == {"Lift off", "Pick up @ dest"}
    m = Marking([("pl5", "p1"), ("pl6", "b1"), ("pl6", "b2")])
    assert enabled_visible_labels(ocpn1, m) == {"Lift off"}
    assert enabled_visible_labels(ocpn1, Marking()) == frozenset()


def test_enabled_labels_initial_marking(ocpn1):
    objs = [ObjectId("p1", "plane"), ObjectId("b1", "baggage"),
            ObjectId("b2", "baggage")]
    m0 = initial_marking_for(ocpn1, objs)
    assert m0 == Marking([("pl1", "p1"), ("pl2", "b1"), ("pl2", "b2")])
    assert enabled_visible_labels(ocpn1, m0) == {"Fuel plane", "Check-in"}


def test_enabled_labels_match_brute_force_on_fixture_nets(ocpn1, flower_l1):
    rng = random.Random(3)
    for net in (ocpn1, flower_l1):
        for _ in range(60):
            items = oracles.random_marking_items(rng, net)
            got = enabled_visible_labels(net, Marking(dict(items)))
            assert got == oracles.brute_force_enabled_labels(net, items)


def test_initial_marking_requires_a_typed_start(ocpn1):
    with pytest.raises(ModelError, match="no initial place"):
        initial_marking_for(ocpn1, [ObjectId("c1", "crew")])


def test_is_final(ocpn1):
    assert is_final(ocpn1, Marking())
    assert is_final(ocpn1, Marking([("pl10", "p1"), ("pl11", "b1")]))
    assert not is_final(ocpn1, Marking([("pl5", "p1")]))
    assert not is_final(ocpn1, Marking([("pl10", "p1"), ("pl5", "b1")]))


def test_enumerate_bindings_is_deterministic_and_capped(ocpn1):
    got = list(enumerate_bindings(ocpn1, LOADED, "t_load"))
    objsets = [dict(b.objects)["baggage"] for b in got]
    assert objsets == [frozenset({"b1"}), frozenset({"b2"}),
                       frozenset({"b1", "b2"})]
    assert all(dict(b.objects)["plane"] == frozenset({"p1"}) for b in got)
    capped = list(enumerate_bindings(ocpn1, LOADED, "t_load", subset_cap=1))
    assert [dict(b.objects)["baggage"] for b in capped] == \
        [frozenset({"b1"}), frozenset({"b2"})]
    assert list(enumerate_bindings(ocpn1, Marking(), "t_load")) == []


def test_enumerate_bindings_match_the_oracle_on_random_nets():
    # the pool holds 3 objects per type, below the oracle's SUBSET_CAP
    rng = random.Random(41)
    checked = 0
    for _ in range(300):
        net = oracles.random_net(rng)
        place_type = {p.id: p.otype for p in net.places}
        items = oracles.random_marking_items(rng, net)
        marking = Marking(dict(items))
        counts = Counter(dict(items))
        for t in net.transitions:
            oracle = {frozenset(assign.items()) for assign, _, _ in
                      oracles._oracle_bindings(net, counts, place_type, t)}
            singletons = {a for a in oracle if all(len(ids) == 1 for _, ids in a)}
            for cap, want in ((None, oracle), (1, singletons)):
                got = list(enumerate_bindings(net, marking, t.id, subset_cap=cap))
                assert all(binding_enabled(net, marking, b) for b in got)
                assert len({frozenset(b.objects) for b in got}) == len(got)
                assert {frozenset(b.objects) for b in got} == want, (t.id, items)
                checked += len(got)
    assert checked > 500


def test_net_indexes(ocpn1):
    assert ocpn1.tpl("t_load") == {"plane", "baggage"}
    assert ocpn1.variable_types("t_load") == {"baggage"}
    assert ocpn1.tpl_nv("t_load") == {"plane"}
    assert ocpn1.tpl("t_tau") == {"baggage"}
    assert ocpn1.label_to_transition["Unload"].id == "t_unload"
    assert [t.id for t in ocpn1.silent_transitions] == ["t_tau"]
    assert len(ocpn1.visible_transitions) == 7
    assert ocpn1.silent_transitions is ocpn1.silent_transitions
    assert {p.id for p in ocpn1.preset("t_unload")} == {"pl7", "pl6"}
    assert {p.id for p in ocpn1.postset("t_unload")} == {"pl9", "pl8"}
    assert ocpn1.initial_places["plane"].id == "pl1"
    assert ocpn1.final_places == {"pl10", "pl11"}


# --- validation ---

def _net(**overrides):
    base = dict(
        object_types=("t",),
        places=(Place("p0", "t", initial=True), Place("p1", "t", final=True)),
        transitions=(Transition("a", "A"),),
        arcs=(Arc("p0", "a"), Arc("a", "p1")),
    )
    base.update(overrides)
    return AcceptingOCPN(**base)


def test_valid_minimal_net_builds():
    net = _net()
    assert net.tpl("a") == {"t"}


@pytest.mark.parametrize("overrides, message", [
    (dict(places=(Place("p0", "t", initial=True), Place("p0", "t"))),
     "duplicate place id"),
    (dict(transitions=(Transition("a", "A"), Transition("a", "B"))),
     "duplicate node id"),
    (dict(transitions=(Transition("p0", "A"),)), "duplicate node id"),
    (dict(transitions=(Transition("a", "A"), Transition("b", "A")),
          arcs=(Arc("p0", "a"), Arc("a", "p1"))),
     "duplicate visible label"),
    (dict(places=(Place("p0", "u", initial=True),)), "unknown object type"),
    (dict(arcs=(Arc("p0", "a"), Arc("p0", "a"))), "duplicate arc"),
    (dict(arcs=(Arc("p0", "p1"),)), "must connect a place and a transition"),
    (dict(arcs=(Arc("p0", "nowhere"),)), "must connect a place and a transition"),
    (dict(arcs=(Arc("p0", "a", variable=True), Arc("a", "p1", variable=False))),
     "mixed variable status"),
    (dict(places=(Place("p0", "t"), Place("p1", "t", final=True))),
     "has no initial place"),
    (dict(places=(Place("p0", "t", initial=True),
                  Place("p1", "t", initial=True))),
     "has two initial places"),
])
def test_invalid_nets_are_rejected(overrides, message):
    with pytest.raises(ModelError, match=message):
        _net(**overrides)


def test_unused_type_needs_no_initial_place():
    net = _net(object_types=("t", "spare"))
    assert "spare" not in net.initial_places


# --- JSON ---

def test_model_round_trip_is_identity_on_fixtures():
    for name in ("ocpn1_model.json", "flower_l1_model.json",
                 "restricted_model.json"):
        text = fixture_text(name)
        assert serialize_model(parse_model(text)) == text


@pytest.mark.parametrize("text, message", [
    ("{", "malformed JSON"),
    ("[]", "must be a JSON object"),
    ('{"places": [], "transitions": [], "arcs": []}',
     "missing 'object_types'"),
    ('{"object_types": ["t", "t"], "places": [], "transitions": [], "arcs": []}',
     "duplicate object type"),
    ('{"object_types": ["t"], "places": [{"object_type": "t"}], '
     '"transitions": [], "arcs": []}', "needs a string 'id'"),
    ('{"object_types": ["t"], "places": [{"id": "p"}], '
     '"transitions": [], "arcs": []}', "missing 'object_type'"),
    ('{"object_types": ["t"], "places": [], "transitions": [{"id": "a", "label": ""}], '
     '"arcs": []}', "label must be null or non-empty"),
    ('{"object_types": ["t"], "places": [], "transitions": [], '
     '"arcs": [{"source": "p"}]}', "needs string 'source' and 'target'"),
])
def test_parse_model_rejects_bad_documents(text, message):
    with pytest.raises(ModelError, match=message):
        parse_model(text)


@pytest.mark.parametrize("key", ["places", "transitions", "arcs"])
@pytest.mark.parametrize("value", [None, 3, 1.5, True, False])
def test_parse_model_rejects_non_array_nodes_and_arcs(key, value):
    doc = {"object_types": ["t"], "places": [], "transitions": [], "arcs": []}
    doc[key] = value
    with pytest.raises(ModelError, match=f"'{key}' must be an array"):
        parse_model(json.dumps(doc))


def test_parse_model_rejects_deeply_nested_json():
    with pytest.raises(ModelError, match="nested too deeply"):
        parse_model("[" * 100_000 + "]" * 100_000)


def test_parse_model_defaults():
    net = parse_model(json.dumps({
        "object_types": ["t"],
        "places": [{"id": "p0", "object_type": "t", "initial": True,
                    "final": True}],
        "transitions": [{"id": "tau"}],
        "arcs": [{"source": "p0", "target": "tau"},
                 {"source": "tau", "target": "p0"}],
    }))
    assert net.transitions_by_id["tau"].silent
    assert not net.arcs[0].variable


# --- flower construction ---

def test_flower_matches_fixture(l1):
    assert serialize_model(flower_model(l1)) == fixture_text("flower_l1_model.json")


def test_flower_structure(l1, flower_l1):
    net = flower_model(l1)
    assert {p.id for p in net.places} == {"p_baggage", "p_plane"}
    assert all(p.initial and p.final for p in net.places)
    assert len(net.transitions) == 7
    assert sorted(net.label_to_transition) == sorted(l1.activities)
    variable = {(a.source, a.target) for a in net.arcs if a.variable}
    load = net.label_to_transition["Load cargo"].id
    unload = net.label_to_transition["Unload"].id
    assert variable == {("p_baggage", load), (load, "p_baggage"),
                        ("p_baggage", unload), (unload, "p_baggage")}
    # single-object activities self-loop without variable arcs
    checkin = net.label_to_transition["Check-in"].id
    assert {a.source for a in net.arcs if a.target == checkin} == {"p_baggage"}


def test_flower_covers_type_union_per_activity():
    log = make_log([
        ("e1", "a", [ObjectId("x1", "X")]),
        ("e2", "a", [ObjectId("y1", "Y")]),
    ])
    net = flower_model(log)
    tid = net.label_to_transition["a"].id
    assert net.tpl(tid) == {"X", "Y"}


def test_flower_rejects_empty_log():
    with pytest.raises(LogError, match="empty log"):
        flower_model(make_log([]))
