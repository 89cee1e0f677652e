import json
import random
import sys
from collections import Counter

import pytest

import oracles
from oconform import ocpn
from oconform.fixtures import fixture_text
from oconform.ocel import LogError, ObjectId, make_log
from oconform.ocpn import (AcceptingOCPN, Arc, Binding, Marking, ModelError,
                           Place, Transition, _fire, binding_enabled,
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


def test_markings_with_equal_hashes_still_compare_their_tokens():
    a, b = Marking([("p", "a")]), Marking([("p", "b")])
    # a hash collision, forged: b's tokens under a's hash
    forged = Marking._of({"p": {"b": 1}}, a._hash)
    assert hash(forged) == hash(a)
    assert forged != a and a != forged
    assert len({a, forged}) == 2


# --- firing rule on the running example net ---

def test_load_cargo_binding_fires(ocpn1):
    assert binding_well_formed(ocpn1, LOAD_BINDING)
    assert binding_enabled(ocpn1, LOADED, LOAD_BINDING)
    assert consumed(ocpn1, LOAD_BINDING) == LOADED
    after = execute_binding(ocpn1, LOADED, LOAD_BINDING)
    assert after == Marking([("pl5", "p1"), ("pl6", "b1"), ("pl6", "b2")])
    assert produced(ocpn1, LOAD_BINDING) == after


def test_fire_shares_the_place_dicts_it_does_not_touch(ocpn1):
    # copy-on-write per place: only the binding's input and output places
    # get new dicts, and the source marking keeps its tokens
    marking = LOADED + Marking([("pl1", "p2"), ("pl2", "b3"), ("pl6", "b4")])
    before = {place: dict(objects) for place, objects in marking._tokens.items()}
    after = _fire(ocpn1, marking, LOAD_BINDING)
    touched = {p.id for p in ocpn1.preset("t_load") + ocpn1.postset("t_load")}
    assert touched == {"pl3", "pl4", "pl5", "pl6"}
    for place, objects in marking._tokens.items():
        if place in touched:
            assert after._tokens.get(place) is not objects
        else:
            assert after._tokens[place] is objects
    assert marking._tokens == before
    assert after == Marking([("pl1", "p2"), ("pl2", "b3"), ("pl5", "p1"),
                             ("pl6", "b1"), ("pl6", "b2"), ("pl6", "b4")])


def test_self_loop_firing_returns_its_marking(ocpn1, flower_l1):
    # every flower transition puts back the tokens it takes; the running
    # example net has no such transition
    assert flower_l1._self_loops == {t.id for t in flower_l1.transitions}
    assert not ocpn1._self_loops
    marking = Marking([("p_plane", "p1"), ("p_baggage", "b1"), ("p_baggage", "b2")])
    load = flower_l1.label_to_transition["Load cargo"].id
    binding = Binding.make(load, {"plane": ["p1"], "baggage": ["b1", "b2"]})
    after = execute_binding(flower_l1, marking, binding)
    assert after is marking
    assert after == marking - consumed(flower_l1, binding) + produced(flower_l1, binding)


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


@pytest.fixture
def read_labels(monkeypatch):
    """Read a marking's enabled labels, and say whether they were
    computed, that is whether ``_candidate_objects`` ran."""
    calls = []
    candidates = ocpn._candidate_objects

    def spy(*args):
        calls.append(args)
        return candidates(*args)

    monkeypatch.setattr(ocpn, "_candidate_objects", spy)

    def read(net, marking):
        calls.clear()
        return enabled_visible_labels(net, marking), bool(calls)
    return read


def test_labels_are_computed_once_per_marking_and_net(read_labels, ocpn1):
    m = Marking([("pl5", "p1"), ("pl8", "b1"), ("pl8", "b2")])
    assert read_labels(ocpn1, m) == ({"Lift off", "Pick up @ dest"}, True)
    assert read_labels(ocpn1, m) == ({"Lift off", "Pick up @ dest"}, False)


def test_labels_are_recomputed_for_another_net(read_labels, ocpn1, flower_l1):
    # the memo holds the last net asked, by identity: an equal net parsed
    # again is another net, and each answer is the one for its net
    twin = parse_model(serialize_model(ocpn1))
    m = Marking([("pl5", "p1"), ("pl8", "b1"), ("p_plane", "p1")])
    reference = {"Lift off", "Pick up @ dest"}
    flower = oracles.brute_force_enabled_labels(
        flower_l1, [(token, n) for token, n in m.items() if token[0] == "p_plane"])
    assert flower and flower != reference
    assert read_labels(ocpn1, m) == (reference, True)
    assert read_labels(twin, m) == (reference, True)
    assert read_labels(flower_l1, m) == (flower, True)
    assert read_labels(flower_l1, m) == (flower, False)
    assert read_labels(ocpn1, m) == (reference, True)


def test_new_markings_start_without_labels(read_labels, ocpn1, flower_l1):
    # +, -, renamed and a firing that moves tokens build new markings,
    # which never inherit the answer of the marking they start from; a
    # self-loop firing returns its marking, answer and all
    m = LOADED + Marking([("pl5", "p2")])
    assert read_labels(ocpn1, m) == ({"Load cargo", "Lift off"}, True)
    built = [Marking(dict(m.items())), m + Marking(), m - Marking(),
             m.renamed({o: o for o in ("p1", "p2", "b1", "b2")}),
             _fire(ocpn1, m, LOAD_BINDING)]
    assert read_labels(ocpn1, built[-1]) == ({"Lift off"}, True)
    for new in built[:-1]:
        assert new == m
        assert read_labels(ocpn1, new) == ({"Load cargo", "Lift off"}, True)
    loop = Marking([("p_plane", "p1"), ("p_baggage", "b1")])
    load = flower_l1.label_to_transition["Load cargo"].id
    labels, _ = read_labels(flower_l1, loop)
    fired = _fire(flower_l1, loop, Binding.make(load, {"plane": ["p1"],
                                                       "baggage": ["b1"]}))
    assert fired is loop
    assert read_labels(flower_l1, fired) == (labels, False)


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


def test_finishing_places_on_fixture_nets(ocpn1, flower_l1):
    # t_tau only moves a bag from pl6 to pl8, which is not final
    assert ocpn1.finishing_places == ocpn1.final_places
    assert flower_l1.finishing_places == {p.id for p in flower_l1.places}


def _silent_fan_net(*tau_arcs):
    """A visible ``a`` from ``s`` to ``p``, and silent ``tau1``/``tau2``
    with the given arcs; places p, q and the only final place f are of
    type X, y of type Y."""
    places = (Place("s", "X", initial=True), Place("p", "X"), Place("q", "X"),
              Place("f", "X", final=True), Place("y0", "Y", initial=True),
              Place("y", "Y"))
    return AcceptingOCPN(
        object_types=("X", "Y"), places=places,
        transitions=(Transition("a", "A"), Transition("tau1"),
                     Transition("tau2")),
        arcs=(Arc("s", "a"), Arc("a", "p"), *tau_arcs))


def test_finishing_places_need_every_output_of_the_type_finishing():
    # tau1 puts the object on f and on q; q never finishes, so p does not
    net = _silent_fan_net(Arc("p", "tau1"), Arc("tau1", "f"), Arc("tau1", "q"))
    assert net.finishing_places == {"f"}
    # once q finishes through tau2, p does too, whatever the arc order
    net = _silent_fan_net(Arc("p", "tau1"), Arc("tau1", "f"), Arc("tau1", "q"),
                          Arc("q", "tau2"), Arc("tau2", "f"))
    assert net.finishing_places == {"f", "q", "p"}


def test_finishing_places_count_an_object_leaving_the_marking():
    # tau1 consumes from p and puts no X token back: the object leaves
    net = _silent_fan_net(Arc("p", "tau1"), Arc("tau1", "y"))
    assert net.finishing_places == {"f", "p"}


def test_finishing_places_exclude_a_silent_self_loop():
    # tau1 puts a token back on q beside the one on f: q never empties
    net = _silent_fan_net(Arc("q", "tau1"), Arc("tau1", "q"), Arc("tau1", "f"),
                          Arc("p", "tau2"), Arc("tau2", "q"))
    assert net.finishing_places == {"f"}


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
    ('{"object_types": ["t", 1], "places": [], "transitions": [], "arcs": []}',
     "'object_types' must be an array of strings"),
    ('{"object_types": ["t"], "places": [{"object_type": "t"}], '
     '"transitions": [], "arcs": []}', "needs a string 'id'"),
    ('{"object_types": ["t"], "places": [{"id": "p"}], '
     '"transitions": [], "arcs": []}', "missing 'object_type'"),
    ('{"object_types": ["t"], "places": [], "transitions": [{"label": "a"}], '
     '"arcs": []}', "each transition needs a string 'id'"),
    ('{"object_types": ["t"], "places": [], "transitions": [{"id": "a", "label": ""}], '
     '"arcs": []}', "label must be null or non-empty"),
    ('{"object_types": ["t"], "places": [], "transitions": [], '
     '"arcs": [["p", "a"]]}', "each arc must be a JSON object"),
    ('{"object_types": ["t"], "places": [], "transitions": [], '
     '"arcs": [{"source": "p"}]}', "needs string 'source' and 'target'"),
    ('{"object_types": ["t"], "places": [{"id": "p0", "id": "p1", "object_type": "t"}], '
     '"transitions": [], "arcs": []}', "duplicate key 'id'"),
    ('{"object_types": ["t"], "object_types": ["t"], "places": [], '
     '"transitions": [], "arcs": []}', "duplicate key 'object_types'"),
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


@pytest.mark.parametrize("data", [b'\xc3(', b'{"object_types": \xff}'])
def test_parse_model_rejects_undecodable_bytes(data):
    with pytest.raises(ModelError, match="^malformed JSON: "):
        parse_model(data)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on int digits in this Python")
def test_parse_model_rejects_numbers_past_the_digit_limit():
    text = ('{"object_types": [], "places": [], "transitions": [], "arcs": [], '
            f'"n": {"7" * 5000}}}')
    with pytest.raises(ModelError, match="^malformed JSON: "):
        parse_model(text)


def test_parse_model_duplicate_key_is_not_called_malformed():
    with pytest.raises(ModelError) as info:
        parse_model('{"object_types": [], "object_types": []}')
    assert str(info.value) == "duplicate key 'object_types' in JSON object"


def _flagged(place=None, arc=None) -> str:
    """A one-place net with a silent self-loop, the place and both arcs
    given extra keys."""
    return json.dumps({
        "object_types": ["t"],
        "places": [{"id": "p0", "object_type": "t", **(place or {})}],
        "transitions": [{"id": "tau"}],
        "arcs": [{"source": "p0", "target": "tau", **(arc or {})},
                 {"source": "tau", "target": "p0", **(arc or {})}],
    })


@pytest.mark.parametrize("key", ["initial", "final"])
@pytest.mark.parametrize("value", ["false", "true", [], 0, 1, None, {}])
def test_parse_model_place_flags_must_be_booleans(key, value):
    # a string is no flag: "false" must not make a lone place initial
    with pytest.raises(ModelError, match=f"^place 'p0': '{key}' must be true or false$"):
        parse_model(_flagged(place={"initial": True, key: value}))


@pytest.mark.parametrize("value", ["no", "false", [], 0, 1, None])
def test_parse_model_arc_variable_must_be_a_boolean(value):
    with pytest.raises(ModelError,
                       match="^arc 'p0' -> 'tau': 'variable' must be true or false$"):
        parse_model(_flagged(place={"initial": True}, arc={"variable": value}))


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


def test_flower_matches_reference_on_random_logs(l1):
    rng = random.Random(1605)
    logs = [l1] + [oracles.random_log(rng) for _ in range(200)]
    repeated = 0
    for log in logs:
        assert serialize_model(flower_model(log)) == \
            serialize_model(oracles.reference_flower_model(log))
        repeated += any(len(e.otypes()) < len(e.omap) for e in log.events)
    assert repeated > 50  # events with two objects of one type: variable arcs
