import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import invariants
import oracles
from oconform import metrics, replay
from oconform.context import build_graph, context_of_event
from oconform.ocel import LogError, ObjectId, make_log, parse_log
from oconform.ocpn import (AcceptingOCPN, Arc, Marking, Place, Transition,
                           flower_model)
from oconform.replay import (DEFAULT_CONFIG, EMPTY_OUTCOME, ReplayConfig,
                             VisibleBindingStep, binding_sequence_context,
                             enabled_model_activities, lazy_entry_exact,
                             replay_context_group, states_for_context)

E5_STATES = frozenset({
    Marking([("pl5", "p1"), ("pl6", "b1"), ("pl6", "b2")]),
    Marking([("pl5", "p1"), ("pl8", "b1"), ("pl6", "b2")]),
    Marking([("pl5", "p1"), ("pl6", "b1"), ("pl8", "b2")]),
    Marking([("pl5", "p1"), ("pl8", "b1"), ("pl8", "b2")]),
})


def test_config_validation():
    with pytest.raises(ValueError, match="max_states"):
        ReplayConfig(max_states=0)
    with pytest.raises(ValueError, match="silent_variable_mode"):
        ReplayConfig(silent_variable_mode="guess")
    with pytest.raises(ValueError, match="subset_cap"):
        ReplayConfig(subset_cap=0)
    assert DEFAULT_CONFIG.max_states == 100_000
    assert EMPTY_OUTCOME.enabled == frozenset() and not EMPTY_OUTCOME.replayed


def test_binding_sequence_of_preset(l1, l1_graph):
    steps = oracles.binding_sequence_of_preset(l1, l1_graph, "e5")
    assert [s.activity for s in steps] == \
        ["Fuel plane", "Check-in", "Check-in", "Load cargo"]
    assert steps[0].objects == (("plane", frozenset({"p1"})),)
    assert steps[3].objects == (("baggage", frozenset({"b1", "b2"})),
                                ("plane", frozenset({"p1"})))
    assert oracles.binding_sequence_of_preset(l1, l1_graph, "e1") == ()


def test_step_for_event(l1):
    step = VisibleBindingStep.for_event(l1.event("e4"))
    assert step.activity == "Load cargo"
    assert dict(step.objects) == {"plane": frozenset({"p1"}),
                                  "baggage": frozenset({"b1", "b2"})}


def test_sequence_context_matches_event_context(l1, l1_graph):
    # the executed ancestor bindings induce exactly the event's context
    for e in l1.events:
        steps = oracles.binding_sequence_of_preset(l1, l1_graph, e.id)
        ctx = binding_sequence_context(
            [(s.activity, dict(s.objects)) for s in steps],
            objects=oracles.preset_objects(l1, l1_graph, e.id))
        assert ctx == context_of_event(l1, l1_graph, e.id)


def test_sequence_context_ignores_silent_steps():
    ctx = binding_sequence_context(
        [("a", {"X": ["x1"]}), (None, {"X": ["x1"]}), ("b", {"X": ["x1"]})])
    assert ctx.multiset("X") == {("a", "b"): 1}


def test_states_for_e5(l1, l1_graph, ocpn1):
    states = states_for_context(ocpn1, l1, l1_graph, "e5")
    assert states == E5_STATES


def test_states_for_e5_match_exhaustive_search(l1, l1_graph, ocpn1):
    targets = {
        "plane": Counter({("Fuel plane", "Load cargo"): 1}),
        "baggage": Counter({("Check-in", "Load cargo"): 2}),
    }
    objects = [ObjectId("p1", "plane"), ObjectId("b1", "baggage"),
               ObjectId("b2", "baggage")]
    oracle = oracles.brute_force_states(ocpn1, objects, targets)
    engine = {m.key() for m in states_for_context(ocpn1, l1, l1_graph, "e5")}
    assert engine == oracle


def test_group_union_covers_both_plane_batches(l1, l1_graph, ocpn1):
    # e5 and e14 share a context; the union replays both object families
    states = states_for_context(ocpn1, l1, l1_graph, ("e5", "e14"))
    assert len(states) == 8
    assert E5_STATES <= states
    objects = {obj for m in states for (_, obj), _ in m.items()}
    assert objects == {"p1", "b1", "b2", "p2", "b3", "b4"}


def test_enabled_activities_per_group(l1, l1_graph, ocpn1):
    # single-event anchors: the replay universe is just that event's
    # own objects plus its ancestors' objects
    expected = {
        "e1": {"Fuel plane"},
        "e2": {"Check-in"},
        "e4": {"Load cargo"},
        "e5": {"Lift off", "Pick up @ dest"},
        "e6": {"Unload", "Pick up @ dest"},
        "e7": {"Clean", "Pick up @ dest"},
    }
    for eid, labels in expected.items():
        outcome = enabled_model_activities(ocpn1, l1, l1_graph, eid)
        assert outcome.enabled == labels, eid
        assert outcome.replayed and not outcome.truncated


def test_unload_group_states(l1, l1_graph, ocpn1):
    states = states_for_context(ocpn1, l1, l1_graph, "e6")
    assert len(states) == 4
    assert all(m.objects_at("pl7") == {"p1"} for m in states)
    bags = sorted(sorted(m.objects_at("pl8")) for m in states)
    assert bags == [[], ["b1"], ["b1", "b2"], ["b2"]]


def test_fully_replayed_tail_state(l1, l1_graph, ocpn1):
    detail = replay_context_group(ocpn1, l1, l1_graph, "e7")
    assert detail.markings == {
        Marking([("pl9", "p1"), ("pl8", "b1"), ("pl8", "b2")])}
    # firing Pick up or Clean still leaves tokens outside final places
    assert detail.reached_final_by_event == {"e7": False}


def test_unknown_event_raises(l1, l1_graph, ocpn1):
    with pytest.raises(LogError, match="unknown event id"):
        replay_context_group(ocpn1, l1, l1_graph, "e99")


def test_truncation_flag(l1, l1_graph, ocpn1):
    outcome = enabled_model_activities(ocpn1, l1, l1_graph, "e7",
                                       ReplayConfig(max_states=1))
    assert outcome.truncated
    assert not outcome.replayed
    assert outcome.enabled == frozenset()


def test_silent_variable_modes_agree_here(l1, l1_graph, ocpn1):
    # the bundled net's silent transition is not variable, so guessing
    # single objects or subsets must not change anything
    for eid in ("e5", "e6", "e7"):
        single = enabled_model_activities(ocpn1, l1, l1_graph, eid)
        subsets = enabled_model_activities(
            ocpn1, l1, l1_graph, eid,
            ReplayConfig(silent_variable_mode="subsets"))
        assert single == subsets


def test_missing_activity_in_preset_blocks_replay():
    log = make_log([
        ("e1", "a", [ObjectId("o1", "case")]),
        ("e2", "X", [ObjectId("o1", "case")]),
        ("e3", "b", [ObjectId("o1", "case")]),
    ])
    graph = build_graph(log)
    net = oracles.chain_net(("a", "b"))
    # e3's history contains X, which no transition carries: unreplayable
    blocked = enabled_model_activities(net, log, graph, "e3")
    assert not blocked.replayed and not blocked.truncated
    assert blocked.enabled == frozenset()
    # e2 itself replays fine; only its own activity is unknown
    own = enabled_model_activities(net, log, graph, "e2")
    assert own.replayed and own.enabled == {"b"}
    assert not own.reached_final


def test_missing_object_type_blocks_replay():
    log = make_log([("e1", "a", [ObjectId("q1", "other")])])
    net = oracles.chain_net(("a", "b"))
    outcome = enabled_model_activities(net, log, build_graph(log), "e1")
    assert outcome == EMPTY_OUTCOME


def test_reached_final_when_own_firing_completes_the_chain():
    log = make_log([
        ("e1", "a", [ObjectId("o1", "case")]),
        ("e2", "b", [ObjectId("o1", "case")]),
    ])
    graph = build_graph(log)
    net = oracles.chain_net(("a", "b"))
    detail = replay_context_group(net, log, graph, ("e1", "e2"))
    assert detail.reached_final_by_event == {"e1": False, "e2": True}
    assert detail.outcome.reached_final


def test_variable_silent_subsets_mode_runs():
    from oconform.ocpn import (AcceptingOCPN, Arc, Place, Transition,
                               initial_marking_for)
    net = AcceptingOCPN(
        object_types=("X",),
        places=(Place("a0", "X", initial=True), Place("a1", "X"),
                Place("a2", "X", final=True)),
        transitions=(Transition("tau"), Transition("t_fin", "finish")),
        arcs=(Arc("a0", "tau", variable=True), Arc("tau", "a1", variable=True),
              Arc("a1", "t_fin", variable=True),
              Arc("t_fin", "a2", variable=True)),
    )
    log = make_log([
        ("e1", "finish", [ObjectId("x1", "X"), ObjectId("x2", "X")]),
    ])
    graph = build_graph(log)
    for mode in ("singleton", "subsets"):
        outcome = enabled_model_activities(
            net, log, graph, "e1", ReplayConfig(silent_variable_mode=mode))
        assert outcome.replayed
        assert outcome.enabled == {"finish"}


def _silent_chain_net(length, final=None):
    """After visible ``a``, ``length`` silent firings in a row; only the
    place after the ``final``-th of them (by default the last) is final."""
    final = length if final is None else final
    places = (Place("s0", "X", initial=True),
              *(Place(f"q{i}", "X", final=i == final) for i in range(length + 1)))
    transitions = (Transition("t_a", "a"),
                   *(Transition(f"tau{i}") for i in range(length)))
    arcs = (Arc("s0", "t_a"), Arc("t_a", "q0"),
            *(a for i in range(length)
              for a in (Arc(f"q{i}", f"tau{i}"), Arc(f"tau{i}", f"q{i + 1}"))))
    return AcceptingOCPN(object_types=("X",), places=places,
                         transitions=transitions, arcs=arcs)


def test_reached_final_search_cut_by_the_budget_is_truncated():
    log = make_log([("e1", "a", [ObjectId("x1", "X")])])
    graph = build_graph(log)
    net = _silent_chain_net(5)
    # the search from the marking after a expands q0 .. q5: six states
    whole = replay_context_group(net, log, graph, "e1", ReplayConfig(max_states=6))
    assert whole.reached_final_by_event == {"e1": True}
    assert whole.outcome.replayed and not whole.outcome.truncated
    cut = replay_context_group(net, log, graph, "e1", ReplayConfig(max_states=5))
    assert cut.reached_final_by_event == {"e1": False}
    assert cut.outcome.replayed and cut.outcome.truncated
    assert cut.outcome.enabled == whole.outcome.enabled == {"a"}
    report = metrics.check(log, net, ReplayConfig(max_states=5))
    assert report.truncated
    assert [(d.reached_final, d.truncated) for d in report.per_event] == \
        [(False, True)]
    assert not metrics.check(log, net, ReplayConfig(max_states=6)).truncated


def test_reached_final_within_the_budget_is_not_truncated():
    log = make_log([("e1", "a", [ObjectId("x1", "X")])])
    graph = build_graph(log)
    net = _silent_chain_net(5, final=1)
    # the search from the marking after a expands q0 and the final q1, then
    # stops at the budget with q2 .. q5 still ahead
    cfg = ReplayConfig(max_states=2)
    detail = replay_context_group(net, log, graph, "e1", cfg)
    assert detail.reached_final_by_event == {"e1": True}
    assert detail.outcome.replayed and not detail.outcome.truncated
    report = metrics.check(log, net, cfg)
    assert not report.truncated
    assert [(d.reached_final, d.truncated) for d in report.per_event] == \
        [(True, False)]


def _two_branch_net(p_final=False):
    """``a`` puts x1 on ``p`` and ``u``; a silent ``tau1`` that reads ``u``
    moves p to p1, so two markings enable ``b``, which takes u to v0.  Two
    silent firings then walk v0 to v2.  Only p1 and v2 are final, and p
    too when ``p_final``; otherwise x1 left on p can never finish."""
    places = (Place("s0", "X", initial=True), Place("p", "X", final=p_final),
              Place("p1", "X", final=True), Place("u", "X"), Place("v0", "X"),
              Place("v1", "X"), Place("v2", "X", final=True))
    transitions = (Transition("t_a", "a"), Transition("t_b", "b"),
                   Transition("tau1"), Transition("tau_v0"), Transition("tau_v1"))
    arcs = (Arc("s0", "t_a"), Arc("t_a", "p"), Arc("t_a", "u"),
            Arc("u", "tau1"), Arc("p", "tau1"), Arc("tau1", "u"),
            Arc("tau1", "p1"), Arc("u", "t_b"), Arc("t_b", "v0"),
            Arc("v0", "tau_v0"), Arc("tau_v0", "v1"),
            Arc("v1", "tau_v1"), Arc("tau_v1", "v2"))
    return AcceptingOCPN(object_types=("X",), places=places,
                         transitions=transitions, arcs=arcs)


def _two_branch_log():
    return make_log([("e1", "a", [ObjectId("x1", "X")]),
                     ("e2", "b", [ObjectId("x1", "X")])])


def test_one_reached_final_search_per_event(monkeypatch):
    log = _two_branch_log()
    graph = build_graph(log)
    net = _two_branch_net(p_final=True)
    calls = []
    search = replay._search

    def spy(net, steps, start, entry, cfg, budget):
        calls.append((len(steps), len(start)))
        return search(net, steps, start, entry, cfg, budget)

    monkeypatch.setattr(replay, "_search", spy)
    detail = replay_context_group(net, log, graph, "e2")
    assert detail.reached_final_by_event == {"e2": True}
    # both fully replayed markings enable b: one search starts from both
    assert len(detail.markings) == 2
    assert calls == [(1, 1), (0, 2)]


def test_reached_final_search_has_one_budget_for_all_fired_markings():
    log = _two_branch_log()
    graph = build_graph(log)
    net = _two_branch_net(p_final=True)
    # after b, each fired marking's silent closure holds three states, and
    # the two closures share none; four states fit the replay (three) and
    # either closure alone, but not both
    cut_cfg = ReplayConfig(max_states=4)
    cut = replay_context_group(net, log, graph, "e2", cut_cfg)
    assert cut.reached_final_by_event == {"e2": False}
    assert cut.outcome.replayed and cut.outcome.truncated
    report = metrics.check(log, net, cut_cfg)
    assert report.truncated
    assert [(d.reached_final, d.truncated) for d in report.per_event] == \
        [(False, False), (False, True)]
    whole_cfg = ReplayConfig(max_states=6)
    whole = replay_context_group(net, log, graph, "e2", whole_cfg)
    assert whole.reached_final_by_event == {"e2": True}
    assert not whole.outcome.truncated
    report = metrics.check(log, net, whole_cfg)
    assert not report.truncated
    assert [d.reached_final for d in report.per_event] == [False, True]


def test_reached_final_search_skips_fired_markings_that_cannot_finish():
    log = _two_branch_log()
    graph = build_graph(log)
    net = _two_branch_net()
    # tau1 puts x1 back on u, so neither u nor p ever finishes
    assert net.finishing_places == {"p1", "v0", "v1", "v2"}
    assert _two_branch_net(p_final=True).finishing_places == \
        {"p", "p1", "v0", "v1", "v2"}
    # x1 left on p after b never finishes, so only the other fired
    # marking's three-state closure is searched, and it fits four states
    cfg = ReplayConfig(max_states=4)
    detail = replay_context_group(net, log, graph, "e2", cfg)
    assert detail.reached_final_by_event == {"e2": True}
    assert detail.outcome.replayed and not detail.outcome.truncated
    report = metrics.check(log, net, cfg)
    assert not report.truncated
    assert [(d.reached_final, d.truncated) for d in report.per_event] == \
        [(False, False), (True, False)]


def test_fully_replayed_markings_come_in_discovery_order(l1, l1_graph, ocpn1):
    # after Load cargo the silent transition moves one bag at a time from
    # pl6 to pl8; the search meets b1's move before b2's
    steps = oracles.binding_sequence_of_preset(l1, l1_graph, "e5")
    objects = oracles.preset_objects(l1, l1_graph, "e5")
    both, moved_b1, moved_b2, moved_both = (
        Marking([("pl5", "p1"), ("pl6", "b1"), ("pl6", "b2")]),
        Marking([("pl5", "p1"), ("pl8", "b1"), ("pl6", "b2")]),
        Marking([("pl5", "p1"), ("pl6", "b1"), ("pl8", "b2")]),
        Marking([("pl5", "p1"), ("pl8", "b1"), ("pl8", "b2")]))
    single = oracles.eager_replay(ocpn1, steps, objects, DEFAULT_CONFIG)
    assert single.markings == (both, moved_b1, moved_b2, moved_both)
    flipped = oracles.eager_replay(ocpn1, steps, objects,
                                   ReplayConfig(reverse_successors=True))
    assert flipped.markings == (both, moved_b2, moved_b1, moved_both)


def _fork_net():
    """Visible ``b`` moves x1 from ``u`` to the final ``f``.  A token on
    ``c0`` needs two silent firings to reach the final ``c2``, one on
    ``e0`` a single firing to reach the final ``e1``."""
    places = (Place("u", "X", initial=True), Place("f", "X", final=True),
              Place("c0", "X"), Place("c1", "X"), Place("c2", "X", final=True),
              Place("e0", "X"), Place("e1", "X", final=True))
    transitions = (Transition("t_b", "b"), Transition("tau_c0"),
                   Transition("tau_c1"), Transition("tau_e0"))
    arcs = (Arc("u", "t_b"), Arc("t_b", "f"),
            Arc("c0", "tau_c0"), Arc("tau_c0", "c1"),
            Arc("c1", "tau_c1"), Arc("tau_c1", "c2"),
            Arc("e0", "tau_e0"), Arc("tau_e0", "e1"))
    return AcceptingOCPN(object_types=("X",), places=places,
                         transitions=transitions, arcs=arcs)


def test_reached_final_budget_cut_follows_the_order_of_the_markings():
    net = _fork_net()
    far = Marking([("u", "x1"), ("c0", "x1")])
    near = Marking([("u", "x1"), ("e0", "x1")])
    own = replay._firing(net, VisibleBindingStep("b", (("X", frozenset({"x1"})),)))
    # three states: both fired markings, then the first one's successor;
    # a search that finds a final marking may still be cut, and
    # replay_context_group counts a cut only when no final marking was found
    cut = ReplayConfig(max_states=3)
    assert replay._reaches_final(net, (far, near), own, cut) == (False, True)
    assert replay._reaches_final(net, (near, far), own, cut) == (True, True)
    # four states find the final marking in either order, before c0's
    # token reaches c2
    whole = ReplayConfig(max_states=4)
    for markings in ((far, near), (near, far)):
        assert replay._reaches_final(net, markings, own, whole) == (True, True)


def test_each_distinct_step_firing_is_built_once_per_check(monkeypatch):
    log = invariants.chained_airport_log()
    calls = Counter()
    firing = replay._firing

    def spy(net, step):
        calls[step] += 1
        return firing(net, step)

    monkeypatch.setattr(replay, "_firing", spy)
    report = metrics.check(log, flower_model(log))
    assert not report.truncated
    assert calls and set(calls.values()) == {1}


def _bench_disjoint_log():
    """A log as the benchmark's disjoint workloads generate it: interleaved
    flights with their own planes and one to three bags each."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclass looks its module up
    spec.loader.exec_module(gen)
    return parse_log(gen.generate(5, 108).data)


def _engine_logs(ocpn1):
    disjoint = _bench_disjoint_log()
    chained = invariants.chained_airport_log()
    return [(disjoint, ocpn1), (chained, ocpn1), (chained, flower_model(chained))]


def test_no_step_is_built_twice_per_check(monkeypatch, ocpn1):
    # an event's own step is built once, from the graph's numbers, and
    # the events resuming from its frontier open with it; a step is built
    # again only in the other names of a later event's rest of the preset
    def no_for_event(cls, event):
        raise AssertionError("check builds steps from the graph's numbers")

    monkeypatch.setattr(VisibleBindingStep, "for_event", classmethod(no_for_event))
    sequence = replay._sequence
    for log, net in _engine_logs(ocpn1):
        built = Counter()

        def spy(log, graph, position, base, lazy, canonical):
            names, steps, own, entering = sequence(log, graph, position, base, lazy,
                                                   canonical)
            start, _, _, opening = base
            positions = [*graph.preset_positions(log.events[position].id, start),
                         position]
            built.update(zip(positions, [*steps[len(opening):], own], strict=True))
            return names, steps, own, entering

        monkeypatch.setattr(replay, "_sequence", spy)
        report = metrics.check(log, net)
        assert not report.truncated
        assert {position for position, _ in built} == set(range(len(log.events)))
        assert set(built.values()) == {1}


def test_replay_neither_hashes_nor_orders_object_ids(monkeypatch, ocpn1):
    calls = Counter()
    inside = []

    def spied(name):
        method = getattr(ObjectId, name)

        def spy(self, *other):
            if inside:
                calls[name] += 1
            return method(self, *other)
        return spy

    for name in ("__hash__", "__lt__"):
        monkeypatch.setattr(ObjectId, name, spied(name))
    replay_group = metrics.replay_context_group

    def in_replay(*args):
        inside.append(True)
        try:
            return replay_group(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(metrics, "replay_context_group", in_replay)
    inside.append(True)
    assert sorted({ObjectId("b", "t"), ObjectId("a", "t")})[0].id == "a"
    inside.pop()
    assert calls["__hash__"] == 2 and calls["__lt__"] >= 1  # the spies count
    calls.clear()
    for log, net in _engine_logs(ocpn1):
        report = metrics.check(log, net)
        assert not report.truncated
        assert calls == Counter()

    class CountedId(str):
        """An object id that counts being hashed or ordered in replay."""

        def __hash__(self):
            if inside:
                calls["id.__hash__"] += 1
            return str.__hash__(self)

        def __lt__(self, other):
            if inside:
                calls["id.__lt__"] += 1
            return str.__lt__(self, other)

    inside.append(True)
    assert CountedId("a") < CountedId("b") and hash(CountedId("a")) == hash("a")
    inside.pop()
    assert calls == Counter({"id.__hash__": 1, "id.__lt__": 1})  # the spies count
    calls.clear()
    # a cut search runs again outside its class, and still by number
    for log, net in _engine_logs(ocpn1):
        counted = make_log([(e.id, e.activity,
                             [ObjectId(CountedId(o.id), o.otype) for o in e.omap])
                            for e in log.events])
        report = metrics.check(counted, net, ReplayConfig(max_states=4))
        assert report.truncated
        assert calls == Counter()


def _search_calls(monkeypatch) -> list[int]:
    """Spy on replay._search: the number of steps of each search."""
    calls = []
    search = replay._search

    def spy(net, steps, start, entry, cfg, budget):
        calls.append(len(steps))
        return search(net, steps, start, entry, cfg, budget)

    monkeypatch.setattr(replay, "_search", spy)
    return calls


def _replay_classes(log) -> int:
    """Events by their preset's binding sequence and their own objects, up
    to renaming objects: each object is numbered by its first step."""
    graph = build_graph(log)
    classes = set()
    for e in log.events:
        names: dict[ObjectId, int] = {}
        sequence = []
        for event in [*(log.events[i] for i in graph.preset_positions(e.id)), e]:
            for o in sorted(event.omap - names.keys()):
                names[o] = len(names)
            sequence.append((event.activity,
                             frozenset((o.otype, names[o]) for o in event.omap)))
        classes.add((tuple(sequence[:-1]), sequence[-1][1]))
    return len(classes)


def test_one_search_per_replay_class_per_check(monkeypatch, ocpn1):
    # events whose binding sequences are the same up to renaming objects,
    # e.g. the Pick ups of two bags after one Unload, or the same step of
    # two flights of one shape, share a search; on the reference net the
    # finishing places are the final places, so every search is a replay
    log = invariants.chained_airport_log()
    graph = build_graph(log)
    twins = {(tuple(graph.preset_positions(e.id)),
              oracles.preset_objects(log, graph, e.id)) for e in log.events}
    assert 0 < len(twins) < len(log.events)
    calls = _search_calls(monkeypatch)
    report = metrics.check(log, ocpn1)
    assert not report.truncated
    assert len(calls) <= _replay_classes(log)
    assert len(calls) < len(twins)


@pytest.mark.parametrize("log, searches", [(invariants.chained_airport_log(), 117),
                                           (invariants.disjoint_airport_log(4), 18)],
                         ids=["chained", "disjoint"])
def test_twins_in_a_cut_class_share_one_search_by_number(monkeypatch, ocpn1,
                                                          log, searches):
    # a cut class's members are searched again by graph number; members
    # with the same preset and objects run the same search, so it runs
    # once per group, and no group runs any search twice
    runs: list[list[tuple]] = []
    search = replay._search

    def spy(net, steps, start, entry, cfg, budget):
        runs[-1].append((tuple(steps), tuple(start), tuple(sorted(entry.items())),
                         budget))
        return search(net, steps, start, entry, cfg, budget)

    replay_group = metrics.replay_context_group

    def in_group(*args):
        runs.append([])
        return replay_group(*args)

    monkeypatch.setattr(replay, "_search", spy)
    monkeypatch.setattr(metrics, "replay_context_group", in_group)
    report = metrics.check(log, ocpn1, ReplayConfig(max_states=4))
    assert report.truncated
    graph = build_graph(log)
    cut_twins = Counter((tuple(graph.preset_positions(d.event_id)),
                         oracles.preset_objects(log, graph, d.event_id))
                        for d in report.per_event if d.truncated)
    assert max(cut_twins.values()) > 1
    assert all(len(set(run)) == len(run) for run in runs)
    assert sum(map(len, runs)) == searches


def test_flights_of_one_shape_share_their_searches(monkeypatch, ocpn1):
    # flights that differ only in their objects' names run the searches
    # of one flight, however many there are
    one = invariants.disjoint_airport_log(1)
    en_model = [d.en_model for d in metrics.check(one, ocpn1).per_event]
    calls = _search_calls(monkeypatch)
    counts = []
    for flights in (2, 8):
        log = invariants.disjoint_airport_log(flights)
        assert _replay_classes(log) == _replay_classes(one)
        calls.clear()
        report = metrics.check(log, ocpn1)
        counts.append(len(calls))
        assert not report.truncated
        assert [d.en_model for d in report.per_event] == en_model * flights
    assert counts[0] == counts[1] > 0


def _silent_net(tau_arcs):
    places = (Place("x0", "X", initial=True), Place("x1", "X"),
              Place("x2", "X", final=True), Place("y0", "Y", initial=True),
              Place("y1", "Y", final=True))
    return AcceptingOCPN(
        object_types=("X", "Y"), places=places,
        transitions=(Transition("t_a", "a"), Transition("tau")),
        arcs=(Arc("x0", "t_a"), Arc("t_a", "x1"), Arc("y0", "t_a"),
              Arc("t_a", "y1"), *tau_arcs))


def test_lazy_entry_exact_on_bundled_and_flower_nets(l1, ocpn1):
    assert lazy_entry_exact(ocpn1)
    assert lazy_entry_exact(flower_model(l1))
    assert lazy_entry_exact(_silent_net((Arc("x1", "tau"), Arc("tau", "x2"))))


def test_lazy_entry_not_exact_when_silent_reads_an_initial_place():
    assert not lazy_entry_exact(_silent_net(
        (Arc("x1", "tau"), Arc("x0", "tau"), Arc("tau", "x2"))))


def test_lazy_entry_not_exact_for_silent_output_only_type():
    assert not lazy_entry_exact(_silent_net(
        (Arc("x1", "tau"), Arc("tau", "x2"), Arc("tau", "y1"))))


def test_frontier_memo_is_empty_after_check(monkeypatch):
    log = invariants.chained_airport_log()
    memos, sizes = [], []
    replay = metrics.replay_context_group

    def spy(net, log, graph, events, cfg, memo):
        memos.append(memo)
        detail = replay(net, log, graph, events, cfg, memo)
        sizes.append(len(memo))
        return detail

    monkeypatch.setattr(metrics, "replay_context_group", spy)
    metrics.check(log, flower_model(log))
    memo = memos[0]
    assert memo.lazy and all(m is memo for m in memos)
    assert max(sizes) > 0
    assert len(memo) == 0
