from collections import Counter

import pytest

import invariants
import oracles
from oconform import context, metrics, ocpn, replay
from oconform.context import (EventObjectGraph, build_graph, context_of_event,
                               group_by_context)
from oconform.fixtures import load_l1
from oconform.ocel import LogError, ObjectId, make_log
from oconform.ocpn import (AcceptingOCPN, Arc, Marking, Place, Transition,
                           flower_model)
from oconform.replay import (DEFAULT_CONFIG, ReplayConfig, ReplayOutcome,
                             VisibleBindingStep, lazy_entry_exact,
                             replay_context_group, replay_log)

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


@pytest.mark.parametrize("name, value", [
    ("max_states", 2.5), ("max_states", True), ("max_states", "10"),
    ("subset_cap", 2.5), ("subset_cap", 3.0), ("subset_cap", True)])
def test_config_budgets_must_be_integers(name, value):
    # a float cap would reach the report as 2.5 and fail later in
    # enumerate_bindings' range(); a bool would render as true
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        ReplayConfig(**{name: value}, silent_variable_mode="subsets")


@pytest.mark.parametrize("name, value", [
    ("explore_silent_when_enabled", "no"), ("explore_silent_when_enabled", 1),
    ("reverse_successors", 0), ("reverse_successors", None)])
def test_config_flags_must_be_booleans(name, value):
    # "no" is truthy: it would switch the search on and reach the report
    # as "no"
    with pytest.raises(ValueError, match=f"^{name} must be a boolean, not {value!r}$"):
        ReplayConfig(**{name: value})


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
        ctx = oracles.binding_sequence_context(
            [(s.activity, dict(s.objects)) for s in steps],
            objects=oracles.preset_objects(l1, l1_graph, e.id))
        assert ctx == context_of_event(l1, l1_graph, e.id)


def test_sequence_context_ignores_silent_steps():
    ctx = oracles.binding_sequence_context(
        [("a", {"X": ["x1"]}), (None, {"X": ["x1"]}), ("b", {"X": ["x1"]})])
    assert ctx.multiset("X") == {("a", "b"): 1}


def test_states_for_e5(l1, l1_graph, ocpn1):
    states = replay_context_group(ocpn1, l1, l1_graph, "e5").markings
    assert states == E5_STATES


def test_states_for_e5_match_exhaustive_search(l1, l1_graph, ocpn1):
    targets = {
        "plane": Counter({("Fuel plane", "Load cargo"): 1}),
        "baggage": Counter({("Check-in", "Load cargo"): 2}),
    }
    objects = [ObjectId("p1", "plane"), ObjectId("b1", "baggage"),
               ObjectId("b2", "baggage")]
    oracle = oracles.brute_force_states(ocpn1, objects, targets)
    states = replay_context_group(ocpn1, l1, l1_graph, "e5").markings
    engine = {m.key() for m in states}
    assert engine == oracle


def test_group_union_covers_both_plane_batches(l1, l1_graph, ocpn1):
    # e5 and e14 share a context; the union replays both object families
    states = replay_context_group(ocpn1, l1, l1_graph, ("e5", "e14")).markings
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
        outcome = replay_context_group(ocpn1, l1, l1_graph, eid).outcome
        assert outcome.enabled == labels, eid
        assert outcome.replayed and not outcome.truncated


def test_unload_group_states(l1, l1_graph, ocpn1):
    states = replay_context_group(ocpn1, l1, l1_graph, "e6").markings
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


def test_unknown_event_raises_through_a_memo(l1, l1_graph, ocpn1):
    memo = replay_log(ocpn1, l1, l1_graph, DEFAULT_CONFIG)
    with pytest.raises(LogError, match="unknown event id"):
        replay_context_group(ocpn1, l1, l1_graph, ["e99"], DEFAULT_CONFIG, memo)
    # also after a known member has taken its result off the memo
    with pytest.raises(LogError, match="unknown event id"):
        replay_context_group(ocpn1, l1, l1_graph, ["e1", "e99"], DEFAULT_CONFIG, memo)


def test_truncation_flag(l1, l1_graph, ocpn1):
    outcome = replay_context_group(ocpn1, l1, l1_graph, "e7",
                                   ReplayConfig(max_states=1)).outcome
    assert outcome.truncated
    assert not outcome.replayed
    assert outcome.enabled == frozenset()


def test_silent_variable_modes_agree_here(l1, l1_graph, ocpn1):
    # the bundled net's silent transition is not variable, so guessing
    # single objects or subsets must not change anything
    for eid in ("e5", "e6", "e7"):
        single = replay_context_group(ocpn1, l1, l1_graph, eid).outcome
        subsets = replay_context_group(
            ocpn1, l1, l1_graph, eid,
            ReplayConfig(silent_variable_mode="subsets")).outcome
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
    blocked = replay_context_group(net, log, graph, "e3").outcome
    assert not blocked.replayed and not blocked.truncated
    assert blocked.enabled == frozenset()
    # e2 itself replays fine; only its own activity is unknown
    own = replay_context_group(net, log, graph, "e2").outcome
    assert own.replayed and own.enabled == {"b"}
    assert not own.reached_final


def test_missing_object_type_blocks_replay():
    log = make_log([("e1", "a", [ObjectId("q1", "other")])])
    net = oracles.chain_net(("a", "b"))
    outcome = replay_context_group(net, log, build_graph(log), "e1").outcome
    assert outcome == ReplayOutcome(frozenset(), False, False, False)


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
        outcome = replay_context_group(
            net, log, graph, "e1", ReplayConfig(silent_variable_mode=mode)).outcome
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


@pytest.mark.parametrize("events, firings", [(224, 18), (112, 14)])
def test_own_firings_per_check_skip_markings_that_cannot_finish(monkeypatch, ocpn1,
                                                                 events, firings):
    # a token on a place that neither finishes nor feeds the event's own
    # binding stays there when the binding fires, so reached_final fires
    # no such marking: on the silent-bags logs 18 and 14 own firings per
    # check, where firing first and testing after took 584 and 418
    log = invariants.bench_log(5, events, bags=(3, 4, 5, 6))
    inside: list[str] = []
    count = Counter()
    fire = replay._fire

    def within(name):
        function = getattr(replay, name)

        def spy(*args):
            inside.append(name)
            try:
                return function(*args)
            finally:
                inside.pop()
        return spy

    def spy_fire(*args):
        count["own"] += inside[-1:] == ["_reaches_final"]
        return fire(*args)

    for name in ("_reaches_final", "_search"):
        monkeypatch.setattr(replay, name, within(name))
    monkeypatch.setattr(replay, "_fire", spy_fire)
    report = metrics.check(log, ocpn1)
    assert not report.truncated
    assert count["own"] == firings


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


@pytest.mark.parametrize("build_log, reference, searches, firings", [
    (lambda: invariants.bench_log(5, 1512), True, 17, 18),
    (lambda: invariants.bench_log(5, 486, shared_planes=3), False, 269, 178),
    (lambda: invariants.bench_log(5, 224, bags=(3, 4, 5, 6)), True, 26, 31),
], ids=["disjoint-ref", "chained-flower", "silent-bags"])
def test_searches_and_firings_per_check_on_bench_logs(monkeypatch, ocpn1, build_log,
                                                      reference, searches, firings):
    # the memo keys a firing by the compact step alone, whose names say
    # their types: steps that differ in a name's type must not share it,
    # and steps that differ in nothing else must
    log = build_log()
    net = ocpn1 if reference else flower_model(log)
    calls = Counter()
    search, firing = replay._search, replay._firing

    def spy_search(*args):
        calls["searches"] += 1
        return search(*args)

    def spy_firing(*args):
        calls["firings"] += 1
        return firing(*args)

    monkeypatch.setattr(replay, "_search", spy_search)
    monkeypatch.setattr(replay, "_firing", spy_firing)
    report = metrics.check(log, net)
    assert not report.truncated
    assert calls == {"searches": searches, "firings": firings}


@pytest.mark.parametrize("build_log, reference, walks", [
    (lambda: invariants.bench_log(5, 1512), True, 504),
    (lambda: invariants.bench_log(5, 486, shared_planes=3), False, 170),
    (lambda: invariants.bench_log(5, 224, bags=(3, 4, 5, 6)), True, 88),
], ids=["disjoint-ref", "chained-flower", "silent-bags"])
def test_preset_walks_per_check_on_bench_logs(monkeypatch, ocpn1, build_log,
                                              reference, walks):
    # no ancestor lies past an event's latest direct predecessor, so the
    # graph walks the rest of a preset only from a start at or before it,
    # and such a walk finds that predecessor at least; most events resume
    # from it, and their walks stop at once
    log = build_log()
    net = ocpn1 if reference else flower_model(log)
    found = []
    walk = EventObjectGraph._preset_positions

    def spy(graph, position, start=0):
        positions = walk(graph, position, start)
        if start <= max(graph._direct[position], default=-1):
            found.append(positions)
        return positions

    monkeypatch.setattr(EventObjectGraph, "_preset_positions", spy)
    report = metrics.check(log, net)
    assert not report.truncated
    assert 0 < len(found) <= walks
    assert all(found)


def _bench_disjoint_log(events=108):
    """A log as the benchmark's disjoint workloads generate it: interleaved
    flights with their own planes and one to three bags each."""
    return invariants.bench_log(5, events)


def _engine_logs(ocpn1):
    disjoint = _bench_disjoint_log()
    chained = invariants.chained_airport_log()
    return [(disjoint, ocpn1), (chained, ocpn1), (chained, flower_model(chained))]


def test_no_step_is_built_twice_per_check(monkeypatch, ocpn1):
    # an event's own compact step is built once, from the graph's numbers,
    # and the events resuming from its frontier open with it; a step is
    # built again only in the other names of a later event's rest of the
    # preset; an event whose execution repeats an earlier one takes its
    # counterpart's result and builds no step
    def no_for_event(cls, event):
        raise AssertionError("check builds steps from the graph's numbers")

    monkeypatch.setattr(VisibleBindingStep, "for_event", classmethod(no_for_event))
    sequence, build = replay._sequence, metrics.build_graph
    copied: set[int] = set()

    def spy_build(log):
        graph = build(log)
        copied.update(p for _, positions, _ in graph._repeats for p in positions)
        return graph

    monkeypatch.setattr(metrics, "build_graph", spy_build)
    counts = []
    for log, net in _engine_logs(ocpn1):
        built = Counter()
        copied.clear()

        def spy(memo, position, base, canonical):
            names, steps, own, entering = sequence(memo, position, base, canonical)
            # steps open with the base's own step, built for the base
            resumed = base is not None
            eid = memo.log.events[position].id
            positions = [*memo.graph.preset_positions(eid, base + 1 if resumed else 0),
                         position]
            built.update(zip(positions, [*steps[resumed:], own], strict=True))
            return names, steps, own, entering

        monkeypatch.setattr(replay, "_sequence", spy)
        report = metrics.check(log, net)
        assert not report.truncated
        assert {position for position, _ in built} == \
            set(range(len(log.events))) - copied
        assert set(built.values()) == {1}
        counts.append(len(copied))
    assert counts == [41, 0, 0]  # of 108, 100 and 100 events


def test_steps_are_expanded_per_searched_class_not_per_event(monkeypatch, ocpn1):
    # nearly every flight repeats a replay class already searched; a
    # VisibleBindingStep is built only for a class's search or for a
    # missing reached_final answer, and never for an event whose class
    # and answer are known
    log = _bench_disjoint_log(1512)
    counts = Counter()
    new, search, reaches_final = (VisibleBindingStep.__new__, replay._search,
                                  replay._reaches_final)

    def counted_new(cls, *args):
        counts["built"] += 1
        return new(cls, *args)

    def counted_search(net, steps, *args):
        counts["searched steps"] += len(steps)
        return search(net, steps, *args)

    def counted_final(*args):
        counts["final searches"] += 1
        return reaches_final(*args)

    monkeypatch.setattr(VisibleBindingStep, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(replay, "_search", counted_search)
    monkeypatch.setattr(replay, "_reaches_final", counted_final)
    report = metrics.check(log, ocpn1)
    assert not report.truncated and report.fitness == 1
    assert counts["built"] <= counts["searched steps"] + counts["final searches"]
    # the bound is the classes', not the events'
    assert counts["searched steps"] + counts["final searches"] < len(log.events) // 10


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
    # once per pass, or per group, and neither the pass nor any group
    # runs any search twice
    runs: list[list[tuple]] = []
    search = replay._search

    def spy(net, steps, start, entry, cfg, budget):
        runs[-1].append((tuple(steps), tuple(start), tuple(sorted(entry.items())),
                         budget))
        return search(net, steps, start, entry, cfg, budget)

    def own_run(function):
        def in_run(*args):
            runs.append([])
            return function(*args)
        return in_run

    monkeypatch.setattr(replay, "_search", spy)
    monkeypatch.setattr(metrics, "replay_log", own_run(metrics.replay_log))
    monkeypatch.setattr(metrics, "replay_context_group",
                        own_run(metrics.replay_context_group))
    report = metrics.check(log, ocpn1, ReplayConfig(max_states=4))
    assert report.truncated
    graph = build_graph(log)
    assert len(runs) == 1 + len(graph.members) and runs[0]
    cut_twins = Counter((tuple(graph.preset_positions(d.event_id)),
                         oracles.preset_objects(log, graph, d.event_id))
                        for d in report.per_event if d.truncated)
    assert max(cut_twins.values()) > 1
    assert all(len(set(run)) == len(run) for run in runs)
    assert sum(map(len, runs)) == searches


def test_flights_of_one_shape_share_their_searches(monkeypatch, ocpn1):
    # flights that differ only in their objects' names run the searches
    # of one flight, however many there are; as repeated executions, the
    # later flights are not even replayed: they read the first's results
    one = invariants.disjoint_airport_log(1)
    en_model = [d.en_model for d in metrics.check(one, ocpn1).per_event]
    calls = _search_calls(monkeypatch)
    replayed = _replayed_events(monkeypatch)
    counts = []
    for flights in (2, 8):
        log = invariants.disjoint_airport_log(flights)
        assert _replay_classes(log) == _replay_classes(one)
        calls.clear()
        replayed.clear()
        report = metrics.check(log, ocpn1)
        counts.append(len(calls))
        assert replayed == list(range(len(one.events)))
        assert not report.truncated
        assert [d.en_model for d in report.per_event] == en_model * flights
    assert counts[0] == counts[1] > 0


def test_each_distinct_state_is_renamed_once_per_group(monkeypatch, ocpn1):
    # members that share a class result and the real ids of its names
    # give the same markings, so each is renamed once: on the silent-bags
    # explain log, 556 renamings for 556 states, not 1,064
    log = invariants.bench_log(5, 112, bags=(3, 4, 5, 6))
    graph = build_graph(log)
    calls = []
    renamed = Marking.renamed

    def spy(self, real):
        calls.append(self)
        return renamed(self, real)

    monkeypatch.setattr(Marking, "renamed", spy)
    counts = {}
    for members in graph.members:
        calls.clear()
        states = replay_context_group(ocpn1, log, graph, members).markings
        assert len(calls) == len(states), members
        counts[members] = len(calls)
    assert sum(counts.values()) == 556
    assert [n for members, n in counts.items() if "e36" in members] == [128]


@pytest.mark.parametrize("build_log, reference, computed, reads", [
    (lambda: invariants.bench_log(5, 486, shared_planes=3), False, 56, 269),
    (invariants.chained_airport_log, False, 14, 60),
    (lambda: invariants.bench_log(5, 224, bags=(3, 4, 5, 6)), True, 284, 284),
], ids=["chained-bench", "chained-airport", "silent-bags"])
def test_labels_are_computed_once_per_replayed_marking(monkeypatch, ocpn1, build_log,
                                                       reference, computed, reads):
    # on chained logs against their flower net, self-loop firings return
    # the marking they fire from and a frontier hands its markings to
    # every group resuming there, so the labels are read off the memo;
    # on the chained bench log every event resumes from its own prefix
    # predecessor, so two events share its frontier's markings; the
    # silent-bags log against the reference net reads each once
    log = build_log()
    net = ocpn1 if reference else flower_model(log)
    calls = Counter()
    candidates, labels = ocpn._candidate_objects, replay.enabled_visible_labels

    def spy_candidates(*args):
        calls["candidates"] += 1
        return candidates(*args)

    def spy_labels(*args):
        before = calls["candidates"]
        out = labels(*args)
        calls["reads"] += 1
        calls["computed"] += calls["candidates"] > before
        return out

    monkeypatch.setattr(ocpn, "_candidate_objects", spy_candidates)
    monkeypatch.setattr(replay, "enabled_visible_labels", spy_labels)
    metrics.check(log, net)
    assert (calls["computed"], calls["reads"]) == (computed, reads)


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


def test_check_replays_every_event_once_before_its_first_group_call(monkeypatch):
    # check runs one pass, which replays every event before the first
    # group's call, most from the frontier in an earlier event's result;
    # it hands the pass's memo to every group's call, and each result is
    # taken once, so none is left after check
    log = invariants.chained_airport_log()
    passes, memos, replayed, resumed, held = [], [], [], [], []
    replay_pass = metrics.replay_log
    replay_group, replay_event = metrics.replay_context_group, replay._replay_event

    def spy_pass(*args):
        passes.append(replay_pass(*args))
        return passes[-1]

    def spy(net, log, graph, events, cfg, memo):
        if not memos:
            held.extend(sorted(memo._results))
        memos.append(memo)
        return replay_group(net, log, graph, events, cfg, memo)

    def spy_replay_event(memo, position, base):
        replayed.append(len(memos))
        resumed.append(base is not None)
        return replay_event(memo, position, base)

    monkeypatch.setattr(metrics, "replay_log", spy_pass)
    monkeypatch.setattr(metrics, "replay_context_group", spy)
    monkeypatch.setattr(replay, "_replay_event", spy_replay_event)
    metrics.check(log, flower_model(log))
    (memo,) = passes
    assert memo.lazy and all(m is memo for m in memos) and len(memos) > 1
    assert replayed == [0] * len(log.events)
    assert held == list(range(len(log.events)))
    assert sum(resumed) > len(log.events) // 2
    assert not memo._results
    assert all(memo._results.pop(position, None) is None
               for position in range(len(log.events)))


def _shared_planes_log():
    # 150 events whose flights share 3 planes: later presets resume from
    # the frontiers of earlier events
    return invariants.bench_log(5, 150, shared_planes=3)


def test_memo_filled_under_one_config_rejects_another(ocpn1):
    # the frontiers hold searches under the memo's budget; resumed under
    # max_states=5, group e81, e82 came out not truncated, where its
    # replay without a memo is cut
    log = _shared_planes_log()
    graph = build_graph(log)
    groups = list(group_by_context(log, graph).values())
    memo = replay_log(ocpn1, log, graph, DEFAULT_CONFIG)
    assert sorted(memo._results) == list(range(len(log.events)))
    for members in groups[:44]:
        replay_context_group(ocpn1, log, graph, members, DEFAULT_CONFIG, memo)
    members, small = groups[44], ReplayConfig(max_states=5)
    assert list(members) == ["e81", "e82"]
    assert replay_context_group(ocpn1, log, graph, members, small).outcome.truncated
    with pytest.raises(ValueError, match="another net, log, graph or config"):
        replay_context_group(ocpn1, log, graph, members, small, memo)
    # an equal config is the memo's config
    detail = replay_context_group(ocpn1, log, graph, members, ReplayConfig(), memo)
    assert detail == replay_context_group(ocpn1, log, graph, members)


def test_memo_serves_only_its_own_net_log_and_graph(l1, ocpn1):
    graph = build_graph(l1)
    memo = replay_log(ocpn1, l1, graph, DEFAULT_CONFIG)
    assert sorted(memo._results) == list(range(len(l1.events)))
    # equal copies are others: the memo holds the objects it was built for
    for net, log, other_graph in ((flower_model(l1), l1, graph),
                                  (ocpn1, load_l1(), graph),
                                  (ocpn1, l1, build_graph(l1))):
        with pytest.raises(ValueError, match="another net, log, graph or config"):
            replay_context_group(net, log, other_graph, "e5", DEFAULT_CONFIG, memo)
    assert replay_context_group(ocpn1, l1, graph, "e5", DEFAULT_CONFIG, memo) == \
        replay_context_group(ocpn1, l1, graph, "e5")


def test_check_under_a_small_budget_equals_replay_without_a_memo(ocpn1):
    log = _shared_planes_log()
    cfg = ReplayConfig(max_states=5)
    by_id = {d.event_id: d for d in metrics.check(log, ocpn1, cfg).per_event}
    graph = build_graph(log)
    groups = group_by_context(log, graph).values()
    for members in groups:
        detail = replay_context_group(ocpn1, log, graph, members, cfg)
        enabled = tuple(sorted(detail.outcome.enabled))
        for eid in members:
            d = by_id[eid]
            assert (d.en_model, d.replayable, d.reached_final, d.truncated) == \
                (enabled, bool(enabled), detail.reached_final_by_event[eid],
                 detail.outcome.truncated), eid
    assert by_id["e81"].truncated and by_id["e82"].truncated
    assert len(groups) == 89


@pytest.mark.parametrize("build_log, reference", [
    (lambda: invariants.bench_log(5, 1512), True),
    (lambda: invariants.bench_log(5, 486, shared_planes=3), False),
    (lambda: invariants.bench_log(5, 224, bags=(3, 4, 5, 6)), True),
], ids=["disjoint-ref", "chained-flower", "silent-bags"])
def test_check_equals_replay_without_a_memo_on_bench_logs(ocpn1, build_log, reference):
    # check resumes each event from its prefix predecessor's frontier, in
    # log order; memo-less replay searches every preset from the start
    log = build_log()
    net = ocpn1 if reference else flower_model(log)
    report = metrics.check(log, net)
    assert not report.truncated
    by_id = {d.event_id: d for d in report.per_event}
    graph = build_graph(log)
    for members in graph.members:
        detail = replay_context_group(net, log, graph, members)
        enabled = tuple(sorted(detail.outcome.enabled))
        for eid in members:
            d = by_id[eid]
            assert (d.en_model, d.replayable, d.reached_final, d.truncated) == \
                (enabled, bool(enabled), detail.reached_final_by_event[eid],
                 detail.outcome.truncated), eid


@pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, ReplayConfig(max_states=5)],
                         ids=["default", "cut"])
def test_check_replays_each_event_once_in_log_order(monkeypatch, ocpn1, cfg):
    # one canonical preset search per event, in ascending log position,
    # and a search by graph number exactly for the events whose canonical
    # search, or the reached_final search behind it, was cut
    log = _shared_planes_log()
    calls: list[tuple[int, bool]] = []
    cut: set[int] = set()
    sequence, preset_search, final = replay._sequence, replay._preset_search, replay._final

    def spy_sequence(memo, position, base, canonical):
        calls.append((position, canonical))
        return sequence(memo, position, base, canonical)

    def spy_preset_search(memo, position, base, canonical):
        found = preset_search(memo, position, base, canonical)
        if canonical and found[0].truncated:
            cut.add(position)
        return found

    def spy_final(memo, single, own):
        answer = final(memo, single, own)
        position, canonical = calls[-1]
        if canonical and answer[1]:
            cut.add(position)
        return answer

    monkeypatch.setattr(replay, "_sequence", spy_sequence)
    monkeypatch.setattr(replay, "_preset_search", spy_preset_search)
    monkeypatch.setattr(replay, "_final", spy_final)
    report = metrics.check(log, ocpn1, cfg)
    assert [p for p, canonical in calls if canonical] == list(range(len(log.events)))
    assert [p for p, canonical in calls if not canonical] == sorted(cut)
    assert bool(cut) == report.truncated == (cfg.max_states == 5)


def _replayed_events(monkeypatch) -> list[int]:
    """Spy on replay._replay_event: the log position of each event replayed."""
    calls = []
    replay_event = replay._replay_event

    def spy(memo, position, base):
        calls.append(position)
        return replay_event(memo, position, base)

    monkeypatch.setattr(replay, "_replay_event", spy)
    return calls


@pytest.mark.parametrize("build_log, reference, max_states, served, grouped", [
    (lambda: invariants.bench_log(5, 1512), True, None, 1293, 1293),
    (lambda: invariants.bench_log(5, 756), True, None, 570, 570),
    (lambda: invariants.bench_log(5, 486, shared_planes=3), False, None, 0, 0),
    (lambda: invariants.bench_log(5, 224, bags=(3, 4, 5, 6)), True, None, 0, 0),
    (lambda: invariants.disjoint_airport_log(4), True, None, 27, 27),
    (lambda: invariants.disjoint_airport_log(4), True, 4, 0, 27),
], ids=["disjoint-ref", "disjoint-half", "chained-flower", "silent-bags",
        "disjoint-airport", "disjoint-airport-cut"])
def test_events_served_by_a_counterpart_per_check(monkeypatch, ocpn1, build_log,
                                                  reference, max_states, served, grouped):
    # an event whose execution repeats an earlier one up to renaming
    # objects takes its counterpart's context group and result: it builds
    # no counts and no bag key, and is not replayed.  Most flights of the
    # disjoint bench logs repeat an earlier one, while the executions of
    # the chained and silent-bags logs are all distinct; where a search of
    # a first execution is cut, its repeats are replayed, but still grouped
    # through their counterparts
    log = build_log()
    net = ocpn1 if reference else flower_model(log)
    cfg = ReplayConfig(max_states=max_states) if max_states else DEFAULT_CONFIG
    calls = _replayed_events(monkeypatch)
    graphs, keys = [], Counter()
    build = metrics.build_graph

    def spy_build(log):
        graphs.append(build(log))
        return graphs[-1]

    def spy_frozenset(items):
        keys["built"] += 1
        return frozenset(items)

    monkeypatch.setattr(metrics, "build_graph", spy_build)
    monkeypatch.setattr(context, "frozenset", spy_frozenset, raising=False)
    report = metrics.check(log, net, cfg)
    assert report.truncated == bool(max_states)
    assert len(calls) == len(set(calls)) == len(log.events) - served
    (graph,) = graphs
    repeated = [p for _, positions, _ in graph._repeats for p in positions]
    assert len(repeated) == len(set(repeated)) == grouped
    assert keys["built"] == len(log.events) - grouped


def test_memo_shares_results_of_repeated_executions(monkeypatch, ocpn1):
    # the memo serves the whole log: of the four flights it replays the
    # first only, and every group it serves equals replay without a memo
    log = invariants.disjoint_airport_log(4)
    graph = build_graph(log)
    calls = _replayed_events(monkeypatch)
    memo = replay_log(ocpn1, log, graph, DEFAULT_CONFIG)
    assert sorted(memo._results) == list(range(36))
    details = [replay_context_group(ocpn1, log, graph, members, DEFAULT_CONFIG, memo)
               for members in graph.members]
    assert sorted(calls) == list(range(9)) and len(log.events) == 36
    calls.clear()
    assert details == [replay_context_group(ocpn1, log, graph, members)
                       for members in graph.members]
    assert sorted(calls) == list(range(36))


def test_a_group_read_twice_through_a_memo_replays_only_the_second_time(monkeypatch):
    # a group takes its members' results off the memo, which drops them,
    # so reading it again replays each member from the empty frontier, the
    # reference path; the pass resumed them from earlier frontiers, and
    # both reads must agree
    log = invariants.chained_airport_log()
    net, graph = flower_model(log), build_graph(log)
    calls: list[tuple[int, int | None]] = []
    replay_event = replay._replay_event

    def spy(memo, position, base):
        calls.append((position, base))
        return replay_event(memo, position, base)

    monkeypatch.setattr(replay, "_replay_event", spy)
    memo = replay_log(net, log, graph, DEFAULT_CONFIG)
    members = graph.members[-1]
    positions = [graph._position(eid) for eid in members]
    assert sorted(memo._results) == list(range(len(log.events)))
    assert all(base is not None for position, base in calls if position in positions)
    calls.clear()
    first = replay_context_group(net, log, graph, members, DEFAULT_CONFIG, memo)
    assert calls == []
    second = replay_context_group(net, log, graph, members, DEFAULT_CONFIG, memo)
    assert calls == [(position, None) for position in positions]
    assert first == second and first.outcome.enabled


def test_executions_that_differ_only_in_types_share_nothing(monkeypatch, ocpn1):
    # one Check-in of a bag and one of a plane: their steps match but for
    # the objects' types, which replay names carry, so neither execution
    # repeats the other; the plane's replay enables Fuel plane instead
    bag, plane = ObjectId("b1", "baggage"), ObjectId("p1", "plane")
    log = make_log([("e1", "Check-in", [bag]), ("e2", "Check-in", [plane])])
    calls = _replayed_events(monkeypatch)
    report = metrics.check(log, ocpn1)
    assert sorted(calls) == [0, 1]
    assert [d.en_model for d in report.per_event] == [("Check-in",), ("Fuel plane",)]
