import random
import tracemalloc
from collections import Counter
from importlib.resources import files

import pytest

import invariants
import oracles
from oconform import context
from oconform.cli import EXIT_OK, main
from oconform.context import (Context, EventObjectGraph, build_graph, context_of_event,
                              enabled_log_activities, event_preset,
                              group_by_context)
from oconform.metrics import check
from oconform.ocel import LogError, ObjectId, make_log
from oconform.ocpn import flower_model

E5_CONTEXT = Context.from_prefixes({
    "plane": [("Fuel plane", "Load cargo")],
    "baggage": [("Check-in", "Load cargo"), ("Check-in", "Load cargo")],
})


def test_direct_predecessors_chain_last_occurrences(l1, l1_graph):
    assert l1_graph.direct_predecessors["e1"] == frozenset()
    assert l1_graph.direct_predecessors["e4"] == {"e1", "e2", "e3"}
    assert l1_graph.direct_predecessors["e5"] == {"e4"}
    assert l1_graph.direct_predecessors["e9"] == {"e6"}
    # second batch is disconnected from the first
    assert l1_graph.direct_predecessors["e10"] == frozenset()


def test_edges_point_forward(l1, l1_graph):
    index = {e.id: e.index for e in l1.events}
    edges = list(l1_graph.edges())
    assert edges, "graph of the bundled log has edges"
    for src, dst in edges:
        assert index[src] < index[dst]


def test_presets_on_bundled_log(l1_graph):
    assert event_preset(l1_graph, "e1") == frozenset()
    assert event_preset(l1_graph, "e5") == {"e1", "e2", "e3", "e4"}
    # e7 and e8 happen after e6 but never reach e9 through shared objects
    assert event_preset(l1_graph, "e9") == {"e1", "e2", "e3", "e4", "e5", "e6"}
    assert event_preset(l1_graph, "e18") == {"e10", "e11", "e12", "e13",
                                             "e14", "e15"}


def test_presets_match_closure_oracle(l1, l1_graph):
    oracle = oracles.closure_ancestors(l1)
    for e in l1.events:
        assert event_preset(l1_graph, e.id) == oracle[e.id]


def test_unknown_event_raises(l1_graph):
    with pytest.raises(LogError, match="unknown event id"):
        event_preset(l1_graph, "e99")


def test_object_prefix(l1, l1_graph):
    preset = event_preset(l1_graph, "e5")
    assert oracles.object_prefix(l1, preset, ObjectId("b1", "baggage")) == \
        ("Check-in", "Load cargo")
    assert oracles.object_prefix(l1, preset, ObjectId("p1", "plane")) == \
        ("Fuel plane", "Load cargo")
    assert oracles.object_prefix(l1, preset, ObjectId("p2", "plane")) == ()


def test_preset_objects(l1, l1_graph):
    assert oracles.preset_objects(l1, l1_graph, "e5") == {
        ObjectId("p1", "plane"), ObjectId("b1", "baggage"),
        ObjectId("b2", "baggage")}
    assert oracles.preset_objects(l1, l1_graph, "e1") == {ObjectId("p1", "plane")}


def test_context_of_first_event_is_all_empty_prefixes(l1, l1_graph):
    ctx = context_of_event(l1, l1_graph, "e1")
    assert ctx == Context.from_prefixes({"plane": [()]})
    assert ctx.multiset("plane") == {(): 1}
    assert ctx.multiset("baggage") == {}


def test_context_of_e5(l1, l1_graph):
    ctx = context_of_event(l1, l1_graph, "e5")
    assert ctx == E5_CONTEXT
    assert ctx.types() == ("baggage", "plane")
    assert ctx.multiset("baggage") == {("Check-in", "Load cargo"): 2}
    assert ctx.canonical_json() == (
        '[["baggage",[[["Check-in","Load cargo"],2]]],'
        '["plane",[[["Fuel plane","Load cargo"],1]]]]')
    digest = ctx.digest()
    assert len(digest) == 16 and int(digest, 16) >= 0


def test_canonical_json_equals_the_payload_list_encoding():
    rng = random.Random(17)
    words = ['say "hi"', "back\\slash", "tab\tnew\nline\x01\x1f", "Zürich",
             "\u2028\U0001f6eb", "a/b", "", "plain"]
    assert Context.from_prefixes({}).canonical_json() == "[]"
    assert oracles.payload_canonical_json(Context.from_prefixes({})) == "[]"
    for _ in range(200):
        ctx = Context.from_prefixes({
            rng.choice(words) + ot: [tuple(rng.choices(words, k=rng.randint(0, 3)))
                                     for _ in range(rng.randint(0, 3))]
            for ot in rng.sample(["X", "Y", "é"], rng.randint(0, 3))})
        assert ctx.canonical_json() == oracles.payload_canonical_json(ctx)


def test_objects_first_seen_in_the_event_get_empty_prefixes():
    log = make_log([
        ("e1", "a", [ObjectId("x1", "X")]),
        ("e2", "b", [ObjectId("x1", "X"), ObjectId("y1", "Y")]),
    ])
    ctx = context_of_event(log, build_graph(log), "e2")
    assert ctx == Context.from_prefixes({"X": [("a",)], "Y": [()]})


def test_bundled_log_has_six_context_groups(l1, l1_graph):
    groups = group_by_context(l1, l1_graph)
    members = sorted(groups.values(), key=lambda ids: ids[0])
    assert members == [
        ("e1", "e10"),
        ("e2", "e3", "e11", "e12"),
        ("e4", "e13"),
        ("e5", "e14"),
        ("e6", "e15"),
        ("e7", "e8", "e9", "e16", "e17", "e18"),
    ]
    assert groups[E5_CONTEXT] == ("e5", "e14")


def test_context_group_is_a_lookup_shared_by_its_members(l1, l1_graph):
    assert l1_graph.members[l1_graph.group_of["e5"]] == ("e5", "e14")
    assert l1_graph.members[l1_graph.group_of["e14"]] == ("e5", "e14")
    assert context_of_event(l1, l1_graph, "e5") == \
        context_of_event(l1, l1_graph, "e14")
    with pytest.raises(LogError, match="unknown event id"):
        enabled_log_activities(l1, l1_graph, "e99")
    with pytest.raises(LogError, match="unknown event id"):
        context_of_event(l1, l1_graph, "e99")


def test_enabled_log_activities(l1, l1_graph):
    assert enabled_log_activities(l1, l1_graph, "e5") == {"Lift off"}
    assert enabled_log_activities(l1, l1_graph, "e9") == \
        {"Clean", "Pick up @ dest"}
    assert enabled_log_activities(l1, l1_graph, "e1") == {"Fuel plane"}


def _count_contexts(monkeypatch) -> list[int]:
    calls = [0]
    build = EventObjectGraph.context

    def counted(self, group):
        calls[0] += 1
        return build(self, group)

    monkeypatch.setattr(EventObjectGraph, "context", counted)
    return calls


def _retained_by_build_graph(log) -> int:
    tracemalloc.start()
    try:
        graph = build_graph(log)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert graph.order
    return retained


def test_chained_graph_memory_grows_about_linearly():
    # presets on a chained log grow over the log, so a preset stored per
    # event grows the graph about 2.5x per doubling of the log; direct
    # predecessors and one weight per event grow it about 2.1x
    small, large = (_retained_by_build_graph(invariants.bench_log(5, n, shared_planes=3))
                    for n in (3888, 7776))
    assert large <= 2.2 * small, large / small


@pytest.mark.parametrize("which", ["fixture", "chained"])
def test_check_builds_no_context(monkeypatch, l1, ocpn1, which):
    # check digests each group from its bag items (graph.digest)
    if which == "fixture":
        log, net = l1, ocpn1
    else:  # as the chained-flower workload generates it
        log = invariants.bench_log(5, 486, shared_planes=3)
        net = flower_model(log)
    calls = _count_contexts(monkeypatch)
    check(log, net)
    assert calls[0] == 0


def test_check_quotes_each_trie_label_once(monkeypatch):
    # a group's digest costs its bag: each node's text extends its
    # parent's, so no history is quoted again per group
    log = invariants.bench_log(5, 486, shared_planes=3)
    labels = Counter(label for parent, label in build_graph(log)._parents
                     if parent >= 0)
    quoted: Counter[str] = Counter()
    quote = context._quote

    def counted(text):
        quoted[text] += 1
        return quote(text)

    monkeypatch.setattr(context, "_quote", counted)
    check(log, flower_model(log))
    assert sum(quoted[label] for label in labels) > 0
    assert all(quoted[label] <= n for label, n in labels.items())


def test_explain_builds_one_context(monkeypatch, capsys):
    calls = _count_contexts(monkeypatch)
    fixtures = files("oconform").joinpath("fixtures")
    assert main(["explain", "--log", str(fixtures / "l1_log.json"),
                 "--model", str(fixtures / "ocpn1_model.json"),
                 "--event", "e5"]) == EXIT_OK
    assert "context group: e5, e14\n" in capsys.readouterr().out
    assert calls[0] == 1


def test_from_prefixes_drops_types_without_objects():
    assert Context.from_prefixes({"X": [], "Y": [()]}) == \
        Context.from_prefixes({"Y": [()]})


def test_context_equality_is_order_insensitive():
    a = Context.from_prefixes({"X": [("a",), ()], "Y": [("b", "c")]})
    b = Context.from_prefixes({"Y": [("b", "c")], "X": [(), ("a",)]})
    assert a == b and a.digest() == b.digest()


def test_contexts_and_groups_match_naive_oracle(l1, l1_graph):
    anc = oracles.closure_ancestors(l1)
    for e in l1.events:
        assert context_of_event(l1, l1_graph, e.id).entries == \
            oracles.naive_context_key(l1, anc, e.id)
    engine = {ctx.entries: list(members)
              for ctx, members in group_by_context(l1, l1_graph).items()}
    assert engine == oracles.naive_groups(l1)


def test_contexts_match_naive_oracle_on_random_logs():
    rng = random.Random(21)
    for _ in range(25):
        log = oracles.random_log(rng)
        graph = build_graph(log)
        anc = oracles.closure_ancestors(log)
        for e in log.events:
            assert context_of_event(log, graph, e.id).entries == \
                oracles.naive_context_key(log, anc, e.id)


# names the encoder escapes, names outside ASCII, and names that sort
# differently as tuples and as JSON text: a prefix of another name, or a
# name that differs from another by a character below '"'
ADVERSARIAL = ['say "hi"', "\\", "\t\n\x01\x1f", "Zürich", "\u2028", "\U0001f6eb",
               "", '""', "Load", "Load cargo", "Load!", 'Load"', "a", "a b"]


def _adversarial_log(rng):
    # a log's object type names are not empty
    types = rng.sample([name for name in ADVERSARIAL if name], rng.randint(1, 3))
    objs = [ObjectId(f"o{i}", rng.choice(types)) for i in range(rng.randint(2, 6))]
    return make_log([(f"e{k}", rng.choice(ADVERSARIAL),
                      rng.sample(objs, rng.randint(1, min(3, len(objs)))))
                     for k in range(rng.randint(4, 16))])


def _assert_digests_agree(graph):
    for group in range(len(graph.members)):
        assert graph.digest(group) == graph.context(group).digest()


def test_trie_digests_equal_context_digests_on_adversarial_names():
    rng = random.Random(24)
    for _ in range(150):
        _assert_digests_agree(build_graph(_adversarial_log(rng)))


@pytest.mark.parametrize("events, options, net", [
    (1512, {}, "ref"),                            # disjoint-ref
    (486, {"shared_planes": 3}, "flower"),        # chained-flower
    (224, {"bags": (3, 4, 5, 6)}, "ref"),         # silent-bags
])
def test_check_digests_equal_context_digests(ocpn1, events, options, net):
    # the check workloads' variant-5 logs
    log = invariants.bench_log(5, events, **options)
    graph = build_graph(log)
    _assert_digests_agree(graph)
    report = check(log, flower_model(log) if net == "flower" else ocpn1)
    for d in report.per_event:
        assert d.context_digest == context_of_event(log, graph, d.event_id).digest()
