"""Reusable property checks, shared by the property tests and the
acceptance suite.  Each runner raises AssertionError on the first
violation and returns how many cases it checked."""
from __future__ import annotations

import copy
import importlib.util
import pickle
import random
import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import oracles
from oconform.context import (Context, build_graph, context_of_event,
                              enabled_log_activities, event_preset,
                              group_by_context)
from oconform.metrics import check
from oconform.ocel import ObjectId, make_log, parse_log
from oconform.ocpn import (AcceptingOCPN, Arc, Marking, _fire, consumed,
                           enabled_visible_labels, enumerate_bindings,
                           execute_binding, flower_model, is_final, produced)
from oconform.replay import (FrontierMemo, ReplayConfig, VisibleBindingStep,
                             _expanded, _preset_search, lazy_entry_exact,
                             replay_context_group, replay_log)


def run_marking_conservation(seed: int = 11, wanted: int = 1000) -> int:
    """execute_binding moves exactly the consumed/produced tokens."""
    rng = random.Random(seed)
    checked = 0
    while checked < wanted:
        net = oracles.random_net(rng)
        for _ in range(4):
            marking = Marking(dict(oracles.random_marking_items(rng, net)))
            for t in net.transitions:
                for binding in enumerate_bindings(net, marking, t.id,
                                                  subset_cap=4):
                    after = execute_binding(net, marking, binding)
                    cons = consumed(net, binding)
                    prod = produced(net, binding)
                    assert after == (marking - cons) + prod
                    assert after + cons == marking + prod
                    assert cons <= marking
                    checked += 1
    return checked


def run_enabled_labels_vs_brute_force(seed: int = 12, rounds: int = 300) -> int:
    rng = random.Random(seed)
    for _ in range(rounds):
        net = oracles.random_net(rng)
        items = oracles.random_marking_items(rng, net)
        got = enabled_visible_labels(net, Marking(dict(items)))
        want = oracles.brute_force_enabled_labels(net, items)
        assert got == want, f"{sorted(got)} != {sorted(want)} on {items}"
    return rounds


def _assert_matches_scratch(net: AcceptingOCPN, marking: Marking) -> None:
    """The marking's hash, place dicts and finality are those of the same
    tokens built from scratch, it keeps no empty place dict, and it
    enables the oracle's labels: read once, read again off its memo, and
    computed afresh on the marking built from scratch."""
    items = list(marking.items())
    fresh = Marking(dict(items))
    assert marking == fresh and fresh == marking, items
    total = sum(hash(t) * n for t, n in items)
    assert marking._hash == fresh._hash == total, items
    assert hash(marking) == hash(fresh)
    places: dict = {}
    for (place, obj), n in items:
        places.setdefault(place, {})[obj] = n
    assert marking._tokens == fresh._tokens == places, items
    assert all(marking._tokens.values()), items
    assert is_final(net, marking) == is_final(net, fresh) == all(
        place in net.final_places for (place, _), _ in items)
    labels = enabled_visible_labels(net, marking)
    assert labels == enabled_visible_labels(net, marking) == \
        enabled_visible_labels(net, fresh) == \
        oracles.brute_force_enabled_labels(net, items), items


def _assert_renames(net: AcceptingOCPN, marking: Marking) -> None:
    """``renamed`` by a one-to-one map of the marking's objects to ints
    builds a marking that matches the same tokens built from scratch, and
    leaves the marking it renames as it was; renamed back by the inverse
    map, it has the marking's place dicts and hash."""
    before = copy.deepcopy(marking._tokens), marking._hash
    objects = sorted({obj for (_, obj), _ in marking.items()}, reverse=True)
    numbered = marking.renamed({obj: i for i, obj in enumerate(objects)})
    _assert_matches_scratch(net, numbered)
    back = numbered.renamed(dict(enumerate(objects)))
    assert (back._tokens, back._hash) == (marking._tokens, marking._hash) == before


def run_marking_incremental(seed: int = 25, rounds: int = 150) -> Counter:
    """Markings that ``_fire``, ``execute_binding``, ``+`` and ``-`` build
    from another marking, copying only the place dicts they write and
    updating its hash for the moved tokens only, equal the same tokens
    built from scratch, and leave the marking they start from as it was;
    so do each binding's ``consumed`` and ``produced``, built place by
    place, and the markings that ``renamed`` builds from each marking the
    walk starts from or fires into, by a map of its objects to ints and
    back (``_assert_renames``);
    ``_fire`` gives ``marking - consumed + produced``, and returns the
    marking itself for a self-loop, whose input places are its output
    places.  Every marking is fired from and renamed only after its
    labels were read, so a marking built from it that inherited that
    answer would show it (``_assert_matches_scratch``).  Each round walks
    a random net from a random marking for a few firings, so the updates
    pile up; then a tenth as many rounds walk flower nets of random logs,
    from their own random stream.
    Returns the visible (transition, type) pairs checked, counted by
    their number of input places, one branch of ``_candidate_objects``
    each: ``one``, ``several``, ``none``; and the self-loop firings, as
    ``self-loop``."""
    rng = random.Random(seed)
    shapes: Counter = Counter()
    for _ in range(rounds):
        _walk_incrementally(rng, oracles.random_net(rng), shapes)
    flowers = random.Random(seed + 1)
    for _ in range(rounds // 10):
        _walk_incrementally(flowers, flower_model(oracles.random_log(flowers)), shapes)
    return shapes


def _walk_incrementally(rng: random.Random, net: AcceptingOCPN, shapes: Counter) -> None:
    for t in net.visible_transitions:
        for ot in net.tpl(t.id):
            n = len(net.input_places_by_type(t.id).get(ot, ()))
            shapes["none" if n == 0 else "one" if n == 1 else "several"] += 1
    marking = Marking(dict(oracles.random_marking_items(rng, net)))
    _assert_matches_scratch(net, marking)
    _assert_renames(net, marking)
    for _ in range(5):
        fired = []
        before = copy.deepcopy(marking._tokens)
        for t in net.transitions:
            self_loop = {p.id for p in net.preset(t.id)} == {p.id for p in net.postset(t.id)}
            for binding in enumerate_bindings(net, marking, t.id, subset_cap=4):
                cons = consumed(net, binding)
                prod = produced(net, binding)
                after = _fire(net, marking, binding)
                assert after == marking - cons + prod, binding
                if self_loop:
                    assert after is marking, binding
                    shapes["self-loop"] += 1
                for built in (cons, prod, after, execute_binding(net, marking, binding),
                              marking - cons, marking + prod,
                              marking - cons + prod, after - prod + cons):
                    _assert_matches_scratch(net, built)
                _assert_renames(net, after)
                # no write went into a place dict shared with marking
                assert marking._tokens == before, binding
                fired.append(after)
        if not fired:
            break
        marking = rng.choice(fired)


def run_graph_properties(seed: int = 13, rounds: int = 50) -> int:
    """Forward edges only, transitive presets, agreement with the
    fixpoint-closure oracle, and direct predecessors, as a Mapping and as
    ``edges()``, equal to the last earlier event holding each shared
    object.  Besides random logs, this runs on chained airport logs."""
    rng = random.Random(seed)
    logs = [oracles.random_log(rng) for _ in range(rounds)]
    logs += [chained_airport_log(seed=s, flights=flights, planes=planes)
             for s, flights, planes in ((19, 12, 2), (21, 6, 1), (24, 20, 3))]
    for log in logs:
        graph = build_graph(log)
        index = {e.id: e.index for e in log.events}
        for src, dst in graph.edges():
            assert index[src] < index[dst]
        direct = {e.id: oracles.direct_predecessors(log, e.id) for e in log.events}
        assert isinstance(graph.direct_predecessors, Mapping)
        assert dict(graph.direct_predecessors.items()) == direct
        assert list(graph.edges()) == [(d, e.id) for e in log.events
                                       for d in sorted(direct[e.id])]
        oracle = oracles.closure_ancestors(log)
        for e in log.events:
            preset = event_preset(graph, e.id)
            assert preset == oracle[e.id]
            for pid in preset:
                assert event_preset(graph, pid) <= preset
    return len(logs)


GRAPH_INTERNALS = ("order", "group_of", "members", "_direct", "_weight", "_bags",
                   "_parents", "objects", "_slots")


def run_graph_reference_agreement(seed: int = 26, rounds: int = 100,
                                  repeated: int = 40) -> int:
    """The graph's internals, its trie's nodes included, pickle to the same
    bytes as those of the graph built the way it was before events with
    one direct predecessor took their own path, with every preset stored
    as a bitset and no execution taking a counterpart's groups
    (``oracles.reference_build_graph``); the weights the reference sums
    over its bitsets included.  Every event's preset positions are those
    of its reference bitset.  Besides random logs, this runs on chained
    airport logs, on disjoint ones, where most events hold one object and
    most flights repeat an earlier one, and on ``repeated`` random logs
    with interleaved renamed copies, where some repeat's event comes
    before its counterpart in the log."""
    rng = random.Random(seed)
    logs = [oracles.random_log(rng) for _ in range(rounds)]
    logs += [chained_airport_log(seed=s, flights=flights, planes=planes)
             for s, flights, planes in ((19, 12, 2), (21, 6, 1), (24, 20, 3))]
    logs += [disjoint_airport_log(30), bench_log(5, 1512)]
    logs += [repeated_executions_log(rng) for _ in range(repeated)]
    early = 0
    for log in logs:
        graph = build_graph(log)
        reference, bitsets = oracles.reference_build_graph(log)
        for name in GRAPH_INTERNALS:
            assert pickle.dumps(getattr(graph, name)) == \
                pickle.dumps(getattr(reference, name)), name
        for e, bitset in zip(log.events, bitsets):
            assert graph.preset_positions(e.id) == oracles.bitset_positions(*bitset)
        early += any(p < c for first, positions, _ in graph._repeats
                     for p, c in zip(positions, first))
    assert early >= repeated // 4, early
    return len(logs)


def run_preset_bitsets(seed: int = 23, rounds: int = 50) -> int:
    """The graph's walked presets agree with the fixpoint-closure oracle:
    log-ordered positions (whole, and from a start position on), the
    prefix predecessor of the sort-and-bisect oracle, and ``presets`` as
    a Mapping of frozensets.  Each event's weight is the number of object
    occurrences in its preset.  Besides random logs, this runs on chained
    airport logs, whose presets span most of the log, and on the variant-5
    logs of the check workloads (``bench_log``), in the shapes the
    benchmark checks."""
    rng = random.Random(seed)
    logs = [oracles.random_log(rng) for _ in range(rounds)]
    logs += [chained_airport_log(seed=s, flights=flights, planes=planes)
             for s, flights, planes in ((19, 12, 2), (20, 9, 3), (21, 6, 1),
                                        (24, 20, 3))]
    logs += [bench_log(5, 1512), bench_log(5, 486, shared_planes=3),
             bench_log(5, 224, bags=(3, 4, 5, 6))]
    for log in logs:
        graph = build_graph(log)
        anc = oracles.closure_ancestors(log)
        assert isinstance(graph.presets, Mapping)
        assert list(graph.presets) == [e.id for e in log.events]
        assert dict(graph.presets.items()) == anc
        for i, e in enumerate(log.events):
            want = sorted(log.event_index[a] for a in anc[e.id])
            assert graph.preset_positions(e.id) == want
            # a walk from the latest direct predecessor finds it, and one
            # from just past it stops at once with nothing
            latest = max(graph._direct[i], default=-1)
            for start in (0, i // 3, i // 2, i, latest, latest + 1):
                assert graph.preset_positions(e.id, start) == \
                    [p for p in want if p >= start]
            assert graph._weight[i] == sum(len(log.event(a).omap) for a in anc[e.id])
            pred = graph._prefix_predecessor(i)
            assert (None if pred is None else log.events[pred].id) == \
                oracles.prefix_predecessor(log, anc, e.id)
    return len(logs)


def run_canonical_determinism(seed: int = 14, rounds: int = 100) -> int:
    """Context canonical form is independent of input enumeration order."""
    rng = random.Random(seed)
    acts = ["A", "B", "C"]
    for _ in range(rounds):
        prefixes = {}
        for otype in ("X", "Y", "Z")[:rng.randint(1, 3)]:
            seqs = [tuple(rng.choice(acts) for _ in range(rng.randint(0, 3)))
                    for _ in range(rng.randint(1, 4))]
            prefixes[otype] = seqs
        base = Context.from_prefixes(prefixes)
        shuffled = {}
        for otype in sorted(prefixes, key=lambda _: rng.random()):
            seqs = list(prefixes[otype])
            rng.shuffle(seqs)
            shuffled[otype] = seqs
        again = Context.from_prefixes(shuffled)
        assert again == base
        assert again.digest() == base.digest()
        assert again.canonical_json() == base.canonical_json()
    return rounds


def _comparable(report):
    return (report.fitness, report.precision, report.num_replayable,
            report.skipped_fraction, report.per_event)


def run_queue_order_independence(log, nets) -> int:
    for net in nets:
        base = check(log, net)
        flipped = check(log, net, ReplayConfig(reverse_successors=True))
        assert _comparable(base) == _comparable(flipped)
    return len(nets)


def run_metric_bounds(seed: int = 15, rounds: int = 40) -> int:
    from oconform.ocpn import flower_model
    rng = random.Random(seed)
    for i in range(rounds):
        if i % 2 == 0:
            log, chain = oracles.random_single_type_log(rng)
            net = oracles.chain_net(chain)
        else:
            log = oracles.random_log(rng, max_events=8)
            net = flower_model(log)
        report = check(log, net)
        assert Fraction(0) <= report.fitness <= Fraction(1)
        if report.precision is not None:
            assert Fraction(0) <= report.precision <= Fraction(1)
        assert Fraction(0) <= report.skipped_fraction <= Fraction(1)
        assert 0 <= report.num_replayable <= report.num_events
        assert report.skipped_fraction == Fraction(
            report.num_events - report.num_replayable, report.num_events)
    return rounds


def run_monotone_truncation(log, net) -> None:
    """A budget that never triggers yields the identical report."""
    small = check(log, net, ReplayConfig(max_states=100))
    big = check(log, net, ReplayConfig(max_states=100_000))
    assert not small.truncated and not big.truncated
    assert _comparable(small) == _comparable(big)


def run_truncation_shrinks_enabled(log, net) -> None:
    """Cutting the budget may only remove enabled activities."""
    full = check(log, net)
    tight = check(log, net, ReplayConfig(max_states=3))
    by_id = {d.event_id: d for d in full.per_event}
    for d in tight.per_event:
        assert set(d.en_model) <= set(by_id[d.event_id].en_model)
    assert tight.fitness <= full.fitness


def run_chain_oracle_equivalence(seed: int = 16, rounds: int = 200) -> int:
    rng = random.Random(seed)
    for _ in range(rounds):
        log, chain = oracles.random_single_type_log(rng)
        report = check(log, oracles.chain_net(chain))
        fit, prec, replayable = oracles.chain_conformance_oracle(log, chain)
        assert report.fitness == fit, (chain, [
            (e.id, e.activity, sorted(o.id for o in e.omap))
            for e in log.events])
        assert report.precision == prec
        assert report.num_replayable == replayable
    return rounds


def run_grouping_agreement(seed: int = 17, rounds: int = 30) -> int:
    """Engine context grouping matches the naive full-rescan oracle, and
    every event's log-enabled activities are those of its naive group.

    Besides random logs, this runs on chained airport logs: there an
    event's direct predecessors (the plane's last event, each bag's) hold
    different numbers of each object's occurrences."""
    rng = random.Random(seed)
    logs = [oracles.random_log(rng) for _ in range(rounds)]
    logs += [chained_airport_log(seed=s, flights=flights, planes=planes)
             for s, flights, planes in ((19, 12, 2), (20, 9, 3), (21, 6, 1))]
    for log in logs:
        graph = build_graph(log)
        engine = {}
        for ctx, members in group_by_context(log, graph).items():
            engine[ctx.entries] = list(members)
        naive = oracles.naive_groups(log)
        assert engine == {k: v for k, v in naive.items()}
        anc = oracles.closure_ancestors(log)
        for e in log.events:
            key = oracles.naive_context_key(log, anc, e.id)
            assert context_of_event(log, graph, e.id).entries == key
            assert enabled_log_activities(log, graph, e.id) == {
                log.event(eid).activity for eid in naive[key]}
    return len(logs)


RESUME_CONFIGS = (ReplayConfig(),
                  ReplayConfig(explore_silent_when_enabled=True),
                  ReplayConfig(max_states=3),
                  ReplayConfig(silent_variable_mode="subsets"))


def run_resumed_replay_agreement(log, net, cfg) -> None:
    """check's per-event diagnostics, which resume replay from earlier
    events' frontiers, and replay_context_group without a memo, which
    resumes from the empty frontier, both equal the eager reference: every
    event of a context group replayed from the initial marking of all its
    objects.  Without a memo each event's fully replayed markings, in
    canonical names, come in the discovery order of the reference run on
    the event's steps and objects renamed the same way; renamed back, they
    are the reference's markings.  A cut search runs again with each
    object named by its graph number, and renamed back its markings are
    the reference's in the reference's order.  The names number the
    event's objects one to one, each name ``k * T + t`` with its object's
    type ``kinds[t]`` of the graph's ``T`` kinds, and ``k`` the ints from 0
    for canonical names, the graph numbers in a rerun.  The event's own
    step comes renamed with them: compact, as its activity and its
    objects' names ascending, and, expanded by the types its names say,
    equal to the event's step renamed."""
    report = check(log, net, cfg)
    by_id = {d.event_id: d for d in report.per_event}
    graph = build_graph(log)
    truncated = False
    for members in group_by_context(log, graph).values():
        eager, singles = oracles.eager_group_replay(net, log, graph, members, cfg)
        detail = replay_context_group(net, log, graph, members, cfg)
        assert detail == eager, members
        truncated = truncated or eager.outcome.truncated
        for eid in members:
            memo = FrontierMemo(net, log, graph, cfg)
            found = _preset_search(memo, log.event_index[eid], None, True)
            if found[0].truncated:
                found = _preset_search(memo, log.event_index[eid], None, False)
            single, own, names = found
            kinds = graph.kinds
            want = singles[eid]
            event = log.event(eid)
            real_own = VisibleBindingStep.for_event(event)
            assert single.truncated == want.truncated, eid
            objects = oracles.preset_objects(log, graph, eid)
            # names maps the graph's object numbers to the result's names
            named = {graph.objects[s]: name for s, name in names.items()}
            assert set(named) == objects, eid
            assert all(kinds[name % len(kinds)] == o.otype
                       for o, name in named.items()), eid
            assert own == (event.activity, *sorted(named[o] for o in event.omap)), eid
            assert (_expanded(own, kinds),) == \
                oracles.renamed_steps((real_own,), named), eid
            back = {ObjectId(name, o.otype): o.id for o, name in named.items()}
            real = oracles.renamed_markings(net, single.markings, back)
            if single.truncated:
                # a cut search runs again by graph number, which finds the
                # reference's markings in the reference's order
                assert all(name // len(kinds) == s for s, name in names.items()), eid
                assert real == want.markings, eid
            else:
                assert sorted(name // len(kinds) for name in names.values()) == \
                    list(range(len(names))), eid
                canonical = oracles.eager_replay(
                    net, oracles.renamed_steps(
                        oracles.binding_sequence_of_preset(log, graph, eid), named),
                    {ObjectId(named[o], o.otype) for o in objects}, cfg)
                assert (single.markings, single.truncated) == \
                    (canonical.markings, canonical.truncated), eid
                assert len(set(real)) == len(real), eid
                assert set(real) == set(want.markings), eid
            d = by_id[eid]
            assert d.en_model == tuple(sorted(eager.outcome.enabled)), eid
            assert d.replayable == bool(eager.outcome.enabled), eid
            assert d.reached_final == eager.reached_final_by_event[eid], eid
            assert d.truncated == eager.outcome.truncated, eid
    assert report.truncated == truncated


def run_resumed_replay_random(seed: int = 18, rounds: int = 60) -> dict[bool, int]:
    """Resumed against eager replay on random logs, each against a
    random net and its own flower net, under every config of
    RESUME_CONFIGS; returns the random nets checked by whether they admit
    lazy entry.  A flower net enables each activity with any objects of
    the types it was ever seen with, but binds all of them: an event that
    lacks one has no well-formed binding, so many of these logs check
    below fitness 1 against their own flower net."""
    rng = random.Random(seed)
    kinds = {True: 0, False: 0}
    for _ in range(rounds):
        log = oracles.random_log(rng)
        net = oracles.random_net(rng)
        kinds[lazy_entry_exact(net)] += 1
        for cfg in RESUME_CONFIGS:
            run_resumed_replay_agreement(log, net, cfg)
            run_resumed_replay_agreement(log, flower_model(log), cfg)
    return kinds


def run_reached_final_agreement(log, net, cfg) -> Counter:
    """Every event's reached_final in check equals the unpruned silent
    closure oracle, wherever neither the event's searches nor the oracle's
    were cut; returns the oracle's answers counted, None for skipped."""
    report = check(log, net, cfg)
    graph = build_graph(log)
    cap = 1 if cfg.silent_variable_mode == "singleton" else cfg.subset_cap
    answers: Counter = Counter()
    for d in report.per_event:
        detail = replay_context_group(net, log, graph, d.event_id, cfg)
        event = log.event(d.event_id)
        want = None if detail.outcome.truncated else oracles.reaches_final_after(
            net, detail.markings, event.activity, event.omap, cap)
        answers[want] += 1
        if want is not None:
            assert detail.reached_final_by_event[d.event_id] == want, d.event_id
            assert d.reached_final == want, d.event_id
    return answers


# a random net whose silent transitions keep making tokens can fill the
# default budget in every event's search, so these configs cap it lower
REACHED_FINAL_CONFIGS = (ReplayConfig(max_states=2000),
                         ReplayConfig(max_states=2000,
                                      explore_silent_when_enabled=True),
                         ReplayConfig(max_states=3),
                         ReplayConfig(max_states=2000,
                                      silent_variable_mode="subsets"))


def run_reached_final_random(seed: int = 22, rounds: int = 60) -> Counter:
    """run_reached_final_agreement on random logs, each against a random
    net and its own flower net, and on a random run of that net, whose
    events replay and whose silent firings a final marking may need; under
    every config of REACHED_FINAL_CONFIGS."""
    rng = random.Random(seed)
    answers: Counter = Counter()
    for _ in range(rounds):
        log = oracles.random_log(rng)
        net = oracles.random_net(rng)
        pairs = [(log, net), (log, flower_model(log))]
        walk = oracles.random_walk_log(rng, net)
        if walk is not None:
            pairs.append((walk, net))
        for cfg in REACHED_FINAL_CONFIGS:
            for pair_log, pair_net in pairs:
                answers += run_reached_final_agreement(pair_log, pair_net, cfg)
    return answers


def repeated_executions_log(rng, copies: int = 2):
    """A random log and ``copies`` renamed copies of its events,
    interleaved at random.  Each copy's object ids sort in a shuffled
    order, never the originals', so a search by graph number enumerates
    a copy's successors in another order than the original's."""
    log = oracles.random_log(rng)
    objects = sorted({o for e in log.events for o in e.omap})
    original = [(e.activity, sorted(e.omap)) for e in log.events]
    streams = [list(original)]
    for c in range(copies):
        ranks = list(range(len(objects)))
        while ranks == sorted(ranks) and len(ranks) > 1:
            rng.shuffle(ranks)
        rename = {o: ObjectId(f"c{c}_{rank:02d}", o.otype)
                  for o, rank in zip(objects, ranks)}
        streams.append([(activity, [rename[o] for o in omap])
                        for activity, omap in original])
    events = []
    while any(streams):
        activity, omap = rng.choice([s for s in streams if s]).pop(0)
        events.append((f"e{len(events) + 1}", activity, omap))
    return make_log(events)


def run_repeated_executions_agreement(log, net, cfg) -> Counter:
    """check and replay_context_group without a memo both equal the eager
    reference (``run_resumed_replay_agreement``), and each group replayed
    through a memo that serves every event, including its markings
    renamed from counterparts' results, equals the group replayed without
    one.  Returns the executions that repeat an earlier one, counted by
    whether they took their counterparts' results ("shared") or were
    replayed because a search of the first one was cut ("cut")."""
    run_resumed_replay_agreement(log, net, cfg)
    graph = build_graph(log)
    memo = replay_log(net, log, graph, cfg)
    assert sorted(memo._results) == list(range(len(log.events)))
    for members in graph.members:
        detail = replay_context_group(net, log, graph, members, cfg, memo)
        assert detail == replay_context_group(net, log, graph, members, cfg), members
    return Counter("shared" if memo._cut.isdisjoint(first) else "cut"
                   for first, _, _ in graph._repeats)


def run_repeated_executions_random(seed: int = 27, rounds: int = 12) -> Counter:
    """run_repeated_executions_agreement on random logs with renamed
    copies of their executions, against a random net and the log's own
    flower net, at the default budget and at budgets of 1 to 8 states;
    returns the repeating executions counted by kind and by whether the
    net admits lazy entry."""
    rng = random.Random(seed)
    seen: Counter = Counter()
    for _ in range(rounds):
        log = repeated_executions_log(rng)
        net = oracles.random_net(rng)
        for cfg in (ReplayConfig(), *(ReplayConfig(max_states=n) for n in range(1, 9))):
            for checked in (net, flower_model(log)):
                lazy = lazy_entry_exact(checked)
                for kind, n in run_repeated_executions_agreement(log, checked, cfg).items():
                    seen[kind, lazy] += n
    return seen


def plane_reusing_net(net: AcceptingOCPN) -> AcceptingOCPN:
    """The bundled reference net with Clean returning the plane to its
    initial place, which is made final too, so a plane can fly again."""
    places = tuple(replace(p, final=True) if p.id == "pl1" else p
                   for p in net.places)
    arcs = tuple(Arc("t_clean", "pl1") if (a.source, a.target) == ("t_clean", "pl10")
                 else a for a in net.arcs)
    return AcceptingOCPN(net.object_types, places, net.transitions, arcs)


def disjoint_airport_log(flights: int):
    """Flights of one shape one after another, each with its own plane and
    two bags, the second of which skips Unload: the flights differ only in
    their objects' names."""
    events = []
    for f in range(flights):
        plane = ObjectId(f"p{f}", "plane")
        bags = [ObjectId(f"b{f}_{k}", "baggage") for k in range(2)]
        events += ([("Fuel plane", [plane])]
                   + [("Check-in", [b]) for b in bags]
                   + [("Load cargo", [plane, *bags]), ("Lift off", [plane]),
                      ("Unload", [plane, bags[0]])]
                   + [("Pick up @ dest", [b]) for b in bags]
                   + [("Clean", [plane])])
    return make_log([(f"e{i}", activity, omap)
                     for i, (activity, omap) in enumerate(events, start=1)])


def chained_airport_log(seed: int = 19, flights: int = 12, planes: int = 2):
    """Airport flights whose planes live across the whole log, so presets
    grow with every flight; about a third of the bags skip Unload."""
    rng = random.Random(seed)
    streams: list[list[tuple[str, list[ObjectId]]]] = [[] for _ in range(planes)]
    for f in range(flights):
        plane = ObjectId(f"p{f % planes}", "plane")
        bags = [ObjectId(f"b{f}_{k}", "baggage") for k in range(rng.randint(1, 3))]
        unloaded = [b for b in bags if rng.random() < 0.7] or bags[:1]
        streams[f % planes] += (
            [("Fuel plane", [plane])]
            + [("Check-in", [b]) for b in bags]
            + [("Load cargo", [plane, *bags]), ("Lift off", [plane]),
               ("Unload", [plane, *unloaded])]
            + [("Pick up @ dest", [b]) for b in bags]
            + [("Clean", [plane])])
    events = []
    while any(streams):
        stream = rng.choice([s for s in streams if s])
        activity, omap = stream.pop(0)
        events.append((f"e{len(events) + 1}", activity, omap))
    return make_log(events)


def bench_log(seed: int, events: int, **options):
    """A log as ``bench/gen.py`` generates it for the benchmark's
    workloads, ``options`` passed on to ``gen.generate``.  The bench
    module is only read: no bytecode is written next to it."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclass looks its module up
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(gen)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return parse_log(gen.generate(seed, events, **options).data)
