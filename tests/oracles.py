"""Independent reference implementations used to pin expected values.

Everything in here recomputes results from raw log/net data by a
different route than the package (full predecessor edge sets, fixpoint
closures, exhaustive binding search).  Oracles share only value types
with the code under test, never its algorithms; the one exception is the
eager replay reference, which runs the package's own search from the
initial marking, because what it pins is where replay starts.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations, product

from oconform import replay
from oconform.context import EventObjectGraph
from oconform.ocel import EventLog, ObjectId, make_log
from oconform.ocpn import (AcceptingOCPN, Arc, Marking, ModelError, Place,
                           Transition, enabled_visible_labels, initial_marking_for)
from oconform.replay import GroupReplay, ReplayConfig, ReplayOutcome, VisibleBindingStep

SUBSET_CAP = 8


# ---------------------------------------------------------------------------
# event-object graph via the full edge set and a dumb fixpoint closure

def full_edges(log: EventLog) -> set[tuple[str, str]]:
    """Every pair (earlier, later) sharing at least one object."""
    edges = set()
    for i, later in enumerate(log.events):
        for earlier in log.events[:i]:
            if earlier.omap & later.omap:
                edges.add((earlier.id, later.id))
    return edges


def closure_ancestors(log: EventLog) -> dict[str, frozenset[str]]:
    anc: dict[str, set[str]] = {e.id: set() for e in log.events}
    for a, b in full_edges(log):
        anc[b].add(a)
    changed = True
    while changed:
        changed = False
        for members in anc.values():
            extra: set[str] = set()
            for p in members:
                extra |= anc[p]
            if not extra <= members:
                members |= extra
                changed = True
    return {eid: frozenset(members) for eid, members in anc.items()}


def direct_predecessors(log: EventLog, eid: str) -> frozenset[str]:
    """For each of the event's objects, the last earlier event holding it."""
    index = {e.id: i for i, e in enumerate(log.events)}
    direct = set()
    for obj in log.events_by_id[eid].omap:
        earlier = [e.id for e in log.events[:index[eid]] if obj in e.omap]
        if earlier:
            direct.add(earlier[-1])
    return frozenset(direct)


def prefix_predecessor(log: EventLog, anc: dict[str, frozenset[str]],
                       eid: str) -> str | None:
    """The latest direct predecessor d whose sorted ancestor positions
    followed by d open the event's sorted ancestor positions: d's rank
    among them, found by bisection, equals the size of d's own ancestor
    set."""
    index = {e.id: i for i, e in enumerate(log.events)}
    positions = sorted(index[a] for a in anc[eid])
    for d in sorted(direct_predecessors(log, eid), key=index.__getitem__, reverse=True):
        if bisect_left(positions, index[d]) == len(anc[d]):
            return d
    return None


ContextKey = tuple[tuple[str, tuple[tuple[tuple[str, ...], int], ...]], ...]


def naive_context_key(log: EventLog, anc: dict[str, frozenset[str]],
                      eid: str) -> ContextKey:
    """Per-type prefix multisets, computed by rescanning the whole log."""
    event = log.events_by_id[eid]
    universe = set(event.omap)
    for pid in anc[eid]:
        universe |= log.events_by_id[pid].omap
    per_type: dict[str, list[tuple[str, ...]]] = {}
    for obj in universe:
        prefix = tuple(ev.activity for ev in log.events
                       if ev.id in anc[eid] and obj in ev.omap)
        per_type.setdefault(obj.otype, []).append(prefix)
    return tuple(sorted(
        (otype, tuple(sorted(Counter(prefixes).items())))
        for otype, prefixes in per_type.items()))


def naive_groups(log: EventLog) -> dict[ContextKey, list[str]]:
    anc = closure_ancestors(log)
    groups: dict[ContextKey, list[str]] = {}
    for e in log.events:
        groups.setdefault(naive_context_key(log, anc, e.id), []).append(e.id)
    return groups


# ---------------------------------------------------------------------------
# exhaustive binding search straight off the arc list

def _oracle_bindings(net: AcceptingOCPN, counts: Counter, place_type,
                     transition) -> list[tuple[dict, Counter, Counter]]:
    """All enabled bindings of one transition as (assignment, need, prod)."""
    ins = [(a.source, a.variable) for a in net.arcs if a.target == transition.id]
    outs = [(a.target, a.variable) for a in net.arcs if a.source == transition.id]
    types = sorted({place_type[p] for p, _ in ins}
                   | {place_type[p] for p, _ in outs})
    var_types = {place_type[p] for p, v in ins + outs if v}

    present: dict[str, set[str]] = {}
    for (place, obj), n in counts.items():
        if n > 0:
            present.setdefault(place_type[place], set()).add(obj)

    option_lists = []
    for otype in types:
        in_places = [p for p, _ in ins if place_type[p] == otype]
        if in_places:
            cands: set[str] | None = None
            for place in in_places:
                here = {o for (p, o), n in counts.items()
                        if p == place and n > 0}
                cands = here if cands is None else cands & here
            candidates = sorted(cands or ())
        else:
            candidates = sorted(present.get(otype, ()))
        candidates = candidates[:SUBSET_CAP]
        if otype in var_types:
            options = [frozenset(c)
                       for size in range(1, len(candidates) + 1)
                       for c in combinations(candidates, size)]
        else:
            options = [frozenset({c}) for c in candidates]
        if not options:
            return []
        option_lists.append((otype, options))

    found = []
    for combo in product(*[opts for _, opts in option_lists]):
        assign = {otype: objs
                  for (otype, _), objs in zip(option_lists, combo)}
        need: Counter = Counter()
        for place, _ in ins:
            for obj in assign[place_type[place]]:
                need[(place, obj)] += 1
        if any(counts[token] < n for token, n in need.items()):
            continue
        prod: Counter = Counter()
        for place, _ in outs:
            for obj in assign[place_type[place]]:
                prod[(place, obj)] += 1
        found.append((assign, need, prod))
    return found


def brute_force_enabled_labels(net: AcceptingOCPN,
                               marking_items) -> frozenset[str]:
    counts = Counter()
    for token, n in marking_items:
        counts[token] += n
    place_type = {p.id: p.otype for p in net.places}
    labels = set()
    for t in net.transitions:
        if t.label is not None and _oracle_bindings(net, counts, place_type, t):
            labels.add(t.label)
    return frozenset(labels)


def brute_force_states(net: AcceptingOCPN, objects,
                       targets_by_type: dict[str, Counter]) -> set[tuple]:
    """Marking keys of every firing sequence whose prefixes hit the target.

    Explores all interleavings from the initial marking over ``objects``,
    pruning branches where some object's activity prefix stops being a
    prefix of every candidate target sequence for its type.
    """
    place_type = {p.id: p.otype for p in net.places}
    obj_type = {o.id: o.otype for o in objects}
    init: Counter = Counter()
    for obj in objects:
        place = next(p.id for p in net.places
                     if p.initial and p.otype == obj.otype)
        init[(place, obj.id)] += 1

    def marking_key(counts: Counter) -> tuple:
        return tuple(sorted((p, o, n) for (p, o), n in counts.items() if n))

    def compatible(prefixes: dict[str, tuple[str, ...]]) -> bool:
        for obj, seq in prefixes.items():
            targets = targets_by_type.get(obj_type[obj], Counter())
            if not any(cand[:len(seq)] == seq for cand in targets):
                return False
        return True

    def matches(prefixes: dict[str, tuple[str, ...]]) -> bool:
        per: dict[str, Counter] = {}
        for obj, seq in prefixes.items():
            per.setdefault(obj_type[obj], Counter())[seq] += 1
        return per == targets_by_type

    found: set[tuple] = set()
    start = (init, {o.id: () for o in objects})
    stack = [start]
    visited: set[tuple] = set()
    while stack:
        counts, prefixes = stack.pop()
        state = (marking_key(counts), tuple(sorted(prefixes.items())))
        if state in visited:
            continue
        visited.add(state)
        if matches(prefixes):
            found.add(marking_key(counts))
        for t in net.transitions:
            for assign, need, prod in _oracle_bindings(net, counts,
                                                       place_type, t):
                nxt = counts - need + prod
                nxt_prefixes = dict(prefixes)
                if t.label is not None:
                    for objs in assign.values():
                        for obj in objs:
                            nxt_prefixes[obj] = nxt_prefixes[obj] + (t.label,)
                if compatible(nxt_prefixes):
                    stack.append((nxt, nxt_prefixes))
    return found


def reaches_final_after(net: AcceptingOCPN, markings, activity: str,
                        objects, subset_cap: int,
                        budget: int = 20_000) -> bool | None:
    """Whether firing ``activity`` on ``objects`` from one of ``markings``,
    then silent firings binding at most ``subset_cap`` objects per type,
    reaches a marking with every token in a final place.

    A plain BFS over the silent closure of every fired marking, with no
    pruning; None when more than ``budget`` states would be needed.  Each
    place may hold at most SUBSET_CAP objects of a silent transition's
    input type.
    """
    place_type = {p.id: p.otype for p in net.places}
    final = {p.id for p in net.places if p.final}
    transition = next((t for t in net.transitions if t.label == activity), None)
    if transition is None:
        return False
    assign: dict[str, set[str]] = {}
    for obj in objects:
        assign.setdefault(obj.otype, set()).add(obj.id)
    ins = [(a.source, a.variable) for a in net.arcs if a.target == transition.id]
    outs = [(a.target, a.variable) for a in net.arcs if a.source == transition.id]
    if set(assign) != {place_type[p] for p, _ in ins + outs}:
        return False
    if any(not v and len(assign[place_type[p]]) != 1 for p, v in ins + outs):
        return False
    need = Counter((p, o) for p, _ in ins for o in assign[place_type[p]])
    prod = Counter((p, o) for p, _ in outs for o in assign[place_type[p]])

    def key(counts: Counter) -> tuple:
        return tuple(sorted((t, n) for t, n in counts.items() if n))

    queue: deque[Counter] = deque()
    seen: set[tuple] = set()
    for marking in markings:
        counts = Counter(dict(marking.items()))
        if all(counts[t] >= n for t, n in need.items()):
            fired = counts - need + prod
            if key(fired) not in seen:
                seen.add(key(fired))
                queue.append(fired)
    silent = [t for t in net.transitions if t.label is None]
    while queue:
        counts = queue.popleft()
        if all(place in final for (place, _), n in counts.items() if n):
            return True
        for t in silent:
            for assignment, t_need, t_prod in _oracle_bindings(
                    net, counts, place_type, t):
                if any(len(ids) > subset_cap for ids in assignment.values()):
                    continue
                after = counts - t_need + t_prod
                if key(after) not in seen:
                    if len(seen) >= budget:
                        return None
                    seen.add(key(after))
                    queue.append(after)
    return False


# ---------------------------------------------------------------------------
# eager replay: each event's whole preset searched from the initial marking
# of every object it involves, all at cursor 0.  It runs replay._search, so
# it checks where resumed replay starts and which objects it adds when,
# not the search itself.

def binding_sequence_of_preset(log: EventLog, graph: EventObjectGraph,
                               event_id: str) -> tuple[VisibleBindingStep, ...]:
    """The event's ancestors as visible binding steps, in log order."""
    return tuple(VisibleBindingStep.for_event(log.events[i])
                 for i in graph.preset_positions(event_id))


def preset_objects(log: EventLog, graph: EventObjectGraph,
                   event_id: str) -> frozenset[ObjectId]:
    """All objects touched by the event or any of its ancestors."""
    objects = set(log.event(event_id).omap)
    for i in graph.preset_positions(event_id):
        objects |= log.events[i].omap
    return frozenset(objects)


def object_prefix(log: EventLog, preset, obj: ObjectId) -> tuple[str, ...]:
    """Activity sequence of the preset's events containing obj, in log order."""
    return tuple(e.activity for e in log.events if e.id in preset and obj in e.omap)


def eager_replay(net: AcceptingOCPN, steps, objects, cfg: ReplayConfig):
    """Replay of one binding sequence from the initial marking of all its
    objects, under the ``max_states`` budget; no markings when an object
    type or an activity is not in the net."""
    try:
        start = initial_marking_for(net, objects)
    except ModelError:
        return replay._UNREPLAYABLE
    firings = [replay._firing(net, step) for step in steps]
    if any(f.binding is None for f in firings):
        return replay._UNREPLAYABLE
    return replay._search(net, firings, (start,), {}, cfg, cfg.max_states)


def renamed_steps(steps, names):
    """Binding steps with every object renamed by ``names`` (ObjectId to id)."""
    return tuple(VisibleBindingStep(step.activity, tuple(sorted(
        (otype, frozenset(names[ObjectId(oid, otype)] for oid in ids))
        for otype, ids in step.objects))) for step in steps)


def renamed_markings(net: AcceptingOCPN, markings, names):
    """Markings with every token's object renamed by ``names`` (ObjectId
    to id), the object's type read off the token's place."""
    otype = {p.id: p.otype for p in net.places}
    out = []
    for m in markings:
        counts: Counter = Counter()
        for (place, oid), n in m.items():
            counts[place, names[ObjectId(oid, otype[place])]] += n
        out.append(Marking(counts))
    return tuple(out)


def eager_group_replay(net: AcceptingOCPN, log: EventLog, graph: EventObjectGraph,
                       members, cfg: ReplayConfig):
    """The group's replay from eager replays of its events, and each
    event's eager replay by id."""
    singles = {}
    reached: dict[str, bool] = {}
    truncated = False
    for eid in members:
        single = eager_replay(net, binding_sequence_of_preset(log, graph, eid),
                              preset_objects(log, graph, eid), cfg)
        own = replay._firing(net, VisibleBindingStep.for_event(log.event(eid)))
        reached[eid], cut = replay._reaches_final(net, single.markings, own, cfg)
        singles[eid] = single
        # a cut counts only when no final marking was found
        truncated = truncated or single.truncated or (cut and not reached[eid])
    markings = frozenset(m for single in singles.values() for m in single.markings)
    enabled = frozenset().union(*(enabled_visible_labels(net, m) for m in markings))
    outcome = ReplayOutcome(enabled, bool(markings), any(reached.values()), truncated)
    return GroupReplay(outcome, markings, reached), singles


# ---------------------------------------------------------------------------
# escaping-edges style conformance for single-object-per-event logs

def chain_conformance_oracle(log: EventLog, chain: tuple[str, ...]):
    """Fitness/precision of a flat log against a strict activity chain.

    Every event must carry exactly one object.  Contexts degenerate to
    plain activity prefixes, and the chain enables exactly its next
    activity while the prefix matches.
    """
    prefix_of: dict[str, tuple[str, ...]] = {}
    seen: dict[ObjectId, list[str]] = {}
    for e in log.events:
        (obj,) = tuple(e.omap)
        prefix_of[e.id] = tuple(seen.get(obj, ()))
        seen.setdefault(obj, []).append(e.activity)

    groups: dict[tuple[str, ...], set[str]] = {}
    for e in log.events:
        groups.setdefault(prefix_of[e.id], set()).add(e.activity)

    fit = Fraction(0)
    prec = Fraction(0)
    replayable = 0
    for e in log.events:
        pfx = prefix_of[e.id]
        en_log = groups[pfx]
        if pfx == chain[:len(pfx)] and len(pfx) < len(chain):
            en_model = {chain[len(pfx)]}
        else:
            en_model = set()
        overlap = len(en_log & en_model)
        fit += Fraction(overlap, len(en_log))
        if en_model:
            replayable += 1
            prec += Fraction(overlap, len(en_model))
    fitness = fit / len(log.events)
    precision = prec / replayable if replayable else None
    return fitness, precision, replayable


def flower_precision_oracle(log: EventLog) -> Fraction:
    """Precision against the flower of ``log`` for logs whose activities
    always carry the same type set (true for the bundled fixtures)."""
    anc = closure_ancestors(log)
    required: dict[str, set[str]] = {}
    for e in log.events:
        required.setdefault(e.activity, set()).update(o.otype for o in e.omap)
    keys = {e.id: naive_context_key(log, anc, e.id) for e in log.events}
    activities_of: dict[ContextKey, set[str]] = {}
    for e in log.events:
        activities_of.setdefault(keys[e.id], set()).add(e.activity)

    total = Fraction(0)
    counted = 0
    for e in log.events:
        universe = set(e.omap)
        for pid in anc[e.id]:
            universe |= log.events_by_id[pid].omap
        present = {o.otype for o in universe}
        en_model = {a for a, req in required.items() if req <= present}
        if not en_model:
            continue
        counted += 1
        en_log = activities_of[keys[e.id]]
        total += Fraction(len(en_log & en_model), len(en_model))
    return total / counted


# ---------------------------------------------------------------------------
# generators for randomized checks (seeded by the caller)

def random_single_type_log(rng) -> tuple[EventLog, tuple[str, ...]]:
    """A flat one-object-per-event log plus a random activity chain."""
    alphabet = ["a", "b", "c", "d"][:rng.randint(1, 4)]
    chain = tuple(rng.sample(alphabet, rng.randint(1, len(alphabet))))
    traces: list[list[str]] = []
    total = 0
    for _ in range(rng.randint(1, 3)):
        length = min(rng.randint(1, 5), 8 - total)
        if length <= 0:
            break
        if rng.random() < 0.5:
            trace = list(chain[:min(length, len(chain))])
            while len(trace) < length:
                trace.append(rng.choice(alphabet))
        else:
            trace = [rng.choice(alphabet) for _ in range(length)]
        traces.append(trace)
        total += length

    events = []
    cursor = [0] * len(traces)
    n = 1
    while any(c < len(t) for c, t in zip(cursor, traces)):
        i = rng.choice([j for j, t in enumerate(traces) if cursor[j] < len(t)])
        obj = ObjectId(f"o{i + 1}", "case")
        events.append((f"e{n}", traces[i][cursor[i]], [obj]))
        cursor[i] += 1
        n += 1
    return make_log(events), chain


def chain_net(chain: tuple[str, ...], otype: str = "case") -> AcceptingOCPN:
    places = [Place("s0", otype, initial=True)]
    transitions = []
    arcs = []
    for i, activity in enumerate(chain, start=1):
        places.append(Place(f"s{i}", otype, final=(i == len(chain))))
        transitions.append(Transition(f"t{i}", activity))
        arcs.append(Arc(f"s{i - 1}", f"t{i}"))
        arcs.append(Arc(f"t{i}", f"s{i}"))
    return AcceptingOCPN((otype,), tuple(places), tuple(transitions),
                         tuple(arcs))


def random_log(rng, max_events: int = 12) -> EventLog:
    types = ["X", "Y"][:rng.randint(1, 2)]
    objs = [ObjectId(f"{t.lower()}{i}", t)
            for t in types for i in range(1, rng.randint(2, 4) + 1)]
    activities = ["A", "B", "C", "D", "E"]
    events = []
    for k in range(1, rng.randint(4, max_events) + 1):
        omap = rng.sample(objs, rng.randint(1, min(3, len(objs))))
        events.append((f"e{k}", rng.choice(activities), omap))
    return make_log(events)


def random_net(rng) -> AcceptingOCPN:
    """A small two-type net, valid by construction."""
    types = ("X", "Y")
    places = []
    by_type: dict[str, list[str]] = {}
    for t in types:
        ids = [f"p_{t}_{i}" for i in range(3)]
        by_type[t] = ids
        places.append(Place(ids[0], t, initial=True))
        places.append(Place(ids[1], t))
        places.append(Place(ids[2], t, final=True))

    labels = ["A", "B", "C", "D"]
    rng.shuffle(labels)
    transitions = []
    arcs: list[Arc] = []
    pairs: set[tuple[str, str]] = set()
    all_places = [p for ids in by_type.values() for p in ids]
    for i in range(rng.randint(2, 4)):
        tid = f"t{i}"
        label = None if rng.random() < 0.25 else labels.pop()
        transitions.append(Transition(tid, label))
        variable = {t: rng.random() < 0.3 for t in types}
        for place in rng.sample(all_places, rng.randint(1, 2)):
            if (place, tid) not in pairs:
                pairs.add((place, tid))
                arcs.append(Arc(place, tid,
                                variable[place.rsplit("_", 2)[1]]))
        for place in rng.sample(all_places, rng.randint(1, 2)):
            if (tid, place) not in pairs:
                pairs.add((tid, place))
                arcs.append(Arc(tid, place,
                                variable[place.rsplit("_", 2)[1]]))
    return AcceptingOCPN(types, tuple(places), tuple(transitions),
                         tuple(arcs))


def random_walk_log(rng, net: AcceptingOCPN, max_events: int = 10) -> EventLog | None:
    """A log of one random run of ``net``: up to three objects per type
    start in their initial places, and random enabled bindings (silent
    ones included, up to two objects per variable type) fire until
    ``max_events`` visible firings are logged or nothing is enabled.  None
    when the run logs no event."""
    place_type = {p.id: p.otype for p in net.places}
    objects = {ObjectId(f"{p.otype.lower()}{i}", p.otype): p.id
               for p in net.places if p.initial
               for i in range(1, rng.randint(1, 3) + 1)}
    counts = Counter({(place, o.id): 1 for o, place in objects.items()})
    by_id = {o.id: o for o in objects}
    events = []
    for _ in range(4 * max_events):
        if len(events) == max_events:
            break
        options = [(t, assign, need, prod) for t in net.transitions
                   for assign, need, prod in _oracle_bindings(
                       net, counts, place_type, t)
                   if all(len(ids) <= 2 for ids in assign.values())]
        if not options:
            break
        t, assign, need, prod = rng.choice(options)
        counts = counts - need + prod
        if t.label is not None:
            events.append((f"e{len(events) + 1}", t.label,
                           [by_id[o] for ids in assign.values() for o in ids]))
    return make_log(events) if events else None


def random_marking_items(rng, net: AcceptingOCPN) -> list[tuple[tuple[str, str], int]]:
    pool = {t: [f"{t.lower()}{i}" for i in range(1, 4)]
            for t in net.object_types}
    items: Counter = Counter()
    for _ in range(rng.randint(2, 6)):
        place = rng.choice(net.places)
        obj = rng.choice(pool[place.otype])
        items[(place.id, obj)] += rng.choice([1, 1, 1, 2])
    return list(items.items())
