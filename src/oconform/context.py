"""Event-object graphs and event contexts.

Two events are related when they share an object; the earlier one is a
direct cause of the later.  The ancestor set of an event (its preset)
collects everything that can have influenced it, and its context abstracts
that history into, per object type, the multiset of activity sequences the
involved objects have been through.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from .ocel import Event, EventLog, LogError, ObjectId

Prefix = tuple[str, ...]

_quote = json.encoder.encode_basestring  # the C function the encoder calls


def _canonical(entries: Iterable[tuple[str, Iterable[str]]]) -> str:
    """Ordered (type, rendered ``[sequence,count]`` items) entries as JSON."""
    return "[%s]" % ",".join([f'[{_quote(otype)},[{",".join(items)}]]'
                              for otype, items in entries])


def _digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Context:
    """Per object type, a multiset of activity prefixes, in canonical form.

    ``entries`` is sorted by type name; each multiset is a tuple of
    (sequence, count) pairs sorted by sequence.  Types with no objects are
    omitted, so structurally equal contexts compare equal.
    """

    entries: tuple[tuple[str, tuple[tuple[Prefix, int], ...]], ...]

    @classmethod
    def from_prefixes(cls, prefixes: Mapping[str, Iterable[Prefix]]) -> "Context":
        entries = []
        for otype in sorted(prefixes):
            counts: dict[Prefix, int] = {}
            for seq in prefixes[otype]:
                seq = tuple(seq)
                counts[seq] = counts.get(seq, 0) + 1
            if counts:
                entries.append((otype, tuple(sorted(counts.items()))))
        return cls(tuple(entries))

    def types(self) -> tuple[str, ...]:
        return tuple(ot for ot, _ in self.entries)

    def multiset(self, otype: str) -> dict[Prefix, int]:
        for ot, counted in self.entries:
            if ot == otype:
                return dict(counted)
        return {}

    def canonical_json(self) -> str:
        """The entries as compact JSON, by ``EventObjectGraph.digest``'s renderer."""
        return _canonical((otype, [f'[[{",".join(map(_quote, seq))}],{n}]'
                                   for seq, n in counted])
                          for otype, counted in self.entries)

    def digest(self) -> str:
        return _digest(self.canonical_json())


class _EventSets(Mapping):
    """Per event, a set of events (its preset, say) as a frozenset of event
    ids, built when read from the log positions ``positions`` gives."""

    def __init__(self, graph: "EventObjectGraph",
                 positions: Callable[[int], Iterable[int]]) -> None:
        self._graph = graph
        self._of = positions

    def __getitem__(self, event_id: str) -> frozenset[str]:
        order = self._graph.order
        return frozenset(order[i] for i in self._of(self._graph._index[event_id]))

    def __iter__(self) -> Iterator[str]:
        return iter(self._graph.order)

    def __len__(self) -> int:
        return len(self._graph.order)


@dataclass(eq=False)
class EventObjectGraph:
    """Sparse event-object graph over one log, with its context groups.

    Edges link each event to the previous occurrence of every shared
    object; that keeps the edge set linear in object occurrences while
    preserving reachability, and ancestor sets are what the contexts are
    built from.  Events are stored as log positions: ``_direct[i]`` holds
    the i-th event's direct predecessors, and ``_weight[i]`` counts the
    object occurrences of the events in its preset (its full ancestor
    set).  Presets are not stored: ``preset_positions`` walks back over
    ``_direct`` from an event, only as far back as asked, and ``presets``
    and ``_prefix_predecessor`` read the same walk.
    ``direct_predecessors`` and ``presets`` map each event id to a
    frozenset of event ids, built when read.  ``members`` partitions
    the events by context, groups in the log order of their first event
    and members in log order, and ``group_of`` maps each event id to its
    group's number.  A group's ``Context`` is built when read
    (``context``); its digest is rendered from its bag items, with no
    ``Context`` built (``digest``).  ``objects[s]`` is object number s,
    in ``ObjectId`` order, and ``_slots[i]`` holds the numbers of the
    i-th event's objects, ascending.  ``kinds`` lists the object types,
    sorted, and ``_kind_of[s]`` indexes object s's type in it.
    ``_repeats`` records each process execution that repeats an earlier
    one up to renaming objects, as ``build_graph`` finds them: the first
    one's positions, its own, and its objects by the first's graph
    numbers.  A bag counts objects per node of a trie of activity
    sequences: ``_parents[node]`` is its (parent, activity), and node t
    is the root of ``kinds[t]``.  A node's sequence, as a tuple or as
    JSON text, is built on first use from its parent's, so a label is
    quoted once.
    """

    order: tuple[str, ...]
    group_of: Mapping[str, int]
    members: tuple[tuple[str, ...], ...]
    _index: Mapping[str, int] = field(repr=False)
    _direct: list[set[int]] = field(repr=False)
    _weight: list[int] = field(repr=False)
    _bags: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False)
    _parents: list[tuple[int, str]] = field(repr=False)
    objects: tuple[ObjectId, ...] = field(repr=False)
    _slots: list[list[int]] = field(repr=False)
    kinds: tuple[str, ...] = field(repr=False)
    _kind_of: list[int] = field(repr=False)
    _repeats: tuple[tuple[list[int], list[int], dict[int, ObjectId]], ...] = field(repr=False)
    _texts: dict[int, tuple[str, str]] = field(init=False, repr=False)
    _sequences: dict[int, tuple[str, Prefix]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._texts = {t: (otype, "[]") for t, otype in enumerate(self.kinds)}
        self._sequences = {t: (otype, ()) for t, otype in enumerate(self.kinds)}

    @property
    def direct_predecessors(self) -> Mapping[str, frozenset[str]]:
        return _EventSets(self, self._direct.__getitem__)

    @property
    def presets(self) -> Mapping[str, frozenset[str]]:
        return _EventSets(self, self._preset_positions)

    def edges(self) -> Iterator[tuple[str, str]]:
        for eid, direct in zip(self.order, self._direct):
            for pred in sorted([self.order[d] for d in direct]):
                yield (pred, eid)

    def context(self, group: int) -> Context:
        """The context shared by the events of one group."""
        per_type: dict[str, list[tuple[Prefix, int]]] = {}
        for node, n in self._bags[group]:
            otype, seq = self._sequence(node)
            per_type.setdefault(otype, []).append((seq, n))
        return Context(tuple((otype, tuple(sorted(per_type[otype])))
                             for otype in sorted(per_type)))

    def digest(self, group: int) -> str:
        """``context(group).digest()``, rendered with no ``Context`` built from
        the bag's node texts: types by name, and a type's items in sequence
        order, whose tuples are read only when the type has two or more."""
        texts, sequences = self._texts, self._sequences
        per_type: dict[str, list[tuple[int, str]]] = {}
        for node, n in self._bags[group]:
            otype, text = texts.get(node) or self._text(node)
            per_type.setdefault(otype, []).append((node, f"[{text},{n}]"))
        entries = []
        for otype in sorted(per_type):
            items = per_type[otype]
            if len(items) > 1:  # JSON texts sort unlike tuples: '"' > ' '
                items.sort(key=lambda item: (sequences.get(item[0])
                                             or self._sequence(item[0]))[1])
            entries.append((otype, [item for _, item in items]))
        return _digest(_canonical(entries))

    def _text(self, node: int) -> tuple[str, str]:
        """The node's object type and its sequence as compact JSON."""
        path = []
        while node not in self._texts:
            path.append(node)
            node = self._parents[node][0]
        otype, text = self._texts[node]
        for at in reversed(path):
            text = f"{text[:-1]}{',' * (len(text) > 2)}{_quote(self._parents[at][1])}]"
            self._texts[at] = (otype, text)
        return otype, text

    def _sequence(self, node: int) -> tuple[str, Prefix]:
        """The node's object type and activity sequence."""
        tail = []
        at = node
        while at not in self._sequences:
            at, activity = self._parents[at]
            tail.append(activity)
        otype, head = self._sequences[at]
        self._sequences[node] = (otype, head + tuple(reversed(tail)))
        return self._sequences[node]

    def preset_positions(self, event_id: str, start: int = 0) -> list[int]:
        """Log positions of the event's preset from ``start`` on, ascending."""
        return self._preset_positions(self._position(event_id), start)

    def _preset_positions(self, position: int, start: int = 0) -> list[int]:
        # no ancestor lies past the latest direct predecessor; and every
        # edge goes forward in the log, so a path from an ancestor at or
        # after start passes only through positions at or after start
        direct = self._direct
        if max(direct[position], default=-1) < start:
            return []
        found: set[int] = set()
        stack = [position]
        while stack:
            for p in direct[stack.pop()]:
                if p >= start and p not in found:
                    found.add(p)
                    stack.append(p)
        return sorted(found)

    def _prefix_predecessor(self, position: int) -> int | None:
        """The latest direct predecessor d of the event at ``position`` such
        that d's log-ordered preset, followed by d, opens the event's
        log-ordered preset.

        The event's preset holds d's preset, d, and its own positions after
        d; every event in a preset holds an object, so it holds nothing
        more exactly when its weight is the sum of theirs.  No preset
        position follows the latest direct predecessor, so it is tested
        first, with no sort and no walk; only the earlier ones walk.
        """
        direct, weight, slots = self._direct[position], self._weight, self._slots
        if not direct:
            return None
        latest = max(direct)
        if weight[position] == weight[latest] + len(slots[latest]):
            return latest
        for d in sorted(direct - {latest}, reverse=True):
            later = sum([len(slots[p]) for p in self._preset_positions(position, d + 1)])
            if weight[position] == weight[d] + len(slots[d]) + later:
                return d
        return None

    def _position(self, event_id: str) -> int:
        try:
            return self._index[event_id]
        except KeyError:
            raise LogError(f"unknown event id {event_id!r}") from None


def build_graph(log: EventLog) -> EventObjectGraph:
    """Build the event-object graph.  One pass in log order gives each
    event its direct predecessors, as log positions (an event with one
    object takes that object's last event, with no sort or set built from
    its slots); it also extends each object's trace in the trie, counts
    direct successors and joins each event to its predecessors' process
    executions.  The executions that repeat an earlier one are found from
    that union (``_repeats``); context groups, and each event's preset
    weight, come from a second pass over the other events
    (``_context_groups``).  Event ids are built only when read."""
    objects = tuple(sorted({o for e in log.events for o in e.omap}))
    number = {o: s for s, o in enumerate(objects)}
    slots = [[number[o] for o in e.omap] if len(e.omap) == 1
             else sorted(map(number.__getitem__, e.omap)) for e in log.events]
    kinds = tuple(sorted({o.otype for o in objects}))
    index = {otype: t for t, otype in enumerate(kinds)}
    kind_of = [index[o.otype] for o in objects]
    last_seen = [-1] * len(objects)
    direct: list[set[int]] = []
    users = [0] * len(slots)
    root: list[int] = []  # an earlier event of the same execution, or a root: its first
    parents = [(-1, otype) for otype in kinds]  # the trie's nodes, roots first
    children: dict[tuple[int, str], int] = {}  # (node, activity) -> node
    trace = [[t] for t in kind_of]  # node after k occurrences
    for i, own in enumerate(slots):
        if len(own) == 1:  # its object's last event, if any, is its one predecessor
            preds = {last_seen[own[0]]}
        else:
            preds = {last_seen[s] for s in own}
        preds.discard(-1)
        direct.append(preds)
        root.append(i)
        for p in preds:
            users[p] += 1
            top = root[p]
            while top != root[top]:
                top = root[top]
            here = root[i]  # a root
            if top < here:
                root[here] = root[i] = top
            elif here < top:
                root[top] = here
        activity = log.events[i].activity
        for s in own:
            last_seen[s] = i
            nodes = trace[s]
            step = (nodes[-1], activity)
            node = children.get(step)
            if node is None:
                node = children[step] = len(parents)
                parents.append(step)
            nodes.append(node)
    order = tuple(e.id for e in log.events)
    repeats = _repeats(log.events, slots, objects, kind_of, len(kinds), root)
    group_of, members, bags, weight = _context_groups(order, direct, users, slots, trace,
                                                      repeats)
    return EventObjectGraph(order, group_of, members, log.event_index, direct,
                            weight, bags, parents, objects, slots, kinds, kind_of, repeats)


def _repeats(events: Sequence[Event], slots: list[list[int]], objects: Sequence[ObjectId],
             kind_of: list[int], width: int, root: list[int],
             ) -> tuple[tuple[list[int], list[int], dict[int, ObjectId]], ...]:
    """Each process execution of the log that repeats an earlier one: the
    first one's log positions, its own, and its objects by the first's
    graph numbers.

    An execution is a component of the event-object graph: ``root[i]`` is
    an earlier event of the i-th event's, or the event itself when it is
    the first.  Only executions whose length another one shares are keyed.
    A key lists the steps in the canonical names ``_named`` gives from no
    names, as replay's ``_sequence`` does.  Equal keys pair two executions'
    objects by ``k`` and their events by index.  An event's preset lies
    inside its execution, so paired events have equal contexts, weights,
    canonical names, searches and answers.
    """
    for i, up in enumerate(root):  # every earlier position points at its root
        root[i] = root[up]
    sizes = Counter(root)
    if len(sizes) == len(set(sizes.values())):
        return ()
    shared = Counter(sizes.values())
    executions = {top: [] for top, size in sizes.items() if shared[size] > 1}
    for i, top in enumerate(root):
        if top in executions:
            executions[top].append(i)
    firsts: dict[tuple, tuple[list[int], dict[int, int]]] = {}
    repeats = []
    for positions in executions.values():
        steps: list[tuple] = []
        names = _named(events, slots, kind_of, width, positions, {}, True, steps)
        first, numbers = firsts.setdefault(tuple(steps), (positions, names))
        if first is not positions:
            repeats.append((first, positions,
                            dict(zip(numbers, map(objects.__getitem__, names)))))
    return tuple(repeats)


def _named(events: Sequence[Event], slots: list[list[int]], kind_of: list[int], width: int,
           positions: Iterable[int], names: dict[int, int], canonical: bool,
           steps: list[tuple], entering: list | None = None) -> dict[int, int]:
    """Append to ``steps`` the compact steps ``(activity, *names)`` of the
    events at ``positions``, each step's names ascending, naming each
    object on entry that ``names`` lacks; returns the names.  A new object
    s of type ``t = kind_of[s]`` is named ``k * width + t``: when
    ``canonical``, ``k`` counts on from ``len(names)``, ties in
    graph-number (``ObjectId``) order; otherwise ``k`` is s.  ``names`` is
    copied on the first new object and returned as is when there is none:
    no one writes to names once returned.  ``entering``, when given, gets
    each step that binds new objects, as its index in ``steps`` and their
    names.
    """
    given = names
    for i in positions:
        new = ()
        bound = []
        for s in slots[i]:
            name = names.get(s)
            if name is None:
                if names is given:
                    names = dict(names)
                name = names[s] = (len(names) if canonical else s) * width + kind_of[s]
                new += (name,)
            bound.append(name)
        if new and entering is not None:
            entering.append((len(steps), new))
        bound.sort()
        steps.append((events[i].activity, *bound))
    return names


def _context_groups(order: tuple[str, ...], direct: list[set[int]], users: list[int],
                    slots: list[list[int]], trace: list[list[int]],
                    repeats: Sequence[tuple[list[int], list[int], dict]],
                    ) -> tuple[dict[str, int], tuple[tuple[str, ...], ...],
                               tuple[tuple[tuple[int, int], ...], ...], list[int]]:
    """Every event's context group, in one pass over the log.

    Events are log positions: ``direct[i]`` holds the i-th event's direct
    predecessors, ``users[i]`` counts its direct successors and
    ``slots[i]`` holds its objects' numbers; ``trace[s][k]`` is object s's
    trie node after its first k occurrences.  The events of an object
    inside a preset form a prefix of the object's trace, because the graph
    chains each object's occurrences.  So a preset is summed up by
    ``counts``: per object, how many of its occurrences the preset holds.
    An event's preset is the union of its direct predecessors and their
    presets, so its counts are, object by object, the largest of its
    predecessors' counts taken after each predecessor itself.  The largest
    predecessor's counts are copied, or taken over by its last successor;
    the others are merged in unless one of their objects already counts
    their occurrence, which puts them in the preset; and counts are freed
    once their last successor has read them.  A sole predecessor needs no
    sort and no merge.  An event's weight, the sum of its counts, is its
    base predecessor's weight and object count, plus what each merge
    raises.  ``bag`` counts the objects at each trie node alongside
    ``counts``, and each count moves inline: the bag is the context, so
    equal contexts have equal bag items.  Groups are keyed by the
    frozenset of the bag's items, which hashes in C with no sort per
    event.  The events of an execution that repeats an earlier one
    (``repeats``, as ``_repeats`` gives them) build no counts and no bag:
    each takes its counterpart's key and weight after the pass, since a
    repeat's event may come first in the log.  So groups are numbered
    after the pass, in the log order of their first events.  Returns each
    event's group number, each group's events, each group's bag items,
    sorted once per group, and each event's weight.
    """
    after: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    keys: list[frozenset[tuple[int, int]] | None] = [None] * len(slots)
    weight = [0] * len(slots)
    repeated = set().union(*[positions for _, positions, _ in repeats])
    for i, own in enumerate(slots):
        if i in repeated:
            continue
        preds = direct[i]
        if len(preds) == 1:
            (base,) = preds
            w = weight[base] + len(slots[base])
            users[base] -= 1
            if users[base]:
                counts, bag = after[base]
                counts, bag = counts.copy(), bag.copy()
            else:
                counts, bag = after.pop(base)
        elif not preds:
            w = 0
            counts: dict[int, int] = {}
            bag: dict[int, int] = {}
        else:
            preds = sorted(preds, key=lambda d: len(after[d][0]), reverse=True)
            base = preds[0]
            w = weight[base] + len(slots[base])
            if users[base] == 1:
                counts, bag = after[base]
            else:
                counts, bag = (m.copy() for m in after[base])
            for d in preds[1:]:
                theirs = after[d][0]
                s = slots[d][0]
                if counts.get(s, 0) >= theirs[s]:  # d is in the preset already
                    continue
                for s, k in theirs.items():
                    was = counts.get(s, 0)  # no count is 0 before own objects join
                    if was < k:
                        if was:
                            node = trace[s][was]
                            if bag[node] == 1:
                                del bag[node]
                            else:
                                bag[node] -= 1
                        w += k - was
                        counts[s] = k
                        node = trace[s][k]
                        bag[node] = bag.get(node, 0) + 1
            for d in preds:
                users[d] -= 1
                if not users[d]:
                    del after[d]
        weight[i] = w
        for s in own:
            if s not in counts:
                counts[s] = 0
                node = trace[s][0]
                bag[node] = bag.get(node, 0) + 1
        keys[i] = frozenset(bag.items())
        if users[i]:
            for s in own:
                nodes = trace[s]
                k = counts[s]
                node = nodes[k]
                if bag[node] == 1:
                    del bag[node]
                else:
                    bag[node] -= 1
                counts[s] = k + 1
                node = nodes[k + 1]
                bag[node] = bag.get(node, 0) + 1
            after[i] = (counts, bag)
    for first, positions, _ in repeats:
        for p, c in zip(positions, first):
            keys[p], weight[p] = keys[c], weight[c]
    number: dict[frozenset[tuple[int, int]], int] = {}
    members: list[list[str]] = []
    group_of: dict[str, int] = {}
    for eid, key in zip(order, keys):
        group = number.setdefault(key, len(members))
        if group == len(members):
            members.append([])
        members[group].append(eid)
        group_of[eid] = group
    return (group_of, tuple(map(tuple, members)),
            tuple(tuple(sorted(key)) for key in number), weight)


def event_preset(graph: EventObjectGraph, event_id: str) -> frozenset[str]:
    """All events with a path to the given event (its ancestors), as a
    frozenset, walked back over the graph's direct predecessors."""
    try:
        return graph.presets[event_id]
    except KeyError:
        raise LogError(f"unknown event id {event_id!r}") from None


def context_of_event(log: EventLog, graph: EventObjectGraph, event_id: str) -> Context:
    """The event's context: per type, the multiset of prefixes of every
    object touched by the event or its ancestors.

    Objects that first appear in the event itself contribute the empty
    sequence.  ``graph`` must be built from ``log``.
    """
    return graph.context(_group(graph, event_id))


def _group(graph: EventObjectGraph, event_id: str) -> int:
    try:
        return graph.group_of[event_id]
    except KeyError:
        raise LogError(f"unknown event id {event_id!r}") from None


def group_by_context(log: EventLog, graph: EventObjectGraph) -> dict[Context, tuple[str, ...]]:
    """Partition the log's events by context; groups keep log order."""
    return {graph.context(group): members
            for group, members in enumerate(graph.members)}


def enabled_log_activities(log: EventLog, graph: EventObjectGraph, event_id: str) -> frozenset[str]:
    """Activities of all events sharing the given event's context.

    Never empty: the event itself always qualifies.
    """
    return frozenset(log.event(eid).activity
                     for eid in graph.members[_group(graph, event_id)])

