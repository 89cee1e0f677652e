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
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Iterator, Mapping

from .ocel import Event, EventLog, LogError, ObjectId

Prefix = tuple[str, ...]


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
        payload = [[ot, [[list(seq), n] for seq, n in counted]]
                   for ot, counted in self.entries]
        return json.dumps(payload, ensure_ascii=False, separators=(",", ":"))

    def digest(self) -> str:
        raw = self.canonical_json().encode("utf-8")
        return hashlib.sha256(raw).hexdigest()[:16]


class _Trie:
    """Activity sequences as nodes: one root per object type, and one child
    per (node, activity).  A node is an object type plus the sequence that
    leads to it from the type's root."""

    def __init__(self) -> None:
        self._parents: list[tuple[int, str]] = []  # roots: (-1, type)
        self._children: dict[tuple[int, str], int] = {}
        self._sequences: dict[int, tuple[str, Prefix]] = {}

    def child(self, parent: int, label: str) -> int:
        """The node after ``label``; a root, for an object type, at parent -1."""
        node = self._children.setdefault((parent, label), len(self._parents))
        if node == len(self._parents):
            self._parents.append((parent, label))
            if parent < 0:
                self._sequences[node] = (label, ())
        return node

    def sequence(self, node: int) -> tuple[str, Prefix]:
        """The node's object type and activity sequence."""
        tail = []
        at = node
        while at not in self._sequences:
            at, activity = self._parents[at]
            tail.append(activity)
        otype, head = self._sequences[at]
        self._sequences[node] = (otype, head + tuple(reversed(tail)))
        return self._sequences[node]

    def context(self, bag: Iterable[tuple[int, int]]) -> Context:
        """The context of (node, number of objects) pairs."""
        per_type: dict[str, list[tuple[Prefix, int]]] = {}
        for node, n in bag:
            otype, seq = self.sequence(node)
            per_type.setdefault(otype, []).append((seq, n))
        return Context(tuple((otype, tuple(sorted(per_type[otype])))
                             for otype in sorted(per_type)))


def _positions(low: int, bits: int, start: int = 0) -> list[int]:
    """The positions set in ``bits``, where bit j stands for position
    ``low + j``, from ``start`` on, in ascending order."""
    if start > low:
        bits >>= start - low
        low = start
    digits = bin(bits)[:1:-1]  # least significant first, without "0b"
    found = []
    at = digits.find("1")
    while at >= 0:
        found.append(low + at)
        at = digits.find("1", at + 1)
    return found


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


@dataclass
class EventObjectGraph:
    """Sparse event-object graph over one log, with its context groups.

    Edges link each event to the previous occurrence of every shared
    object; that keeps the edge set linear in object occurrences while
    preserving reachability, and ancestor sets are what the contexts are
    built from.  Events are stored as log positions: ``_direct[i]`` holds
    the i-th event's direct predecessors, and its preset (its full
    ancestor set) is one ``int`` over log positions, shifted down by the
    preset's lowest position: bit j of ``_bits[i]`` stands for position
    ``_low[i] + j``, so a preset costs its span in bits, not the log's
    length.  ``preset_positions`` and ``preset_count`` read them;
    ``direct_predecessors`` and ``presets`` map each event id to a
    frozenset of event ids, built when read.  ``members`` partitions the
    events by context, groups in the log order of their first event and
    members in log order, and ``group_of`` maps each event id to its
    group's number.  A group's ``Context`` is built on first use
    (``context``).  ``objects[s]`` is object number s, in ``ObjectId``
    order, ``_types[s]`` its type, and ``_slots[i]`` holds the numbers of
    the i-th event's objects, ascending.
    """

    order: tuple[str, ...]
    group_of: Mapping[str, int]
    members: tuple[tuple[str, ...], ...]
    _index: Mapping[str, int] = field(repr=False)
    _direct: list[set[int]] = field(repr=False)
    _low: list[int] = field(repr=False)
    _bits: list[int] = field(repr=False)
    _bags: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False, compare=False)
    _trie: _Trie = field(repr=False, compare=False)
    objects: tuple[ObjectId, ...] = field(repr=False, compare=False)
    _types: list[str] = field(repr=False, compare=False)
    _slots: list[list[int]] = field(repr=False, compare=False)
    _built: dict[int, Context] = field(default_factory=dict, repr=False,
                                       compare=False)

    @property
    def direct_predecessors(self) -> Mapping[str, frozenset[str]]:
        return _EventSets(self, self._direct.__getitem__)

    @property
    def presets(self) -> Mapping[str, frozenset[str]]:
        return _EventSets(self, lambda i: _positions(self._low[i], self._bits[i]))

    def edges(self) -> Iterator[tuple[str, str]]:
        for eid, direct in zip(self.order, self._direct):
            for pred in sorted([self.order[d] for d in direct]):
                yield (pred, eid)

    def context(self, group: int) -> Context:
        """The context shared by the events of one group."""
        ctx = self._built.get(group)
        if ctx is None:
            ctx = self._built[group] = self._trie.context(self._bags[group])
        return ctx

    def preset_positions(self, event_id: str, start: int = 0) -> list[int]:
        """Log positions of the event's preset from ``start`` on, ascending."""
        position = self._position(event_id)
        return _positions(self._low[position], self._bits[position], start)

    def preset_count(self, event_id: str, below: int | None = None) -> int:
        """Size of the event's preset, or of its part before log position
        ``below``."""
        position = self._position(event_id)
        bits = self._bits[position]
        if below is not None:
            bits &= (1 << max(below - self._low[position], 0)) - 1
        return bits.bit_count()

    def _position(self, event_id: str) -> int:
        try:
            return self._index[event_id]
        except KeyError:
            raise LogError(f"unknown event id {event_id!r}") from None


def build_graph(log: EventLog) -> EventObjectGraph:
    """Build the event-object graph.  One pass in log order gives each
    event its direct predecessors, as log positions, and its preset, from
    theirs; it also extends each object's trace in the trie and counts
    direct successors.  Context groups come from a second pass over the
    log (``_context_groups``).  Event ids are built only when read."""
    # (id, type) pairs compare and hash in C, and sort in ObjectId order
    by_key = {(o.id, o.otype): o for e in log.events for o in e.omap}
    number = {key: s for s, key in enumerate(sorted(by_key))}
    objects = tuple(by_key[key] for key in number)
    types = [otype for _, otype in number]
    slots = [sorted([number[o.id, o.otype] for o in e.omap]) for e in log.events]
    last_seen = [-1] * len(objects)
    direct: list[set[int]] = []
    users = [0] * len(slots)
    low: list[int] = []
    bits: list[int] = []
    trie = _Trie()
    children, parents = trie._children, trie._parents
    trace = [[trie.child(-1, otype)] for otype in types]  # node after k occurrences
    for i, own in enumerate(slots):
        preds = {last_seen[s] for s in own}
        preds.discard(-1)
        direct.append(preds)
        # every direct predecessor is earlier in the log, so its preset is
        # done; an empty preset's lowest position is its event's own
        start = min([low[p] for p in preds], default=i)
        ancestors = 0
        for p in preds:
            ancestors |= (bits[p] | 1 << (p - low[p])) << (low[p] - start)
            users[p] += 1
        low.append(start)
        bits.append(ancestors)
        activity = log.events[i].activity
        for s in own:
            last_seen[s] = i
            nodes = trace[s]
            step = (nodes[-1], activity)  # the trie's child, inline
            node = children.get(step)
            if node is None:
                node = children[step] = len(parents)
                parents.append(step)
            nodes.append(node)
    order = tuple(e.id for e in log.events)
    group_of, members, bags = _context_groups(order, direct, users, low, bits,
                                              slots, trace)
    return EventObjectGraph(order, group_of, members, log.event_index, direct,
                            low, bits, bags, trie, objects, types, slots)


def _context_groups(order: tuple[str, ...], direct: list[set[int]], users: list[int],
                    low: list[int], bits: list[int], slots: list[list[int]],
                    trace: list[list[int]],
                    ) -> tuple[dict[str, int], tuple[tuple[str, ...], ...],
                               tuple[tuple[tuple[int, int], ...], ...]]:
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
    the others are merged in unless they are already in its preset; and
    counts are freed once their last successor has read them.  ``bag``
    counts the objects at each trie node alongside ``counts``, and each
    count moves inline: the bag is the context, so equal contexts have
    equal bag items.  Returns each event's group number, each group's
    events, and each group's bag items.
    """
    after: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    number: dict[tuple[tuple[int, int], ...], int] = {}
    members: list[list[str]] = []
    group_of: dict[str, int] = {}
    for i, own in enumerate(slots):
        preds = [*direct[i]]
        if len(preds) > 1:
            preds.sort(key=lambda d: len(after[d][0]), reverse=True)
        if not preds:
            counts: dict[int, int] = {}
            bag: dict[int, int] = {}
        elif users[preds[0]] == 1:
            counts, bag = after[preds[0]]
        else:
            counts, bag = (m.copy() for m in after[preds[0]])
        for d in preds[1:]:
            shift = d - low[preds[0]]  # d is in the largest one's preset?
            if shift < 0 or not bits[preds[0]] >> shift & 1:
                for s, k in after[d][0].items():
                    was = counts.get(s)
                    if was is None or was < k:
                        if was is not None:
                            node = trace[s][was]
                            if bag[node] == 1:
                                del bag[node]
                            else:
                                bag[node] -= 1
                        counts[s] = k
                        node = trace[s][k]
                        bag[node] = bag.get(node, 0) + 1
        for d in preds:
            users[d] -= 1
            if not users[d]:
                del after[d]
        for s in own:
            if s not in counts:
                counts[s] = 0
                node = trace[s][0]
                bag[node] = bag.get(node, 0) + 1
        group = number.setdefault(tuple(sorted(bag.items())), len(members))
        if group == len(members):
            members.append([])
        members[group].append(order[i])
        group_of[order[i]] = group
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
    return group_of, tuple(map(tuple, members)), tuple(number)


def event_preset(graph: EventObjectGraph, event_id: str) -> frozenset[str]:
    """All events with a path to the given event (its ancestors), as a
    frozenset built from the graph's bitset."""
    try:
        return graph.presets[event_id]
    except KeyError:
        raise LogError(f"unknown event id {event_id!r}") from None


def events_in_log_order(log: EventLog, event_ids: Iterable[str]) -> list[Event]:
    """The log's events among the given ids (a preset, say), in log order.

    Ids the log does not contain are ignored.
    """
    index = log.event_index
    positions = sorted(index[eid] for eid in set(event_ids) if eid in index)
    return [log.events[i] for i in positions]


def context_of_event(log: EventLog, graph: EventObjectGraph, event_id: str) -> Context:
    """The event's context: per type, the multiset of prefixes of every
    object touched by the event or its ancestors.

    Objects that first appear in the event itself contribute the empty
    sequence.  ``graph`` must be built from ``log``.
    """
    return graph.context(_group(graph, event_id))


def context_group(graph: EventObjectGraph, event_id: str) -> tuple[str, ...]:
    """The events sharing the given event's context, in log order."""
    return graph.members[_group(graph, event_id)]


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
                     for eid in context_group(graph, event_id))

