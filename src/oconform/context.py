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
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

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


@dataclass
class EventObjectGraph:
    """Sparse event-object graph over one log.

    Edges link each event to the previous occurrence of every shared
    object; that keeps the edge set linear in object occurrences while
    preserving reachability, and ancestor sets are what the contexts are
    built from.  ``presets`` maps each event id to its full ancestor set.
    """

    order: tuple[str, ...]
    direct_predecessors: Mapping[str, frozenset[str]]
    presets: Mapping[str, frozenset[str]]

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.order

    def edges(self) -> Iterator[tuple[str, str]]:
        for eid in self.order:
            for pred in sorted(self.direct_predecessors[eid]):
                yield (pred, eid)


def build_graph(log: EventLog) -> EventObjectGraph:
    """Build the event-object graph; ancestor sets are memoized in log order."""
    last_seen: dict[ObjectId, str] = {}
    direct: dict[str, frozenset[str]] = {}
    presets: dict[str, frozenset[str]] = {}
    for e in log.events:
        preds = frozenset(last_seen[o] for o in e.omap if o in last_seen)
        direct[e.id] = preds
        # every direct predecessor is earlier in the log, so its preset is done
        ancestors: set[str] = set()
        for pred in preds:
            ancestors.add(pred)
            ancestors |= presets[pred]
        presets[e.id] = frozenset(ancestors)
        for o in e.omap:
            last_seen[o] = e.id
    return EventObjectGraph(tuple(e.id for e in log.events), direct, presets)


def event_preset(graph: EventObjectGraph, event_id: str) -> frozenset[str]:
    """All events with a path to the given event (its ancestors)."""
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


def object_prefix(log: EventLog, preset: Iterable[str], obj: ObjectId) -> Prefix:
    """Activity sequence of the preset's events containing obj, in log order."""
    return tuple(e.activity for e in events_in_log_order(log, preset)
                 if obj in e.omap)


def _prefixes_by_object(log: EventLog, preset: frozenset[str]) -> dict[ObjectId, list[str]]:
    out: dict[ObjectId, list[str]] = {}
    for e in events_in_log_order(log, preset):
        for o in e.omap:
            out.setdefault(o, []).append(e.activity)
    return out


def context_of_event(log: EventLog, graph: EventObjectGraph, event_id: str) -> Context:
    """The event's context: per type, the multiset of prefixes of every
    object touched by the event or its ancestors.

    Objects that first appear in the event itself contribute the empty
    sequence.
    """
    event = log.event(event_id)
    preset = event_preset(graph, event_id)
    prefixes = _prefixes_by_object(log, preset)
    for o in event.omap:
        prefixes.setdefault(o, [])
    grouped: dict[str, list[Prefix]] = {}
    for o, acts in prefixes.items():
        grouped.setdefault(o.otype, []).append(tuple(acts))
    return Context.from_prefixes(grouped)


def group_by_context(log: EventLog, graph: EventObjectGraph) -> dict[Context, tuple[str, ...]]:
    """Partition the log's events by context; groups keep log order."""
    groups: dict[Context, list[str]] = {}
    for e in log.events:
        ctx = context_of_event(log, graph, e.id)
        groups.setdefault(ctx, []).append(e.id)
    return {ctx: tuple(members) for ctx, members in groups.items()}


def enabled_log_activities(log: EventLog, graph: EventObjectGraph, event_id: str) -> frozenset[str]:
    """Activities of all events sharing the given event's context.

    Never empty: the event itself always qualifies.
    """
    ctx = context_of_event(log, graph, event_id)
    out = set()
    for e in log.events:
        if context_of_event(log, graph, e.id) == ctx:
            out.add(e.activity)
    return frozenset(out)


def preset_objects(log: EventLog, graph: EventObjectGraph, event_id: str) -> frozenset[ObjectId]:
    """All objects touched by the event or any of its ancestors."""
    event = log.event(event_id)
    objects = set(event.omap)
    for eid in event_preset(graph, event_id):
        objects |= log.event(eid).omap
    return frozenset(objects)
