"""Object-centric event logs: in-memory model, JSON parsing, validation.

A log is a totally ordered sequence of events, each carrying an activity
label and a non-empty set of typed objects.  The order of the ``events``
array is the authoritative total order; timestamps are carried through
untouched but never interpreted.  ``ObjectId`` and ``Event`` are named
tuples: they hash, compare and order as the tuple of their fields, in C.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Mapping, NamedTuple


class LogError(ValueError):
    """A log document or EventLog value violates the log contract."""


class ObjectId(NamedTuple):
    """A typed object: identity plus its single, immutable object type."""

    id: str
    otype: str


class Event(NamedTuple):
    """One event of the log.

    ``index`` is the position in the log's total order (0-based); two
    events never share an index.  ``omap`` is the set of objects the
    event touches and is never empty in a valid log.
    """

    id: str
    activity: str
    omap: frozenset[ObjectId]
    index: int
    timestamp: str | None = None

    def objects_of_type(self, otype: str) -> frozenset[ObjectId]:
        return frozenset(o for o in self.omap if o.otype == otype)

    def otypes(self) -> frozenset[str]:
        return frozenset(o.otype for o in self.omap)


@dataclass
class EventLog:
    """An object-centric event log.  Treated as immutable after construction.

    ``event_extras`` / ``object_extras`` hold unknown JSON fields keyed by
    event/object id; they are preserved opaquely for round-tripping and
    never interpreted.
    """

    object_types: tuple[str, ...]
    objects: tuple[ObjectId, ...]
    events: tuple[Event, ...]
    event_extras: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    object_extras: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    @cached_property
    def objects_by_id(self) -> dict[str, ObjectId]:
        return {o.id: o for o in self.objects}

    @cached_property
    def event_index(self) -> dict[str, int]:
        """Position of each event in the log's total order, by event id."""
        return {e.id: position for position, e in enumerate(self.events)}

    @cached_property
    def activities(self) -> frozenset[str]:
        return frozenset(e.activity for e in self.events)

    def event(self, event_id: str) -> Event:
        try:
            return self.events[self.event_index[event_id]]
        except KeyError:
            raise LogError(f"unknown event id {event_id!r}") from None


def _reject_duplicate_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in pairs:
        if key in out:
            raise LogError(f"duplicate key {key!r} in JSON object")
        out[key] = value
    return out


def _load_json(data: bytes | str) -> Any:
    """Decode a JSON document; a malformed one raises LogError."""
    try:
        return json.loads(data, object_pairs_hook=_reject_duplicate_keys)
    except LogError:  # a duplicate key
        raise
    except ValueError as exc:  # bad syntax, undecodable bytes, an over-long number
        raise LogError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise LogError("malformed JSON: nested too deeply") from exc


_EVENT_KEYS = ("id", "activity", "omap", "timestamp")


def parse_log(data: bytes | str) -> EventLog:
    """Parse a log-JSON document into a validated EventLog.

    Raises LogError on malformed JSON, unknown objects referenced in an
    omap, duplicate event or object ids, or an empty omap.

    Each event is read once.  Index and position agree, and omap objects
    are declared with their types, by construction; the other invariants
    are checked on whole sets, and only a log that fails one of them runs
    ``validate_log``, whose first violation is the error.
    """
    doc = _load_json(data)
    if not isinstance(doc, dict):
        raise LogError("log document must be a JSON object")
    for key in ("object_types", "objects", "events"):
        if key not in doc:
            raise LogError(f"log document missing {key!r}")

    raw_types = doc["object_types"]
    if not isinstance(raw_types, list) or not all(isinstance(t, str) for t in raw_types):
        raise LogError("'object_types' must be an array of strings")
    object_types = tuple(raw_types)

    raw_objects = doc["objects"]
    if not isinstance(raw_objects, dict):
        raise LogError("'objects' must be an object mapping ids to types")
    objects: list[ObjectId] = []
    object_extras: dict[str, dict[str, Any]] = {}
    for oid, value in raw_objects.items():
        if isinstance(value, str):
            objects.append(ObjectId(oid, value))
        elif isinstance(value, dict):
            # OCEL-style object attributes: kept opaque under the id.
            otype = value.get("type")
            if not isinstance(otype, str):
                raise LogError(f"object {oid!r}: missing or non-string 'type'")
            objects.append(ObjectId(oid, otype))
            extras = {k: v for k, v in value.items() if k != "type"}
            if extras:
                object_extras[oid] = extras
        else:
            raise LogError(f"object {oid!r}: expected a type name or an object")
    by_id = {o.id: o for o in objects}
    declared_object = by_id.__getitem__

    raw_events = doc["events"]
    if not isinstance(raw_events, list):
        raise LogError("'events' must be an array")
    events: list[Event] = []
    event_extras: dict[str, dict[str, Any]] = {}
    for index, raw in enumerate(raw_events):
        if not isinstance(raw, dict):
            raise LogError(f"event at position {index} is not a JSON object")
        eid = raw.get("id")
        activity = raw.get("activity")
        raw_omap = raw.get("omap")
        if not isinstance(eid, str) or not eid:
            raise LogError(f"event at position {index}: missing or empty 'id'")
        if not isinstance(activity, str) or not activity:
            raise LogError(f"event {eid!r}: missing or empty 'activity'")
        if not isinstance(raw_omap, list):
            raise LogError(f"event {eid!r}: 'omap' must be an array")
        try:
            omap = frozenset(map(declared_object, raw_omap))
        except (KeyError, TypeError):  # name the first bad reference
            for ref in raw_omap:
                if not isinstance(ref, str):
                    raise LogError(f"event {eid!r}: omap entries must be object ids") from None
                if ref not in by_id:
                    raise LogError(f"event {eid!r}: unknown object {ref!r} in omap") from None
            raise
        timestamp = raw.get("timestamp")
        if timestamp is not None and not isinstance(timestamp, str):
            raise LogError(f"event {eid!r}: 'timestamp' must be a string")
        # id, activity and omap are present, so a longer event has extras
        if len(raw) > 3 + ("timestamp" in raw):
            event_extras[eid] = {k: v for k, v in raw.items() if k not in _EVENT_KEYS}
        events.append(Event(eid, activity, omap, index, timestamp))

    log = EventLog(object_types, tuple(objects), tuple(events),
                   event_extras, object_extras)
    declared = set(object_types)
    if (len(declared) < len(object_types) or "" in declared or "" in by_id
            or not {o.otype for o in objects} <= declared
            or len({e.id for e in events}) < len(events)
            or not all(e.omap for e in events)):
        raise LogError(validate_log(log)[0])
    return log


def validate_log(log: EventLog) -> list[str]:
    """Check every EventLog invariant; return violations (empty list = ok)."""
    violations = []
    seen_types = set()
    for t in log.object_types:
        if not t:
            violations.append("empty object type name")
        elif t in seen_types:
            violations.append(f"duplicate object type {t!r}")
        seen_types.add(t)

    declared: dict[str, ObjectId] = {}
    for o in log.objects:
        if not o.id:
            violations.append("empty object id")
        if o.id in declared:
            violations.append(f"duplicate object id {o.id!r}")
        declared[o.id] = o
        if o.otype not in seen_types:
            violations.append(f"object {o.id!r}: unknown object type {o.otype!r}")

    seen_events = set()
    for position, e in enumerate(log.events):
        if e.id in seen_events:
            violations.append(f"duplicate event id {e.id!r}")
        seen_events.add(e.id)
        if e.index != position:
            violations.append(f"event {e.id!r}: index {e.index} != position {position}")
        if not e.omap:
            violations.append(f"event {e.id!r}: empty omap")
        for o in e.omap:
            if o.id not in declared:
                violations.append(f"event {e.id!r}: unknown object {o.id!r}")
            elif declared[o.id] != o:
                violations.append(
                    f"event {e.id!r}: object {o.id!r} used with type {o.otype!r} "
                    f"but declared {declared[o.id].otype!r}")
    return violations


def serialize_log(log: EventLog) -> str:
    """Serialize to canonical log-JSON (stable key and set ordering).

    parse_log followed by serialize_log is the identity on documents that
    are already in canonical form.
    """
    objects: dict[str, Any] = {}
    for o in sorted(log.objects):
        extras = log.object_extras.get(o.id)
        if extras:
            entry: dict[str, Any] = {"type": o.otype}
            entry.update(sorted(extras.items()))
            objects[o.id] = entry
        else:
            objects[o.id] = o.otype
    events = []
    for e in log.events:
        entry = {"id": e.id, "activity": e.activity,
                 "omap": sorted(o.id for o in e.omap)}
        if e.timestamp is not None:
            entry["timestamp"] = e.timestamp
        entry.update(sorted(log.event_extras.get(e.id, {}).items()))
        events.append(entry)
    doc = {
        "object_types": sorted(log.object_types),
        "objects": objects,
        "events": events,
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def make_log(events: Iterable[tuple[str, str, Iterable[ObjectId]]]) -> EventLog:
    """Build a log from (event id, activity, objects) triples.

    Convenience for tests and generators; object types and the objects
    table are derived from the events, an object's type from its first
    occurrence.  Raises LogError, with ``validate_log``'s first violation,
    when event ids repeat, an object id comes with two types, an event
    has no objects or a name is empty.
    """
    built = []
    objects: dict[str, ObjectId] = {}
    for index, (eid, activity, objs) in enumerate(events):
        omap = frozenset(objs)
        for o in omap:
            objects.setdefault(o.id, o)
        built.append(Event(eid, activity, omap, index))
    types = tuple(sorted({o.otype for o in objects.values()}))
    ordered = tuple(objects[k] for k in sorted(objects))
    log = EventLog(types, ordered, tuple(built))
    violations = validate_log(log)
    if violations:
        raise LogError(violations[0])
    return log
