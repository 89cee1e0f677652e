"""Object-centric Petri nets with accepting states, and their token game.

Each place is typed by exactly one object type; transitions are optionally
labeled (an unlabeled transition is silent) and consume/produce one token
per (input/output place, bound object) pair.  Arcs marked ``variable``
transfer a set of objects of the place's type in one firing; all other
arcs transfer exactly one.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, product
from collections.abc import Iterable, Iterator, Mapping
from typing import Any

from .ocel import EventLog, LogError, ObjectId


class ModelError(ValueError):
    """A model document or net value violates the model contract."""


@dataclass(frozen=True)
class Place:
    id: str
    otype: str
    initial: bool = False
    final: bool = False


@dataclass(frozen=True)
class Transition:
    id: str
    label: str | None = None

    @property
    def silent(self) -> bool:
        return self.label is None


@dataclass(frozen=True)
class Arc:
    source: str
    target: str
    variable: bool = False


Token = tuple[str, str]  # (place id, object id)


class Marking:
    """A multiset of (place id, object id) tokens.

    Value semantics: equality and hashing go through a canonical sorted
    (place, object, count) tuple, so markings can key visited-state sets.
    Instances are never mutated after construction.
    """

    __slots__ = ("_counts", "_key", "_by_place")

    def __init__(self, tokens: Iterable[Token] | Mapping[Token, int] = ()):
        counts: dict[Token, int] = {}
        # the exact-type test first: the abstract-class check is slower
        if type(tokens) is dict or isinstance(tokens, Mapping):
            for token, n in tokens.items():
                if n < 0:
                    raise ModelError(f"negative token count for {token}")
                if n:
                    counts[token] = counts.get(token, 0) + n
        else:
            for token in tokens:
                counts[token] = counts.get(token, 0) + 1
        self._counts = counts
        self._key: tuple[tuple[str, str, int], ...] | None = None
        self._by_place: dict[str, frozenset[str]] | None = None

    @classmethod
    def _of(cls, counts: dict[Token, int]) -> "Marking":
        """Wrap counts that are all positive already, without copying them."""
        marking = cls.__new__(cls)
        marking._counts = counts
        marking._key = None
        marking._by_place = None
        return marking

    def key(self) -> tuple[tuple[str, str, int], ...]:
        if self._key is None:
            self._key = tuple(sorted(
                (place, obj, n) for (place, obj), n in self._counts.items()))
        return self._key

    def items(self) -> Iterator[tuple[Token, int]]:
        return iter(self._counts.items())

    def count(self, token: Token) -> int:
        return self._counts.get(token, 0)

    def objects_at(self, place_id: str) -> frozenset[str]:
        if self._by_place is None:
            by_place: dict[str, set[str]] = {}
            for (place, obj) in self._counts:
                by_place.setdefault(place, set()).add(obj)
            self._by_place = {p: frozenset(s) for p, s in by_place.items()}
        return self._by_place.get(place_id, frozenset())

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Marking):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(self.key())

    def __le__(self, other: "Marking") -> bool:
        return all(other._counts.get(t, 0) >= n for t, n in self._counts.items())

    def __add__(self, other: "Marking") -> "Marking":
        merged = dict(self._counts)
        for t, n in other._counts.items():
            merged[t] = merged.get(t, 0) + n
        return Marking._of(merged)

    def __sub__(self, other: "Marking") -> "Marking":
        reduced = dict(self._counts)
        for t, n in other._counts.items():
            left = reduced.get(t, 0) - n
            if left < 0:
                raise ModelError(f"cannot remove absent token {t}")
            if left:
                reduced[t] = left
            else:
                reduced.pop(t, None)
        return Marking._of(reduced)

    def __repr__(self) -> str:
        parts = []
        for place, obj, n in self.key():
            parts.extend([f"({place},{obj})"] * n)
        return f"Marking([{', '.join(parts)}])"


@dataclass(frozen=True)
class Binding:
    """A transition firing: the transition id plus bound objects per type."""

    transition: str
    objects: tuple[tuple[str, frozenset[str]], ...]  # (otype, object ids), sorted

    @classmethod
    def make(cls, transition: str, objects: Mapping[str, Iterable[str]]) -> "Binding":
        entries = tuple(sorted((ot, frozenset(ids)) for ot, ids in objects.items()))
        return cls(transition, entries)

    @property
    def by_type(self) -> dict[str, frozenset[str]]:
        return dict(self.objects)

    def all_objects(self) -> frozenset[str]:
        out: set[str] = set()
        for _, ids in self.objects:
            out |= ids
        return frozenset(out)


@dataclass
class AcceptingOCPN:
    """A validated net.  Derived indexes are built once at construction."""

    object_types: tuple[str, ...]
    places: tuple[Place, ...]
    transitions: tuple[Transition, ...]
    arcs: tuple[Arc, ...]

    places_by_id: dict[str, Place] = field(init=False, repr=False)
    transitions_by_id: dict[str, Transition] = field(init=False, repr=False)
    label_to_transition: dict[str, Transition] = field(init=False, repr=False)
    _preset: dict[str, tuple[tuple[Place, bool], ...]] = field(init=False, repr=False)
    _postset: dict[str, tuple[tuple[Place, bool], ...]] = field(init=False, repr=False)
    _tpl: dict[str, frozenset[str]] = field(init=False, repr=False)
    _variable_types: dict[str, frozenset[str]] = field(init=False, repr=False)
    _inputs_by_type: dict[str, dict[str, tuple[Place, ...]]] = field(init=False, repr=False)
    initial_places: dict[str, Place] = field(init=False, repr=False)
    final_places: frozenset[str] = field(init=False, repr=False)
    silent_transitions: tuple[Transition, ...] = field(init=False, repr=False)
    visible_transitions: tuple[Transition, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.places_by_id = {}
        for p in self.places:
            if p.id in self.places_by_id:
                raise ModelError(f"duplicate place id {p.id!r}")
            if p.otype not in self.object_types:
                raise ModelError(f"place {p.id!r}: unknown object type {p.otype!r}")
            self.places_by_id[p.id] = p
        self.transitions_by_id = {}
        self.label_to_transition = {}
        for t in self.transitions:
            if t.id in self.transitions_by_id or t.id in self.places_by_id:
                raise ModelError(f"duplicate node id {t.id!r}")
            self.transitions_by_id[t.id] = t
            if t.label is not None:
                if t.label in self.label_to_transition:
                    raise ModelError(f"duplicate visible label {t.label!r}")
                self.label_to_transition[t.label] = t
        self.silent_transitions = tuple(t for t in self.transitions if t.silent)
        self.visible_transitions = tuple(t for t in self.transitions if not t.silent)

        pre: dict[str, list[tuple[Place, bool]]] = {t.id: [] for t in self.transitions}
        post: dict[str, list[tuple[Place, bool]]] = {t.id: [] for t in self.transitions}
        seen_arcs = set()
        # variable status must be uniform per (transition, object type)
        var_status: dict[tuple[str, str], bool] = {}
        for a in self.arcs:
            if (a.source, a.target) in seen_arcs:
                raise ModelError(f"duplicate arc {a.source!r} -> {a.target!r}")
            seen_arcs.add((a.source, a.target))
            if a.source in self.places_by_id and a.target in self.transitions_by_id:
                place, tid = self.places_by_id[a.source], a.target
                pre[tid].append((place, a.variable))
            elif a.source in self.transitions_by_id and a.target in self.places_by_id:
                tid, place = a.source, self.places_by_id[a.target]
                post[tid].append((place, a.variable))
            else:
                raise ModelError(
                    f"arc {a.source!r} -> {a.target!r} must connect a place and a transition")
            key = (tid, place.otype)
            if var_status.setdefault(key, a.variable) != a.variable:
                raise ModelError(
                    f"transition {tid!r}: mixed variable status for type {place.otype!r}")

        self._preset = {tid: tuple(entries) for tid, entries in pre.items()}
        self._postset = {tid: tuple(entries) for tid, entries in post.items()}
        self._tpl = {}
        self._variable_types = {}
        for t in self.transitions:
            types = {p.otype for p, _ in self._preset[t.id]}
            types |= {p.otype for p, _ in self._postset[t.id]}
            self._tpl[t.id] = frozenset(types)
            self._variable_types[t.id] = frozenset(
                ot for (tid, ot), variable in var_status.items()
                if tid == t.id and variable)
        self._inputs_by_type = {}
        for t in self.transitions:
            grouped: dict[str, list[Place]] = {}
            for p, _ in self._preset[t.id]:
                grouped.setdefault(p.otype, []).append(p)
            self._inputs_by_type[t.id] = {ot: tuple(ps) for ot, ps in grouped.items()}

        used_types = {p.otype for p in self.places}
        self.initial_places = {}
        for p in self.places:
            if p.initial:
                if p.otype in self.initial_places:
                    raise ModelError(f"object type {p.otype!r} has two initial places")
                self.initial_places[p.otype] = p
        for ot in used_types:
            if ot not in self.initial_places:
                raise ModelError(f"object type {ot!r} has no initial place")
        self.final_places = frozenset(p.id for p in self.places if p.final)

    # --- derived accessors ---

    def preset(self, tid: str) -> tuple[Place, ...]:
        return tuple(p for p, _ in self._preset[tid])

    def postset(self, tid: str) -> tuple[Place, ...]:
        return tuple(p for p, _ in self._postset[tid])

    def tpl(self, tid: str) -> frozenset[str]:
        """Object types touched by any arc of the transition."""
        return self._tpl[tid]

    def tpl_nv(self, tid: str) -> frozenset[str]:
        """Object types touched only by non-variable arcs of the transition."""
        return self._tpl[tid] - self._variable_types[tid]

    def variable_types(self, tid: str) -> frozenset[str]:
        return self._variable_types[tid]

    def input_places_by_type(self, tid: str) -> dict[str, tuple[Place, ...]]:
        return self._inputs_by_type[tid]


# --- firing rule ---


def consumed(net: AcceptingOCPN, binding: Binding) -> Marking:
    by_type = binding.by_type
    tokens = []
    for place, _ in net._preset[binding.transition]:
        for obj in by_type.get(place.otype, ()):
            tokens.append((place.id, obj))
    return Marking(tokens)


def produced(net: AcceptingOCPN, binding: Binding) -> Marking:
    by_type = binding.by_type
    tokens = []
    for place, _ in net._postset[binding.transition]:
        for obj in by_type.get(place.otype, ()):
            tokens.append((place.id, obj))
    return Marking(tokens)


def binding_well_formed(net: AcceptingOCPN, binding: Binding) -> bool:
    """True iff the binding covers exactly the transition's types, with a
    single object per non-variable type and at least one per variable type."""
    if binding.transition not in net.transitions_by_id:
        return False
    by_type = binding.by_type
    if set(by_type) != set(net.tpl(binding.transition)):
        return False
    nv = net.tpl_nv(binding.transition)
    for ot, ids in by_type.items():
        if not ids:
            return False
        if ot in nv and len(ids) != 1:
            return False
    return True


def binding_enabled(net: AcceptingOCPN, marking: Marking, binding: Binding) -> bool:
    """True iff the binding is well formed and its consumed tokens are in M.

    Malformed bindings are never enabled; they do not raise.
    """
    if not binding_well_formed(net, binding):
        return False
    return consumed(net, binding) <= marking


def execute_binding(net: AcceptingOCPN, marking: Marking, binding: Binding) -> Marking:
    if not binding_enabled(net, marking, binding):
        raise ModelError(f"binding of {binding.transition!r} is not enabled")
    return _fire(net, marking, binding)


def _fire(net: AcceptingOCPN, marking: Marking, binding: Binding) -> Marking:
    """Execute a binding the caller already knows to be enabled in M."""
    by_type = binding.by_type
    counts = dict(marking._counts)
    for place, _ in net._preset[binding.transition]:
        for obj in by_type.get(place.otype, ()):
            token = (place.id, obj)
            left = counts[token] - 1
            if left:
                counts[token] = left
            else:
                del counts[token]
    for place, _ in net._postset[binding.transition]:
        for obj in by_type.get(place.otype, ()):
            token = (place.id, obj)
            counts[token] = counts.get(token, 0) + 1
    return Marking._of(counts)


def enabled_visible_labels(net: AcceptingOCPN, marking: Marking) -> frozenset[str]:
    """Labels of visible transitions with at least one enabled binding in M.

    Existence is decided per object type: some object of the type must sit
    in every input place of that type (one suffices for variable and
    non-variable types alike).  A type without input places only needs an
    object of that type somewhere in the marking to bind to.
    """
    return frozenset(t.label for t in net.visible_transitions
                     if all(_candidate_objects(net, t.id, marking, ot)
                            for ot in net.tpl(t.id)))


def _candidate_objects(net: AcceptingOCPN, tid: str, marking: Marking,
                       otype: str) -> frozenset[str]:
    places = net.input_places_by_type(tid).get(otype)
    if places:
        common = marking.objects_at(places[0].id)
        for place in places[1:]:
            common = common & marking.objects_at(place.id)
        return common
    return frozenset(obj for (place, obj), _ in marking.items()
                     if net.places_by_id[place].otype == otype)


def initial_marking_for(net: AcceptingOCPN, objects: Iterable[ObjectId]) -> Marking:
    """One token per object in the initial place of its type."""
    tokens = []
    for o in objects:
        place = net.initial_places.get(o.otype)
        if place is None:
            raise ModelError(f"object type {o.otype!r} has no initial place")
        tokens.append((place.id, o.id))
    return Marking(tokens)


def is_final(net: AcceptingOCPN, marking: Marking) -> bool:
    """True iff every token sits in a final place (vacuously for no tokens)."""
    return all(place in net.final_places for (place, _), _ in marking.items())


def enumerate_bindings(net: AcceptingOCPN, marking: Marking, tid: str,
                       subset_cap: int | None = None) -> Iterator[Binding]:
    """All enabled bindings of one transition in M, in deterministic order.

    Candidates per type are the objects present in every input place of
    that type; types without input places draw from the whole marking.
    Variable types range over non-empty candidate subsets, capped at
    ``subset_cap`` objects when given.  Every combination is enabled as
    built: each candidate holds a token in every input place of its type,
    and a place consumes one token per bound object.  A transition without
    arcs has the one empty binding.
    """
    nv = net.tpl_nv(tid)
    per_type_choices: list[list[tuple[str, frozenset[str]]]] = []
    for ot in sorted(net.tpl(tid)):
        candidates = _candidate_objects(net, tid, marking, ot)
        if not candidates:
            return
        ordered = sorted(candidates)
        if ot in nv:
            choices = [(ot, frozenset({o})) for o in ordered]
        else:
            cap = len(ordered) if subset_cap is None else min(subset_cap, len(ordered))
            choices = [(ot, frozenset(sub))
                       for size in range(1, cap + 1)
                       for sub in combinations(ordered, size)]
        per_type_choices.append(choices)
    # the choices are in type order, so each combination is sorted already
    for combo in product(*per_type_choices):
        yield Binding(tid, combo)


# --- JSON ---


def parse_model(data: bytes | str) -> AcceptingOCPN:
    """Parse a model-JSON document into a validated net."""
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ModelError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise ModelError("malformed JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    for key in ("object_types", "places", "transitions", "arcs"):
        if key not in doc:
            raise ModelError(f"model document missing {key!r}")
    raw_types = doc["object_types"]
    if not isinstance(raw_types, list) or not all(isinstance(t, str) for t in raw_types):
        raise ModelError("'object_types' must be an array of strings")
    if len(set(raw_types)) != len(raw_types):
        raise ModelError("duplicate object type")
    for key in ("places", "transitions", "arcs"):
        if not isinstance(doc[key], list):
            raise ModelError(f"{key!r} must be an array")

    places = []
    for raw in doc["places"]:
        if not isinstance(raw, dict) or not isinstance(raw.get("id"), str):
            raise ModelError("each place needs a string 'id'")
        if not isinstance(raw.get("object_type"), str):
            raise ModelError(f"place {raw.get('id')!r}: missing 'object_type'")
        places.append(Place(raw["id"], raw["object_type"],
                            bool(raw.get("initial", False)),
                            bool(raw.get("final", False))))
    transitions = []
    for raw in doc["transitions"]:
        if not isinstance(raw, dict) or not isinstance(raw.get("id"), str):
            raise ModelError("each transition needs a string 'id'")
        label = raw.get("label")
        if label is not None and (not isinstance(label, str) or not label):
            raise ModelError(f"transition {raw['id']!r}: label must be null or non-empty")
        transitions.append(Transition(raw["id"], label))
    arcs = []
    for raw in doc["arcs"]:
        if not isinstance(raw, dict):
            raise ModelError("each arc must be a JSON object")
        source, target = raw.get("source"), raw.get("target")
        if not isinstance(source, str) or not isinstance(target, str):
            raise ModelError("each arc needs string 'source' and 'target'")
        arcs.append(Arc(source, target, bool(raw.get("variable", False))))
    return AcceptingOCPN(tuple(raw_types), tuple(places),
                         tuple(transitions), tuple(arcs))


def serialize_model(net: AcceptingOCPN) -> str:
    """Serialize to canonical model-JSON (nodes and arcs sorted by id)."""
    doc: dict[str, Any] = {
        "object_types": sorted(net.object_types),
        "places": [
            {"id": p.id, "object_type": p.otype, "initial": p.initial, "final": p.final}
            for p in sorted(net.places, key=lambda p: p.id)],
        "transitions": [
            {"id": t.id, "label": t.label}
            for t in sorted(net.transitions, key=lambda t: t.id)],
        "arcs": [
            {"source": a.source, "target": a.target, "variable": a.variable}
            for a in sorted(net.arcs, key=lambda a: (a.source, a.target))],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def flower_model(log: EventLog) -> AcceptingOCPN:
    """The most permissive net for a log: one place per object type, both
    initial and final, and one self-looping transition per activity.

    A transition's arcs cover every object type seen together with its
    activity anywhere in the log; an arc is variable iff some event of
    that activity carries two or more objects of the type.
    """
    if not log.events:
        raise LogError("cannot build a flower model from an empty log")
    types_seen: dict[str, set[str]] = {}
    variable: dict[str, set[str]] = {}
    for e in log.events:
        per_type = Counter(o.otype for o in e.omap)
        types_seen.setdefault(e.activity, set()).update(per_type)
        variable.setdefault(e.activity, set()).update(
            ot for ot, n in per_type.items() if n >= 2)
    places = tuple(Place(f"p_{ot}", ot, initial=True, final=True)
                   for ot in sorted(log.object_types))
    transitions = []
    arcs = []
    for i, activity in enumerate(sorted(types_seen), start=1):
        tid = f"t{i}"
        transitions.append(Transition(tid, activity))
        for ot in sorted(types_seen[activity]):
            is_var = ot in variable[activity]
            arcs.append(Arc(f"p_{ot}", tid, is_var))
            arcs.append(Arc(tid, f"p_{ot}", is_var))
    return AcceptingOCPN(tuple(sorted(log.object_types)), places,
                         tuple(transitions), tuple(arcs))
