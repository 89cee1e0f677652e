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
from collections.abc import Collection, Iterable, Iterator, Mapping
from typing import Any

from .ocel import EventLog, LogError, ObjectId, _load_json


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

    Value semantics: two markings are equal when they hold the same tokens
    with the same counts, so markings can key visited-state sets.
    Instances are never mutated after construction, but for the memo.

    The tokens are kept per place: ``_tokens`` maps each occupied place to
    its ``{object: count}`` dict, and keeps no empty place dict, so its
    keys are the occupied places.  ``_hash`` is the sum over tokens of
    ``hash(token) * count``.  ``+``, ``-`` and the firing rule copy the
    place dicts they write, once each, and share the others with the
    marking they start from; they update the hash for the tokens they move
    only.  So hashing a marking costs O(1) and reading its occupied places
    O(places), whatever its number of tokens.  ``_labels`` memoizes
    ``enabled_visible_labels`` as ``(net, labels)`` for the last net asked;
    every new marking starts with ``(None, None)``.
    """

    __slots__ = ("_tokens", "_hash", "_labels")

    def __init__(self, tokens: Iterable[Token] | Mapping[Token, int] = ()):
        if isinstance(tokens, Mapping):
            counted = tokens.items()
        else:
            counted = ((token, 1) for token in tokens)
        per_place: dict[str, dict[str, int]] = {}
        total = 0
        for token, n in counted:
            if n < 0:
                raise ModelError(f"negative token count for {token}")
            if n:
                objects = per_place.setdefault(token[0], {})
                objects[token[1]] = objects.get(token[1], 0) + n
                total += hash(token) * n
        self._tokens = per_place
        self._hash = total
        self._labels = (None, None)

    @classmethod
    def _of(cls, tokens: dict[str, dict[str, int]], total: int) -> "Marking":
        """Wrap place dicts that are all non-empty already, with their
        ``_hash``, without copying them."""
        marking = cls.__new__(cls)
        marking._tokens = tokens
        marking._hash = total
        marking._labels = (None, None)
        return marking

    def renamed(self, real: Mapping[Any, str]) -> "Marking":
        """The marking with each object o renamed ``real[o]``, place by
        place; ``real`` must be one-to-one on the objects of each place."""
        tokens: dict[str, dict[str, int]] = {}
        total = 0
        for place, objects in self._tokens.items():
            here = tokens[place] = {}
            for obj, n in objects.items():
                obj = real[obj]
                here[obj] = n
                total += hash((place, obj)) * n
        return Marking._of(tokens, total)

    def key(self) -> tuple[tuple[str, str, int], ...]:
        return tuple(sorted([(place, obj, n) for place, objects in self._tokens.items()
                             for obj, n in objects.items()]))

    def items(self) -> Iterator[tuple[Token, int]]:
        return iter([((place, obj), n) for place, objects in self._tokens.items()
                     for obj, n in objects.items()])

    def count(self, token: Token) -> int:
        return self._tokens.get(token[0], {}).get(token[1], 0)

    def objects_at(self, place_id: str) -> frozenset[str]:
        return frozenset(self._tokens.get(place_id, ()))

    def __len__(self) -> int:
        return sum(sum(objects.values()) for objects in self._tokens.values())

    def __bool__(self) -> bool:
        return bool(self._tokens)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Marking):
            return NotImplemented
        return self._hash == other._hash and self._tokens == other._tokens

    def __hash__(self) -> int:
        return self._hash

    def __le__(self, other: "Marking") -> bool:
        # plain loops: replay asks this of every state it expands
        theirs = other._tokens
        for place, objects in self._tokens.items():
            there = theirs.get(place)
            if there is None:
                return False
            for obj, n in objects.items():
                if there.get(obj, 0) < n:
                    return False
        return True

    def __add__(self, other: "Marking") -> "Marking":
        return self._shifted(other, 1)

    def __sub__(self, other: "Marking") -> "Marking":
        return self._shifted(other, -1)

    def _shifted(self, other: "Marking", sign: int) -> "Marking":
        """The marking with other's tokens added (sign 1) or removed (-1)."""
        tokens = dict(self._tokens)
        for place, objects in other._tokens.items():
            here = dict(tokens.get(place, ()))
            for obj, n in objects.items():
                left = here.get(obj, 0) + sign * n
                if left < 0:
                    raise ModelError(f"cannot remove absent token {(place, obj)}")
                if left:
                    here[obj] = left
                else:
                    del here[obj]
            if here:
                tokens[place] = here
            else:
                del tokens[place]
        return Marking._of(tokens, self._hash + sign * other._hash)

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
    _preset: dict[str, tuple[Place, ...]] = field(init=False, repr=False)
    _postset: dict[str, tuple[Place, ...]] = field(init=False, repr=False)
    _tpl: dict[str, frozenset[str]] = field(init=False, repr=False)
    _variable_types: dict[str, frozenset[str]] = field(init=False, repr=False)
    _inputs_by_type: dict[str, dict[str, tuple[Place, ...]]] = field(init=False, repr=False)
    initial_places: dict[str, Place] = field(init=False, repr=False)
    final_places: frozenset[str] = field(init=False, repr=False)
    finishing_places: frozenset[str] = field(init=False, repr=False)
    _self_loops: frozenset[str] = field(init=False, repr=False)
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

        pre: dict[str, list[Place]] = {t.id: [] for t in self.transitions}
        post: dict[str, list[Place]] = {t.id: [] for t in self.transitions}
        variable: dict[str, set[str]] = {t.id: set() for t in self.transitions}
        seen_arcs = set()
        # variable status must be uniform per (transition, object type)
        var_status: dict[tuple[str, str], bool] = {}
        for a in self.arcs:
            if (a.source, a.target) in seen_arcs:
                raise ModelError(f"duplicate arc {a.source!r} -> {a.target!r}")
            seen_arcs.add((a.source, a.target))
            if a.source in self.places_by_id and a.target in self.transitions_by_id:
                place, tid = self.places_by_id[a.source], a.target
                pre[tid].append(place)
            elif a.source in self.transitions_by_id and a.target in self.places_by_id:
                tid, place = a.source, self.places_by_id[a.target]
                post[tid].append(place)
            else:
                raise ModelError(
                    f"arc {a.source!r} -> {a.target!r} must connect a place and a transition")
            key = (tid, place.otype)
            if var_status.setdefault(key, a.variable) != a.variable:
                raise ModelError(
                    f"transition {tid!r}: mixed variable status for type {place.otype!r}")
            if a.variable:
                variable[tid].add(place.otype)

        self._preset, self._postset, self._tpl = {}, {}, {}
        self._variable_types, self._inputs_by_type = {}, {}
        for tid, inputs in pre.items():
            self._preset[tid] = tuple(inputs)
            self._postset[tid] = tuple(post[tid])
            self._tpl[tid] = frozenset(p.otype for p in inputs + post[tid])
            self._variable_types[tid] = frozenset(variable[tid])
            grouped: dict[str, list[Place]] = {}
            for p in inputs:
                grouped.setdefault(p.otype, []).append(p)
            self._inputs_by_type[tid] = {ot: tuple(ps) for ot, ps in grouped.items()}

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
        # least fixpoint: p finishes when some silent transition takes an
        # object from p only to finishing places of its type (or out of the
        # marking); a token elsewhere stays off the final places for good
        finishing = set(self.final_places)
        size = -1
        while size < len(finishing):
            size = len(finishing)
            finishing.update(
                p.id for t in self.silent_transitions for p in self._preset[t.id]
                if all(q.id in finishing for q in self._postset[t.id]
                       if q.otype == p.otype))
        self.finishing_places = frozenset(finishing)
        # a firing of these puts back every token it takes
        self._self_loops = frozenset(
            tid for tid, places in pre.items() if set(places) == set(post[tid]))

    # --- derived accessors ---

    def preset(self, tid: str) -> tuple[Place, ...]:
        return self._preset[tid]

    def postset(self, tid: str) -> tuple[Place, ...]:
        return self._postset[tid]

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
    return _one_each(net._preset[binding.transition], binding)


def produced(net: AcceptingOCPN, binding: Binding) -> Marking:
    return _one_each(net._postset[binding.transition], binding)


def _one_each(places: tuple[Place, ...], binding: Binding) -> Marking:
    """One token per place and object bound to the place's type."""
    by_type = binding.by_type
    return Marking([(place.id, obj) for place in places
                    for obj in by_type.get(place.otype, ())])


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
    """Execute a binding the caller already knows to be enabled in M.

    A self-loop (input places equal to output places) returns M itself.
    Otherwise the dict of places is copied whole (in C), and so is each
    place dict the binding writes, once, on its first write; the other
    place dicts stay shared with M.  The Python-level work, including
    the hash update, is O(moved tokens)."""
    if binding.transition in net._self_loops:
        return marking
    by_type = binding.by_type
    source = marking._tokens
    tokens = dict(source)
    total = marking._hash
    # a well-formed binding binds objects to every type of its places
    for place in net._preset[binding.transition]:
        pid = place.id
        here = tokens[pid] = dict(tokens[pid])
        for obj in by_type[place.otype]:
            left = here[obj] - 1
            if left:
                here[obj] = left
            else:
                del here[obj]
            total -= hash((pid, obj))
        if not here:
            del tokens[pid]
    for place in net._postset[binding.transition]:
        pid = place.id
        here = tokens.get(pid)
        if here is None or here is source.get(pid):
            here = tokens[pid] = dict(here or ())
        for obj in by_type[place.otype]:
            here[obj] = here.get(obj, 0) + 1
            total += hash((pid, obj))
    return Marking._of(tokens, total)


def enabled_visible_labels(net: AcceptingOCPN, marking: Marking) -> frozenset[str]:
    """Labels of visible transitions with at least one enabled binding in M:
    those whose every object type has a candidate object (one suffices
    for variable and non-variable types alike).  Kept on M for the last net
    asked, so a marking a self-loop returns or a frontier shares is read once."""
    asked, labels = marking._labels
    if asked is not net:
        labels = frozenset(t.label for t in net.visible_transitions
                           if all(_candidate_objects(net, t.id, marking, ot)
                                  for ot in net.tpl(t.id)))
        marking._labels = (net, labels)
    return labels


def _candidate_objects(net: AcceptingOCPN, tid: str, marking: Marking,
                       otype: str) -> Collection[str]:
    """The objects of the type that sit in every input place of that type,
    or anywhere in M for a type without input places.  A type with one
    input place gets that place's dict itself: its keys are the objects."""
    tokens = marking._tokens
    places = net.input_places_by_type(tid).get(otype)
    if places:
        common = tokens.get(places[0].id, ())
        for place in places[1:]:
            common = tokens.get(place.id, {}).keys() & common
        return common
    return {obj for place, objects in tokens.items()
            if net.places_by_id[place].otype == otype for obj in objects}


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
    """True iff every token sits in a final place (vacuously for no tokens).

    Reads the marking's occupied places, not its tokens: O(places)."""
    return net.final_places.issuperset(marking._tokens)


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


def _flag(raw: dict, key: str, owner: str) -> bool:
    """A JSON boolean; an absent key is false."""
    value = raw.get(key, False)
    if not isinstance(value, bool):
        raise ModelError(f"{owner}: {key!r} must be true or false")
    return value


def parse_model(data: bytes | str) -> AcceptingOCPN:
    """Parse a model-JSON document into a validated net."""
    try:
        doc = _load_json(data)
    except LogError as exc:
        raise ModelError(str(exc)) from exc
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
        owner = f"place {raw['id']!r}"
        places.append(Place(raw["id"], raw["object_type"], _flag(raw, "initial", owner),
                            _flag(raw, "final", owner)))
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
        arcs.append(Arc(source, target,
                        _flag(raw, "variable", f"arc {source!r} -> {target!r}")))
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
    that activity carries two or more objects of the type.  So an event
    that lacks one of its activity's types has no well-formed binding,
    and a log need not fit its own flower net.
    """
    if not log.events:
        raise LogError("cannot build a flower model from an empty log")
    types_seen: dict[str, set[str]] = {}
    variable: dict[str, set[str]] = {}
    for e in log.events:
        otypes = [o.otype for o in e.omap]
        seen = types_seen.get(e.activity)
        if seen is None:
            seen = types_seen[e.activity] = set()
        if len(otypes) == 1:
            seen.add(otypes[0])
            continue
        distinct = set(otypes)
        seen |= distinct
        if len(distinct) < len(otypes):  # some type repeats: count them
            variable.setdefault(e.activity, set()).update(
                ot for ot, n in Counter(otypes).items() if n >= 2)
    places = tuple(Place(f"p_{ot}", ot, initial=True, final=True)
                   for ot in sorted(log.object_types))
    transitions = []
    arcs = []
    for i, activity in enumerate(sorted(types_seen), start=1):
        tid = f"t{i}"
        transitions.append(Transition(tid, activity))
        for ot in sorted(types_seen[activity]):
            is_var = ot in variable.get(activity, ())
            arcs.append(Arc(f"p_{ot}", tid, is_var))
            arcs.append(Arc(tid, f"p_{ot}", is_var))
    return AcceptingOCPN(tuple(sorted(log.object_types)), places,
                         tuple(transitions), tuple(arcs))
