"""Replay of event contexts on a net.

For an event e, the visible firings of its ancestors form a binding
sequence.  Replaying that sequence from the initial marking of all
involved objects, while breadth-first searching over silent firings
whenever the next visible binding is blocked, yields the set of model
states the net considers possible just before e.  The activities enabled
in any of those states are the model's answer to "what may happen next".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .context import Context, EventObjectGraph, _positions
from .ocel import EventLog, ObjectId
from .ocpn import (AcceptingOCPN, Binding, Marking, _fire, binding_well_formed,
                   consumed, enabled_visible_labels, enumerate_bindings,
                   is_final)

SILENT_VARIABLE_MODES = ("singleton", "subsets")


@dataclass(frozen=True)
class ReplayConfig:
    """Knobs for the replay search.

    ``max_states`` caps how many states a search may expand before it is
    cut off (the outcome is then flagged truncated); an event's replay and
    the one search behind its ``reached_final`` have a budget each.
    Variable arcs on silent transitions have no binding recorded in the
    log, so their object sets must be guessed: ``subsets`` tries every
    non-empty subset of up to ``subset_cap`` objects, ``singleton`` the
    subsets of size 1.
    ``explore_silent_when_enabled`` additionally follows silent firings
    from states whose next visible binding is already enabled.
    ``reverse_successors`` flips the enqueue order of equally ranked
    successor states, in the replay and in the reached-final search;
    results must not depend on it.
    """

    max_states: int = 100_000
    silent_variable_mode: str = "singleton"
    subset_cap: int = 8
    explore_silent_when_enabled: bool = False
    reverse_successors: bool = False

    def __post_init__(self) -> None:
        if self.max_states < 1:
            raise ValueError("max_states must be positive")
        if self.silent_variable_mode not in SILENT_VARIABLE_MODES:
            raise ValueError(
                f"silent_variable_mode must be one of {SILENT_VARIABLE_MODES}")
        if self.subset_cap < 1:
            raise ValueError("subset_cap must be positive")


DEFAULT_CONFIG = ReplayConfig()


class VisibleBindingStep(NamedTuple):
    """One visible firing as the log records it: activity plus objects by type."""

    activity: str
    objects: tuple[tuple[str, frozenset[str]], ...]  # (otype, object ids), sorted

    @classmethod
    def for_event(cls, event) -> "VisibleBindingStep":
        """The step the event records."""
        grouped: dict[str, set[str]] = {}
        for o in event.omap:
            grouped.setdefault(o.otype, set()).add(o.id)
        return cls(event.activity,
                   tuple(sorted((ot, frozenset(ids)) for ot, ids in grouped.items())))


@dataclass(frozen=True)
class ReplayOutcome:
    """What replaying a context group produced.

    ``enabled`` unions the visible labels enabled in any fully replayed
    state.  ``replayed`` records whether any state reached the end of its
    binding sequence; when it is False, ``enabled`` is empty.
    ``reached_final`` is diagnostic only: some fully replayed state led to
    an accepting marking after firing the event's own binding.
    ``truncated`` says that ``max_states`` cut a search short: the replay
    itself, or the one silent search behind a ``reached_final`` that came
    out False, from the markings the event's own binding fired into that
    can still finish, when none of them is final.
    """

    enabled: frozenset[str]
    replayed: bool
    reached_final: bool
    truncated: bool


EMPTY_OUTCOME = ReplayOutcome(frozenset(), False, False, False)


@dataclass(eq=False)
class GroupReplay:
    """Detailed result of replaying one context group.

    ``markings`` may be given as a function that builds them; it is called
    on the first read, so a caller that never reads them never pays for
    them.  Equality compares all three fields.
    """

    outcome: ReplayOutcome
    _markings: frozenset[Marking] | Callable[[], frozenset[Marking]]
    reached_final_by_event: dict[str, bool]

    @property
    def markings(self) -> frozenset[Marking]:
        if callable(self._markings):
            self._markings = self._markings()
        return self._markings

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupReplay):
            return NotImplemented
        return (self.outcome, self.markings, self.reached_final_by_event) == \
            (other.outcome, other.markings, other.reached_final_by_event)


def binding_sequence_context(
        sequence: Iterable[tuple[str | None, Mapping[str, Iterable[str]]]],
        objects: Iterable[ObjectId] = (),
) -> Context:
    """Context of an executed binding sequence.

    Each element is (label, objects-by-type); silent firings (label None)
    contribute nothing to any prefix.  ``objects`` widens the universe to
    objects that took part in no firing, e.g. those only placed in the
    initial marking; they contribute empty sequences.
    """
    prefixes: dict[ObjectId, list[str]] = {o: [] for o in objects}
    for label, by_type in sequence:
        for otype, ids in by_type.items():
            for oid in ids:
                seq = prefixes.setdefault(ObjectId(oid, otype), [])
                if label is not None:
                    seq.append(label)
    grouped: dict[str, list[tuple[str, ...]]] = {}
    for o, acts in prefixes.items():
        grouped.setdefault(o.otype, []).append(tuple(acts))
    return Context.from_prefixes(grouped)


class _Firing(NamedTuple):
    """A visible step as the net fires it: the binding, None when the
    activity is no visible label of the net, and the tokens it consumes,
    None when there is no binding or it is malformed.  A marking enables
    the binding exactly when it holds ``need`` (``binding_enabled``)."""

    binding: Binding | None
    need: Marking | None


def _firing(net: AcceptingOCPN, step: VisibleBindingStep) -> _Firing:
    transition = net.label_to_transition.get(step.activity)
    if transition is None:
        return _Firing(None, None)
    binding = Binding(transition.id, step.objects)
    if not binding_well_formed(net, binding):
        return _Firing(binding, None)
    return _Firing(binding, consumed(net, binding))


def _silent_successors(net: AcceptingOCPN, marking: Marking,
                       cfg: ReplayConfig) -> Iterator[Marking]:
    cap = 1 if cfg.silent_variable_mode == "singleton" else cfg.subset_cap
    for t in net.silent_transitions:
        for binding in enumerate_bindings(net, marking, t.id, subset_cap=cap):
            yield _fire(net, marking, binding)


@dataclass(frozen=True, eq=False)
class _SingleReplay:
    """One search's result, compared by identity: a replay class's result
    keys the searches that resume from its frontier."""

    markings: tuple[Marking, ...]    # fully replayed, in discovery order;
                                     # empty when unreplayable
    truncated: bool
    # markings entering the last cursor, before its silent search, and the
    # number of states expanded before that cursor; ``_preset_search`` adds
    # those expanded before its base, so a frontier's count starts at the
    # initial marking
    entering: tuple[Marking, ...] = ()
    states: int = 0


_UNREPLAYABLE = _SingleReplay((), False)


def _search(net: AcceptingOCPN, steps: Sequence[_Firing],
            start: Sequence[Marking], entry: Mapping[int, Marking],
            cfg: ReplayConfig, budget: int) -> _SingleReplay:
    """Breadth-first replay of a binding sequence from ``start``.

    States are (marking, cursor) pairs, deduplicated; the cursor counts
    executed visible steps, and every start marking is at cursor 0.  From
    each state the next visible binding is taken when enabled, otherwise
    every silent firing is followed.  A state at the end of the sequence is
    fully replayed and its marking is collected, in the order the search
    reaches it: the queue decides that order, never the marking hashes.
    Fully replayed states still follow silent firings, so the collected
    markings are closed under silent reachability; with an empty sequence
    the search is the silent closure of the start markings, which is how
    ``reached_final`` is decided, in one search from the fired markings
    that can still finish.
    ``entry[k]``, where present, is added to every marking a visible
    firing moves to cursor k; the markings that enter the last cursor (the
    start markings, for an empty sequence) are returned as ``entering``.
    More than ``budget`` states cut the search off, flagged truncated.
    Every step's binding must exist: its activity is a visible label.
    """
    last = len(steps)
    markings: dict[Marking, None] = {}
    entering = dict.fromkeys(() if last else start)
    truncated = False
    queue: deque[tuple[Marking, int]] = deque((m, 0) for m in start)
    seen = set(queue)
    expanded = 0
    at_end = 0
    while queue:
        if expanded >= budget:
            truncated = True
            break
        marking, cursor = queue.popleft()
        expanded += 1
        if cursor == last:
            at_end += 1
            markings[marking] = None
        advanced = False
        if cursor < last:
            binding, need = steps[cursor]
            if need is not None and need <= marking:
                advanced = True
                after = _fire(net, marking, binding)
                added = entry.get(cursor + 1)
                if added is not None:
                    after = after + added
                if cursor + 1 == last:
                    entering[after] = None
                state = (after, cursor + 1)
                if state not in seen:
                    seen.add(state)
                    queue.append(state)
        if not advanced or cfg.explore_silent_when_enabled:
            successors = list(_silent_successors(net, marking, cfg))
            if cfg.reverse_successors:
                successors.reverse()
            for succ in successors:
                state = (succ, cursor)
                if state not in seen:
                    seen.add(state)
                    queue.append(state)
    return _SingleReplay(tuple(markings), truncated, tuple(entering),
                         expanded - at_end)


def lazy_entry_exact(net: AcceptingOCPN) -> bool:
    """True iff replay may let objects enter its markings lazily.

    Lazy entry leaves an object out of the markings until a visible step
    first binds it (or, for the replayed event's own objects, until the
    end of the sequence), and then adds its initial token.  That gives the
    same states as starting from the initial marking of every object when
    no silent transition can bind an object that sits in its initial
    place: every object type of every silent transition has an input place
    of that type, and none of those places is initial.
    """
    for t in net.silent_transitions:
        inputs = net.input_places_by_type(t.id)
        for otype in net.tpl(t.id):
            places = inputs.get(otype)
            if not places or any(p.initial for p in places):
                return False
    return True


# Where replay of an event's preset may resume, as a plain tuple
# (position, names, cls, steps).  A later event that resumes here replays
# its preset from log position ``position``, just past the event whose
# frontier this is, opening with ``steps``: that event's own step.
# ``names`` maps the entered objects, by graph number, to canonical names,
# ints from 0 in order of entry; ``cls`` is the event's replay class: its
# search result in those names, whose ``entering`` markings and ``states``
# resumed searches start from.
_Frontier = tuple[int, dict[int, int], _SingleReplay, tuple[VisibleBindingStep, ...]]

_START: _Frontier = (0, {}, _SingleReplay((), False, (Marking(),)), ())


def _prefix_predecessor(graph: EventObjectGraph, position: int) -> int | None:
    """The latest direct predecessor d of the event at ``position`` such
    that d's log-ordered preset, followed by d, opens the event's
    log-ordered preset.

    d's preset lies in the event's preset and before d's log position, so
    that holds exactly when the event's preset has as many positions below
    d's position as d's own preset has: a popcount test on the bitsets.
    """
    low, bits = graph._low[position], graph._bits[position]
    for d in sorted(graph._direct[position], reverse=True):
        if (bits & ((1 << d - low) - 1)).bit_count() == graph._bits[d].bit_count():
            return d
    return None


class FrontierMemo:
    """Replay frontiers and firings shared by the events of one ``check``.

    An event's frontier is the raw set of markings that enter the end of
    its preset's binding sequence, before that cursor's silent search: the
    next step decides which silent firings follow.  An event resumes from
    the frontier of its prefix predecessor d or, when d comes later in
    ``order``, of d's own prefix predecessor, and so on; it replays only
    the rest of its preset.  ``order`` lists the event ids in the order
    they will be replayed; the users of each frontier are counted from it,
    and a frontier is dropped when its last user took it.  The frontiers
    depend on the replay config, so one memo serves one config.  Events
    not in ``order``, and all events on nets where lazy entry is not exact
    (``lazy`` is False), resume from the empty frontier ``_START``.  Each
    distinct visible step as the net fires it (``firing``) is built once
    and kept while the memo lives.
    """

    def __init__(self, net: AcceptingOCPN, log: EventLog, graph: EventObjectGraph,
                 order: Iterable[str]) -> None:
        self.lazy = lazy_entry_exact(net)
        self._net = net
        self._firings: dict[VisibleBindingStep, _Firing] = {}
        self._frontiers: dict[int, _Frontier] = {}  # by log position, like the bases
        self._base: dict[int, int] = {}
        self._users: dict[int, int] = {}
        preds: dict[int, int | None] = {}

        def pred_of(position: int) -> int | None:
            if position not in preds:
                preds[position] = _prefix_predecessor(graph, position)
            return preds[position]

        done: set[int] = set()
        for position in map(graph._index.__getitem__, order if self.lazy else ()):
            # a prefix predecessor's prefix predecessor opens the preset too
            base = pred_of(position)
            while base is not None and base not in done:
                base = pred_of(base)
            if base is not None:
                self._base[position] = base
                self._users[base] = self._users.get(base, 0) + 1
            done.add(position)

    def __len__(self) -> int:
        return len(self._frontiers)

    def take(self, position: int) -> _Frontier:
        """The frontier the event at ``position`` resumes from; the empty
        start if none."""
        base = self._base.pop(position, None)
        if base is None:
            return _START
        users = self._users.pop(base) - 1
        if users:
            self._users[base] = users
            frontier = self._frontiers.get(base)
        else:
            frontier = self._frontiers.pop(base, None)
        return frontier or _START

    def keep(self, position: int, names: dict[int, int], cls: _SingleReplay,
             own: VisibleBindingStep) -> None:
        if position in self._users:  # a later event resumes where its preset ends
            self._frontiers[position] = (position + 1, names, cls, (own,))

    def firing(self, step: VisibleBindingStep) -> _Firing:
        """The step's binding and needed tokens, built on first use."""
        firing = self._firings.get(step)
        if firing is None:
            firing = self._firings[step] = _firing(self._net, step)
        return firing


def _sequence(log: EventLog, graph: EventObjectGraph, position: int, base: _Frontier,
              lazy: bool, canonical: bool) -> tuple:
    """The names, preset steps, own step and (cursor, (type, name) pairs)
    of objects entering the markings of the event at log ``position``,
    resumed from the base.

    The preset's steps from the base's position follow the base's.  An
    object enters where a step first binds it, the event's own new objects
    at the end; all at cursor 0 when lazy entry is not exact.  New objects
    join ``names`` by graph number, in order of entry, ties in ``ObjectId``
    order (the numbers' order), as ints from 0 when ``canonical`` and as
    their graph numbers otherwise.
    """
    start, names, _, steps = base
    names = dict(names)
    steps = [*steps]
    types = graph._types
    entering = []
    for i in [*_positions(graph._low[position], graph._bits[position], start), position]:
        new = []
        by_type: dict[str, list[int]] = {}
        for s in graph._slots[i]:
            name = names.get(s)
            if name is None:
                name = names[s] = len(names) if canonical else s
                new.append((types[s], name))
            by_type.setdefault(types[s], []).append(name)
        if new:
            entering.append((len(steps), tuple(new)))
        steps.append(VisibleBindingStep(log.events[i].activity, tuple(sorted(
            [(otype, frozenset(ids)) for otype, ids in by_type.items()]))))
    if entering and not lazy:
        entering = [(0, tuple(pair for _, pairs in entering for pair in pairs))]
    own = steps.pop()
    return names, steps, own, tuple(entering)


def _preset_search(net: AcceptingOCPN, log: EventLog, graph: EventObjectGraph,
                   position: int, base: _Frontier, canonical: bool, cfg: ReplayConfig,
                   memo: FrontierMemo, searched: dict[tuple, _SingleReplay],
                   ) -> tuple[_SingleReplay, VisibleBindingStep, dict[int, int]]:
    """Search the preset of the event at ``position`` from the base in the
    names ``_sequence`` gives, once per key in ``searched``: the base's
    class, the rest of the preset's steps and the entering objects.  The
    search starts from the base's entering markings, under the budget the
    base's states leave.  Returns the result, the event's own step in its
    names, and the names."""
    names, steps, own, entering = _sequence(log, graph, position, base, memo.lazy,
                                            canonical)
    cls = base[2]
    key = (cls, tuple(steps), entering)
    single = searched.get(key)
    if single is None:
        firings = [memo.firing(s) for s in steps]
        initial = net.initial_places
        if any(f.binding is None for f in firings) or not all(
                otype in initial for _, objects in entering for otype, _ in objects):
            single = _UNREPLAYABLE  # an activity or an object type the net lacks
        else:
            entry = {k: Marking([(initial[otype].id, name) for otype, name in objects])
                     for k, objects in entering}
            start = (tuple(m + entry[0] if m else entry[0] for m in cls.entering)
                     if 0 in entry else cls.entering)
            found = _search(net, firings, start, entry, cfg, cfg.max_states - cls.states)
            single = _SingleReplay(found.markings, found.truncated, found.entering,
                                   cls.states + found.states)
        searched[key] = single
    return single, own, names


def _replay_resumed(net: AcceptingOCPN, log: EventLog, graph: EventObjectGraph,
                    position: int, cfg: ReplayConfig, memo: FrontierMemo,
                    searched: dict[tuple, _SingleReplay],
                    ) -> tuple[_SingleReplay, VisibleBindingStep, dict[int, int]]:
    """Replay one event's preset from the frontier the memo holds for it;
    returns the result, the event's own step in the result's names, and
    the event's names, from its objects' graph numbers.

    The frontier's objects keep their names and the new ones are numbered
    on (``_sequence``); the token game cannot tell two objects of one type
    apart, so events whose binding sequences are the same up to renaming
    objects form one replay class, whose search runs once per
    ``searched`` in canonical names (``_preset_search``).  The frontier's
    states belong to its class, so the key fixes the budget, and whether
    a search is cut is the same for the whole class: a complete search
    expands every reachable state, in any order.  What a cut search found
    follows the order of object names, so every member of a cut class is
    searched again from ``_START`` by graph number, as the search from the
    initial marking: within one type the numbers sort like the ids, and a
    search compares names only within one type, so it expands the states
    the search by id would, in its order, and is cut at the same point.
    Members with the same preset and new objects share that search, and
    it is no frontier.  A result is shared by a class exactly when it is
    not truncated, and then becomes the event's frontier.
    """
    single, own, names = _preset_search(net, log, graph, position, memo.take(position),
                                        True, cfg, memo, searched)
    if single.truncated:
        return _preset_search(net, log, graph, position, _START, False, cfg, memo,
                              searched)
    memo.keep(position, names, single, own)
    return single, own, names


def _reaches_final(net: AcceptingOCPN, markings: Iterable[Marking], own: _Firing,
                   cfg: ReplayConfig) -> tuple[bool, bool]:
    """Whether firing the event's own binding from some marking, then silent
    firings, reaches an accepting marking; and whether the silent search
    was cut off at ``max_states``.  A final fired marking answers at once;
    one with a token outside ``net.finishing_places`` can never become
    final and is dropped.  One search, under one budget, starts from every
    fired marking left, if any, in the order of ``markings``."""
    binding, need = own
    if need is None:
        return False, False
    finishing = net.finishing_places
    # one binding fired from distinct markings gives distinct markings
    fired = []
    for m in markings:
        if need <= m:
            after = _fire(net, m, binding)
            if is_final(net, after):
                return True, False
            if finishing.issuperset(after._tokens):
                fired.append(after)
    if not fired:
        return False, False
    closure = _search(net, (), fired, {}, cfg, cfg.max_states)
    return any(is_final(net, m) for m in closure.markings), closure.truncated


def replay_context_group(net: AcceptingOCPN, log: EventLog, graph: EventObjectGraph,
                         events: Iterable[str] | str,
                         cfg: ReplayConfig = DEFAULT_CONFIG,
                         memo: FrontierMemo | None = None) -> GroupReplay:
    """Replay every event of one context group and union the outcomes.

    Each event resumes from the ``memo``'s frontier for it.  Without a
    memo, one over no events resumes nothing: every event is replayed
    from the initial marking.  The members of one replay class share one
    search and one reading of the enabled labels, and each result shares
    one ``reached_final`` search per own step, whichever names it is in.
    Where a canonical ``reached_final`` search is cut, the event's preset
    is searched again by graph number and the answer read from that
    result, since where it cuts follows the names.  ``markings`` renames
    every member's result back to real names, on first read.
    """
    if isinstance(events, str):
        events = (events,)
    if memo is None:
        memo = FrontierMemo(net, log, graph, ())
    searched: dict[tuple, _SingleReplay] = {}
    finals: dict[tuple[_SingleReplay, VisibleBindingStep], tuple[bool, bool]] = {}
    results: dict[_SingleReplay, None] = {}
    members: list[tuple[tuple[Marking, ...], dict[int, int]]] = []
    truncated = False
    reached_final_by_event: dict[str, bool] = {}

    def final(single: _SingleReplay, own: VisibleBindingStep) -> tuple[bool, bool]:
        answer = finals.get((single, own))
        if answer is None:
            answer = finals[single, own] = _reaches_final(
                net, single.markings, memo.firing(own), cfg)
        return answer

    for eid in events:
        position = graph._position(eid)
        single, own, names = _replay_resumed(net, log, graph, position, cfg, memo,
                                             searched)
        reached, cut = final(single, own)
        if cut and not single.truncated:  # where a closure cuts follows the names
            reached, cut = final(*_preset_search(net, log, graph, position, _START,
                                                 False, cfg, memo, searched)[:2])
        reached_final_by_event[eid] = reached
        truncated = truncated or single.truncated or (cut and not reached)
        results[single] = None
        members.append((single.markings, names))

    def real_markings() -> frozenset[Marking]:
        # one numbering covers every type, so a name alone is one object,
        # and a place holds one type, so renaming a place dict keeps its keys
        # apart; each renamed token is hashed once, as ``Marking`` would
        out: set[Marking] = set()
        for markings, names in members:
            real = {name: graph.objects[s].id for s, name in names.items()}
            for m in markings:
                tokens = {}
                total = 0
                for place, objects in m._tokens.items():
                    renamed = tokens[place] = {real[o]: n for o, n in objects.items()}
                    for o, n in renamed.items():
                        total += hash((place, o)) * n
                out.add(Marking._of(tokens, total))
        return frozenset(out)

    enabled = frozenset().union(*(enabled_visible_labels(net, m)
                                  for single in results for m in single.markings))
    outcome = ReplayOutcome(enabled, any(single.markings for single in results),
                            any(reached_final_by_event.values()), truncated)
    return GroupReplay(outcome, real_markings, reached_final_by_event)


def enabled_model_activities(net: AcceptingOCPN, log: EventLog,
                             graph: EventObjectGraph, events: Iterable[str] | str,
                             cfg: ReplayConfig = DEFAULT_CONFIG) -> ReplayOutcome:
    """Visible labels the net can fire next, given the context of the events.

    ``events`` is one event id or a whole context group; outcomes are
    unioned over the group.
    """
    return replay_context_group(net, log, graph, events, cfg).outcome


def states_for_context(net: AcceptingOCPN, log: EventLog, graph: EventObjectGraph,
                       events: Iterable[str] | str,
                       cfg: ReplayConfig = DEFAULT_CONFIG) -> frozenset[Marking]:
    """All deduplicated fully-replayed markings for a context group,
    closed under silent reachability."""
    return replay_context_group(net, log, graph, events, cfg).markings
