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
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .context import Context, EventObjectGraph
from .ocel import Event, EventLog, ObjectId
from .ocpn import (AcceptingOCPN, Binding, Marking, ModelError, _fire,
                   binding_well_formed, consumed, enabled_visible_labels,
                   enumerate_bindings, initial_marking_for, is_final)

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


@dataclass
class GroupReplay:
    """Detailed result of replaying one context group."""

    outcome: ReplayOutcome
    markings: frozenset[Marking]
    reached_final_by_event: dict[str, bool]


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


@dataclass(frozen=True)
class _SingleReplay:
    markings: tuple[Marking, ...]    # fully replayed, in discovery order;
                                     # empty when unreplayable
    truncated: bool
    # markings entering the last cursor, before its silent search, and the
    # number of states expanded before that cursor
    entering: tuple[Marking, ...] = ()
    expanded_before_end: int = 0


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


@dataclass(frozen=True, eq=False)
class _Frontier:
    """Where replay of an event's preset may resume.

    ``position`` is the log position of the event whose frontier this is:
    its preset is replayed, and a later event that resumes here replays
    its own preset from that position on.  Compared by identity.
    """

    position: int                    # log position the rest of the preset starts at
    markings: tuple[Marking, ...]    # raw markings entering that point
    objects: frozenset[ObjectId]     # objects that have entered those markings
    states: int                      # states expanded before that point


_START = _Frontier(0, (Marking(),), frozenset(), 0)


def _prefix_predecessor(log: EventLog, graph: EventObjectGraph,
                        event_id: str) -> str | None:
    """The latest direct predecessor d such that d's log-ordered preset,
    followed by d, opens the event's log-ordered preset.

    d's preset lies in the event's preset and before d's log position, so
    that holds exactly when the event's preset has as many positions below
    d's position as d's own preset has: a popcount test on the bitsets.
    """
    index = log.event_index
    for pred in sorted(graph.direct_predecessors[event_id],
                       key=index.__getitem__, reverse=True):
        if graph.preset_count(event_id, below=index[pred]) == graph.preset_count(pred):
            return pred
    return None


class FrontierMemo:
    """Replay frontiers shared by the events of one ``check``.

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
    event's visible step as the net fires it (``firing``) is built once,
    for the event and for later events' replays, and dropped after the
    last use counted from ``order``.
    """

    def __init__(self, net: AcceptingOCPN, log: EventLog, graph: EventObjectGraph,
                 order: Iterable[str]) -> None:
        self.lazy = lazy_entry_exact(net)
        self._net = net
        self._firings: dict[int, _Firing] = {}
        self._uses: dict[int, int] = {}
        self._frontiers: dict[str, _Frontier] = {}
        self._base: dict[str, str] = {}
        self._users: dict[str, int] = {}
        preds: dict[str, str | None] = {}

        def pred_of(eid: str) -> str | None:
            if eid not in preds:
                preds[eid] = _prefix_predecessor(log, graph, eid) if self.lazy else None
            return preds[eid]

        done: set[str] = set()
        for eid in order:
            # a prefix predecessor's prefix predecessor opens the preset too
            base = pred_of(eid)
            while base is not None and base not in done:
                base = pred_of(base)
            if base is not None:
                self._base[eid] = base
                self._users[base] = self._users.get(base, 0) + 1
            # the steps _replay_resumed passes, then the event's own firing
            start = 0 if base is None else log.event_index[base]
            for i in (*graph.preset_positions(eid, start), log.event_index[eid]):
                self._uses[i] = self._uses.get(i, 0) + 1
            done.add(eid)

    def __len__(self) -> int:
        return len(self._frontiers)

    def take(self, event_id: str) -> _Frontier:
        """The frontier the event resumes from; the empty start if none."""
        base = self._base.pop(event_id, None)
        if base is None:
            return _START
        users = self._users.pop(base) - 1
        if users:
            self._users[base] = users
            frontier = self._frontiers.get(base)
        else:
            frontier = self._frontiers.pop(base, None)
        return frontier or _START

    def keep(self, event: Event, single: _SingleReplay, objects: set[ObjectId],
             base: _Frontier) -> None:
        if event.id in self._users:  # a later event resumes where its preset ends
            self._frontiers[event.id] = _Frontier(
                event.index, single.entering, frozenset(objects),
                base.states + single.expanded_before_end)

    def firing(self, event: Event) -> _Firing:
        """The event's binding and needed tokens, built on first use and
        kept until the last counted one."""
        firing = self._firings.get(event.index) or _firing(
            self._net, VisibleBindingStep.for_event(event))
        self._firings[event.index] = firing
        self.release((event.index,))
        return firing

    def release(self, positions: Iterable[int]) -> None:
        """Count one use of the firing at each log position, and drop it
        after its last counted one."""
        for i in positions:
            uses = self._uses.pop(i, 1) - 1
            if uses > 0:
                self._uses[i] = uses
            else:
                self._firings.pop(i, None)


def _search_from(net: AcceptingOCPN, steps: Sequence[_Firing], base: _Frontier,
                 entering: Iterable[tuple[int, frozenset[ObjectId]]],
                 cfg: ReplayConfig) -> _SingleReplay:
    """``_search`` of the steps from the base frontier, each (cursor, objects)
    pair of ``entering`` adding initial tokens at its cursor."""
    try:
        entry = {k: initial_marking_for(net, objects) for k, objects in entering}
    except ModelError:
        return _UNREPLAYABLE
    if any(f.binding is None for f in steps):
        # an unmatched activity can never fire: the sequence is unreplayable
        return _UNREPLAYABLE
    start = (tuple(m + entry[0] if m else entry[0] for m in base.markings)
             if 0 in entry else base.markings)
    return _search(net, steps, start, entry, cfg, cfg.max_states - base.states)


def _replay_resumed(net: AcceptingOCPN, log: EventLog, graph: EventObjectGraph,
                    event_id: str, cfg: ReplayConfig, memo: FrontierMemo,
                    searched: dict[tuple, _SingleReplay]) -> _SingleReplay:
    """Replay one event's preset from the frontier the memo holds for it.

    The preset's positions from the frontier's log position on are
    replayed.  An object enters when a step first binds it, the event's
    own new objects at the end; all at cursor 0 on nets where lazy entry
    is not exact.  A twin (same preset, same objects) of an earlier event
    of the group reads the same frontier, steps and entering objects, so
    it takes that search from ``searched`` and releases the memo's uses
    of the steps.  A search whose states, with those before the frontier,
    exceed ``max_states`` runs again from ``_START``, so truncated results
    stay those of the search from the initial marking.  An untruncated
    result becomes the event's own frontier.
    """
    event = log.event(event_id)
    base = memo.take(event_id)
    positions = tuple(graph.preset_positions(event_id, base.position))
    known = set(base.objects)
    entering = []
    for k, omap in enumerate([*(log.events[i].omap for i in positions), event.omap]):
        new = omap - known
        if new:
            known |= new
            entering.append((k, new))
    if entering and not memo.lazy:
        entering = [(0, frozenset(known))]
    key = (base, positions, tuple(entering))
    single = searched.get(key)
    if single is not None:
        memo.release(positions)
    else:
        steps = [memo.firing(log.events[i]) for i in positions]
        single = _search_from(net, steps, base, entering, cfg)
        if single.truncated and base is not _START:
            single = _replay_resumed(net, log, graph, event_id, cfg,
                                     FrontierMemo(net, log, graph, ()), {})
        searched[key] = single
    if not single.truncated:
        memo.keep(event, single, known, base)
    return single


def _own_binding_reaches_final(net: AcceptingOCPN, markings: Iterable[Marking],
                               own: _Firing,
                               cfg: ReplayConfig) -> tuple[bool, bool]:
    """Whether firing the event's own binding from some marking, then silent
    firings, reaches an accepting marking; and, when it does not, whether
    the silent search was cut off at ``max_states``.  A final fired marking
    answers at once; one with a token outside ``net.finishing_places`` can
    never become final and is dropped.  One search, under one budget,
    starts from every fired marking left, if any, in the order of
    ``markings``."""
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
            if finishing.issuperset(after._places):
                fired.append(after)
    if not fired:
        return False, False
    closure = _search(net, (), fired, {}, cfg, cfg.max_states)
    reached = any(is_final(net, m) for m in closure.markings)
    return reached, closure.truncated and not reached


def replay_context_group(net: AcceptingOCPN, log: EventLog, graph: EventObjectGraph,
                         events: Iterable[str] | str,
                         cfg: ReplayConfig = DEFAULT_CONFIG,
                         memo: FrontierMemo | None = None) -> GroupReplay:
    """Replay every event of one context group and union the outcomes.

    Each event resumes from the ``memo``'s frontier for it.  Without a
    memo, one over no events resumes nothing: every event is replayed
    from the initial marking.  Twins (same preset, same objects) share one
    search.
    """
    if isinstance(events, str):
        events = (events,)
    if memo is None:
        memo = FrontierMemo(net, log, graph, ())
    searched: dict[tuple, _SingleReplay] = {}
    markings: set[Marking] = set()
    truncated = False
    reached_final_by_event: dict[str, bool] = {}
    for eid in events:
        single = _replay_resumed(net, log, graph, eid, cfg, memo, searched)
        reached_final, cut = _own_binding_reaches_final(
            net, single.markings, memo.firing(log.event(eid)), cfg)
        reached_final_by_event[eid] = reached_final
        markings.update(single.markings)
        truncated = truncated or single.truncated or cut
    enabled = frozenset().union(*(enabled_visible_labels(net, m) for m in markings))
    outcome = ReplayOutcome(enabled, bool(markings),
                            any(reached_final_by_event.values()), truncated)
    return GroupReplay(outcome, frozenset(markings), reached_final_by_event)


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
