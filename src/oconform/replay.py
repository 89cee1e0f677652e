"""Replay of event contexts on a net.

For an event e, the visible firings of its ancestors form a binding
sequence.  Replaying that sequence from the initial marking of all
involved objects, while breadth-first searching over silent firings
whenever the next visible binding is blocked, yields the set of model
states the net considers possible just before e.  The activities enabled
in any of those states are the model's answer to "what may happen next".
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .context import (Context, EventObjectGraph, event_preset,
                      events_in_log_order, preset_objects)
from .ocel import EventLog, ObjectId
from .ocpn import (AcceptingOCPN, Binding, Marking, ModelError, _fire,
                   binding_enabled, enabled_visible_labels, enumerate_bindings,
                   initial_marking_for, is_final)

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
    itself, or the one silent search, from every marking the event's own
    binding fired into, behind a ``reached_final`` that came out False.
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


def binding_sequence_of_preset(log: EventLog, graph: EventObjectGraph,
                               event_id: str) -> tuple[VisibleBindingStep, ...]:
    """The event's ancestors as visible binding steps, in log order."""
    return tuple(VisibleBindingStep.for_event(e)
                 for e in events_in_log_order(log, event_preset(graph, event_id)))


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


def _binding_for_step(net: AcceptingOCPN, step: VisibleBindingStep) -> Binding | None:
    transition = net.label_to_transition.get(step.activity)
    if transition is None:
        return None
    return Binding(transition.id, step.objects)


def _silent_successors(net: AcceptingOCPN, marking: Marking,
                       cfg: ReplayConfig) -> Iterator[Marking]:
    cap = 1 if cfg.silent_variable_mode == "singleton" else cfg.subset_cap
    for t in net.silent_transitions:
        for binding in enumerate_bindings(net, marking, t.id, subset_cap=cap):
            yield _fire(net, marking, binding)


@dataclass(frozen=True)
class _SingleReplay:
    markings: frozenset[Marking]     # fully replayed: empty when unreplayable
    truncated: bool
    # markings entering the last cursor, before its silent search, and the
    # number of states expanded before that cursor
    entering: tuple[Marking, ...] = ()
    expanded_before_end: int = 0


_UNREPLAYABLE = _SingleReplay(frozenset(), False)


def _search(net: AcceptingOCPN, steps: Sequence[VisibleBindingStep],
            start: Sequence[Marking], entry: Mapping[int, Marking],
            cfg: ReplayConfig, budget: int) -> _SingleReplay:
    """Breadth-first replay of a binding sequence from ``start``.

    States are (marking, cursor) pairs, deduplicated; the cursor counts
    executed visible steps, and every start marking is at cursor 0.  From
    each state the next visible binding is taken when enabled, otherwise
    every silent firing is followed.  A state at the end of the sequence is
    fully replayed and its marking is collected.  Fully replayed states
    still follow silent firings, so the collected markings are closed under
    silent reachability; with an empty sequence the search is the silent
    closure of the start markings, which is how ``reached_final`` is
    decided, in one search from every marking the own binding fired into.
    ``entry[k]``, where present, is added to every marking a visible
    firing moves to cursor k; the markings that enter the last cursor (the
    start markings, for an empty sequence) are returned as ``entering``.
    More than ``budget`` states cut the search off, flagged truncated.  Every step's activity must be a visible label of the net.
    """
    last = len(steps)
    bindings = [_binding_for_step(net, step) for step in steps]
    markings: set[Marking] = set()
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
            markings.add(marking)
        advanced = False
        if cursor < last:
            binding = bindings[cursor]
            if binding_enabled(net, marking, binding):
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
    return _SingleReplay(frozenset(markings), truncated, tuple(entering),
                         expanded - at_end)


def _replay_single(net: AcceptingOCPN, steps: tuple[VisibleBindingStep, ...],
                   objects: frozenset[ObjectId], cfg: ReplayConfig) -> _SingleReplay:
    """Replay of one binding sequence from the initial marking of all its
    objects, within the ``max_states`` budget."""
    try:
        start = initial_marking_for(net, objects)
    except ModelError:
        return _UNREPLAYABLE
    for step in steps:
        if step.activity not in net.label_to_transition:
            # an unmatched activity can never fire: the sequence is unreplayable
            return _UNREPLAYABLE
    return _search(net, steps, (start,), {}, cfg, cfg.max_states)


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


@dataclass(frozen=True)
class _Frontier:
    """Where replay of an event's preset may resume."""

    cursor: int                      # visible steps behind it: the preset's size
    markings: tuple[Marking, ...]    # raw markings entering that cursor
    objects: frozenset[ObjectId]     # objects that have entered those markings
    states: int                      # states expanded before that cursor


_START = _Frontier(0, (Marking(),), frozenset(), 0)


def _prefix_predecessor(log: EventLog, graph: EventObjectGraph,
                        event_id: str) -> str | None:
    """The latest direct predecessor d such that d's log-ordered preset,
    followed by d, opens the event's log-ordered preset.

    That holds exactly when d's position in the event's preset equals the
    size of d's own preset.
    """
    index = log.event_index
    positions = sorted(index[eid] for eid in graph.presets[event_id])
    for pred in sorted(graph.direct_predecessors[event_id],
                       key=index.__getitem__, reverse=True):
        if bisect_left(positions, index[pred]) == len(graph.presets[pred]):
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
    depend on the replay config, so one memo serves one config.  Nets on
    which lazy entry is not exact (``lazy`` is False) replay every event
    from scratch.
    """

    def __init__(self, net: AcceptingOCPN, log: EventLog, graph: EventObjectGraph,
                 order: Iterable[str]) -> None:
        self.lazy = lazy_entry_exact(net)
        self._frontiers: dict[str, _Frontier] = {}
        self._base: dict[str, str] = {}
        self._users: dict[str, int] = {}
        if not self.lazy:
            return
        preds: dict[str, str | None] = {}

        def pred_of(eid: str) -> str | None:
            if eid not in preds:
                preds[eid] = _prefix_predecessor(log, graph, eid)
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

    def keep(self, event_id: str, frontier: _Frontier) -> None:
        if event_id in self._users:
            self._frontiers[event_id] = frontier


def _replay_resumed(net: AcceptingOCPN, log: EventLog, graph: EventObjectGraph,
                    event_id: str, cfg: ReplayConfig,
                    memo: FrontierMemo) -> _SingleReplay:
    """Replay one event's preset from the frontier the memo holds for it.

    The result equals ``_replay_single`` on the whole preset, which still
    runs when the states before the frontier plus the new ones would
    exceed ``max_states``, so that truncated results stay those of the
    search from the initial marking.
    """
    event = log.event(event_id)
    ordered = events_in_log_order(log, event_preset(graph, event_id))
    base = memo.take(event_id)
    suffix = ordered[base.cursor:]
    known = set(base.objects)
    entry: dict[int, Marking] = {}
    try:
        for k, omap in enumerate([e.omap for e in suffix] + [event.omap]):
            new = omap - known
            if new:
                known |= new
                entry[k] = initial_marking_for(net, new)
    except ModelError:
        return _UNREPLAYABLE
    if any(e.activity not in net.label_to_transition for e in suffix):
        return _UNREPLAYABLE
    steps = [VisibleBindingStep.for_event(e) for e in suffix]
    start = base.markings
    if 0 in entry:
        start = tuple(m + entry[0] for m in start)
    single = _search(net, steps, start, entry, cfg, cfg.max_states - base.states)
    if single.truncated:
        return _replay_single(net, tuple(VisibleBindingStep.for_event(e) for e in ordered),
                              frozenset(known), cfg)
    memo.keep(event_id, _Frontier(len(ordered), single.entering, frozenset(known),
                                  base.states + single.expanded_before_end))
    return single


def _own_binding_reaches_final(net: AcceptingOCPN, markings: Iterable[Marking],
                               own: VisibleBindingStep,
                               cfg: ReplayConfig) -> tuple[bool, bool]:
    """Whether firing the event's own binding from some marking, then silent
    firings, reaches an accepting marking; and, when it does not, whether
    the silent search was cut off at ``max_states``.  One search starts
    from every fired marking, under one budget."""
    binding = _binding_for_step(net, own)
    if binding is None:
        return False, False
    # one binding fired from distinct markings gives distinct markings
    fired = [_fire(net, m, binding) for m in markings
             if binding_enabled(net, m, binding)]
    closure = _search(net, (), fired, {}, cfg, cfg.max_states)
    reached = any(is_final(net, m) for m in closure.markings)
    return reached, closure.truncated and not reached


def replay_context_group(net: AcceptingOCPN, log: EventLog, graph: EventObjectGraph,
                         events: Iterable[str] | str,
                         cfg: ReplayConfig = DEFAULT_CONFIG,
                         memo: FrontierMemo | None = None) -> GroupReplay:
    """Replay every event of one context group and union the outcomes.

    With a ``memo`` whose net admits lazy entry, each event resumes from
    the memo's frontier for it.  Otherwise each event is replayed from the
    initial marking, and within the group identical (binding sequence,
    object set) pairs are replayed only once.  Both give the same result.
    """
    if isinstance(events, str):
        events = (events,)
    member_ids = list(events)
    cache: dict[tuple, _SingleReplay] = {}
    markings: set[Marking] = set()
    truncated = False
    reached_final_by_event: dict[str, bool] = {}
    for eid in member_ids:
        if memo is not None and memo.lazy:
            single = _replay_resumed(net, log, graph, eid, cfg, memo)
        else:
            steps = binding_sequence_of_preset(log, graph, eid)
            objects = preset_objects(log, graph, eid)
            key = (steps, objects)
            single = cache.get(key)
            if single is None:
                single = _replay_single(net, steps, objects, cfg)
                cache[key] = single
        own = VisibleBindingStep.for_event(log.event(eid))
        reached_final, cut = _own_binding_reaches_final(net, single.markings,
                                                        own, cfg)
        reached_final_by_event[eid] = reached_final
        markings |= single.markings
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
