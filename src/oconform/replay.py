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
from typing import Callable, Iterable, Mapping, Sequence

from .context import EventObjectGraph, _named
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
        for name in ("max_states", "subset_cap"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("explore_silent_when_enabled", "reverse_successors"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be a boolean, not {value!r}")
        if self.silent_variable_mode not in SILENT_VARIABLE_MODES:
            raise ValueError(
                f"silent_variable_mode must be one of {SILENT_VARIABLE_MODES}")


DEFAULT_CONFIG = ReplayConfig()


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


def _search(net: AcceptingOCPN, steps: Sequence[tuple[Binding, Marking | None]],
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
    cap = 1 if cfg.silent_variable_mode == "singleton" else cfg.subset_cap
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
        if net.silent_transitions and (not advanced or cfg.explore_silent_when_enabled):
            successors = [_fire(net, marking, binding) for t in net.silent_transitions
                          for binding in enumerate_bindings(net, marking, t.id, cap)]
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


# Replay names objects by ints and keys its searches by compact steps: a
# visible step as ``(activity, *names)``, the names ascending.  A name says
# its object's type: it is ``k * T + t``, where ``t`` indexes the graph's
# ``kinds``, ``T`` of them, and ``k`` numbers the object (``context._named``).
# So a compact step alone gives its binding (``FrontierMemo.firing``).
_Step = tuple

# The class result of no base: the empty marking enters cursor 0.
_EMPTY = _SingleReplay((), False, (Marking(),))


class FrontierMemo:
    """Replay results and firings shared by the events of one ``check``,
    with the net, log, graph and config they were found for.

    ``replay_log`` fills the memo: it replays every event of the log once,
    in log order, and keeps each result, by log position, until its
    group reads it.  An event's frontier is read off its result: the raw
    set of markings that enter the end of its preset's binding sequence,
    before that cursor's silent search, as the next step decides which
    silent firings follow.  So a frontier is named by its event's log
    position, the **base** of the events that resume there: each resumes
    from its prefix predecessor's frontier, replays its preset from the
    position just past the base, opening with the base's own step, and
    names new objects on from the base's names (``_preset_search``).  A
    base of None is the empty frontier, whose class result is ``_EMPTY``:
    events whose prefix predecessor's canonical search was cut, and all
    events on nets where lazy entry is not exact (``lazy`` is False),
    resume there.  The frontiers depend on the config, so one memo serves
    one config, and one net, log and graph: ``replay_context_group``
    rejects it for any other.  Searches and ``reached_final`` answers are
    cached for the pass; each distinct visible step as the net fires it
    (``firing``) is built once and kept while the memo lives.
    """

    def __init__(self, net: AcceptingOCPN, log: EventLog, graph: EventObjectGraph,
                 cfg: ReplayConfig) -> None:
        self.net, self.log, self.graph, self.cfg = net, log, graph, cfg
        self.lazy = lazy_entry_exact(net)
        initial = net.initial_places
        self._initial = [initial[otype].id if otype in initial else None
                         for otype in graph.kinds]
        self._firings: dict[_Step, tuple[Binding | None, Marking | None]] = {}
        self._results: dict[int, tuple] = {}  # by log position
        self._searched: dict[tuple, _SingleReplay] = {}
        self._finals: dict[tuple[_SingleReplay, _Step], tuple[bool, bool]] = {}
        self._cut: set[int] = set()  # positions where a search was cut

    def firing(self, step: _Step) -> tuple[Binding | None, Marking | None]:
        """The binding of a compact step, each name's type read as
        ``kinds[name % T]``, and the tokens it consumes, built on first use:
        (None, None) for an activity that is no visible label of the net,
        and None tokens for a malformed binding.  A marking enables the
        binding exactly when it holds the tokens (``binding_enabled``)."""
        firing = self._firings.get(step)
        if firing is None:
            net, kinds = self.net, self.graph.kinds
            transition = net.label_to_transition.get(step[0])
            if transition is None:
                firing = (None, None)
            else:
                by_type: dict[str, list[int]] = {}
                for name in step[1:]:
                    by_type.setdefault(kinds[name % len(kinds)], []).append(name)
                binding = Binding.make(transition.id, by_type)
                firing = (binding, consumed(net, binding)
                          if binding_well_formed(net, binding) else None)
            self._firings[step] = firing
        return firing


def _preset_search(memo: FrontierMemo, position: int, base: int | None, canonical: bool,
                   ) -> tuple[_SingleReplay, _Step, dict[int, int]]:
    """Search the preset of the event at log ``position`` from the
    frontier of the event at log position ``base``, or from the empty
    frontier when it is None, once per key in the memo's ``_searched``:
    the base's class, the rest of the preset's compact steps and the
    entering names.  Returns the result, the event's compact own step and
    the names.

    The preset's steps past the base follow the base's own step, named on
    from the base's names (``context._named``), all three read off the
    base's result.  An object enters where a step first binds it, the
    event's own new objects at the end; all at cursor 0 when lazy entry
    is not exact.  Only a search builds the firings of its steps, through
    the memo.  The search starts from the class's entering markings, under
    the budget its states leave.
    """
    if base is None:
        cls, start, names, steps = _EMPTY, 0, {}, []
    else:
        cls, names, _, _, _, opening = memo._results[base]
        start, steps = base + 1, [opening]
    graph = memo.graph
    entering: list[tuple[int, tuple[int, ...]]] = []
    names = _named(memo.log.events, graph._slots, graph._kind_of, len(graph.kinds),
                   [*graph._preset_positions(position, start), position], names,
                   canonical, steps, entering)
    if entering and not memo.lazy:
        entering = [(0, tuple(name for _, new in entering for name in new))]
    own = steps.pop()
    key = (cls, tuple(steps), tuple(entering))
    single = memo._searched.get(key)
    if single is None:
        net, cfg, initial = memo.net, memo.cfg, memo._initial
        width = len(initial)
        if any(step[0] not in net.label_to_transition for step in steps) or any(
                initial[name % width] is None for _, new in entering for name in new):
            single = _UNREPLAYABLE  # an activity or an object type the net lacks
        else:
            firings = [memo.firing(step) for step in steps]
            entry = {k: Marking([(initial[name % width], name) for name in new])
                     for k, new in entering}
            start = (tuple(m + entry[0] if m else entry[0] for m in cls.entering)
                     if 0 in entry else cls.entering)
            found = _search(net, firings, start, entry, cfg, cfg.max_states - cls.states)
            single = _SingleReplay(found.markings, found.truncated, found.entering,
                                   cls.states + found.states)
        memo._searched[key] = single
    return single, own, names


def _reaches_final(net: AcceptingOCPN, markings: Iterable[Marking],
                   own: tuple[Binding | None, Marking | None],
                   cfg: ReplayConfig) -> tuple[bool, bool]:
    """Whether firing the event's own binding from some marking, then silent
    firings, reaches an accepting marking; and whether the silent search
    was cut off at ``max_states``.  A final fired marking answers at once;
    one with a token outside ``net.finishing_places`` can never become
    final and is dropped, before firing when the token is on a place the
    binding does not read, as it stays there.  One search, under one
    budget, starts from every fired marking left, if any, in the order of
    ``markings``."""
    binding, need = own
    if need is None:
        return False, False
    finishing = net.finishing_places
    # one binding fired from distinct markings gives distinct markings
    fired = []
    for m in markings:
        if need <= m and finishing.issuperset(m._tokens.keys() - need._tokens.keys()):
            after = _fire(net, m, binding)
            if is_final(net, after):
                return True, False
            if finishing.issuperset(after._tokens):
                fired.append(after)
    if not fired:
        return False, False
    closure = _search(net, (), fired, {}, cfg, cfg.max_states)
    return any(is_final(net, m) for m in closure.markings), closure.truncated


def _replay_event(memo: FrontierMemo, position: int, base: int | None,
                  ) -> tuple[_SingleReplay, dict[int, int], Sequence[ObjectId], bool, bool,
                             _Step | None]:
    """Replay the event at log ``position`` from the frontier of the event
    at log position ``base`` (None for the empty frontier), and decide
    ``reached_final`` once per result and own step.  Returns the result,
    its names, the objects their keys number (the graph's),
    ``reached_final``, whether a cut search leaves the event truncated,
    and the compact own step that, with the result and names, makes the
    frontier later events resume from: None when the canonical preset
    search was cut, as that result is no frontier.  The memo notes where
    any search was cut (``_cut``).

    The token game cannot tell two objects of one type apart, so events
    whose binding sequences are the same up to renaming objects form one
    replay class, searched once in canonical names (``_preset_search``),
    under the budget its key fixes: whether a search is cut is the same
    for the whole class, as a complete search expands every state.

    What a cut search found follows the order of object names.  So where
    the canonical preset search, or the ``reached_final`` search behind
    it, is cut, the preset is searched again from no base by graph
    number s, each name ``s * T + t``, which expands the states a search
    by id would, in its order: within one type those names sort like the
    ids, and a search compares names only within one type.  A cut preset
    search gives way to that result, which is no frontier and is shared by
    events with the same preset and new objects; a cut ``reached_final``
    search only takes its answer from it.  An own step's firing is built
    only for a ``reached_final`` search.
    """
    single, own, names = _preset_search(memo, position, base, True)
    opening = own
    cut = single.truncated
    if not cut:
        reached, cut = _final(memo, single, own)
    if cut:  # where a search cuts follows the names
        memo._cut.add(position)
        rerun, own, by_number = _preset_search(memo, position, None, False)
        reached, cut = _final(memo, rerun, own)
        if single.truncated:
            single, names, opening = rerun, by_number, None
    return (single, names, memo.graph.objects, reached,
            single.truncated or (cut and not reached), opening)


def _final(memo: FrontierMemo, single: _SingleReplay, own: _Step) -> tuple[bool, bool]:
    answer = memo._finals.get((single, own))
    if answer is None:
        answer = memo._finals[single, own] = (
            _reaches_final(memo.net, single.markings, memo.firing(own), memo.cfg)
            if single.markings else (False, False))
    return answer


def replay_log(net: AcceptingOCPN, log: EventLog, graph: EventObjectGraph,
               cfg: ReplayConfig = DEFAULT_CONFIG) -> FrontierMemo:
    """A memo holding the replay result of every event of the log, each
    replayed once, in log order, from its prefix predecessor's frontier.

    An event whose execution repeats an earlier one, as the graph records
    (``_repeats``), takes its counterpart's result instead, with the
    objects its names stand for paired to the event's own.  What a cut
    search finds follows graph numbers, so where a search of the first
    execution was cut (``_cut``), its repeats are replayed instead.
    Every ancestor of an event lies in its execution, so its prefix
    predecessor is replayed before it.  The search caches are dropped
    after the pass."""
    memo = FrontierMemo(net, log, graph, cfg)
    results, repeats = memo._results, graph._repeats

    def replay(positions: Iterable[int]) -> None:
        for p in positions:
            base = graph._prefix_predecessor(p) if memo.lazy else None
            if base is not None and results[base][5] is None:
                base = None  # a cut canonical search is no frontier
            results[p] = _replay_event(memo, p, base)

    # first the first execution of each key and every unrepeated one
    replay(sorted(set(range(len(log.events))).difference(
        *[positions for _, positions, _ in repeats])))
    for first, positions, objects in repeats:
        if not memo._cut.isdisjoint(first):
            replay(positions)  # in log order, as an execution lists them
            continue
        for p, c in zip(positions, first):
            single, names, _, reached, truncated, opening = results[c]
            results[p] = (single, names, objects, reached, truncated, opening)
    memo._searched, memo._finals = {}, {}
    return memo


def replay_context_group(net: AcceptingOCPN, log: EventLog, graph: EventObjectGraph,
                         events: Iterable[str] | str,
                         cfg: ReplayConfig = DEFAULT_CONFIG,
                         memo: FrontierMemo | None = None) -> GroupReplay:
    """Replay every event of one context group and union the outcomes.

    With a ``memo`` that ``replay_log`` filled, each event takes its
    result off the memo, its counterpart's where its execution repeats
    an earlier one, and drops it there; an event whose result was taken
    already, and every event without a memo, is replayed here from the
    empty frontier (``_replay_event``), the reference the pass must agree
    with.  A memo built for another net, log or graph (as objects) or for
    an unequal config raises ``ValueError``: its frontiers were searched
    under that config's budget.  Members that share a result read its
    enabled labels once.
    ``markings`` renames each member's result back to real names on first
    read, once per distinct result and renaming, by the objects its
    names' keys stand for: a counterpart's are paired to the member's.
    """
    if isinstance(events, str):
        events = (events,)
    if memo is None:
        memo = FrontierMemo(net, log, graph, cfg)
    elif not (memo.net is net and memo.log is log and memo.graph is graph
              and (memo.cfg is cfg or memo.cfg == cfg)):
        raise ValueError("the memo was built for another net, log, graph or config")
    members: list[tuple[_SingleReplay, dict[int, int], Mapping[int, ObjectId]]] = []
    truncated = False
    reached_final_by_event: dict[str, bool] = {}
    for eid in events:
        position = graph._index.get(eid)
        if position is None:  # raises LogError for an unknown id
            position = graph._position(eid)
        single, names, objects, reached, cut, _ = (memo._results.pop(position, None)
                                                   or _replay_event(memo, position, None))
        reached_final_by_event[eid] = reached
        truncated = truncated or cut
        members.append((single, names, objects))

    def real_markings() -> frozenset[Marking]:
        # one numbering covers every type, so a name alone is one object,
        # and a place holds one type, so renaming keeps its tokens apart;
        # a result renamed by the same map gives the same markings again
        out: set[Marking] = set()
        done: set[tuple] = set()
        for single, names, objects in members:
            real = {name: objects[s].id for s, name in names.items()}
            key = (single, *real.items())
            if key not in done:
                done.add(key)
                out.update(m.renamed(real) for m in single.markings)
        return frozenset(out)

    results = dict.fromkeys([single for single, _, _ in members])
    enabled = frozenset().union(*(enabled_visible_labels(net, m)
                                  for single in results for m in single.markings))
    outcome = ReplayOutcome(enabled, any(single.markings for single in results),
                            any(reached_final_by_event.values()), truncated)
    return GroupReplay(outcome, real_markings, reached_final_by_event)
