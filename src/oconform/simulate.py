"""Log generation by random walks over a net.

Each process instance gets fresh objects, then fires uniformly random
enabled bindings (silent ones included) until it reaches an accepting
marking or runs out of budget.  Only visible firings become events.  The
walk is deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .ocel import Event, EventLog, ObjectId
from .ocpn import (AcceptingOCPN, ModelError, _fire, enumerate_bindings,
                   initial_marking_for, is_final)


class DeadModelError(ModelError):
    """The net enables nothing from its initial marking."""


@dataclass(frozen=True)
class SimulationResult:
    log: EventLog
    instances_emitted: int
    discarded: tuple[tuple[int, str], ...]  # (instance number, reason)


def simulate_log(net: AcceptingOCPN, instances: int, seed: int,
                 max_objects: int = 3, step_cap: int | None = None,
                 stop_prob: float = 0.5) -> SimulationResult:
    """Generate a log of ``instances`` random walks through the net.

    Per instance, object counts are 1 for every type, except types on some
    variable arc, which get a uniform count in [1, max_objects].  A walk
    ends when it sits in an accepting marking and either nothing is
    enabled or a coin with ``stop_prob`` says stop (only after at least
    one firing, so accepting initial markings still produce events).
    Instances exceeding ``step_cap`` firings (default 10 per transition)
    or getting stuck outside an accepting marking are discarded.
    ``instances``, ``max_objects`` and ``step_cap`` must be positive and
    ``stop_prob`` in [0, 1]; otherwise ValueError names the parameter.
    """
    if instances < 1:
        raise ValueError("instances must be positive")
    if max_objects < 1:
        raise ValueError("max_objects must be positive")
    if step_cap is not None and step_cap < 1:
        raise ValueError("step_cap must be positive")
    if not 0 <= stop_prob <= 1:
        raise ValueError("stop_prob must be in [0, 1]")
    used_types = sorted({p.otype for p in net.places})
    if not used_types:
        raise ModelError("net has no places to put objects on")
    for ot in used_types:
        if not any(p.final for p in net.places if p.otype == ot):
            raise ModelError(f"object type {ot!r} has no final place")
    variable_types = set()
    for t in net.transitions:
        variable_types |= net.variable_types(t.id)
    cap = step_cap if step_cap is not None else 10 * max(len(net.transitions), 1)

    rng = random.Random(seed)
    emitted: list[tuple[str, frozenset[ObjectId]]] = []
    objects: list[ObjectId] = []
    discarded: list[tuple[int, str]] = []
    instances_emitted = 0
    for instance in range(1, instances + 1):
        fresh = []
        for ot in used_types:
            count = rng.randint(1, max_objects) if ot in variable_types else 1
            fresh.extend(ObjectId(f"{ot}_{instance}_{k}", ot)
                         for k in range(1, count + 1))
        marking = initial_marking_for(net, fresh)
        buffer: list[tuple[str, frozenset[ObjectId]]] = []
        by_id = {o.id: o for o in fresh}
        steps = 0
        outcome = None
        while True:
            bindings = [b for t in net.transitions
                        for b in enumerate_bindings(net, marking, t.id)]
            if instance == 1 and steps == 0 and not bindings:
                raise DeadModelError("no binding is enabled from the initial marking")
            if is_final(net, marking) and steps >= 1:
                if not bindings or rng.random() < stop_prob:
                    outcome = "emit"
                    break
            if not bindings:
                outcome = "stuck before reaching a final marking"
                break
            binding = rng.choice(bindings)
            marking = _fire(net, marking, binding)  # enumerated bindings are enabled
            steps += 1
            label = net.transitions_by_id[binding.transition].label
            if label is not None:
                buffer.append(
                    (label, frozenset(by_id[oid] for oid in binding.all_objects())))
            if steps > cap:
                outcome = "step cap exceeded"
                break
        if outcome == "emit":
            if buffer:
                emitted.extend(buffer)
                objects.extend(fresh)
                instances_emitted += 1
            # a walk of only silent firings emits nothing and adds no objects
        else:
            discarded.append((instance, outcome))

    events = tuple(Event(f"e{i}", activity, omap, i - 1)
                   for i, (activity, omap) in enumerate(emitted, start=1))
    log = EventLog(tuple(used_types), tuple(objects), events)
    return SimulationResult(log, instances_emitted, tuple(discarded))
