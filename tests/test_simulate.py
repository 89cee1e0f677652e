import hashlib

import pytest

from oconform.ocel import serialize_log, validate_log
from oconform.ocpn import (AcceptingOCPN, Arc, ModelError, Place, Transition,
                           parse_model)
from oconform.simulate import DeadModelError, SimulationResult, simulate_log


def test_same_seed_same_log(ocpn1):
    a = simulate_log(ocpn1, instances=10, seed=5)
    b = simulate_log(ocpn1, instances=10, seed=5)
    assert serialize_log(a.log) == serialize_log(b.log)
    assert a.discarded == b.discarded
    assert a.instances_emitted == b.instances_emitted


def test_different_seed_different_log(ocpn1):
    a = simulate_log(ocpn1, instances=10, seed=5)
    b = simulate_log(ocpn1, instances=10, seed=6)
    assert serialize_log(a.log) != serialize_log(b.log)


def test_generated_logs_are_valid(ocpn1, flower_l1, restricted):
    for net in (ocpn1, flower_l1, restricted):
        result = simulate_log(net, instances=20, seed=7)
        assert validate_log(result.log) == []
        assert result.instances_emitted + len(result.discarded) <= 20
        ids = [e.id for e in result.log.events]
        assert ids == [f"e{i}" for i in range(1, len(ids) + 1)]


def test_simulated_logs_are_pinned(ocpn1, flower_l1, restricted):
    # the logs and discard lists of 100 walks on each fixture net and
    # seeds 0 to 3: an enumerated binding is enabled, so firing it with no
    # second enablement check must not move them
    digest = hashlib.sha256()
    for net in (ocpn1, flower_l1, restricted):
        for seed in range(4):
            result = simulate_log(net, instances=100, seed=seed)
            digest.update(serialize_log(result.log).encode())
            digest.update(repr((result.discarded, result.instances_emitted)).encode())
    assert digest.hexdigest()[:16] == "7a4cdd60ea83abea"


def test_event_activities_come_from_the_net(ocpn1):
    result = simulate_log(ocpn1, instances=15, seed=1)
    labels = {t.label for t in ocpn1.visible_transitions}
    assert result.log.events
    assert {e.activity for e in result.log.events} <= labels


def test_object_counts_respect_max_objects(ocpn1):
    result = simulate_log(ocpn1, instances=10, seed=2, max_objects=1)
    for instance in range(1, 11):
        named = [o for o in result.log.objects
                 if o.id.startswith(f"baggage_{instance}_")]
        assert len(named) <= 1
    result = simulate_log(ocpn1, instances=10, seed=2, max_objects=4)
    counts = {o.id.split("_")[0] for o in result.log.objects}
    assert counts <= {"baggage", "plane"}


def test_dead_model_raises():
    net = AcceptingOCPN(
        object_types=("case",),
        places=(Place("s0", "case", initial=True),
                Place("mid", "case"),
                Place("s1", "case", final=True)),
        transitions=(Transition("t1", "a"),),
        arcs=(Arc("mid", "t1"), Arc("t1", "s1")),
    )
    with pytest.raises(DeadModelError, match="initial marking"):
        simulate_log(net, instances=1, seed=0)


def test_net_without_places_is_rejected():
    net = AcceptingOCPN(object_types=("case",), places=(),
                        transitions=(Transition("t1", "a"),), arcs=())
    with pytest.raises(ModelError, match="^net has no places to put objects on$"):
        simulate_log(net, instances=1, seed=0)


def test_type_without_final_place_is_rejected():
    net = AcceptingOCPN(
        object_types=("case",),
        places=(Place("s0", "case", initial=True), Place("s1", "case")),
        transitions=(Transition("t1", "a"),),
        arcs=(Arc("s0", "t1"), Arc("t1", "s1")),
    )
    with pytest.raises(ModelError, match="no final place"):
        simulate_log(net, instances=1, seed=0)


def test_never_stopping_walks_are_discarded(flower_l1):
    result = simulate_log(flower_l1, instances=5, seed=3, stop_prob=0.0,
                          step_cap=25)
    assert result.instances_emitted == 0
    assert result.log.events == ()
    assert [reason for _, reason in result.discarded] == \
        ["step cap exceeded"] * 5
    assert [n for n, _ in result.discarded] == [1, 2, 3, 4, 5]


def test_stuck_walks_are_discarded():
    # after firing a, the walk sits in a non-final place with nothing enabled
    net = parse_model("""
    {
      "object_types": ["case"],
      "places": [
        {"id": "s0", "object_type": "case", "initial": true, "final": false},
        {"id": "dead", "object_type": "case", "initial": false, "final": false},
        {"id": "s1", "object_type": "case", "initial": false, "final": true}
      ],
      "transitions": [{"id": "t1", "label": "a"}],
      "arcs": [
        {"source": "s0", "target": "t1"},
        {"source": "t1", "target": "dead"}
      ]
    }
    """)
    result = simulate_log(net, instances=3, seed=0)
    assert result.instances_emitted == 0
    assert {reason for _, reason in result.discarded} == \
        {"stuck before reaching a final marking"}


def test_instances_must_be_positive(ocpn1):
    with pytest.raises(ValueError, match="instances must be positive"):
        simulate_log(ocpn1, instances=0, seed=0)


@pytest.mark.parametrize("kwargs, message", [
    ({"max_objects": 0}, "max_objects must be positive"),
    ({"max_objects": -2}, "max_objects must be positive"),
    ({"step_cap": 0}, "step_cap must be positive"),
    ({"step_cap": -1}, "step_cap must be positive"),
    ({"stop_prob": -0.1}, r"stop_prob must be in \[0, 1\]"),
    ({"stop_prob": 2}, r"stop_prob must be in \[0, 1\]"),
    ({"stop_prob": float("nan")}, r"stop_prob must be in \[0, 1\]"),
])
def test_out_of_range_parameters_are_rejected(ocpn1, kwargs, message):
    with pytest.raises(ValueError, match=message):
        simulate_log(ocpn1, instances=3, seed=0, **kwargs)


def test_boundary_parameters_are_accepted(ocpn1):
    for kwargs in ({"max_objects": 1}, {"step_cap": 1},
                   {"stop_prob": 0}, {"stop_prob": 1}):
        simulate_log(ocpn1, instances=3, seed=0, **kwargs)


def test_result_is_a_value(ocpn1):
    result = simulate_log(ocpn1, instances=3, seed=9)
    assert isinstance(result, SimulationResult)
    assert isinstance(result.discarded, tuple)
