"""Acceptance suite: the eight checks the package must pass end to end.

Each test prints one PASS/FAIL line on the terminal (bypassing capture)
so a plain pytest run shows the acceptance status at a glance.
"""

import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest

import invariants
import oracles
from oconform.context import Context, build_graph, context_of_event, \
    event_preset, group_by_context
from oconform.metrics import check, format_fraction, format_summary
from oconform.ocel import ObjectId
from oconform.ocpn import Marking
from oconform.replay import replay_context_group
from oconform.simulate import simulate_log


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _announce(number, description):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"acceptance {number} ({description}): FAIL")
            raise
        else:
            with capsys.disabled():
                print(f"acceptance {number} ({description}): PASS")
    return _announce


def test_acceptance_1_running_example_metrics(announce, l1, ocpn1):
    with announce(1, "running-example metrics"):
        started = time.perf_counter()
        report = check(l1, ocpn1)
        elapsed = time.perf_counter() - started
        assert report.fitness == Fraction(1)
        assert report.precision == Fraction(16, 18)
        assert abs(float(report.precision) - 16 / 18) < 1e-12
        assert format_fraction(report.precision) == "0.89"
        assert format_summary(report) == \
            "fitness=1.00 precision=0.89 skipped=0%"
        assert elapsed < 1.0, f"check took {elapsed:.3f}s"


def test_acceptance_2_imprecision_localization(announce, l1, ocpn1):
    with announce(2, "imprecision localization"):
        report = check(l1, ocpn1)
        surplus = {d.event_id: set(d.en_model) - set(d.en_log)
                   for d in report.per_event
                   if set(d.en_model) > set(d.en_log)}
        assert set(surplus) == {"e5", "e6", "e14", "e15"}
        assert all(extra == {"Pick up @ dest"} for extra in surplus.values())
        for d in report.per_event:
            if d.event_id in surplus:
                share = Fraction(len(set(d.en_log) & set(d.en_model)),
                                 len(d.en_model))
                assert share == Fraction(1, 2)


def test_acceptance_3_context_fixture(announce, l1, l1_graph):
    with announce(3, "context of e5"):
        expected = Context.from_prefixes({
            "plane": [("Fuel plane", "Load cargo")],
            "baggage": [("Check-in", "Load cargo"),
                        ("Check-in", "Load cargo")],
        })
        assert context_of_event(l1, l1_graph, "e5") == expected
        assert event_preset(l1_graph, "e5") == {"e1", "e2", "e3", "e4"}
        groups = group_by_context(l1, l1_graph)
        assert groups[expected] == ("e5", "e14")


def test_acceptance_4_state_fixture(announce, l1, l1_graph, ocpn1):
    with announce(4, "states reached for the context of e5"):
        states = replay_context_group(ocpn1, l1, l1_graph, "e5").markings
        assert states == {
            Marking([("pl5", "p1"), ("pl6", "b1"), ("pl6", "b2")]),
            Marking([("pl5", "p1"), ("pl8", "b1"), ("pl6", "b2")]),
            Marking([("pl5", "p1"), ("pl6", "b1"), ("pl8", "b2")]),
            Marking([("pl5", "p1"), ("pl8", "b1"), ("pl8", "b2")]),
        }
        oracle = oracles.brute_force_states(
            ocpn1,
            [ObjectId("p1", "plane"), ObjectId("b1", "baggage"),
             ObjectId("b2", "baggage")],
            {"plane": Counter({("Fuel plane", "Load cargo"): 1}),
             "baggage": Counter({("Check-in", "Load cargo"): 2})})
        assert {m.key() for m in states} == oracle


def test_acceptance_5_flower_and_restricted_ordering(announce, l1, ocpn1,
                                                     flower_l1, restricted):
    with announce(5, "flower and restricted nets bracket the reference net"):
        flower_report = check(l1, flower_l1)
        assert flower_report.fitness == Fraction(1)
        # regression constant frozen from the independent oracle below
        assert flower_report.precision == Fraction(55, 189)
        assert flower_report.precision == oracles.flower_precision_oracle(l1)
        assert flower_report.skipped_fraction == Fraction(0)

        reference = check(l1, ocpn1)
        assert flower_report.precision < reference.precision

        restricted_report = check(l1, restricted)
        assert restricted_report.fitness < Fraction(1)
        assert restricted_report.precision == Fraction(1)
        assert restricted_report.skipped_fraction > Fraction(0)


def test_acceptance_6_single_case_oracle_equivalence(announce):
    with announce(6, "200 random flat logs match the escaping-edges oracle"):
        assert invariants.run_chain_oracle_equivalence(rounds=200) == 200


def test_acceptance_7_simulate_then_check_roundtrip(announce, ocpn1,
                                                    flower_l1):
    with announce(7, "simulate-then-check roundtrip"):
        for net in (ocpn1, flower_l1):
            result = simulate_log(net, instances=50, seed=7)
            assert result.log.events
            report = check(result.log, net)
            assert report.fitness == Fraction(1)
            assert report.skipped_fraction == Fraction(0)


def test_acceptance_8_property_suites(announce, l1, ocpn1, flower_l1,
                                      restricted):
    with announce(8, "invariant property suites"):
        assert invariants.run_marking_conservation(wanted=1000) >= 1000
        invariants.run_graph_properties(rounds=50)
        invariants.run_canonical_determinism(rounds=100)
        invariants.run_queue_order_independence(
            l1, (ocpn1, flower_l1, restricted))
        invariants.run_metric_bounds(rounds=40)
        invariants.run_monotone_truncation(l1, ocpn1)
