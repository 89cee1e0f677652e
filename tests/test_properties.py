"""Randomized invariant checks; seeds are fixed so failures reproduce."""

import pytest

import invariants
from oconform.metrics import check
from oconform.ocpn import flower_model
from oconform.replay import ReplayConfig


def test_marking_conservation():
    assert invariants.run_marking_conservation(wanted=1000) >= 1000


def test_enabled_labels_match_brute_force():
    invariants.run_enabled_labels_vs_brute_force(rounds=300)


def test_incremental_markings_match_markings_built_from_scratch():
    shapes = invariants.run_marking_incremental(rounds=150)
    assert shapes["one"] and shapes["several"] and shapes["none"]
    assert shapes["self-loop"] > 0


def test_event_graph_is_a_forward_dag_with_transitive_presets():
    invariants.run_graph_properties(rounds=50)


def test_graph_internals_match_the_reference_build():
    assert invariants.run_graph_reference_agreement(rounds=100, repeated=40) == 145


def test_preset_bitsets_match_closure_oracle():
    invariants.run_preset_bitsets(rounds=50)


def test_context_canonical_form_is_deterministic():
    invariants.run_canonical_determinism(rounds=100)


def test_replay_is_independent_of_queue_tie_breaking(l1, ocpn1, flower_l1,
                                                     restricted):
    invariants.run_queue_order_independence(l1, (ocpn1, flower_l1, restricted))


def test_metric_bounds():
    invariants.run_metric_bounds(rounds=40)


def test_untriggered_state_budgets_do_not_change_reports(l1, ocpn1):
    invariants.run_monotone_truncation(l1, ocpn1)


def test_tight_state_budgets_only_shrink_enabled_sets(l1, ocpn1):
    invariants.run_truncation_shrinks_enabled(l1, ocpn1)


def test_grouping_matches_naive_oracle():
    invariants.run_grouping_agreement(rounds=30)


def test_resumed_replay_matches_from_scratch_on_random_nets():
    kinds = invariants.run_resumed_replay_random(rounds=60)
    assert kinds[True] and kinds[False]


@pytest.mark.parametrize("cfg", invariants.RESUME_CONFIGS)
def test_resumed_replay_matches_from_scratch_on_chained_log(ocpn1, cfg):
    log = invariants.chained_airport_log()
    for net in (ocpn1, invariants.plane_reusing_net(ocpn1), flower_model(log)):
        invariants.run_resumed_replay_agreement(log, net, cfg)


def test_repeated_executions_match_from_scratch_on_random_nets():
    # copies of a log's executions take their counterparts' results
    # unless a first execution's search is cut; both kinds occur, on
    # nets with and without lazy entry
    seen = invariants.run_repeated_executions_random(rounds=12)
    assert all(seen[kind, lazy] for kind in ("shared", "cut") for lazy in (True, False)), seen


SWEPT_BUDGETS = (1, 2, 4, 6, 8, 10, 21, 34)


@pytest.mark.parametrize("log", [invariants.chained_airport_log(),
                                 invariants.disjoint_airport_log(4)],
                         ids=["chained", "disjoint"])
def test_resumed_replay_matches_from_scratch_under_small_budgets(ocpn1, log):
    # the budgets cut the searches of some replay classes and not others,
    # so the members of a cut class are replayed in their own names
    cut = set()
    for max_states in SWEPT_BUDGETS:
        cfg = ReplayConfig(max_states=max_states)
        for net in (ocpn1, invariants.plane_reusing_net(ocpn1), flower_model(log)):
            invariants.run_resumed_replay_agreement(log, net, cfg)
            cut.add(check(log, net, cfg).truncated)
    assert cut == {False, True}


def test_reached_final_matches_the_unpruned_oracle_on_random_nets():
    answers = invariants.run_reached_final_random(rounds=100)
    assert answers[True] and answers[False]


@pytest.mark.parametrize("cfg", invariants.RESUME_CONFIGS)
def test_reached_final_matches_the_unpruned_oracle_on_chained_log(ocpn1, cfg):
    log = invariants.chained_airport_log()
    for net in (ocpn1, invariants.plane_reusing_net(ocpn1)):
        answers = invariants.run_reached_final_agreement(log, net, cfg)
        assert answers[None] < sum(answers.values())
