import hashlib
import json
import random
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest

import invariants
import oracles
from oconform.context import build_graph
from oconform.metrics import (ConformanceReport, EventDiagnostic, check, fitness,
                              format_fraction, format_summary,
                              precision, report_to_dict, report_to_json,
                              round_fraction, skipped_percent)
from oconform.ocel import LogError, ObjectId, make_log
from oconform.ocpn import AcceptingOCPN, Place, flower_model
from oconform.replay import ReplayConfig, replay_context_group, replay_log

SURPLUS_EVENTS = {"e5", "e6", "e14", "e15"}

GOLDEN_CONFIGS = {
    "default": ReplayConfig(),
    "subsets": ReplayConfig(silent_variable_mode="subsets", subset_cap=3),
    "explore": ReplayConfig(explore_silent_when_enabled=True),
    "max_states_3": ReplayConfig(max_states=3),
    "max_states_40": ReplayConfig(max_states=40),
}

# sha256 of report_to_json on the bundled log.  Replay changes must keep
# reports byte-identical; only a change meant to alter output re-pins these.
GOLDEN_REPORTS = {
    ("ocpn1", "default"):
        "38cc523c7310241d11accd53b6da8b245da7c96888573d6b4c92aa3d5f0ee995",
    ("ocpn1", "subsets"):
        "c5bebbe1bd2a169e9412d105f966d254546edabccacd5f70186373b29dadfbdb",
    ("ocpn1", "explore"):
        "172cbc7eee1779a9c8f37db87ab01ed9afbfc69ab2a03ac4ccc53383205d1b31",
    ("ocpn1", "max_states_3"):
        "419226f0f5502cc742f6c288ab678de5ed1203a0b96502bc0bb9ed346a96b698",
    ("ocpn1", "max_states_40"):
        "5f2a8eb794b59456f0fc037d5abf253a60c1fe62e46186410f0a8d7c2897d2b0",
    ("flower_l1", "default"):
        "e385fb49a7bced56c09cfa2b7d3d438aca4c09357ac802d84dedf718c8202f0b",
    ("flower_l1", "subsets"):
        "a6f18b10e7b49e871a3e1dae5c3df6b81e0d711a04a8617db03affe5fa8d2c0f",
    ("flower_l1", "explore"):
        "a1d7d52d04e2b76f549433beb0aaf434fca964beb3c76dd4c2b76691c71d195d",
    ("flower_l1", "max_states_3"):
        "9d7a19e69d6b7c4f8b89d82e16171d72e6b7e3fa69bf04b861be5ff48ac7e41d",
    ("flower_l1", "max_states_40"):
        "acf3782930798274a081a090a54f0777c5829d45eb7a80804bd8f53d65130c45",
    ("restricted", "default"):
        "78c7eb4ca6e2f0ee9dedc2f8cd134851d9a289cab6c1cda5a72bb64587c5d252",
    ("restricted", "subsets"):
        "0bc736fc50c699ba7dc326a7efe462722eda2b5c73d131f3f287d8b480e7d144",
    ("restricted", "explore"):
        "3d222788d91670f52845115b5c2e8cd33f40d75ae0920e2e50d20e9d2b9fc52b",
    ("restricted", "max_states_3"):
        "419226f0f5502cc742f6c288ab678de5ed1203a0b96502bc0bb9ed346a96b698",
    ("restricted", "max_states_40"):
        "6490741c011e1bb738515f9fdc517b43657afe2e1c03bd7dcad8f1a319396bfd",
}


def test_bundled_log_against_bundled_net(l1, ocpn1):
    report = check(l1, ocpn1)
    assert report.fitness == Fraction(1)
    assert report.precision == Fraction(16, 18)
    assert report.num_events == 18
    assert report.num_replayable == 18
    assert report.skipped_fraction == Fraction(0)
    assert not report.truncated
    assert format_summary(report) == "fitness=1.00 precision=0.89 skipped=0%"


def test_per_event_decomposition(l1, ocpn1):
    report = check(l1, ocpn1)
    assert [d.event_id for d in report.per_event] == \
        [e.id for e in l1.events]
    for d in report.per_event:
        assert d.replayable and not d.truncated
        assert set(d.en_log) <= set(d.en_model)
        if d.event_id in SURPLUS_EVENTS:
            assert set(d.en_model) - set(d.en_log) == {"Pick up @ dest"}
            assert len(d.en_log) == 1 and len(d.en_model) == 2
        else:
            assert d.en_log == d.en_model
        assert not d.reached_final


def test_precision_decomposes_into_per_event_shares(l1, ocpn1):
    report = check(l1, ocpn1)
    total = sum(
        (Fraction(len(set(d.en_log) & set(d.en_model)), len(d.en_model))
         for d in report.per_event), Fraction(0))
    assert report.precision == total / report.num_events


def test_restricted_net_flips_the_tradeoff(l1, restricted):
    report = check(l1, restricted)
    assert report.fitness == Fraction(4, 9)
    assert report.precision == Fraction(1)
    assert report.skipped_fraction == Fraction(5, 9)
    assert report.num_replayable == 8
    replayable = {d.event_id for d in report.per_event if d.replayable}
    assert replayable == {"e1", "e2", "e3", "e4", "e10", "e11", "e12", "e13"}
    for d in report.per_event:
        if d.replayable:
            assert set(d.en_model) <= set(d.en_log)
        else:
            assert d.en_model == ()
    assert format_summary(report) == "fitness=0.44 precision=1.00 skipped=56%"


def test_flower_is_fitting_but_imprecise(l1, ocpn1, flower_l1):
    report = check(l1, flower_l1)
    assert report.fitness == Fraction(1)
    assert report.precision == Fraction(55, 189)
    assert report.precision == oracles.flower_precision_oracle(l1)
    assert report.skipped_fraction == Fraction(0)
    assert report.precision < check(l1, ocpn1).precision
    assert format_summary(report) == "fitness=1.00 precision=0.29 skipped=0%"


def test_wrappers(l1, ocpn1):
    assert fitness(l1, ocpn1) == Fraction(1)
    assert precision(l1, ocpn1) == Fraction(8, 9)


def test_empty_log_is_rejected(ocpn1):
    with pytest.raises(LogError, match="empty log"):
        check(make_log([]), ocpn1)


def test_repeated_event_ids_are_rejected(l1, ocpn1):
    # an EventLog built directly is not validated; each id must index one event
    events = (*l1.events[:5], l1.events[5]._replace(id="e2"), *l1.events[6:])
    with pytest.raises(LogError, match="^duplicate event id 'e2'$"):
        check(replace(l1, events=events), ocpn1)


def test_precision_is_undefined_without_replayable_events():
    net = AcceptingOCPN(
        object_types=("case",),
        places=(Place("s0", "case", initial=True, final=True),),
        transitions=(),
        arcs=(),
    )
    log = make_log([("e1", "a", [ObjectId("o1", "case")])])
    report = check(log, net)
    assert report.fitness == Fraction(0)
    assert report.precision is None
    assert report.num_replayable == 0
    assert report.skipped_fraction == Fraction(1)
    assert format_summary(report) == \
        "fitness=0.00 precision=undefined skipped=100%"
    assert report_to_dict(report)["precision"] is None


def test_rounding_is_half_up():
    assert round_fraction(Fraction(16, 18)) == Decimal("0.89")
    assert round_fraction(Fraction(1, 8)) == Decimal("0.13")
    assert round_fraction(Fraction(1, 200)) == Decimal("0.01")
    assert round_fraction(Fraction(1, 3), 4) == Decimal("0.3333")
    assert round_fraction(Fraction(1), 2) == Decimal("1.00")
    assert format_fraction(Fraction(55, 189)) == "0.29"
    assert format_fraction(None) == "undefined"


def test_rounding_is_exact_at_any_number_of_decimals():
    # just below a half: rounding a 28-digit quotient would carry it up
    assert round_fraction(Fraction(5 * 10**30 - 1, 10**33)) == Decimal("0.00")
    assert round_fraction(Fraction(-1, 8)) == Decimal("-0.13")
    assert round_fraction(Fraction(2, 3), 0) == Decimal("1")
    assert format_fraction(Fraction(1, 3), 40) == "0." + "3" * 40
    assert format_fraction(Fraction(2, 3), 40) == "0." + "6" * 39 + "7"
    assert format_fraction(Fraction(0), 10) == "0.0000000000"
    with pytest.raises(ValueError, match="non-negative"):
        round_fraction(Fraction(1, 3), -3)


def test_rounding_past_the_int_to_str_digit_limit():
    # 5,000 digits is past CPython's default limit of 4,300 for int -> str
    assert format_fraction(Fraction(1, 3), 5000) == "0." + "3" * 5000
    assert format_fraction(Fraction(-2, 3), 5000) == "-0." + "6" * 4999 + "7"


def test_rounded_zero_keeps_the_sign():
    assert str(round_fraction(Fraction(-1, 1000))) == "-0.00"
    assert round_fraction(Fraction(-1, 1000)).is_signed()
    assert not round_fraction(Fraction(1, 1000)).is_signed()
    assert format_fraction(Fraction(-1, 3), 0) == "-0"


def test_skipped_percent_rounds_to_integer(l1, restricted):
    report = check(l1, restricted)
    assert skipped_percent(report) == "56%"


def test_report_json_schema(l1, ocpn1):
    report = check(l1, ocpn1)
    doc = json.loads(report_to_json(report, decimals=3))
    assert set(doc) == {"fitness", "precision", "num_events",
                        "num_replayable", "skipped_fraction", "truncated",
                        "per_event", "config"}
    assert doc["fitness"] == 1.0
    assert doc["precision"] == 0.889
    assert doc["num_events"] == 18 and doc["num_replayable"] == 18
    assert doc["skipped_fraction"] == 0.0
    assert doc["truncated"] is False
    assert len(doc["per_event"]) == 18
    first = doc["per_event"][0]
    assert set(first) == {"id", "context_digest", "en_log", "en_model",
                          "replayable", "reached_final"}
    assert first["id"] == "e1"
    assert first["en_log"] == ["Fuel plane"]
    assert doc["config"] == {
        "max_states": 100000,
        "silent_variable_mode": "singleton",
        "subset_cap": 8,
        "explore_silent_when_enabled": False,
        "reverse_successors": False,
        "decimals": 3,
    }


def _records_by_group(log, net, cfg) -> dict[str, EventDiagnostic]:
    """Each event's record built by id, the reference for ``check``'s
    records by log position: one ``replay_context_group`` per group."""
    graph = build_graph(log)
    memo = replay_log(net, log, graph, cfg)
    records = {}
    for group, members in enumerate(graph.members):
        detail = replay_context_group(net, log, graph, members, cfg, memo)
        en_log = tuple(sorted({log.event(eid).activity for eid in members}))
        en_model = tuple(sorted(detail.outcome.enabled))
        for eid in members:
            records[eid] = EventDiagnostic(
                eid, graph.digest(group), en_log, en_model, bool(en_model),
                detail.reached_final_by_event[eid], detail.outcome.truncated)
    return records


@pytest.mark.parametrize("case", ["l1", "bench", "bench_cut", "chained"])
def test_records_are_diagnostics_in_log_order(l1, ocpn1, case):
    # four states cut the bench log's first executions, whose repeats are
    # then replayed by graph number; the chained log's presets grow long
    cfg = ReplayConfig(max_states=4) if case == "bench_cut" else ReplayConfig()
    if case == "l1":
        log, net = l1, ocpn1
    elif case == "chained":
        log = invariants.chained_airport_log()
        net = flower_model(log)
    else:
        log, net = invariants.bench_log(5, 1512), ocpn1
    report = check(log, net, cfg)
    assert report.truncated == (case == "bench_cut")
    assert [d.event_id for d in report.per_event] == [e.id for e in log.events]
    expected = _records_by_group(log, net, cfg)
    for d in report.per_event:
        assert type(d) is EventDiagnostic
        assert d == EventDiagnostic(*d) and hash(d) == hash(tuple(d))
        assert d == expected[d.event_id]


def test_events_of_a_group_share_diagnostics(l1, ocpn1):
    report = check(l1, ocpn1)
    by_id = {d.event_id: d for d in report.per_event}
    assert by_id["e5"].context_digest == by_id["e14"].context_digest
    assert by_id["e5"].en_model == by_id["e14"].en_model
    assert by_id["e2"].context_digest == by_id["e11"].context_digest


def test_exploring_silent_moves_eagerly_changes_nothing_here(l1, ocpn1):
    base = check(l1, ocpn1)
    eager = check(l1, ocpn1, ReplayConfig(explore_silent_when_enabled=True))
    assert base.fitness == eager.fitness
    assert base.precision == eager.precision
    assert base.per_event == eager.per_event


def test_chain_logs_match_escaping_edges_oracle_sample():
    rng = random.Random(31)
    for _ in range(50):
        log, chain = oracles.random_single_type_log(rng)
        report = check(log, oracles.chain_net(chain))
        fit, prec, replayable = oracles.chain_conformance_oracle(log, chain)
        assert report.fitness == fit
        assert report.precision == prec
        assert report.num_replayable == replayable


@pytest.mark.parametrize("net_name, cfg_name", list(GOLDEN_REPORTS))
def test_reports_on_the_bundled_log_are_pinned(request, l1, net_name, cfg_name):
    net = request.getfixturevalue(net_name)
    text = report_to_json(check(l1, net, GOLDEN_CONFIGS[cfg_name]))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        GOLDEN_REPORTS[net_name, cfg_name]


def _assert_renders_as_dumps(report, decimals=2):
    assert report_to_json(report, decimals) == json.dumps(
        report_to_dict(report, decimals), indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("net_name, cfg_name", list(GOLDEN_REPORTS))
def test_report_json_equals_json_dumps_on_the_bundled_log(request, l1, net_name,
                                                          cfg_name):
    report = check(l1, request.getfixturevalue(net_name), GOLDEN_CONFIGS[cfg_name])
    for decimals in (0, 2, 7):
        _assert_renders_as_dumps(report, decimals)


def _assert_metrics_decompose_per_event(report):
    """Fitness and precision are the per-event shares, summed one by one."""
    fitness_sum = precision_sum = Fraction(0)
    replayable = 0
    for d in report.per_event:
        overlap = len(set(d.en_log) & set(d.en_model))
        fitness_sum += Fraction(overlap, len(d.en_log))
        if d.en_model:
            replayable += 1
            precision_sum += Fraction(overlap, len(d.en_model))
    assert report.fitness == fitness_sum / len(report.per_event)
    assert report.num_replayable == replayable
    assert report.precision == (precision_sum / replayable if replayable else None)


def test_report_json_equals_json_dumps_on_random_pairs():
    rng = random.Random(41)
    # a low budget bounds the pairs whose silent transitions keep making tokens
    cfg = ReplayConfig(max_states=300)
    for _ in range(40):
        log = oracles.random_log(rng)
        for net in (oracles.random_net(rng), flower_model(log)):
            report = check(log, net, cfg)
            _assert_renders_as_dumps(report, rng.choice((0, 2, 7)))
            _assert_metrics_decompose_per_event(report)


def test_report_json_equals_json_dumps_without_replayable_events():
    net = AcceptingOCPN(object_types=("case",),
                        places=(Place("s0", "case", initial=True, final=True),),
                        transitions=(), arcs=())
    log = make_log([("e1", "a", [ObjectId("o1", "case")]),
                    ("e2", "b", [ObjectId("o1", "case")])])
    report = check(log, net)
    assert report.precision is None
    assert all(d.en_model == () for d in report.per_event)
    for decimals in (0, 7):
        _assert_renders_as_dumps(report, decimals)
    _assert_renders_as_dumps(replace(report, per_event=()))


def test_report_json_escapes_text_as_json_dumps_does():
    odd = ['é "quoted"', "back\\slash", "a/b", "tab\tnew\nline\x01\x1f",
           "\u2028\u00a0\U0001f6eb", "plain"]
    case = [ObjectId("o1", "case ü"), ObjectId("o2", "case ü")]
    log = make_log([(f"ev{k} {text}", text, [case[k % 2]])
                    for k, text in enumerate(odd * 2)])
    report = check(log, flower_model(log))
    assert {a for d in report.per_event for a in d.en_model} == set(odd)
    for decimals in (0, 2, 7):
        _assert_renders_as_dumps(report, decimals)


def test_diagnostics_hash_and_print_as_their_fields():
    fields = ("e1", "0123abcd", ("a", "b"), ("a",), True, False, True)
    d = EventDiagnostic(*fields)
    assert EventDiagnostic._fields == ("event_id", "context_digest", "en_log",
                                       "en_model", "replayable", "reached_final",
                                       "truncated")
    assert hash(d) == hash(fields) and d == fields
    assert repr(d) == ("EventDiagnostic(event_id='e1', context_digest='0123abcd', "
                       "en_log=('a', 'b'), en_model=('a',), replayable=True, "
                       "reached_final=False, truncated=True)")
    for name in EventDiagnostic._fields:
        with pytest.raises(AttributeError):
            setattr(d, name, None)


def _report_of(*diagnostics) -> ConformanceReport:
    """A report built by hand around the given diagnostics."""
    n = len(diagnostics)
    return ConformanceReport(
        fitness=Fraction(1, 3), precision=Fraction(2, 3), num_events=n,
        num_replayable=n, skipped_fraction=Fraction(0), truncated=False,
        per_event=diagnostics, config=ReplayConfig())


_TAIL = EventDiagnostic("e0", "0123456789abcdef", ("a", "b"), ("b", "c"),
                        True, True, False)


@pytest.mark.parametrize("field, value", [
    ("en_log", ("a",)), ("en_log", ()), ("en_model", ("b",)), ("en_model", ()),
    ("replayable", False), ("reached_final", False)])
def test_report_json_tells_apart_tails_that_differ_in_one_field(field, value):
    other = _TAIL._replace(event_id="e1", **{field: value})
    report = _report_of(_TAIL, other, _TAIL._replace(event_id="e2"),
                        other._replace(event_id="e3"))
    _assert_renders_as_dumps(report)
    rendered = json.loads(report_to_json(report))["per_event"]
    assert [e["id"] for e in rendered] == ["e0", "e1", "e2", "e3"]
    assert rendered[2] | {"id": "e0"} == rendered[0]
    assert rendered[3] | {"id": "e1"} == rendered[1] != rendered[0] | {"id": "e1"}
    assert rendered[1][field] == (list(value) if field.startswith("en_") else value)


def test_report_json_renders_a_shared_tail_once(monkeypatch):
    report = _report_of(*(_TAIL._replace(event_id=f"e{k}") for k in range(500)))
    _assert_renders_as_dumps(report)
    quoted = []
    quote = json.encoder.encode_basestring
    monkeypatch.setattr(json.encoder, "encode_basestring",
                        lambda text: quoted.append(text) or quote(text))
    text = report_to_json(report)
    monkeypatch.undo()
    assert text == report_to_json(report)
    # every id once; the digest and each activity name once, for all 500
    assert [t for t in quoted if t[1:].isdigit()] == [f"e{k}" for k in range(500)]
    assert quoted.count(_TAIL.context_digest) == 1
    assert quoted.count("a") == 1 and quoted.count("b") == 2  # in two lists


def test_report_json_leaves_truncated_out_of_the_tail():
    report = _report_of(_TAIL, _TAIL._replace(event_id="e1", truncated=True))
    _assert_renders_as_dumps(report)
    entries = json.loads(report_to_json(report))["per_event"]
    assert entries[0] | {"id": "e1"} == entries[1]


def test_report_json_escapes_ids_that_share_a_tail():
    ids = ['say "hi"', "back\\slash", "tab\tnew\nline\x01\x1f", "\u2028ü\u00e9\U0001f6eb",
           "Ωμέγα", "\\\"", ""]
    report = _report_of(*(_TAIL._replace(event_id=eid) for eid in ids),
                        _TAIL._replace(event_id='"', context_digest='\\ "\x7f é'))
    for decimals in (0, 2):
        _assert_renders_as_dumps(report, decimals)
    assert [e["id"] for e in json.loads(report_to_json(report))["per_event"]] == \
        [*ids, '"']
