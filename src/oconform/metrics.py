"""Fitness and precision of a net against a log.

Both metrics compare, per event, the activities the log considers possible
next (events sharing the context) with the activities the net can fire
next (replay of the context).  Fitness averages how much of the log side
the model covers; precision averages how much of the model side the log
backs up, over the events whose context the net could replay at all.
All arithmetic is exact; rounding happens only at rendering time.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, replace
from decimal import Decimal
from fractions import Fraction
from typing import Any, NamedTuple

from .context import build_graph, group_by_context  # noqa: F401  bench/worker.py traces it here
from .ocel import EventLog, LogError, validate_log
from .ocpn import AcceptingOCPN
from .replay import DEFAULT_CONFIG, ReplayConfig, replay_context_group, replay_log


class EventDiagnostic(NamedTuple):
    """Per-event view of the comparison, for reports and debugging."""

    event_id: str
    context_digest: str
    en_log: tuple[str, ...]
    en_model: tuple[str, ...]
    replayable: bool
    reached_final: bool
    truncated: bool


@dataclass(frozen=True)
class ConformanceReport:
    fitness: Fraction
    precision: Fraction | None
    num_events: int
    num_replayable: int
    skipped_fraction: Fraction
    truncated: bool
    per_event: tuple[EventDiagnostic, ...]
    config: ReplayConfig


def check(log: EventLog, net: AcceptingOCPN,
          cfg: ReplayConfig = DEFAULT_CONFIG) -> ConformanceReport:
    """Compute fitness and precision of the net against the log in one pass.

    First ``replay_log`` replays every event of the log once, in log
    order, each resuming from the frontier in its prefix predecessor's
    result, or takes the result of its counterpart in an earlier process
    execution that its own repeats up to renaming objects.  Then
    ``replay_context_group`` is called once per context group, and reads
    its members' results off the memo; every event of a group shares the
    group's enabled-activity sets and its digest, read off its bag items
    with no ``Context`` built (``graph.digest``), and each member's record
    is written once, at its log position.  An event counts as replayable
    when the net enables at least one activity for its context; precision
    averages over exactly those events and is None when there are none.
    An empty log, or one whose event ids repeat, raises LogError.
    """
    events, index = log.events, log.event_index
    if not events:
        raise LogError("cannot check an empty log")
    if len(index) < len(events):  # some event id repeats
        raise LogError(validate_log(log)[0])
    graph = build_graph(log)
    memo = replay_log(net, log, graph, cfg)
    # per denominator, len(en_log) or len(en_model), the summed numerators
    fitness_sums: Counter[int] = Counter()
    precision_sums: Counter[int] = Counter()
    num_replayable = 0
    per_event: list[EventDiagnostic | None] = [None] * len(events)  # by log position
    truncated = False
    for group, members in enumerate(graph.members):
        detail = replay_context_group(net, log, graph, members, cfg, memo)
        positions = [index[eid] for eid in members]
        en_model = detail.outcome.enabled
        en_log = frozenset([events[p].activity for p in positions])
        replayable = bool(en_model)
        overlap = len(en_log & en_model)
        truncated = truncated or detail.outcome.truncated
        # every member shares the group's sets, so each sum takes them once
        share = overlap * len(members)
        fitness_sums[len(en_log)] += share
        if replayable:
            num_replayable += len(members)
            precision_sums[len(en_model)] += share
        digest = graph.digest(group)
        log_side = tuple(sorted(en_log))
        model_side = tuple(sorted(en_model))
        reached, cut = detail.reached_final_by_event, detail.outcome.truncated
        for eid, p in zip(members, positions):
            # EventDiagnostic._make without its length check or Python-level __new__
            per_event[p] = tuple.__new__(EventDiagnostic, (
                eid, digest, log_side, model_side, replayable, reached[eid], cut))
    num_events = len(log.events)
    report = ConformanceReport(
        fitness=_sum_of(fitness_sums) / num_events,
        precision=(_sum_of(precision_sums) / num_replayable) if num_replayable else None,
        num_events=num_events,
        num_replayable=num_replayable,
        skipped_fraction=Fraction(num_events - num_replayable, num_events),
        truncated=truncated,
        per_event=tuple(per_event),
        config=cfg,
    )
    return report


def _sum_of(sums: Counter[int]) -> Fraction:
    return sum((Fraction(n, d) for d, n in sums.items()), Fraction(0))


def fitness(log: EventLog, net: AcceptingOCPN,
            cfg: ReplayConfig = DEFAULT_CONFIG) -> Fraction:
    """Average per-event share of log-possible activities the net enables."""
    return check(log, net, cfg).fitness


def precision(log: EventLog, net: AcceptingOCPN,
              cfg: ReplayConfig = DEFAULT_CONFIG) -> Fraction | None:
    """Average per-event share of net-enabled activities the log confirms,
    over replayable events; None when no event is replayable."""
    return check(log, net, cfg).precision


def round_fraction(value: Fraction, decimals: int = 2) -> Decimal:
    """Round half-up (away from zero) to the given number of decimals,
    exactly, whatever the number of decimals."""
    if decimals < 0:
        raise ValueError("decimals must be non-negative")
    scaled = abs(value) * 10 ** decimals
    digits = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    # from digit tuples: an int this long may exceed the int-to-str limit
    return Decimal((value < 0, Decimal(digits).as_tuple().digits, -decimals))


def format_fraction(value: Fraction | None, decimals: int = 2) -> str:
    if value is None:
        return "undefined"
    return f"{round_fraction(value, decimals):f}"


def skipped_percent(report: ConformanceReport) -> str:
    pct = round_fraction(report.skipped_fraction * 100, 0)
    return f"{pct}%"


def format_summary(report: ConformanceReport, decimals: int = 2) -> str:
    return (f"fitness={format_fraction(report.fitness, decimals)} "
            f"precision={format_fraction(report.precision, decimals)} "
            f"skipped={skipped_percent(report)}")


def report_to_dict(report: ConformanceReport, decimals: int = 2) -> dict[str, Any]:
    """JSON-ready view of a report; metric values are rendered (rounded)."""
    return {
        "fitness": float(round_fraction(report.fitness, decimals)),
        "precision": (None if report.precision is None
                      else float(round_fraction(report.precision, decimals))),
        "num_events": report.num_events,
        "num_replayable": report.num_replayable,
        "skipped_fraction": float(round_fraction(report.skipped_fraction, decimals)),
        "truncated": report.truncated,
        "per_event": [
            {
                "id": d.event_id,
                "context_digest": d.context_digest,
                "en_log": list(d.en_log),
                "en_model": list(d.en_model),
                "replayable": d.replayable,
                "reached_final": d.reached_final,
            }
            for d in report.per_event
        ],
        "config": {**asdict(report.config), "decimals": decimals},
    }


_ENTRY_TAIL = (',\n      "context_digest": {},\n      "en_log": {},\n      "en_model": {},\n'
               '      "replayable": {},\n      "reached_final": {}\n    }}')


def report_to_json(report: ConformanceReport, decimals: int = 2) -> str:
    """``json.dumps(report_to_dict(report, decimals), indent=2,
    ensure_ascii=False) + "\\n"``, byte for byte, without the pure-Python
    encoder ``json.dumps`` runs with an indent: the per-event entries are
    written here, with strings escaped by ``encode_basestring``, the C
    function that encoder calls, and spliced into the rest of the report,
    dumped without them.  Everything an entry holds after its id, its
    tail, is looked up once per event and rendered on a miss, and each
    distinct activity list once; per event only the quoted id is joined."""
    quote = json.encoder.encode_basestring
    lists = {(): "[]"}
    tails: dict[tuple, str] = {}
    entries = []
    for d in report.per_event:
        key = d[1:6]  # the rendered fields after the id
        rendered = tails.get(key)
        if rendered is None:  # a new tail: render it, and its lists not seen yet
            digest, en_log, en_model, replayable, reached_final = key
            for side in {en_log, en_model} - lists.keys():
                lists[side] = "[\n        " + ",\n        ".join(map(quote, side)) + "\n      ]"
            rendered = tails[key] = _ENTRY_TAIL.format(
                quote(digest), lists[en_log], lists[en_model],
                "true" if replayable else "false", "true" if reached_final else "false")
        entries.append(f'    {{\n      "id": {quote(d.event_id)}{rendered}')
    text = json.dumps(report_to_dict(replace(report, per_event=()), decimals),
                      indent=2, ensure_ascii=False)
    if entries:  # the keys before "per_event" hold numbers, bools or null
        text = text.replace('"per_event": []',
                            '"per_event": [\n' + ",\n".join(entries) + "\n  ]", 1)
    return text + "\n"
