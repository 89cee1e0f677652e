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
from dataclasses import asdict, dataclass, replace
from decimal import Decimal
from fractions import Fraction
from typing import Any

from .context import build_graph, group_by_context
from .ocel import EventLog, LogError
from .ocpn import AcceptingOCPN
from .replay import (DEFAULT_CONFIG, FrontierMemo, ReplayConfig,
                     replay_context_group)


@dataclass(frozen=True)
class EventDiagnostic:
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

    Replay happens once per context group; every event of a group shares
    the group's enabled-activity sets.  A ``FrontierMemo`` lets each event
    resume the replay where an earlier event's preset ended.  An event
    counts as replayable when the net enables at least one activity for
    its context; precision averages over exactly those events and is None
    when there are none.
    """
    if not log.events:
        raise LogError("cannot check an empty log")
    graph = build_graph(log)
    groups = group_by_context(log, graph)
    memo = FrontierMemo(net, log, graph,
                        (eid for members in groups.values() for eid in members))
    fitness_sum = Fraction(0)
    precision_sum = Fraction(0)
    num_replayable = 0
    diagnostics: dict[str, EventDiagnostic] = {}
    truncated = False
    for ctx, members in groups.items():
        detail = replay_context_group(net, log, graph, members, cfg, memo)
        en_model = detail.outcome.enabled
        en_log = frozenset(log.event(eid).activity for eid in members)
        replayable = bool(en_model)
        overlap = len(en_log & en_model)
        truncated = truncated or detail.outcome.truncated
        # every member shares the group's sets, so each sum takes them once
        fitness_sum += Fraction(overlap * len(members), len(en_log))
        if replayable:
            num_replayable += len(members)
            precision_sum += Fraction(overlap * len(members), len(en_model))
        digest = ctx.digest()
        log_side = tuple(sorted(en_log))
        model_side = tuple(sorted(en_model))
        for eid in members:
            diagnostics[eid] = EventDiagnostic(
                event_id=eid,
                context_digest=digest,
                en_log=log_side,
                en_model=model_side,
                replayable=replayable,
                reached_final=detail.reached_final_by_event[eid],
                truncated=detail.outcome.truncated,
            )
    num_events = len(log.events)
    report = ConformanceReport(
        fitness=fitness_sum / num_events,
        precision=(precision_sum / num_replayable) if num_replayable else None,
        num_events=num_events,
        num_replayable=num_replayable,
        skipped_fraction=Fraction(num_events - num_replayable, num_events),
        truncated=truncated,
        per_event=tuple(diagnostics[e.id] for e in log.events),
        config=cfg,
    )
    return report


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


def report_to_json(report: ConformanceReport, decimals: int = 2) -> str:
    """``json.dumps(report_to_dict(report, decimals), indent=2,
    ensure_ascii=False) + "\\n"``, byte for byte, without the pure-Python
    encoder ``json.dumps`` runs with an indent: the per-event entries are
    written here, each distinct activity list once, with strings escaped
    by ``encode_basestring``, the C function that encoder calls, and
    spliced into the rest of the report, dumped without them."""
    quote = json.encoder.encode_basestring
    sides = {side for d in report.per_event for side in (d.en_log, d.en_model)}
    lists = {side: "[\n        " + ",\n        ".join(map(quote, side)) + "\n      ]"
             if side else "[]" for side in sides}
    entry = ('    {{\n      "id": {},\n      "context_digest": {},\n      "en_log": {},\n'
             '      "en_model": {},\n      "replayable": {},\n      "reached_final": {}\n    }}')
    entries = ",\n".join(entry.format(
        quote(d.event_id), quote(d.context_digest), lists[d.en_log],
        lists[d.en_model], "true" if d.replayable else "false",
        "true" if d.reached_final else "false") for d in report.per_event)
    text = json.dumps(report_to_dict(replace(report, per_event=()), decimals),
                      indent=2, ensure_ascii=False)
    if entries:  # the keys before "per_event" hold numbers, bools or null
        text = text.replace('"per_event": []', f'"per_event": [\n{entries}\n  ]', 1)
    return text + "\n"
