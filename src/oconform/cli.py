"""Command-line front end: check, explain, flower, simulate."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .context import (build_graph, context_of_event, enabled_log_activities,
                      event_preset)
from .metrics import check, format_summary, report_to_json
from .ocel import LogError, parse_log, serialize_log
from .ocpn import ModelError, flower_model, parse_model, serialize_model
from .replay import (DEFAULT_CONFIG, SILENT_VARIABLE_MODES, ReplayConfig,
                     replay_context_group)
from .simulate import simulate_log

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3

_STATE_LISTING_CAP = 20


def _add_replay_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-states", type=int, default=DEFAULT_CONFIG.max_states,
                        help="state budget per search before truncation")
    parser.add_argument("--silent-variable-mode", choices=SILENT_VARIABLE_MODES,
                        default=DEFAULT_CONFIG.silent_variable_mode,
                        help="object guessing for variable arcs on silent transitions")
    parser.add_argument("--subset-cap", type=int, default=DEFAULT_CONFIG.subset_cap,
                        help="largest object subset tried in 'subsets' mode")


def _config_from(args: argparse.Namespace) -> ReplayConfig:
    return ReplayConfig(max_states=args.max_states,
                        silent_variable_mode=args.silent_variable_mode,
                        subset_cap=args.subset_cap)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oconform",
        description="Conformance checking for object-centric Petri nets "
                    "against object-centric event logs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="compute fitness and precision")
    p_check.add_argument("--log", required=True, help="log-JSON file")
    p_check.add_argument("--model", required=True, help="model-JSON file")
    p_check.add_argument("-o", "--output", help="write the full report-JSON here")
    p_check.add_argument("--decimals", type=int, default=2,
                         help="decimals for rendered metric values")
    _add_replay_flags(p_check)

    p_explain = sub.add_parser("explain", help="show one event's context and replay")
    p_explain.add_argument("--log", required=True, help="log-JSON file")
    p_explain.add_argument("--model", required=True, help="model-JSON file")
    p_explain.add_argument("--event", required=True, help="event id to explain")
    _add_replay_flags(p_explain)

    p_flower = sub.add_parser("flower", help="build the flower model of a log")
    p_flower.add_argument("--log", required=True, help="log-JSON file")
    p_flower.add_argument("-o", "--output",
                          help="write model-JSON here (default: stdout)")

    p_sim = sub.add_parser("simulate", help="generate a log by random walks")
    p_sim.add_argument("--model", required=True, help="model-JSON file")
    p_sim.add_argument("--instances", type=int, default=10,
                       help="walks to attempt; one stuck outside a final marking "
                            "or past --step-cap is dropped with a warning on stderr")
    p_sim.add_argument("--seed", type=int, default=0, help="random seed")
    p_sim.add_argument("-o", "--output",
                       help="write log-JSON here (default: stdout)")
    p_sim.add_argument("--max-objects", type=int, default=3,
                       help="largest object count per variable object type")
    p_sim.add_argument("--step-cap", type=int, default=None,
                       help="firings per instance before it is discarded "
                            "(default: 10 per transition)")
    p_sim.add_argument("--stop-prob", type=float, default=0.5,
                       help="chance to stop in an accepting marking that "
                            "still enables firings")
    return parser


def _read(path: str) -> bytes:
    return Path(path).read_bytes()


def _write(path: str, text: str) -> None:
    # encode before opening: a text that cannot be encoded leaves the file as it was
    Path(path).write_bytes(text.encode("utf-8"))


def _cmd_check(args: argparse.Namespace) -> int:
    if args.decimals < 0:
        raise ValueError("--decimals must be non-negative")
    log = parse_log(_read(args.log))
    net = parse_model(_read(args.model))
    report = check(log, net, _config_from(args))
    if args.output:  # first, so a failed write prints no summary
        _write(args.output, report_to_json(report, args.decimals))
    print(format_summary(report, args.decimals))
    return EXIT_OK


def _cmd_explain(args: argparse.Namespace) -> int:
    log = parse_log(_read(args.log))
    net = parse_model(_read(args.model))
    cfg = _config_from(args)
    event = log.event(args.event)
    graph = build_graph(log)
    preset = event_preset(graph, event.id)
    ctx = context_of_event(log, graph, event.id)
    group = graph.members[graph.group_of[event.id]]
    detail = replay_context_group(net, log, graph, group, cfg)
    ordered_preset = sorted(preset, key=log.event_index.__getitem__)

    print(f"event: {event.id}")
    print(f"activity: {event.activity}")
    print(f"objects: {', '.join(sorted(o.id for o in event.omap))}")
    print(f"preset: {', '.join(ordered_preset) if ordered_preset else '(empty)'}")
    print(f"context: {ctx.canonical_json()}")
    print(f"context digest: {ctx.digest()}")
    print(f"context group: {', '.join(group)}")
    en_log = enabled_log_activities(log, graph, event.id)
    print(f"en_log: {', '.join(sorted(en_log))}")
    outcome = detail.outcome
    print(f"replayed: {str(outcome.replayed).lower()} "
          f"truncated: {str(outcome.truncated).lower()} "
          f"reached_final: {str(detail.reached_final_by_event[event.id]).lower()}")
    markings = sorted(detail.markings, key=lambda m: m.key())
    print(f"states: {len(markings)}")
    for marking in markings[:_STATE_LISTING_CAP]:
        print(f"  {marking!r}")
    if len(markings) > _STATE_LISTING_CAP:
        print(f"  ... and {len(markings) - _STATE_LISTING_CAP} more")
    print(f"en_model: {', '.join(sorted(outcome.enabled)) if outcome.enabled else '(none)'}")
    return EXIT_OK


def _cmd_flower(args: argparse.Namespace) -> int:
    log = parse_log(_read(args.log))
    text = serialize_model(flower_model(log))
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    net = parse_model(_read(args.model))
    result = simulate_log(net, instances=args.instances, seed=args.seed,
                          max_objects=args.max_objects, step_cap=args.step_cap,
                          stop_prob=args.stop_prob)
    for instance, reason in result.discarded:
        print(f"warning: instance {instance} discarded: {reason}", file=sys.stderr)
    text = serialize_log(result.log)
    if args.output:
        _write(args.output, text)
        print(f"wrote {len(result.log.events)} events "
              f"from {result.instances_emitted} instances to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "explain": _cmd_explain,
    "flower": _cmd_flower,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (LogError, ModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
