"""Conformance checking for object-centric Petri nets and event logs."""

from .context import (Context, EventObjectGraph, build_graph, context_of_event,
                      enabled_log_activities, event_preset, group_by_context)
from .metrics import (ConformanceReport, EventDiagnostic, check, fitness,
                      format_summary, precision, report_to_dict, report_to_json)
from .ocel import (Event, EventLog, LogError, ObjectId, make_log, parse_log,
                   serialize_log, validate_log)
from .ocpn import (AcceptingOCPN, Arc, Binding, Marking, ModelError, Place,
                   Transition, binding_enabled, enabled_visible_labels,
                   enumerate_bindings, execute_binding, flower_model,
                   initial_marking_for, is_final, parse_model, serialize_model)
from .replay import (DEFAULT_CONFIG, ReplayConfig, ReplayOutcome,
                     VisibleBindingStep, replay_context_group)
from .simulate import DeadModelError, SimulationResult, simulate_log

__version__ = "0.1.0"
