"""The names the package exports, pinned, so a removed name cannot come
back unnoticed and an added one is a deliberate change here."""
import re
from pathlib import Path
from types import ModuleType

import oconform

README = Path(__file__).resolve().parent.parent / "README.md"

EXPORTS = {
    "AcceptingOCPN", "Arc", "Binding", "ConformanceReport", "Context",
    "DEFAULT_CONFIG", "DeadModelError", "Event", "EventDiagnostic", "EventLog",
    "EventObjectGraph", "LogError", "Marking", "ModelError", "ObjectId",
    "Place", "ReplayConfig", "ReplayOutcome", "SimulationResult",
    "Transition", "VisibleBindingStep", "binding_enabled", "build_graph",
    "check", "context_of_event", "enabled_log_activities",
    "enabled_visible_labels", "enumerate_bindings", "event_preset",
    "execute_binding", "fitness", "flower_model", "format_summary",
    "group_by_context", "initial_marking_for", "is_final", "make_log",
    "parse_log", "parse_model", "precision", "replay_context_group",
    "report_to_dict", "report_to_json", "serialize_log", "serialize_model",
    "simulate_log", "validate_log",
}


def test_exported_names_are_pinned():
    # submodules appear as attributes once imported; they are no export
    exported = {name for name, value in vars(oconform).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exported == EXPORTS


def test_readme_library_use_names_resolve():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    section = section[:section.index("\n## ", 1)]
    # attributes of a value are written with a leading dot, and not matched
    names = set(re.findall(r"`([A-Za-z_]\w*)`", section))
    names |= {name for line in re.findall(r"^from oconform import (.+)$", section, re.M)
              for name in re.split(r",\s*", line)}
    assert {"check", "replay_context_group", "Marking"} <= names
    missing = sorted(name for name in names if not hasattr(oconform, name))
    assert not missing, missing
