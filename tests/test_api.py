"""The names the package exports, pinned, so a removed name cannot come
back unnoticed and an added one is a deliberate change here."""
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path
from types import ModuleType

import oconform
from oconform.context import build_graph, context_of_event
from oconform.metrics import check
from oconform.replay import replay_context_group, replay_log

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


def _attribute(owner, name, instances):
    """``owner.name``: an attribute, class attribute or slot; for a class,
    also a dataclass field or an attribute of one of its instances."""
    if hasattr(owner, name):
        return getattr(owner, name)
    if isinstance(owner, type):
        if dataclasses.is_dataclass(owner):
            for field in dataclasses.fields(owner):
                if field.name == name:
                    return field
        for instance in instances:
            if isinstance(instance, owner) and hasattr(instance, name):
                return getattr(instance, name)
    raise AttributeError(name)


def test_readme_dotted_references_resolve(l1, ocpn1):
    # a backticked dotted name whose head is a module or a class of the
    # package, or `graph` (an EventObjectGraph), names something that
    # exists; file names such as `context.py` are no references
    modules = {"oconform": oconform}
    for info in pkgutil.iter_modules(oconform.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        modules[info.name] = importlib.import_module(f"oconform.{info.name}")
    classes = {name: value for module in modules.values()
               for name, value in vars(module).items()
               if isinstance(value, type) and value.__module__.startswith("oconform")}
    graph = build_graph(l1)
    detail = replay_context_group(ocpn1, l1, graph, "e5")
    instances = [graph, replay_log(ocpn1, l1, graph), check(l1, ocpn1), ocpn1, l1,
                 detail, next(iter(detail.markings)), context_of_event(l1, graph, "e5")]
    heads = {**modules, **classes, "graph": graph}
    text = README.read_text(encoding="utf-8")
    references = {match for match in re.findall(
        r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`", text)
        if match.partition(".")[0] in heads and match.rpartition(".")[2] not in ("py", "json")}
    assert {"EventObjectGraph.objects", "graph.presets", "replay._replay_event",
            "oconform.replay.lazy_entry_exact", "GroupReplay.markings"} <= references
    missing = []
    for reference in sorted(references):
        head, *path = reference.split(".")
        value = heads[head]
        try:
            for name in path:
                value = _attribute(value, name, instances)
        except AttributeError:
            missing.append(reference)
    assert not missing, missing
