"""The names the benchmark's traced runs patch and read must exist, so a
rename fails here instead of only in ``bench/selftest.py``."""
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from oconform import cli, metrics
from oconform.context import build_graph

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


def _worker():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    targets = _worker()._trace_targets(SimpleNamespace(metrics=metrics, cli=cli))
    assert {module for module, *_ in targets} == {metrics, cli}
    for module, attribute, _span, _counts in targets:
        assert callable(getattr(module, attribute, None)), \
            f"{module.__name__}.{attribute}"


def test_graph_counts_read_the_presets(l1):
    graph = build_graph(l1)
    sizes = [len(p) for p in graph.presets.values()]
    assert len(sizes) == len(l1.events)
    assert _worker()._graph_counts(graph) == {
        "preset_events": sum(sizes), "max_preset": max(sizes)}
