"""The benchmark's pinned outputs, recomputed in process.

``bench/pins.json`` holds the digests of the reports and explain outputs
of every benchmark workload and input variant.  These tests regenerate
the inputs of a few variants with ``bench/gen.py``, the way
``bench/run.py`` builds its jobs, and compare the digests, so a change
that moves a pinned output fails here and not only in the benchmark.
The bench modules are imported as they are and only read.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from oconform.cli import EXIT_OK, main
from oconform.metrics import check, report_to_json
from oconform.ocel import parse_log
from oconform.ocpn import flower_model, serialize_model

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:  # leaves no file under bench/
    import gen
    import run
    import worker
finally:
    sys.path.remove(str(BENCH))
    sys.dont_write_bytecode = writes_bytecode

PINS = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))
VARIANTS = (0, 5, 9, 13)
CHECKED = ("disjoint-ref", "chained-flower", "silent-bags")


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", CHECKED)
def test_reports_match_the_pins(ocpn1, name, variant):
    workload = run.WORKLOADS[name]
    pinned = PINS[name][str(variant)]
    sizes = workload.logs()
    for key in workload.checked():
        log = parse_log(gen.generate(variant, sizes[key], **workload.gen).data)
        net = flower_model(log) if workload.net == "flower" else ocpn1
        assert worker.digest(report_to_json(check(log, net))) == \
            pinned[f"{key}.report"], key


def test_explain_outputs_match_the_pin(tmp_path):
    name, variant, key = "explain-chained", 3, "full"
    workload = run.WORKLOADS[name]
    generated = gen.generate(variant, workload.logs()[key], **workload.gen)
    log_path = tmp_path / f"log_{key}.json"
    log_path.write_bytes(generated.data)
    model_path = tmp_path / f"flower_{key}.json"
    model_path.write_text(serialize_model(flower_model(parse_log(generated.data))),
                          encoding="utf-8")
    outputs = []
    for event in run.query_pool(generated, variant, key):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["explain", "--log", str(log_path), "--model", str(model_path),
                         "--event", event])
        assert code == EXIT_OK, event
        outputs.append(worker.digest(out.getvalue()))
    assert worker.digest("".join(outputs)) == PINS[name][str(variant)][f"{key}.explain"]
