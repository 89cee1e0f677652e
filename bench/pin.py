"""Record the digests of today's outputs for every workload and input variant.

Usage, from the root of a checkout:

    python3 bench/pin.py

It writes ``bench/pins.json``: per workload and variant (``seed %
VARIANTS``), the digest of the rendered report of each checked log and of
the explain outputs over each query pool.  Re-pin only in a change that
means to alter the program's output, and say so where the change is
described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run
import worker


def observe(api: worker.Api, job: dict) -> dict[str, str]:
    tally = worker.Tally()
    pins = {}
    for key, spec in job["logs"].items():
        inputs = worker.Inputs(api, job, key)
        if key in run.WORKLOADS[job["workload"]].checked():
            pins[f"{key}.report"] = worker.digest(api.report_to_json(
                api.check(inputs.log, inputs.net)))
        for slot in range(len(inputs.pool)):
            inputs.explain_op(tally, slot)
        if inputs.pool:
            pins[f"{key}.explain"] = worker.digest(
                "".join(inputs.slots[i] for i in range(len(inputs.pool))))
    if tally.failed:
        raise SystemExit(f"explain failed while pinning: {tally.reasons}")
    return pins


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    root = Path.cwd()
    api = worker.Api(str(root / "src"))
    path = run.BENCH / "pins.json"
    pins: dict[str, dict] = {}
    workdir = root / ".bench_work" / f"pin-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name in sorted(run.WORKLOADS):
            pins[name] = {}
            for variant in range(run.VARIANTS):
                job = run.build_job(name, variant, root, workdir, seconds=0,
                                    trace=False, pins=None)
                pins[name][str(variant)] = observe(api, job)
                print(f"{name} {variant}: {pins[name][str(variant)]}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
