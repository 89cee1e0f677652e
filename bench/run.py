"""Benchmark of oconform: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates its inputs from the seed (``gen.py``), prints the sha256
of every generated log and model, computes the independent precision
oracle where it applies, and then runs the workload in a fresh,
single-threaded interpreter (``worker.py``) with ``PYTHONHASHSEED=0``.
Every operation's output is checked; the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of ``BENCHMARK.json`` for ``--trace 0`` and
its per-layer metrics for ``--trace 1``; ``failed / attempted`` is the
error rate, also printed on the line before.  Times are calibrated
seconds, which cancel most of a shared host's drift in speed (see
``worker.Clock``).  A traced run also writes its spans to
``.bench_out/``; ``layers.json`` says which end-to-end metric each
per-layer metric should move, and ``trajectory.json`` holds the measured
points so far.  The seed picks one of ``VARIANTS`` input
variants (``seed % VARIANTS``); for each, ``pins.json`` holds the digests
of the reports and explain outputs produced at the commit that pinned
them, so a change of output shows as failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
VARIANTS = 16
POOL_EVENTS = 100    # explain queries per log at the least: 10 lie beyond p90
MIN_PAIRS = 5        # full/half operation pairs per run, at the least
SETUP_REPS = 41
TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    op: str                 # "check" or "explain"
    net: str                # "ref" (ocpn1_model.json) or "flower" (the log's own)
    events: int             # full size; the half-size log has events // 2
    explain_events: int = 0  # size of the log a check workload's explain queries use
    gen: dict = field(default_factory=dict)

    def logs(self) -> dict[str, int]:
        """Generated logs by key, with their sizes.  Explain queries run on
        ``explain`` for a check workload and on both sizes where explain is
        the operation."""
        sizes = {"full": self.events, "half": self.events // 2}
        if self.op == "check":
            sizes["explain"] = self.explain_events
        return sizes

    def explained(self) -> tuple[str, ...]:
        return ("explain",) if self.op == "check" else ("full", "half")

    def checked(self) -> tuple[str, ...]:
        """Logs that check runs on; where explain is the operation, only
        the traced run checks, to trace every layer."""
        return ("full", "half") if self.op == "check" else ("full",)


# Sizes are whole blocks of flights: 27 events a block for bags (1, 2, 3),
# 56 for bags (3, 4, 5, 6); the half-size log has exactly half the blocks.
# A check workload's explain log is small enough for 100 queries in a few
# seconds (one query on the full disjoint log takes about 0.3 s).
WORKLOADS = {
    "disjoint-ref": Workload("check", "ref", 1512, 378),
    "chained-flower": Workload("check", "flower", 486, 243, {"shared_planes": 3}),
    "silent-bags": Workload("check", "ref", 224, 112, {"bags": (3, 4, 5, 6)}),
    "explain-chained": Workload("explain", "flower", 324, 0, {"shared_planes": 3}),
}


def query_pool(generated: gen.Generated, variant: int, key: str) -> list[str]:
    """The event ids of whole blocks of flights, evenly spaced over the log
    from a seeded offset, until the pool has POOL_EVENTS ids or more.

    Every block has the same mix of flight shapes, so every seed queries
    the same mix of events; the cost of an explain query depends strongly
    on the event's flight shape and activity.
    """
    blocks = generated.blocks
    count = min(len(blocks), -(-POOL_EVENTS // len(blocks[0])))
    stride = len(blocks) / count
    offset = random.Random(f"pool-{variant}-{key}").random() * stride
    chosen = sorted({int(offset + i * stride) for i in range(count)})
    return [f"e{index + 1}" for b in chosen for index in blocks[b]]


def flower_precision(log_bytes: bytes, root: Path) -> str:
    """Precision against the log's flower net by the test suite's
    independent oracle, which shares no algorithm with the package."""
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    try:
        from oconform.ocel import parse_log
        from oracles import flower_precision_oracle
    finally:
        del sys.path[:2]
    return str(flower_precision_oracle(parse_log(log_bytes)))


def build_job(name: str, seed: int, root: Path, workdir: Path, *,
              seconds: float, trace: bool, pins: dict | None) -> dict:
    """Generate the inputs into ``workdir`` and describe the run."""
    w = WORKLOADS[name]
    variant = seed % VARIANTS
    ref_model = root / "src" / "oconform" / "fixtures" / "ocpn1_model.json"
    pinned = (pins or {}).get(name, {}).get(str(variant), {})
    logs = {}
    for key, events in w.logs().items():
        generated = gen.generate(variant, events, **w.gen)
        data = generated.data
        path = workdir / f"log_{key}.json"
        path.write_bytes(data)
        print(f"input {key} log: {len(json.loads(data)['events'])} events "
              f"sha256 {gen.sha256(data)}")
        spec = {"path": str(path),
                "model_path": str(ref_model if w.net == "ref"
                                  else workdir / f"flower_{key}.json"),
                "report": pinned.get(f"{key}.report")}
        if key in w.explained():
            spec["pool"] = query_pool(generated, variant, key)
            spec["explain"] = pinned.get(f"{key}.explain")
        if w.net == "flower" and key in w.checked():
            spec["precision"] = flower_precision(data, root)
        logs[key] = spec
    if w.net == "ref":
        print(f"input model: ocpn1_model.json sha256 {gen.sha256(ref_model.read_bytes())}")
    return {"workload": name, "variant": variant, "op": w.op, "net": w.net,
            "seconds": seconds, "trace": trace, "src": str(root / "src"),
            "ref_model": str(ref_model), "logs": logs,
            "setup_reps": SETUP_REPS, "min_pairs": MIN_PAIRS}


def run_worker(job: dict, workdir: Path, timeout: float) -> dict:
    """Run the job in a fresh interpreter; return its result object."""
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job_path)],
                          env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    for needed in ("src/oconform/__init__.py", "tests/oracles.py",
                   "src/oconform/fixtures/ocpn1_model.json"):
        if not (root / needed).is_file():
            print(f"error: {needed} not found; run from the root of an "
                  "oconform checkout", file=sys.stderr)
            return 2
    pins = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))

    workdir = root / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        job = build_job(args.workload, args.seed, root, workdir,
                        seconds=args.seconds, trace=bool(args.trace), pins=pins)
        result = run_worker(job, workdir,
                            TIMEOUT_S - (time.monotonic() - started))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in result["lines"]:
        print(line)
    for reason in result["reasons"]:
        print(f"failed: {reason}")
    print(f"error_rate: {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']} of {result['attempted']} operations)")
    if args.trace:
        out = root / ".bench_out"
        out.mkdir(exist_ok=True)
        spans = out / f"trace-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps(result["spans"]), encoding="utf-8")
        print(f"spans: {len(result['spans'])} written to {spans.relative_to(root)}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
