"""One benchmark run in a fresh interpreter.

``run.py`` writes a job file (inputs, expected answers, time budget) and
starts this script on it with ``PYTHONHASHSEED`` pinned.  The script
imports the package from the checkout's ``src``, times the workload's
operations, checks every output, and prints one JSON object on stdout.

Operations:

* check: ``check(log, net)`` then ``report_to_json(report)`` on a parsed
  log and net.  Its output must have fitness 1 and nothing skipped (each
  generated log is in its net's language), precision equal to the
  independent oracle where one is given, and a rendered report whose
  digest matches the one pinned for this input.
* explain: ``cli.main(["explain", ...])`` in process with stdout captured;
  parsing the files is part of the query.  Its stdout must match the
  pinned digest.

Untraced runs report the end-to-end metrics; traced runs (``"trace":
true``) record spans around calls into each module and report the
per-layer metrics.  Operations return their wall-time intervals, which
are turned into calibrated seconds (see ``Clock``) once they have all run.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

Interval = tuple[float, float]  # perf_counter at start and end of an operation


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by the exclusive method of ``statistics``."""
    return statistics.quantiles(values, n=100)[q - 1]


# ---------------------------------------------------------------------------
# calibrated time

CALIBRATION_S = 0.0004   # nominal duration of one calibration loop
SAMPLE_EVERY_S = 0.025   # one calibration loop per interval, about 1.6% of the time


def _calibration_loop() -> int:
    """Fixed pure-Python work on dicts, tuples and strings, about 0.4 ms."""
    counts: dict[tuple[int, str], int] = {}
    for i in range(600):
        key = (i % 97, str(i % 1013))
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def _middle_mean(values: list[float]) -> float:
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


class Clock:
    """Converts wall times of operations into calibrated seconds.

    The speed of a shared host drifts by tens of percent within seconds,
    as other tenants come and go on its cores.  While the clock is
    active, a timer signal runs a fixed calibration loop every
    SAMPLE_EVERY_S in this same thread.  An operation's wall time is
    scaled by CALIBRATION_S over the mean duration of the middle half of
    the loops that ran during it (and within two intervals either side),
    so drift that slows the operation and the loops alike cancels.  The
    cyclic garbage collector is off during a loop: a collection the
    operation's own allocations set off must count as the operation's
    time, not be divided back out of it.  Dropping the fastest and the
    slowest quarter keeps one odd loop from moving the factor; it varies
    less from operation to operation than the median of the few loops
    near a short operation.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.loops: list[float] = []
        self.factors: list[float] = []

    def _sample(self, _signum, _frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _calibration_loop()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.loops.append(end - start)

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        time.sleep(3 * SAMPLE_EVERY_S)  # some samples before the first operation
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, interval: Interval) -> float:
        start, end = interval
        pad = 2 * SAMPLE_EVERY_S
        near = [d for t, d in zip(self.starts, self.loops)
                if start - pad <= t <= end + pad]
        return CALIBRATION_S / _middle_mean(near or self.loops[-4:])

    def __call__(self, interval: Interval) -> float:
        """Calibrated duration of the operation that ran over ``interval``."""
        self.factors.append(self.factor(interval))
        return (interval[1] - interval[0]) * self.factors[-1]

    def summary(self) -> str:
        q = statistics.quantiles(self.factors, n=4)
        return (f"calibration: {len(self.loops)} loops, median "
                f"{1000 * statistics.median(self.loops):.3f} ms; calibrated = wall "
                f"x factor, factor quartiles {q[0]:.3f} {q[1]:.3f} {q[2]:.3f}")


# ---------------------------------------------------------------------------
# inputs and operations

class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(reason)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.reasons) < 5:
            self.reasons.append(reason)


class Api:
    """The package's public functions, imported from the checkout."""

    def __init__(self, src: str) -> None:
        sys.path.insert(0, src)
        import oconform
        from oconform import cli, metrics
        self.cli = cli
        self.metrics = metrics
        self.parse_log = oconform.parse_log
        self.parse_model = oconform.parse_model
        self.flower_model = oconform.flower_model
        self.serialize_model = oconform.serialize_model
        self.check = oconform.check
        self.report_to_json = oconform.report_to_json
        self.cli_main = cli.main


class Inputs:
    """One log of the workload with its net, explain pool and expectations."""

    def __init__(self, api: Api, job: dict, key: str) -> None:
        spec = job["logs"][key]
        self.api = api
        self.key = key
        self.path = spec["path"]
        self.model_path = spec["model_path"]
        self.flower = job["net"] == "flower"
        self.log_bytes = Path(self.path).read_bytes()
        if self.flower:  # the model file the CLI reads: this log's flower
            flower = api.flower_model(api.parse_log(self.log_bytes))
            self.model_bytes = api.serialize_model(flower).encode("utf-8")
            Path(self.model_path).write_bytes(self.model_bytes)
        else:
            self.model_bytes = Path(job["ref_model"]).read_bytes()
        self.expect_report = spec.get("report")
        self.expect_explain = spec.get("explain")
        self.expect_precision = (Fraction(spec["precision"])
                                 if spec.get("precision") else None)
        self.pool = spec.get("pool", [])
        self.slots: dict[int, str] = {}  # explain output digest per pool slot
        self.log, self.net = self.setup()
        self.events = len(self.log.events)

    def describe(self) -> str:
        model = hashlib.sha256(Path(self.model_path).read_bytes()).hexdigest()
        return f"{self.key} log: model {Path(self.model_path).name} sha256 {model}"

    def setup(self):
        """What a user pays before the first check: parse the log and the
        model file, and build the flower where the workload uses it.  A
        flower workload checks against the net ``flower_model`` returns;
        the model file holds that same net, serialized."""
        log = self.api.parse_log(self.log_bytes)
        net = self.api.parse_model(self.model_bytes)
        if self.flower:
            net = self.api.flower_model(log)
        return log, net

    def check_op(self, tally: Tally, check=None, render=None) -> Interval:
        check = check or self.api.check
        render = render or self.api.report_to_json
        start = time.perf_counter()
        try:
            report = check(self.log, self.net)
            text = render(report)
        except Exception as exc:  # a failed operation is counted, not fatal
            tally.record(False, f"{self.key}: check raised {exc!r}")
            return start, time.perf_counter()
        end = time.perf_counter()
        if report.fitness != 1:
            tally.record(False, f"{self.key}: fitness {report.fitness} != 1")
        elif report.num_replayable != report.num_events:
            tally.record(False, f"{self.key}: {report.num_events - report.num_replayable}"
                                " events skipped")
        elif (self.expect_precision is not None
              and report.precision != self.expect_precision):
            tally.record(False, f"{self.key}: precision {report.precision} != "
                                f"oracle {self.expect_precision}")
        elif digest(text) != self.expect_report:
            tally.record(False, f"{self.key}: report digest {digest(text)} != "
                                f"pinned {self.expect_report}")
        else:
            tally.record(True)
        return start, end

    def explain_op(self, tally: Tally, slot: int, main=None) -> Interval:
        main = main or self.api.cli_main
        argv = ["explain", "--log", self.path, "--model", self.model_path,
                "--event", self.pool[slot]]
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = main(argv)
        except (Exception, SystemExit) as exc:  # counted, not fatal; SystemExit
            # is how argparse rejects an argv the CLI no longer accepts
            tally.record(False, f"{self.key}: explain raised {exc!r}")
            return start, time.perf_counter()
        end = time.perf_counter()
        got = digest(out.getvalue())
        first = self.slots.setdefault(slot, got)
        if code != 0:
            tally.record(False, f"{self.key}: explain {self.pool[slot]} exited {code}")
        elif got != first:
            tally.record(False, f"{self.key}: explain {self.pool[slot]} output changed")
        else:
            tally.record(True)
        return start, end

    def verify_pool(self, tally: Tally, queries: int) -> None:
        """Compare the pool's outputs with the pinned digest; on a mismatch
        every query of this log counts as failed."""
        if len(self.slots) < len(self.pool):
            tally.fail(f"{self.key}: explain pool not covered", queries)
            return
        joined = digest("".join(self.slots[i] for i in range(len(self.pool))))
        if joined != self.expect_explain:
            tally.fail(f"{self.key}: explain digest {joined} != pinned "
                       f"{self.expect_explain}", queries)


def repeat(fn, arg, reps: int) -> list[Interval]:
    """The intervals of ``reps`` calls of ``fn(arg)``."""
    intervals = []
    for _ in range(reps):
        start = time.perf_counter()
        fn(arg)
        intervals.append((start, time.perf_counter()))
    return intervals


def per_query(times: list[float], pool: int) -> list[float]:
    """Each pool query's median time over the whole passes in ``times``,
    so the tail of the latency distribution shows the costly queries,
    not timing noise on single runs of cheap ones."""
    return [statistics.median(times[slot::pool]) for slot in range(pool)]


def wall(interval: Interval) -> float:
    return interval[1] - interval[0]


def run_pairs(full_op, half_op, seconds: float, minimum: int, multiple: int = 1):
    """Alternate full- and half-size operations, swapping which goes first,
    for ``seconds`` and at least ``minimum`` pairs, in a multiple of
    ``multiple`` pairs (whole passes over a query pool)."""
    full, half = [], []
    deadline = time.perf_counter() + seconds
    while (len(full) < minimum or len(full) % multiple
           or time.perf_counter() < deadline):
        if len(full) % 2:
            half.append(half_op(len(half)))
            full.append(full_op(len(full)))
        else:
            full.append(full_op(len(full)))
            half.append(half_op(len(half)))
    return full, half


def run_passes(op, pool: int, seconds: float) -> list[Interval]:
    """Whole passes over the query pool, for ``seconds`` and at least one,
    so every pool event is sampled equally often."""
    intervals: list[Interval] = []
    deadline = time.perf_counter() + seconds
    while not intervals or time.perf_counter() < deadline:
        intervals.extend(op(slot) for slot in range(pool))
    return intervals


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics

def untraced(api: Api, job: dict, tally: Tally, clock: Clock) -> dict:
    seconds = job["seconds"]
    full = Inputs(api, job, "full")
    half = Inputs(api, job, "half")
    setup_iv = repeat(Inputs.setup, full, job["setup_reps"])

    if job["op"] == "check":
        half.check_op(tally)  # warm-up, checked but not timed
        full_iv, half_iv = run_pairs(lambda i: full.check_op(tally),
                                     lambda i: half.check_op(tally),
                                     seconds, job["min_pairs"])
        explain_log = Inputs(api, job, "explain")
        explain_log.explain_op(tally, 0)  # warm-up
        explain_iv = run_passes(lambda i: explain_log.explain_op(tally, i),
                                len(explain_log.pool), seconds)
        explain_log.verify_pool(tally, len(explain_iv) + 1)
    else:
        full.explain_op(tally, 0)  # warm-up
        full_iv, half_iv = run_pairs(
            lambda i: full.explain_op(tally, i % len(full.pool)),
            lambda i: half.explain_op(tally, i % len(half.pool)),
            seconds, len(full.pool), math.lcm(len(full.pool), len(half.pool)))
        full.verify_pool(tally, len(full_iv) + 1)
        half.verify_pool(tally, len(half_iv))
        explain_log, explain_iv = full, full_iv

    full_t = [clock(i) for i in full_iv]
    half_t = [clock(i) for i in half_iv]
    explain_t = [clock(i) for i in explain_iv]
    setup_s = statistics.median(clock(i) for i in setup_iv)
    op_full = statistics.median(full_t)
    # the two operations of a pair run back to back, so their ratio cancels
    # drift in the host's speed that the calibration leaves over
    ratio = statistics.median(math.log(f / h) for f, h in zip(full_t, half_t))
    queries = per_query(explain_t, len(explain_log.pool))
    p90 = percentile(queries, 90)
    beyond = sum(t > p90 for t in queries)
    lines = [
        *(i.describe() for i in dict.fromkeys((full, half, explain_log)) if i.flower),
        f"setup: median of {job['setup_reps']} set-ups of {full.events} events",
        f"{job['op']} ops: {len(full_t)} at {full.events} events, "
        f"{len(half_t)} at {half.events} events",
        f"events_per_s: {full.events / op_full:.1f} calibrated, "
        f"{full.events / statistics.median(map(wall, full_iv)):.1f} by wall time",
        f"explain queries: {len(explain_t)} runs over {len(queries)} events of a "
        f"{explain_log.events}-event log; p50 and p90 are over each event's median "
        f"time, {beyond} beyond p90",
        clock.summary(),
    ]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "events_per_s": (full.events / op_full, "events/s"),
        "scaling_exp": (ratio / math.log(full.events / half.events), "1"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "explain_ms_p50": (1000 * statistics.median(queries), "ms"),
        "explain_ms_p90": (1000 * p90, "ms"),
    }
    return {"metrics": metrics, "lines": lines}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics

def _graph_counts(graph) -> dict:
    sizes = [len(p) for p in graph.presets.values()]
    return {"preset_events": sum(sizes), "max_preset": max(sizes, default=0)}


def _replay_counts(detail) -> dict:
    return {"markings": len(detail.markings),
            "replayed": int(detail.outcome.replayed),
            "truncated": int(detail.outcome.truncated)}


def _trace_targets(api: Api):
    """(module, attribute, span name, counts) for every call to trace:
    the stage calls inside ``check`` and the calls ``explain`` makes."""
    m, c = api.metrics, api.cli
    return [
        (m, "build_graph", "context.build_graph", _graph_counts),
        (m, "group_by_context", "context.group_by_context",
         lambda groups: {"groups": len(groups)}),
        (m, "replay_context_group", "replay.replay_context_group", _replay_counts),
        (c, "parse_log", "ocel.parse_log", None),
        (c, "parse_model", "ocpn.parse_model", None),
        (c, "build_graph", "context.build_graph", None),
        (c, "event_preset", "context.event_preset", None),
        (c, "context_of_event", "context.context_of_event", None),
        (c, "enabled_log_activities", "context.enabled_log_activities", None),
        (c, "replay_context_group", "replay.replay_context_group", _replay_counts),
    ]


def _check_layers(spans, factors) -> dict[str, list[float]]:
    """Per traced check operation, the layer figures in calibrated time."""
    out: dict[str, list[float]] = {}
    for i, root in enumerate(spans):
        if root.name != "metrics.check":
            continue
        scale = factors[root.op]
        kids = [s for s in spans if s.parent == i]
        graph = [s for s in kids if s.name == "context.build_graph"]
        group = [s for s in kids if s.name == "context.group_by_context"]
        replay = [s for s in kids if s.name == "replay.replay_context_group"]
        render = [s for s in spans if s.name == "metrics.report_to_json" and s.op == root.op]
        group_ms = [1000 * scale * s.duration for s in replay]
        figures = {
            "context.graph_s": scale * sum(s.duration for s in graph),
            "context.group_s": scale * sum(s.duration for s in group),
            "context.groups": sum(s.counts["groups"] for s in group),
            "context.preset_events": sum(s.counts["preset_events"] for s in graph),
            "context.max_preset": max(s.counts["max_preset"] for s in graph),
            "replay.total_s": scale * sum(s.duration for s in replay),
            "replay.group_ms_p50": statistics.median(group_ms),
            "replay.group_ms_max": max(group_ms),
            "replay.markings": sum(s.counts["markings"] for s in replay),
            "replay.replayed_share": sum(s.counts["replayed"] for s in replay) / len(replay),
            "replay.truncated_groups": sum(s.counts["truncated"] for s in replay),
            "metrics.check_s": scale * root.duration,
            "metrics.self_s": scale * (root.duration - sum(s.duration for s in kids)),
            "metrics.render_s": scale * sum(s.duration for s in render),
        }
        for name, value in figures.items():
            out.setdefault(name, []).append(value)
    return out


def _explain_layers(spans, factors) -> dict[str, list[float]]:
    """Per traced explain query, the layer figures in calibrated time."""
    out: dict[str, list[float]] = {}
    for i, root in enumerate(spans):
        if root.name != "cli.main":
            continue
        scale = 1000 * factors[root.op]
        kids = [s for s in spans if s.parent == i]

        def total_ms(*names):
            return scale * sum(s.duration for s in kids if s.name in names)

        figures = {
            "cli.explain_ms": scale * root.duration,
            "cli.parse_ms": total_ms("ocel.parse_log", "ocpn.parse_model"),
            "context.explain_ms": total_ms(
                "context.build_graph", "context.event_preset",
                "context.context_of_event", "context.enabled_log_activities"),
            "replay.explain_ms": total_ms("replay.replay_context_group"),
        }
        for name, value in figures.items():
            out.setdefault(name, []).append(value)
    return out


def _unit(name: str) -> str:
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    return "count"


def traced(api: Api, job: dict, tally: Tally, clock: Clock) -> dict:
    from spans import Tracer, patched

    full = Inputs(api, job, "full")
    explain_log = Inputs(api, job, "explain") if job["op"] == "check" else full
    reps = job["setup_reps"]
    setup_iv = {
        "ocel.parse_s": repeat(api.parse_log, full.log_bytes, reps),
        "ocpn.parse_s": repeat(api.parse_model, full.model_bytes, reps),
        "ocpn.flower_s": repeat(api.flower_model, full.log, reps),
    }

    tracer = Tracer()
    targets = _trace_targets(api)
    op_iv: dict[int, Interval] = {}

    def traced_op(run) -> Interval:
        """Run one operation as a new traced op, with the stage calls
        wrapped in spans for its duration only."""
        tracer.op += 1
        with patched(tracer, targets):
            op_iv[tracer.op] = run()
        return op_iv[tracer.op]

    check_traced = lambda inputs: traced_op(lambda: inputs.check_op(
        tally, check=tracer.wrap("metrics.check", api.check),
        render=tracer.wrap("metrics.report_to_json", api.report_to_json)))
    explain_traced = lambda inputs, slot: traced_op(lambda: inputs.explain_op(
        tally, slot, main=tracer.wrap("cli.main", api.cli_main)))

    # tracing overhead on the workload's own operation, at full size
    if job["op"] == "check":
        with_spans, plain = run_pairs(lambda i: check_traced(full),
                                      lambda i: full.check_op(tally),
                                      job["seconds"], job["min_pairs"])
    else:
        pool = len(full.pool)
        with_spans, plain = run_pairs(lambda i: explain_traced(full, i % pool),
                                      lambda i: full.explain_op(tally, i % pool),
                                      job["seconds"], pool, pool)
        full.verify_pool(tally, 2 * len(plain))
    # the other operation kind, so every layer is traced on every workload
    if job["op"] == "check":
        for slot in range(len(explain_log.pool)):
            explain_traced(explain_log, slot)
        explain_log.verify_pool(tally, len(explain_log.pool))
    else:
        for _ in range(3):
            check_traced(full)

    metrics = {name: (statistics.median(clock(i) for i in ivs), "s")
               for name, ivs in setup_iv.items()}
    factors = {op: clock.factor(interval) for op, interval in op_iv.items()}
    layers = {**_check_layers(tracer.spans, factors),
              **_explain_layers(tracer.spans, factors)}
    for name, values in layers.items():
        metrics[name] = (statistics.median(values), _unit(name))
    overhead = (statistics.median(clock(i) for i in with_spans)
                / statistics.median(clock(i) for i in plain) - 1)
    metrics["trace.overhead_share"] = (overhead, "share")
    lines = [f"traced: {len(with_spans)} {job['op']} ops with spans and "
             f"{len(plain)} without; spans add {100 * overhead:+.1f}% to the "
             f"op time, so traced events_per_s is {100 * overhead / (1 + overhead):.1f}% "
             "lower than untraced",
             clock.summary()]
    return {"metrics": metrics, "lines": lines, "spans": tracer.to_json()}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    api = Api(job["src"])
    tally = Tally()
    try:
        with Clock() as clock:
            result = (traced if job["trace"] else untraced)(api, job, tally, clock)
    except Exception:
        traceback.print_exc()
        return 1
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    result.update(attempted=tally.attempted, failed=tally.failed,
                  reasons=tally.reasons)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
