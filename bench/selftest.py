"""Fast self-tests of the benchmark itself, kept apart from the package's
test suite.  Run from the root of a checkout:

    python3 bench/selftest.py

They run every workload on logs of one or two blocks of flights, so the
whole file takes well under a minute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

if os.environ.get("PYTHONHASHSEED") != "0":  # match the workload interpreters
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import gen  # noqa: E402
import pin  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

ROOT = Path.cwd()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"disjoint-ref": (54, 27), "chained-flower": (54, 27),
        "silent-bags": (112, 56), "explain-chained": (54, 0)}


class Scratch:
    """A work directory inside the checkout, removed afterwards."""

    def __enter__(self) -> Path:
        self.path = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


@contextlib.contextmanager
def tiny_job(name: str, *, trace: bool = False, sizes=None):
    """The job of a workload on tiny logs (``sizes`` = full and explain log
    events), generated into a scratch directory: yields (job, workdir)."""
    events, explain_events = sizes or TINY[name]
    tiny = dataclasses.replace(run.WORKLOADS[name], events=events,
                               explain_events=explain_events)
    with mock.patch.dict(run.WORKLOADS, {name: tiny}), Scratch() as workdir:
        with contextlib.redirect_stdout(io.StringIO()):  # the input digests
            job = run.build_job(name, 5, ROOT, workdir, seconds=0.05, trace=trace,
                                pins=None)
        yield job, workdir


def tiny_run(name: str, *, trace: bool = False, corrupt=None) -> dict:
    """Run a workload on tiny logs with the digests observed right now as
    its expected answers; ``corrupt(job)`` may then spoil one of them."""
    with tiny_job(name, trace=trace) as (job, workdir):
        observed = pin.observe(worker.Api(job["src"]), job)
        for key, spec in job["logs"].items():
            spec["report"] = observed.get(f"{key}.report")
            if "pool" in spec:
                spec["explain"] = observed[f"{key}.explain"]
        if corrupt:
            corrupt(job)
        return run.run_worker(job, workdir, timeout=120)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_log(self):
        a = gen.generate(7, 200, shared_planes=3)
        b = gen.generate(7, 200, shared_planes=3)
        self.assertEqual(gen.sha256(a.data), gen.sha256(b.data))
        self.assertEqual(a.blocks, b.blocks)

    def test_other_seed_same_size_other_log(self):
        a = gen.generate(7, 200, bags=(3, 4, 5, 6))
        b = gen.generate(8, 200, bags=(3, 4, 5, 6))
        self.assertNotEqual(a.data, b.data)
        self.assertEqual(len(json.loads(a.data)["events"]),
                         len(json.loads(b.data)["events"]))

    def test_flights_follow_the_airport_process(self):
        generated = gen.generate(3, 120, bags=(3, 4, 5, 6))
        doc = json.loads(generated.data)
        unloads = [e for e in doc["events"] if e["activity"] == gen.UNLOAD]
        self.assertTrue(all(len(e["omap"]) >= 2 for e in unloads))  # plane + bag
        bags = [o for o, t in doc["objects"].items() if t == "baggage"]
        unloaded = {o for e in unloads for o in e["omap"]}
        self.assertEqual(len(set(bags) - unloaded),
                         sum(gen.skipped_bags(n) for n in (3, 4, 5, 6))
                         * len(generated.blocks))

    def test_generator_does_not_use_the_simulator(self):
        source = (run.BENCH / "gen.py").read_text(encoding="utf-8")
        self.assertNotIn("oconform", source.split('"""', 2)[2])


class CorrectnessTest(unittest.TestCase):
    def test_pinned_answers_give_no_failures(self):
        result = tiny_run("chained-flower")
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0, result["reasons"])

    def test_wrong_report_digest_is_an_error(self):
        def spoil(job):
            job["logs"]["full"]["report"] = "0" * 16
        result = tiny_run("disjoint-ref", corrupt=spoil)
        self.assertGreater(result["failed"], 0)

    def test_wrong_precision_is_an_error(self):
        def spoil(job):
            job["logs"]["full"]["precision"] = "1/3"
        result = tiny_run("chained-flower", corrupt=spoil)
        self.assertGreater(result["failed"], 0)

    def test_wrong_explain_digest_is_an_error(self):
        def spoil(job):
            job["logs"]["half"]["explain"] = "0" * 16
        result = tiny_run("explain-chained", corrupt=spoil)
        self.assertGreater(result["failed"], 0)

    def test_explain_exiting_through_argparse_is_an_error(self):
        with tiny_job("explain-chained") as (job, _workdir):
            inputs = worker.Inputs(worker.Api(job["src"]), job, "full")
            tally = worker.Tally()
            with contextlib.redirect_stderr(io.StringIO()):
                inputs.explain_op(tally, 0, main=lambda argv: inputs.api.cli_main(
                    [*argv, "--no-such-flag"]))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertIn("SystemExit(2)", tally.reasons[0])

    def test_bare_benchmark_directory_exits_non_zero(self):
        with Scratch() as bare:
            (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
            shutil.copytree(run.BENCH, bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "disjoint-ref",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class CalibrationTest(unittest.TestCase):
    def test_extra_work_survives_calibration(self):
        """A check that runs twice per operation reads about twice as long
        in calibrated time as one that runs once: calibration divides out
        the host's speed, not the program's own work, its allocations and
        the garbage collections they set off."""
        with tiny_job("chained-flower", sizes=(108, 27)) as (job, _workdir):
            api = worker.Api(job["src"])
            inputs = worker.Inputs(api, job, "full")
            inputs.expect_report = worker.digest(
                api.report_to_json(api.check(inputs.log, inputs.net)))
            tally = worker.Tally()
            twice = lambda log, net: [api.check(log, net), api.check(log, net)][-1]
            with worker.Clock() as clock:
                once_iv, twice_iv = worker.run_pairs(
                    lambda i: inputs.check_op(tally),
                    lambda i: inputs.check_op(tally, check=twice), 0, 15)
                once = statistics.median(clock(i) for i in once_iv)
                double = statistics.median(clock(i) for i in twice_iv)
        self.assertEqual(tally.failed, 0, tally.reasons)
        self.assertAlmostEqual(double / once, 2.0, delta=0.25)


class MetricNamesTest(unittest.TestCase):
    def test_layer_map_names_declared_metrics(self):
        layers = json.loads((run.BENCH / "layers.json").read_text(encoding="utf-8"))
        per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
        end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
        mapped = {name for row in layers["map"] for name in row["per_layer"]}
        self.assertEqual(mapped, per_layer)
        for row in layers["map"]:
            self.assertLessEqual(set(row["moves"]), end_to_end)
            self.assertLessEqual(set(row["on"]), set(run.WORKLOADS))

    def test_every_workload_reports_every_declared_metric(self):
        end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
        per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(run.WORKLOADS))
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                plain = tiny_run(name)
                self.assertEqual(set(plain["metrics"]), end_to_end)
                traced = tiny_run(name, trace=True)
                self.assertEqual(set(traced["metrics"]), per_layer)
                self.assertEqual(traced["failed"], 0, traced["reasons"])
                units = {m["name"]: m["unit"]
                         for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
                for metric, value in {**plain["metrics"], **traced["metrics"]}.items():
                    self.assertEqual(value["unit"], units[metric], metric)
                layers = traced["metrics"]
                self.assertGreaterEqual(layers["metrics.self_s"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
