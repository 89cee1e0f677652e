import json
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

import invariants
import oracles
from oconform.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, main
from oconform.fixtures import fixture_text
from oconform.ocel import parse_log, serialize_log

L1 = str(files("oconform").joinpath("fixtures/l1_log.json"))
OCPN1 = str(files("oconform").joinpath("fixtures/ocpn1_model.json"))
RESTRICTED = str(files("oconform").joinpath("fixtures/restricted_model.json"))


def test_check_prints_summary(capsys):
    assert main(["check", "--log", L1, "--model", OCPN1]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "fitness=1.00 precision=0.89 skipped=0%\n"


def test_check_restricted_summary(capsys):
    assert main(["check", "--log", L1, "--model", RESTRICTED]) == EXIT_OK
    assert capsys.readouterr().out == \
        "fitness=0.44 precision=1.00 skipped=56%\n"


def test_check_decimals_flag(capsys):
    assert main(["check", "--log", L1, "--model", OCPN1,
                 "--decimals", "4"]) == EXIT_OK
    assert capsys.readouterr().out == \
        "fitness=1.0000 precision=0.8889 skipped=0%\n"


def test_check_renders_many_decimals(capsys):
    assert main(["check", "--log", L1, "--model", OCPN1,
                 "--decimals", "40"]) == EXIT_OK
    assert capsys.readouterr().out == \
        f"fitness=1.{'0' * 40} precision=0.{'8' * 39}9 skipped=0%\n"


def test_negative_decimals_are_invalid(capsys):
    assert main(["check", "--log", L1, "--model", OCPN1,
                 "--decimals", "-3"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --decimals must be non-negative\n"


def test_check_writes_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert main(["check", "--log", L1, "--model", OCPN1,
                 "-o", str(out_file)]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads(out_file.read_text())
    assert doc["fitness"] == 1.0
    assert doc["precision"] == 0.89
    assert len(doc["per_event"]) == 18
    assert doc["config"]["max_states"] == 100000


def test_check_replay_flags_are_threaded_through(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert main(["check", "--log", L1, "--model", OCPN1,
                 "--max-states", "500", "--silent-variable-mode", "subsets",
                 "--subset-cap", "4", "-o", str(out_file)]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads(out_file.read_text())
    assert doc["config"]["max_states"] == 500
    assert doc["config"]["silent_variable_mode"] == "subsets"
    assert doc["config"]["subset_cap"] == 4


def test_explain_event(capsys):
    assert main(["explain", "--log", L1, "--model", OCPN1,
                 "--event", "e5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "event: e5" in out
    assert "activity: Lift off" in out
    assert "preset: e1, e2, e3, e4" in out
    assert "context group: e5, e14" in out
    assert "en_log: Lift off" in out
    assert "en_model: Lift off, Pick up @ dest" in out
    assert "states: 8" in out
    assert "replayed: true truncated: false reached_final: false" in out
    assert out.count("Marking([") == 8


def test_explain_first_event_has_empty_preset(capsys):
    assert main(["explain", "--log", L1, "--model", OCPN1,
                 "--event", "e1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "preset: (empty)" in out
    assert "context group: e1, e10" in out


def _explain_lines(capsys, log_path, model_path, event_id):
    assert main(["explain", "--log", log_path, "--model", model_path,
                 "--event", event_id]) == EXIT_OK
    out = capsys.readouterr().out
    return dict(line.split(": ", 1) for line in out.splitlines()
                if line.startswith(("context group: ", "en_log: ")))


@pytest.mark.parametrize("chained", [False, True])
def test_explain_group_and_en_log_match_naive_oracle(tmp_path, capsys, chained):
    log_path = L1
    if chained:
        log_path = str(tmp_path / "chained.json")
        Path(log_path).write_text(
            serialize_log(invariants.chained_airport_log(flights=5)))
    log = parse_log(Path(log_path).read_text())
    group_of = {eid: members
                for members in oracles.naive_groups(log).values()
                for eid in members}
    for e in log.events:
        lines = _explain_lines(capsys, log_path, OCPN1, e.id)
        members = group_of[e.id]
        assert lines["context group"] == ", ".join(members), e.id
        assert lines["en_log"] == ", ".join(sorted(
            {log.event(eid).activity for eid in members})), e.id


def test_flower_to_stdout(capsys):
    assert main(["flower", "--log", L1]) == EXIT_OK
    assert capsys.readouterr().out == fixture_text("flower_l1_model.json")


def test_flower_to_file(tmp_path, capsys):
    out_file = tmp_path / "flower.json"
    assert main(["flower", "--log", L1, "-o", str(out_file)]) == EXIT_OK
    assert out_file.read_text() == fixture_text("flower_l1_model.json")


def test_simulate_to_file(tmp_path, capsys):
    out_file = tmp_path / "sim.json"
    assert main(["simulate", "--model", OCPN1, "--instances", "25",
                 "--seed", "7", "-o", str(out_file)]) == EXIT_OK
    captured = capsys.readouterr()
    log = parse_log(out_file.read_text())
    assert log.events
    assert captured.out.startswith(f"wrote {len(log.events)} events")
    for line in captured.err.splitlines():
        assert line.startswith("warning: instance")


def test_simulate_to_stdout_is_parseable(capsys):
    assert main(["simulate", "--model", OCPN1, "--instances", "5",
                 "--seed", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    log = parse_log(out)
    assert sorted(log.object_types) == ["baggage", "plane"]


def test_simulate_flags(tmp_path, capsys):
    out_file = tmp_path / "sim.json"
    assert main(["simulate", "--model", OCPN1, "--instances", "4",
                 "--seed", "2", "--max-objects", "1", "--step-cap", "40",
                 "--stop-prob", "0.9", "-o", str(out_file)]) == EXIT_OK
    capsys.readouterr()
    parse_log(out_file.read_text())


def test_missing_file_is_io_error(capsys):
    assert main(["check", "--log", "/nonexistent.json",
                 "--model", OCPN1]) == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_malformed_log_is_invalid(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["check", "--log", str(bad), "--model", OCPN1]) == EXIT_INVALID
    assert "error: malformed JSON" in capsys.readouterr().err


def test_invalid_model_is_invalid(tmp_path, capsys):
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps({
        "object_types": ["t"],
        "places": [{"id": "p0", "object_type": "t", "initial": True},
                   {"id": "p1", "object_type": "t", "initial": True}],
        "transitions": [],
        "arcs": [],
    }))
    assert main(["check", "--log", L1, "--model", str(bad)]) == EXIT_INVALID
    assert "two initial places" in capsys.readouterr().err


def test_non_array_places_are_invalid(tmp_path, capsys):
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps({"object_types": ["t"], "places": None,
                               "transitions": [], "arcs": []}))
    assert main(["check", "--log", L1, "--model", str(bad)]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: 'places' must be an array\n"


@pytest.mark.parametrize("flag", ["--log", "--model"])
def test_deeply_nested_input_is_invalid(tmp_path, capsys, flag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    paths = {"--log": L1, "--model": OCPN1, flag: str(deep)}
    assert main(["check", "--log", paths["--log"],
                 "--model", paths["--model"]]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: malformed JSON: nested too deeply\n"


def test_unknown_event_is_invalid(capsys):
    assert main(["explain", "--log", L1, "--model", OCPN1,
                 "--event", "e99"]) == EXIT_INVALID
    assert "unknown event id" in capsys.readouterr().err


def test_bad_replay_flag_is_invalid(capsys):
    assert main(["check", "--log", L1, "--model", OCPN1,
                 "--max-states", "0"]) == EXIT_INVALID
    assert "max_states must be positive" in capsys.readouterr().err


def test_dead_model_simulation_is_invalid(tmp_path, capsys):
    bad = tmp_path / "dead.json"
    bad.write_text(json.dumps({
        "object_types": ["t"],
        "places": [{"id": "p0", "object_type": "t", "initial": True},
                   {"id": "mid", "object_type": "t"},
                   {"id": "p1", "object_type": "t", "final": True}],
        "transitions": [{"id": "a", "label": "A"}],
        "arcs": [{"source": "mid", "target": "a"},
                 {"source": "a", "target": "p1"}],
    }))
    assert main(["simulate", "--model", str(bad)]) == EXIT_INVALID
    assert "no binding is enabled" in capsys.readouterr().err


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "oconform", "check",
         "--log", L1, "--model", OCPN1],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert proc.stdout == "fitness=1.00 precision=0.89 skipped=0%\n"
