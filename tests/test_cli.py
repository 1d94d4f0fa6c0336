import errno
import functools
import os
import pathlib
import random
import shutil
import subprocess
import sys
from types import SimpleNamespace
from typing import NamedTuple

import pytest

import tagmon.cli
import tagmon.interventions
import tagmon.scenario_file
import tagmon.streams

from tagmon.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    MAX_MINUTES,
    gen_trace,
    main,
    run_summary,
)
from tagmon.errors import BadParams, OutOfWindow
from tagmon.streams import load_trace
from tagmon.values import BOTTOM, Dec4

SCENARIOS = pathlib.Path(__file__).parents[1] / "scenarios"


def test_validate_ok_and_failure(scenarios_dir, tmp_path, capsys):
    assert main(["validate", str(scenarios_dir / "alcohol_dry.scenario")]) \
        == EXIT_OK
    assert main(["validate", str(scenarios_dir / "nope.scenario")]) \
        == EXIT_VALIDATION
    # the extended scenario without its (large, generated) trace must fail
    # cleanly; a copy is validated, since the trace may have been generated
    # beside the shipped file
    extended = shutil.copy(scenarios_dir / "extended_dry.scenario", tmp_path)
    code = main(["validate", str(extended)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "trace file not found" in err


def test_validate_reports_line_numbers(tmp_path, capsys):
    scenario = tmp_path / "bad.scenario"
    scenario.write_text("[entity A]\nsentence = 0,720,900,0.0200,0.0050\n"
                        "status = green\ntrace = missing.trace\n")
    assert main(["validate", str(scenario)]) == EXIT_VALIDATION
    assert f"{scenario}:1:" in capsys.readouterr().err


def test_run_writes_logs_and_summary(scenarios_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(scenarios_dir / "alcohol_gap.scenario"),
                 "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "entity PID-7: cycles=1 absent=1" in stdout
    assert "notifications: 1" in stdout
    assert "first violation: t=720" in stdout
    records = (out / "records.log").read_text().splitlines()
    notes = (out / "notifications.log").read_text().splitlines()
    assert len(records) == 1 and len(notes) == 1
    assert records[0].startswith("720|PID-7|bac-band|absent|")


def test_run_summary_counts_match_log_lines(scenarios_dir, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", str(scenarios_dir / "curfew.scenario"), "--out", str(out)])
    stdout = capsys.readouterr().out
    records = (out / "records.log").read_text().splitlines()
    notes = (out / "notifications.log").read_text().splitlines()
    assert f"cycles={len(records)}" in stdout
    assert f"notifications: {len(notes)}" in stdout
    assert len(records) == 7 and len(notes) == 2


def test_rerun_is_byte_identical(scenarios_dir, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["run", str(scenarios_dir / "alcohol_spike.scenario"),
                     "--out", str(out)]) == EXIT_OK
    for name in ("records.log", "notifications.log"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_over_previous_logs_leaves_only_the_logs(scenarios_dir, tmp_path):
    # the previous logs are kept under backup names until both moves are
    # done; a finished run leaves no backup or temporary file behind
    out = tmp_path / "out"
    out.mkdir()
    for name in ("records.log", "notifications.log"):
        (out / name).write_text("old\n")
    assert main(["run", str(scenarios_dir / "alcohol_spike.scenario"),
                 "--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [
        "notifications.log", "records.log"]
    assert (out / "records.log").read_text().startswith("720|PID-7|")


MIXED_TEXT = """\
[entity PID-1]
sentence = 0,720,30,0.0200,0.0050
trace = alcohol_dry.trace

[entity PID-2]
sentence = 0,720,30,0.0200,0.0050
trace = alcohol_spike.trace

[entity PID-9]
curfew = 19:00,07:00
nights = 7
trace = curfew_presence.trace
"""


def test_run_loads_and_builds_each_entity_once(scenarios_dir, tmp_path,
                                               monkeypatch, capsys):
    calls = []

    def count(name):
        original = getattr(tagmon.scenario_file, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(tagmon.scenario_file, name, counted)

    for name in ("load_trace", "build_alcohol_scenario",
                 "build_extended_scenario", "build_curfew_scenario"):
        count(name)
    for trace in ("alcohol_dry", "alcohol_spike", "curfew_presence"):
        shutil.copy(scenarios_dir / "traces" / f"{trace}.trace", tmp_path)
    scenario = tmp_path / "mixed.scenario"
    scenario.write_text(MIXED_TEXT)
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == EXIT_OK
    assert sorted(calls) == ["build_alcohol_scenario"] * 2 + [
        "build_curfew_scenario"] + ["load_trace"] * 3
    assert len((out / "records.log").read_text().splitlines()) == 1 + 1 + 7


def test_run_rejects_invalid_scenario(tmp_path, capsys):
    scenario = tmp_path / "bad.scenario"
    scenario.write_text("[entity A]\nstatus = green\ntrace = x.trace\n")
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_missing_scenario_is_reported_alike(tmp_path, capsys, command):
    scenario = tmp_path / "nope.scenario"
    out = tmp_path / "out"
    argv = [command, str(scenario)] + (["--out", str(out)]
                                       if command == "run" else [])
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"{scenario}: No such file or directory\n"
    assert not out.exists()


# a fault on one line of a scenario or of the trace of its entity A:
# name -> (trace line, edit of that line, fault as printed after the scenario)
LINE_FAULTS = {
    "scenario": (None, None, "3: non-ASCII byte 0xc3"),
    "trace": (4, lambda line: line + b"\xe9",
              "1: entity A: dry.trace:4: non-ASCII byte 0xe9"),
    "tick": (4, lambda line: b"x" + line,
             "1: entity A: dry.trace:4: non-integer tick 'x2'"),
    "header": (1, lambda line: b"trace b decimal 0",
               "1: entity A: dry.trace:1: bad header, expected "
               "'trace <id> <kind> <start> <horizon>'"),
    "bound": (1, lambda line: b"trace b decimal 00 721",
              "1: entity A: dry.trace:1: window bound '00' must be written "
              "'0'"),
    "count": (1, lambda line: b"trace b decimal 0 722",
              "1: entity A: dry.trace:1: expected 722 value lines, got 721"),
    "order": (4, lambda line: b"3,0.0070",
              "1: entity A: dry.trace:4: tick 3 out of order (expected 2)"),
    "reading": (4, lambda line: b"2,0.007",
                "1: entity A: dry.trace:4: decimal '0.007' must have "
                "exactly 4 fractional digits"),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("bad_file", LINE_FAULTS)
def test_a_fault_is_reported_on_its_line(scenarios_dir, tmp_path, capsys,
                                         command, bad_file):
    """Both commands print a fault in a scenario on its line, and a fault in
    a trace on its entity's line with the trace's own line."""
    at, edit, fault = LINE_FAULTS[bad_file]
    lines = (scenarios_dir / "traces" / "alcohol_dry.trace").read_bytes(
        ).split(b"\n")
    comment = b"# ok\n"
    if at is None:
        comment = b"# caf\xc3\xa9\n"  # line 3 of the scenario
    else:
        lines[at - 1] = edit(lines[at - 1])
    (tmp_path / "dry.trace").write_bytes(b"\n".join(lines))
    scenario = tmp_path / "bad.scenario"
    scenario.write_bytes(b"[entity A]\nsentence = 0,720,30,0.0200,0.0050\n"
                         + comment + b"trace = dry.trace\n")
    out = tmp_path / "out"
    assert main(_argv(command, scenario, out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"{scenario}:{fault}\n"
    assert not out.exists()


def _argv(command, scenario, out):
    return [command, str(scenario)] + (["--out", str(out)]
                                       if command == "run" else [])


@pytest.mark.parametrize("command", ["validate", "run"])
def test_over_long_trace_path_is_a_diagnostic(tmp_path, capsys, command):
    trace = "t" * 5000
    scenario = tmp_path / "long.scenario"
    scenario.write_text("[entity A]\nsentence = 0,720,30,0.0200,0.0050\n"
                        f"trace = {trace}\n")
    out = tmp_path / "out"
    assert main(_argv(command, scenario, out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"{scenario}:1: entity A: cannot read trace {trace}: "
        "File name too long\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("kind, reading, fault", [
    ("decimal", "9" * 5000 + ".0000", "not a fixed-point decimal"),
    ("integer", "9" * 5000, "not an integer"),
], ids=["decimal", "integer"])
def test_a_reading_past_the_digit_limit_is_a_diagnostic(
        tmp_path, capsys, command, kind, reading, fault):
    filler = {"decimal": "0.0100", "integer": "6"}[kind]
    (tmp_path / "long.trace").write_text(
        _trace(kind, filler, 2500, f"2498,{reading}"))
    scenario = tmp_path / "long.scenario"
    scenario.write_text(_sentence("long.trace"))
    out = tmp_path / "out"
    assert main(_argv(command, scenario, out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"{scenario}:1: entity A: long.trace:2500: {fault}: {reading!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("lowered", [False, True])
@pytest.mark.parametrize("entity, fault", [
    ("curfew = 19:00,07:00\nnights = {}\ntrace = curfew_presence.trace\n",
     "presence window [0, 10501) does not cover nights [1140, a tick past "
     "int's digit limit]"),
    ("sentence = 0,720,30,0.0200,0.0050\ntrace = alcohol_dry.trace\n"
     "[schedule]\nuploads = 07:00\ndays = {}\n",
     "under [schedule] the sentence must span 0 to the last upload, which "
     "days puts past int's digit limit, got 0,720"),
], ids=["nights", "days"])
def test_nights_or_days_past_the_digit_limit_is_a_diagnostic(
        scenarios_dir, tmp_path, capsys, request, command, lowered, entity,
        fault):
    """Nights or days that ``int`` reads, whose last cycle's tick has more
    digits than ``str`` writes, are refused on the entity's line, under the
    default limit and the least one."""
    limit = (request.getfixturevalue("digit_limit") if lowered
             else sys.get_int_max_str_digits())
    for name in ("curfew_presence.trace", "alcohol_dry.trace"):
        shutil.copy(scenarios_dir / "traces" / name, tmp_path)
    scenario = tmp_path / "huge.scenario"
    scenario.write_text("[entity A]\n" + entity.format("9" * (limit - 1)))
    out = tmp_path / "out"
    assert main(_argv(command, scenario, out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"{scenario}:1: entity A: {fault}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_unreadable_trace_is_a_diagnostic(scenarios_dir, tmp_path, capsys,
                                          monkeypatch, command):
    # root reads a mode-000 file, so the refusal is injected instead
    def refuse(path, error):
        raise PermissionError(errno.EACCES, "Permission denied", str(path))

    monkeypatch.setattr(tagmon.streams, "read_ascii", refuse)
    shutil.copy(scenarios_dir / "traces" / "alcohol_dry.trace", tmp_path)
    scenario = tmp_path / "locked.scenario"
    scenario.write_text("[entity A]\nsentence = 0,720,30,0.0200,0.0050\n"
                        "trace = alcohol_dry.trace\n")
    out = tmp_path / "out"
    assert main(_argv(command, scenario, out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"{scenario}:1: entity A: cannot read trace alcohol_dry.trace: "
        "Permission denied\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_nights_on_a_sentence_entity_is_a_diagnostic(scenarios_dir, tmp_path,
                                                     capsys, command):
    shutil.copy(scenarios_dir / "traces" / "alcohol_dry.trace", tmp_path)
    scenario = tmp_path / "nights.scenario"
    scenario.write_text("# a sentence has no nights\n[entity A]\n"
                        "sentence = 0,720,30,0.0200,0.0050\nnights = 7\n"
                        "trace = alcohol_dry.trace\n")
    out = tmp_path / "out"
    assert main(_argv(command, scenario, out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"{scenario}:2: entity A: nights applies to curfew entities only\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("second, message", [
    ("[policy]\nrule = b: on red set status\n",
     "6: duplicate [policy] section"),
    ("rule = a: on amber set status\n", "6: rule a: duplicate rule name"),
])
def test_a_rule_is_named_once_in_one_policy(scenarios_dir, tmp_path, capsys,
                                            command, second, message):
    shutil.copy(scenarios_dir / "traces" / "alcohol_spike.trace", tmp_path)
    scenario = tmp_path / "twice.scenario"
    scenario.write_text("[entity A]\nsentence = 0,720,30,0.0200,0.0050\n"
                        "trace = alcohol_spike.trace\n[policy]\n"
                        "rule = a: on red set status\n" + second)
    out = tmp_path / "out"
    assert main(_argv(command, scenario, out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"{scenario}:{message}\n"
    assert not out.exists()


# One scenario per way a [schedule] section can stand: absent, invalid and
# valid.  A sentence's span is checked only against a valid schedule, and an
# invalid one is each sentence entity's fault, so no single file can raise
# both.  Between them the files raise every per-entity diagnostic, the
# diagnostics of the whole schedule and those of the rules.
LONG_TRACE = "t" * 5000
DIAGNOSTIC_SCENARIOS = {
    "plain": f"""\
[entity A]
sentence = 0,720,30,0.0200,0.0050
curfew = 19:00,07:00
trace = dry.trace

[entity B]
sentence = 0,720,30,0.0200,0.0050
status = compliant
nights = 7

[entity C]
curfew = 19:00,07:00
status = green

[entity D]
sentence = 0,720,30,0.0050,0.0200
trace = dry.trace

[entity E]
sentence = 0,720,30,0.0200,0.0050
trace = nope.trace

[entity F]
sentence = 0,720,30,0.0200,0.0050
trace = {LONG_TRACE}

[entity G]
sentence = 0,2,1,0.0200,0.0050
trace = bad.trace

[entity H]
curfew = 19:00,07:00
nights = 1
trace = dry.trace

[entity I]
sentence = 0,2820,30,0.0200,0.0050
trace = dry.trace

[entity J]
curfew = 07:00,19:00
nights = 1
trace = presence.trace

[entity K]
curfew = 19:00,07:00
nights = 30
status = violation
trace = presence.trace

[entity L]
sentence = 0,720,30,0.0200,0.0050
status = purple
trace = dry.trace

[policy]
rule = r: on red,purple set status
rule = r: on violation set nights
""",
    "bad-schedule": """\
[entity A]
sentence = 0,2820,60,0.0200,0.0050
status = red
trace = dry.trace

[entity B]
curfew = 19:00,07:00
nights = 1
trace = presence.trace

[entity C]
sentence = 0,2820,60,0.0200,0.0050
trace = presence.trace

[schedule]
uploads = 23:00,07:00
days = 2
""",
    "schedule": """\
[entity A]
sentence = 0,900,60,0.0200,0.0050
trace = dry.trace

[entity B]
sentence = 0,2820,60,0.0200,0.0050
nights = 2
trace = dry.trace

[entity C]
sentence = 0,2820,0,0.0200,0.0050
trace = dry.trace

[entity D]
curfew = 19:00,07:00
nights = 1
trace = presence.trace

[schedule]
uploads = 07:00,23:00
days = 2
""",
}
GOLDEN_DIAGNOSTICS = {
    "plain": [
        "1: entity A: needs exactly one of sentence/curfew",
        "6: entity B: status 'compliant' not in ('green', 'amber', 'red', "
        "'absent')",
        "6: entity B: nights applies to curfew entities only",
        "6: entity B: missing trace",
        "11: entity C: status 'green' not in ('compliant', 'violation', "
        "'absent-signal')",
        "11: entity C: curfew needs nights",
        "15: entity D: need 0 < delta < epsilon, got delta=0.0200, "
        "epsilon=0.0050",
        "19: entity E: trace file not found: nope.trace",
        f"23: entity F: cannot read trace {LONG_TRACE}: File name too long",
        "27: entity G: bad.trace:3: decimal '0.010' must have exactly 4 "
        "fractional digits",
        "31: entity H: trace kind 'decimal', expected 'boolean'",
        "36: entity I: trace window [0, 721) does not cover [0, 2820]",
        "40: entity J: curfew window must wrap midnight once, got 420..1140",
        "45: entity K: presence window [0, 10501) does not cover nights "
        "[1140, 43619]",
        "51: entity L: status 'purple' not in ('green', 'amber', 'red', "
        "'absent')",
        "57: rule r: labels ['purple'] match no entity's judgements",
        "58: rule r: duplicate rule name",
        "58: rule r: no settable field 'nights' in the entity schemas",
    ],
    "bad-schedule": [
        "1: entity A: upload times must be strictly increasing: (1380, 420)",
        "6: entity B: [schedule] applies to sentence entities only",
        "11: entity C: trace kind 'boolean', expected 'decimal'",
        "15: upload times must be strictly increasing: (1380, 420)",
    ],
    "schedule": [
        "1: entity A: under [schedule] the sentence must span 0,2820 (t=0 to "
        "the last upload), got 0,900",
        "5: entity B: nights applies to curfew entities only",
        "5: entity B: trace window [0, 721) does not cover [0, 2820]",
        "10: entity C: sample interval must be positive: 0",
        "14: entity D: [schedule] applies to sentence entities only",
    ],
}


def test_validate_diagnostics_golden(scenarios_dir, tmp_path, capsys):
    # pins the wording, line and order of every diagnostic
    traces = scenarios_dir / "traces"
    shutil.copy(traces / "alcohol_dry.trace", tmp_path / "dry.trace")
    shutil.copy(traces / "curfew_presence.trace", tmp_path / "presence.trace")
    (tmp_path / "bad.trace").write_text(
        "trace b decimal 0 3\n0,0.0100\n1,0.010\n2,0.0100\n")
    for name, text in DIAGNOSTIC_SCENARIOS.items():
        scenario = tmp_path / f"{name}.scenario"
        scenario.write_text(text)
        assert main(["validate", str(scenario)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "".join(
            f"{scenario}:{line}\n" for line in GOLDEN_DIAGNOSTICS[name])


def test_validate_reads_no_trace_of_a_curfew_entity_under_schedule(
        scenarios_dir, tmp_path, monkeypatch, capsys):
    # in the "schedule" scenario A fails before its trace is read and D is
    # the curfew entity the [schedule] diagnostic rejects, so only B and C
    # read theirs
    traces = scenarios_dir / "traces"
    shutil.copy(traces / "alcohol_dry.trace", tmp_path / "dry.trace")
    shutil.copy(traces / "curfew_presence.trace", tmp_path / "presence.trace")
    read = []

    def counted(path):
        read.append(pathlib.Path(path).name)
        return load_trace(path)
    monkeypatch.setattr(tagmon.scenario_file, "load_trace", counted)
    scenario = tmp_path / "schedule.scenario"
    scenario.write_text(DIAGNOSTIC_SCENARIOS["schedule"])
    assert main(["validate", str(scenario)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "".join(
        f"{scenario}:{line}\n" for line in GOLDEN_DIAGNOSTICS["schedule"])
    assert read == ["dry.trace", "dry.trace"]


@pytest.mark.parametrize("command", ["validate", "run"])
def test_diagnostics_come_in_file_order(tmp_path, capsys, command):
    # the [policy] section comes first, so its rule's fault does too, and a
    # fault in a trace is printed on its entity's line
    (tmp_path / "refused.trace").write_text(
        "trace b decimal 0 3\n0,0.0100\n1,0.010\n2,0.0100\n")
    scenario = tmp_path / "first.scenario"
    scenario.write_text("""\
[policy]
rule = r: on purple set status

[entity A]
sentence = 0,2820,60,0.0200,0.0050
status = green
# no trace

[schedule]
uploads = 23:00,07:00
days = 2

[entity B]
curfew = 19:00,07:00
nights = 1
trace = presence.trace

[entity C]
sentence = 0,2820,60,0.0200,0.0050
trace = refused.trace
""")
    out = tmp_path / "out"
    assert main(_argv(command, scenario, out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == "".join(
        f"{scenario}:{line}\n" for line in [
            "2: rule r: labels ['purple'] match no entity's judgements",
            "4: entity A: missing trace",
            "9: upload times must be strictly increasing: (1380, 420)",
            "13: entity B: [schedule] applies to sentence entities only",
            "18: entity C: refused.trace:3: decimal '0.010' must have exactly "
            "4 fractional digits"])
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_scenario_wide_fault_has_no_line(tmp_path, capsys, command):
    scenario = tmp_path / "empty.scenario"
    scenario.write_text("")
    out = tmp_path / "out"
    assert main(_argv(command, scenario, out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"{scenario}: no entities declared\n"
    assert not out.exists()


def test_cycle_error_names_its_tick(scenarios_dir, tmp_path, monkeypatch,
                                    capsys):
    # PID-9's observation fails on night 3 only; the run goes on, writes the
    # other six nights' records and exits 2
    monitor = tagmon.interventions.monitor

    def fails_on_night_3(entity, chi, family, stream, now, params):
        if now == 4740:
            raise OutOfWindow("tick 4740 outside the window")
        return monitor(entity, chi, family, stream, now, params)
    monkeypatch.setattr(tagmon.interventions, "monitor", fails_on_night_3)
    out = tmp_path / "out"
    assert main(["run", str(scenarios_dir / "curfew.scenario"),
                 "--out", str(out)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        "cycle error for PID-9 at t=4740: tick 4740 outside the window\n")
    assert [line.split("|")[0] for line in
            (out / "records.log").read_text().splitlines()] == [
        "1860", "3300", "6180", "7620", "9060", "10500"]


def test_run_into_a_file_is_a_runtime_failure(scenarios_dir, tmp_path,
                                              capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["run", str(scenarios_dir / "alcohol_dry.scenario"),
                 "--out", str(out)]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err == f"run failed: {out}: File exists\n"
    assert captured.out == ""
    assert out.read_text() == "not a directory\n"


def test_failed_log_write_keeps_the_previous_logs(scenarios_dir, tmp_path,
                                                  capsys, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    previous = {"records.log": "old records\n",
                "notifications.log": "old notifications\n"}
    for name, text in previous.items():
        (out / name).write_text(text)
    original = pathlib.Path.write_text
    writes = []

    def second_write_fails(self, data, *args, **kwargs):
        writes.append(self.name)
        if len(writes) < 2:
            return original(self, data, *args, **kwargs)
        original(self, data[:10], *args, **kwargs)  # a partial file
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(pathlib.Path, "write_text", second_write_fails)
    assert main(["run", str(scenarios_dir / "alcohol_spike.scenario"),
                 "--out", str(out)]) == EXIT_RUNTIME
    monkeypatch.undo()
    assert len(writes) == 2
    assert capsys.readouterr().err == \
        f"run failed: {out}: No space left on device\n"
    assert {p.name: p.read_text() for p in out.iterdir()} == previous


@pytest.mark.parametrize("previous", [False, True])
@pytest.mark.parametrize("taken", ["records.log", "notifications.log"])
def test_failed_log_move_keeps_the_previous_logs(scenarios_dir, tmp_path,
                                                 capsys, taken, previous):
    # a directory in one log's place fails that log's move; records.log is
    # moved first, so with notifications.log taken it must be put back, or
    # removed if there was no records.log before
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    (out / taken / "inside").write_text("kept\n")
    if previous:
        for name in {"records.log", "notifications.log"} - {taken}:
            (out / name).write_text(f"old {name}\n")

    def files():
        return {str(p.relative_to(out)): p.is_file() and p.read_bytes()
                for p in out.rglob("*")}
    before = files()
    assert main(["run", str(scenarios_dir / "alcohol_spike.scenario"),
                 "--out", str(out)]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err == f"run failed: {out}: Is a directory\n"
    assert captured.out == ""
    assert files() == before


# -- trace generation -----------------------------------------------------------

def test_gen_dry_is_seeded_and_below_green_threshold(tmp_path):
    a = gen_trace(720, 42)
    b = gen_trace(720, 42)
    assert a == b
    assert gen_trace(720, 43) != a
    ceiling = Dec4.parse("0.0150")
    assert all(v < ceiling for v in a.values)
    assert a.window.length == 721


@pytest.mark.parametrize("seed", [0, 42])
def test_gen_trace_draws_one_reading_per_tick_below_the_ceiling(seed):
    # written out here rather than read from gen_trace: one draw below
    # epsilon - delta (0.0150, 150 raw units) per tick, then the spike set
    # or the NA run put in place
    rng = random.Random(seed)
    dry = [Dec4(rng.randrange(0, 150)) for _ in range(721)]
    spike = Dec4.parse("0.0300")
    cases = [
        ({}, dry),
        ({"spike": (600, spike)}, dry[:600] + [spike] + dry[601:]),
        ({"spike": (0, spike)}, [spike] + dry[1:]),
        ({"spike": (720, spike)}, dry[:720] + [spike]),
        ({"gap": (60, 120)}, dry[:60] + [BOTTOM] * 61 + dry[121:]),
        ({"gap": (720, 720)}, dry[:720] + [BOTTOM]),
        ({"gap": (0, 720)}, [BOTTOM] * 721),
    ]
    for options, values in cases:
        stream = gen_trace(720, seed, **options)
        assert (stream.window.start, stream.window.length) == (0, 721)
        assert stream.values == tuple(values), options


@pytest.mark.parametrize("minutes, seed, options, message", [
    (0, 0, {}, "minutes must be positive, got 0"),
    (MAX_MINUTES + 1, 0, {}, "minutes must be at most 1440000, got 1440001"),
    (720, -1, {}, "seed must be a 64-bit unsigned integer: -1"),
    (720, 2 ** 64, {},
     "seed must be a 64-bit unsigned integer: 18446744073709551616"),
    (720, 0, {"spike": (721, Dec4(300))}, "spike-at 721 outside [0, 720]"),
    (720, 0, {"spike": (-1, Dec4(300))}, "spike-at -1 outside [0, 720]"),
    (720, 0, {"spike": (600, Dec4(-1))}, "negative spike value -0.0001"),
    (720, 0, {"gap": (500, 100)}, "gap [500, 100] outside [0, 720]"),
    (720, 0, {"gap": (-1, 100)}, "gap [-1, 100] outside [0, 720]"),
    (720, 0, {"gap": (700, 721)}, "gap [700, 721] outside [0, 720]"),
    (MAX_MINUTES, 0, {"gap": (5, 2)}, "gap [5, 2] outside [0, 1440000]"),
    # minutes, then the seed, then the spike's tick, then its sign
    (0, -1, {"spike": (900, Dec4(-1))}, "minutes must be positive, got 0"),
    (720, -1, {"gap": (5, 2)}, "seed must be a 64-bit unsigned integer: -1"),
    (720, 0, {"spike": (900, Dec4(-1))}, "spike-at 900 outside [0, 720]"),
])
def test_gen_trace_draws_nothing_it_refuses(monkeypatch, minutes, seed,
                                            options, message):
    def refuse(seed):
        raise AssertionError("readings drawn for a refused trace")

    monkeypatch.setattr(tagmon.cli.random, "Random", refuse)
    with pytest.raises(BadParams) as err:
        gen_trace(minutes, seed, **options)
    assert str(err.value) == message


def test_gen_trace_cli_files_identical(tmp_path, capsys):
    p1, p2 = tmp_path / "a.trace", tmp_path / "b.trace"
    for p in (p1, p2):
        assert main(["gen-trace", "--kind", "dry", "--minutes", "720",
                     "--seed", "42", "--out", str(p)]) == EXIT_OK
    assert p1.read_bytes() == p2.read_bytes()
    _, kind, stream = load_trace(p1)
    assert kind == "decimal" and stream.window.length == 721


def test_gen_spike_has_exactly_one_hot_sample():
    spike = gen_trace(720, 42, spike=(600, Dec4.parse("0.0300")))
    threshold = Dec4.parse("0.0250")
    hot = [t for t in range(0, 721, 30) if spike.at(t) >= threshold]
    assert hot == [600]


def test_gen_gap_covers_exact_range(tmp_path, capsys):
    path = tmp_path / "gap.trace"
    assert main(["gen-trace", "--kind", "gap", "--minutes", "720",
                 "--seed", "42", "--gap", "60", "120",
                 "--out", str(path)]) == EXIT_OK
    na_lines = [line.split(",")[0] for line
                in path.read_text().splitlines()[1:]
                if line.endswith(",NA")]
    assert na_lines == [str(t) for t in range(60, 121)]


def test_gen_trace_bad_params(tmp_path, capsys):
    code = main(["gen-trace", "--kind", "spike", "--minutes", "720",
                 "--out", str(tmp_path / "x.trace")])
    assert code == EXIT_VALIDATION
    assert "spike needs" in capsys.readouterr().err
    # a spike value is ASCII digits with an optional "-", as in a file,
    # with no space around it
    for value in ("+0.0300", "\u0660.\u0663", "0.0100 ", "9" * 5000 + ".0"):
        assert main(["gen-trace", "--kind", "spike", "--minutes", "100",
                     "--spike-at", "0", "--spike-value", value,
                     "--out", str(tmp_path / "x.trace")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"gen-trace failed: not a fixed-point decimal: {value!r}\n")
    assert not (tmp_path / "x.trace").exists()


@pytest.mark.parametrize("args, stray", [
    (["--kind", "dry", "--spike-at", "3"], "--spike-at needs --kind spike"),
    (["--kind", "gap", "--gap", "0", "1", "--spike-value", "0.0300"],
     "--spike-value needs --kind spike"),
    (["--kind", "spike", "--spike-at", "0", "--spike-value", "0.0300",
      "--gap", "1", "2"], "--gap needs --kind gap"),
])
def test_gen_trace_refuses_an_option_of_another_kind(tmp_path, capsys, args,
                                                     stray):
    """An option that the kind does not use is a fault, not ignored."""
    out = tmp_path / "x.trace"
    assert main(["gen-trace", "--minutes", "5", "--out", str(out)]
                + args) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"gen-trace failed: {stray}\n"
    assert not out.exists()


@pytest.mark.parametrize("option, time, args", [
    ("--spike-at", "25:00", ["--kind", "spike", "--spike-at", "25:00",
                             "--spike-value", "0.0500"]),
    # a clock time is read as written, with no space around it
    ("--spike-at", " 00:03", ["--kind", "spike", "--spike-at", " 00:03",
                              "--spike-value", "0.0500"]),
    ("--gap", "25:00", ["--kind", "gap", "--gap", "25:00", "26:00"]),
])
def test_gen_trace_bad_clock_time_is_a_usage_error(tmp_path, capsys, option,
                                                   time, args):
    out = tmp_path / "x.trace"
    with pytest.raises(SystemExit) as exc:
        main(["gen-trace", "--minutes", "100", "--out", str(out)] + args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: bad clock time {time!r}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("option, value, name", [
    ("--minutes", "\u0661_\u0660", "integer"),
    ("--minutes", "1_0", "integer"),
    ("--minutes", "+10", "integer"),
    ("--minutes", " 10", "integer"),
    ("--seed", "+1", "integer"),
    ("--seed", "4_2", "integer"),
    ("--spike-at", "0_5", "tick"),
    ("--spike-at", "+5", "tick"),
    ("--spike-at", "\u0665", "tick"),
])
def test_gen_trace_integers_are_read_as_files_write_them(tmp_path, capsys,
                                                         option, value, name):
    """An integer option that is not an optional "-" and ASCII digits is a
    usage error, as a bad clock time is."""
    out = tmp_path / "x.trace"
    args = {"--minutes": "100", "--seed": "1", "--spike-at": "5"}
    args[option] = value
    with pytest.raises(SystemExit) as exc:
        main(["gen-trace", "--kind", "spike", "--spike-value", "0.0500",
              "--out", str(out)] + [a for pair in args.items() for a in pair])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: invalid {name} value: {value!r}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_gen_trace_into_a_missing_directory_is_a_runtime_failure(tmp_path,
                                                                   capsys):
    out = tmp_path / "missing" / "x.trace"
    assert main(["gen-trace", "--kind", "dry", "--minutes", "10",
                 "--out", str(out)]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err == (
        f"gen-trace failed: {out}: No such file or directory\n")
    assert captured.out == ""
    assert not out.parent.exists()


@pytest.mark.parametrize("kind", ["dry", "spike", "gap"])
def test_gen_trace_rejects_too_many_minutes(tmp_path, capsys, monkeypatch,
                                            kind):
    # the bound is checked before any reading is drawn
    def refuse(seed):
        raise AssertionError("readings drawn for an over-long trace")

    monkeypatch.setattr(tagmon.cli.random, "Random", refuse)
    out = tmp_path / "x.trace"
    extra = {"dry": [], "spike": ["--spike-at", "0", "--spike-value", "0.0300"],
             "gap": ["--gap", "0", "1"]}[kind]
    assert main(["gen-trace", "--kind", kind, "--minutes", "100000000000",
                 "--out", str(out)] + extra) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "gen-trace failed: minutes must be at most 1440000, "
        "got 100000000000\n")
    assert not out.exists()


def _result(records, notification_times):
    """What ``run_summary`` reads of a run: each record's entity and
    judgement, and when each notification was made."""
    return SimpleNamespace(
        records=[SimpleNamespace(entity=e, judgement=j) for e, j in records],
        notifications=[SimpleNamespace(evaluated_at=t)
                       for t in notification_times])


def test_run_summary_of_a_run_with_notifications():
    result = _result([("B", "green"), ("A", "red"), ("A", "green")],
                     [900, 420])
    assert run_summary(result, EXIT_OK) == (
        "entity A: cycles=2 green=1 red=1\n"
        "entity B: cycles=1 green=1\n"
        "notifications: 2\n"
        "first violation: t=420\n"
        "exit status: 0")


def test_run_summary_of_a_run_without_notifications():
    result = _result([("A", "green")], [])
    assert run_summary(result, EXIT_RUNTIME) == (
        "entity A: cycles=1 green=1\n"
        "notifications: 0\n"
        "first violation: none\n"
        "exit status: 2")


# -- scheduled uploads through the command line -------------------------------

SCHEDULED_TEXT = """\
[entity PID-3]
sentence = 0,2820,60,0.0200,0.0050
status = green
trace = gap.trace

[schedule]
uploads = 07:00,15:00,23:00
days = 2

[policy]
rule = record-breach: on amber,red,absent set status
"""

SCHEDULED_RECORDS = """\
420|PID-3|bac-band|green|s=60;epsilon=0.0200;delta=0.0050;days=2;status=green
900|PID-3|bac-band|green|s=60;epsilon=0.0200;delta=0.0050;days=2;status=green
1380|PID-3|bac-band|green|s=60;epsilon=0.0200;delta=0.0050;days=2;status=green
1860|PID-3|bac-band|absent|s=60;epsilon=0.0200;delta=0.0050;days=2;\
status=green
2340|PID-3|bac-band|green|s=60;epsilon=0.0200;delta=0.0050;days=2;\
status=absent
2820|PID-3|bac-band|green|s=60;epsilon=0.0200;delta=0.0050;days=2;\
status=absent
"""

SCHEDULED_NOTIFICATIONS = \
    "1860|PID-3|record-breach|absent|status=green->absent\n"


def test_run_scheduled_scenario_golden_logs(tmp_path, capsys):
    # the gap [1500, 1560] lies inside the upload window [1380, 1860] only
    assert main(["gen-trace", "--kind", "gap", "--minutes", "2820",
                 "--seed", "7", "--gap", "1500", "1560",
                 "--out", str(tmp_path / "gap.trace")]) == EXIT_OK
    scenario = tmp_path / "sched.scenario"
    scenario.write_text(SCHEDULED_TEXT)
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == EXIT_OK
    assert (out / "records.log").read_bytes() == \
        SCHEDULED_RECORDS.encode("ascii")
    assert (out / "notifications.log").read_bytes() == \
        SCHEDULED_NOTIFICATIONS.encode("ascii")


HASH_SEED_TEXT = """\
[entity PID-7]
sentence = 0,720,30,0.0200,0.0050
status = green
trace = {traces}/alcohol_spike.trace

[entity PID-9]
curfew = 19:00,07:00
nights = 7
status = compliant
trace = {traces}/curfew_presence.trace

[policy]
rule = breach: on amber,red,absent,violation,absent-signal set status
"""


def _child(argv, **env):
    """``python -m tagmon`` with ``argv`` in a child process that imports
    tagmon from this checkout, stopped after 10 s."""
    path = os.pathsep.join(filter(None, (str(SCENARIOS.parent / "src"),
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "tagmon", *map(str, argv)], capture_output=True,
        env=dict(os.environ, PYTHONPATH=path, **env), timeout=10)


def test_logs_do_not_depend_on_the_hash_seed(scenarios_dir, tmp_path):
    # a set or dict ordered by string hashes would reorder lines between
    # processes; the benchmark fixes one seed, so it would not notice
    scenario = tmp_path / "mixed.scenario"
    scenario.write_text(HASH_SEED_TEXT.format(traces=scenarios_dir / "traces"))
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        done = _child(["run", scenario, "--out", out], PYTHONHASHSEED=seed)
        assert done.returncode == EXIT_OK, done.stderr
        outputs.append((done.stdout, done.stderr,
                        (out / "records.log").read_bytes(),
                        (out / "notifications.log").read_bytes()))
    assert outputs[0] == outputs[1]
    assert b"PID-7" in outputs[0][2] and b"PID-9" in outputs[0][3]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("fifo", ["scenario", "trace"])
def test_a_fifo_is_never_opened(tmp_path, command, fifo):
    # opening a FIFO blocks until a writer opens it too, so a command that
    # opened one would never end
    os.mkfifo(tmp_path / f"fifo.{fifo}")
    scenario = tmp_path / "fifo.scenario"
    fault = str(scenario)
    if fifo == "trace":
        scenario = tmp_path / "a.scenario"
        scenario.write_text(_sentence("fifo.trace"))
        fault = f"{scenario}:1: entity A: cannot read trace fifo.trace"
    out = tmp_path / "out"
    done = _child(_argv(command, scenario, out))
    assert (done.returncode, done.stdout.decode(), done.stderr.decode()) == (
        EXIT_VALIDATION, "", f"{fault}: not a regular file\n")
    assert not out.exists()


# -- command lines with their files and exact output --------------------------

class Case(NamedTuple):
    """A command line, run in a directory that holds ``files``, and what it
    must give.  ``files`` maps a relative path to its text, to a file to
    copy, or to a tuple of ``gen-trace`` arguments whose trace is copied;
    ``after`` maps a relative path to its exact text after the command, or
    to None when nothing may be there."""

    files: dict
    argv: str
    code: int = EXIT_OK
    out: str = ""
    err: str = ""
    after: dict = {}


def _traces(*names, at="traces/"):
    """Shipped traces, copied to the directory ``at``."""
    return {f"{at}{name}.trace": SCENARIOS / "traces" / f"{name}.trace"
            for name in names}


def _shipped(name, *traces):
    """A shipped scenario and the shipped traces it names."""
    return {f"{name}.scenario": SCENARIOS / f"{name}.scenario",
            **_traces(*traces)}


def _summary(*entities, notifications=0, first="none"):
    """What ``run`` prints after a run that exits 0."""
    return "".join(f"entity {e}\n" for e in entities) + (
        f"notifications: {notifications}\nfirst violation: {first}\n"
        "exit status: 0\n")


def _sentence(trace):
    """A scenario of one sentence entity A, judged on ``trace``."""
    return f"[entity A]\nsentence = 0,720,30,0.0200,0.0050\ntrace = {trace}\n"


def _trace(kind, reading, line, text, ticks=3000):
    """A trace of ``reading`` at ticks 0 to ``ticks - 1`` whose ``line``
    (the header is line 1) is ``text``."""
    lines = [f"trace b {kind} 0 {ticks}"] + [
        f"{t},{reading}" for t in range(ticks)]
    lines[line - 1] = text
    return "\n".join(lines) + "\n"


def _crlf(trace):
    """A shipped trace with each line ended by "\\r\\n"."""
    return (SCENARIOS / "traces" / trace).read_text().replace("\n", "\r\n")


# the 100-day traces of extended_dry.scenario, dry and with a spike at 10:00
# on day 1, which makes the upload at 15:00 (t=900) red
EXTENDED_DRY = ("--kind", "dry", "--minutes", "143940", "--seed", "42")
EXTENDED_SPIKE = ("--kind", "spike", "--minutes", "143940", "--seed", "42",
                  "--spike-at", "10:00", "--spike-value", "0.0300")
CURFEW_RECORDS = "".join(
    f"{tick}|PID-9|curfew-presence|{judgement}|curfew_start=1140;"
    f"curfew_end=420;nights=7;status={status}\n"
    for tick, judgement, status in [
        (1860, "compliant", "compliant"), (3300, "compliant", "compliant"),
        (4740, "violation", "compliant"), (6180, "compliant", "violation"),
        (7620, "absent-signal", "violation"),
        (9060, "compliant", "absent-signal"),
        (10500, "compliant", "absent-signal")])
# one rule over the labels of both kinds, on the shipped traces
BREACH_TEXT = """\
[entity PID-7]
sentence = 0,720,30,0.0200,0.0050
trace = alcohol_spike.trace
[entity PID-9]
curfew = 19:00,07:00
nights = 7
trace = curfew_presence.trace
[policy]
rule = breach: on red,violation,absent-signal set status
"""
BREACH_LOGS = {
    "out/records.log": "720|PID-7|bac-band|red|sentence=(t1=0,t2=720,s=30,"
                       "epsilon=0.0200,delta=0.0050);status=green\n"
                       + CURFEW_RECORDS,
    "out/notifications.log": "720|PID-7|breach|red|status=green->red\n"
    "4740|PID-9|breach|violation|status=compliant->violation\n"
    "7620|PID-9|breach|absent-signal|status=violation->absent-signal\n",
}
BREACH_STDOUT = _summary("PID-7: cycles=1 red=1",
                         "PID-9: cycles=7 absent-signal=1 compliant=5 "
                         "violation=1", notifications=3, first="t=720")
CLI_CASES = {
    **{f"validate-{name}": Case(_shipped(name, trace),
                                f"validate {name}.scenario",
                                out=f"{name}.scenario: ok\n")
       for name, trace in [("alcohol_dry", "alcohol_dry"),
                           ("alcohol_gap", "alcohol_gap"),
                           ("alcohol_spike", "alcohol_spike"),
                           ("curfew", "curfew_presence")]},
    "run-alcohol_dry": Case(
        _shipped("alcohol_dry", "alcohol_dry"),
        "run alcohol_dry.scenario --out out",
        out=_summary("PID-7: cycles=1 green=1")),
    "run-alcohol_gap": Case(
        _shipped("alcohol_gap", "alcohol_gap"),
        "run alcohol_gap.scenario --out out",
        out=_summary("PID-7: cycles=1 absent=1", notifications=1,
                     first="t=720")),
    "run-alcohol_spike": Case(
        _shipped("alcohol_spike", "alcohol_spike"),
        "run alcohol_spike.scenario --out out",
        out=_summary("PID-7: cycles=1 red=1", notifications=1,
                     first="t=720")),
    # the seven nights: a violation on night 3, no signal on night 5
    "run-curfew": Case(
        _shipped("curfew", "curfew_presence"), "run curfew.scenario --out out",
        out=_summary("PID-9: cycles=7 absent-signal=1 compliant=5 "
                     "violation=1", notifications=2, first="t=4740"),
        after={"out/records.log": CURFEW_RECORDS}),
    "run-extended_dry": Case(
        {**_shipped("extended_dry"),
         "traces/extended_dry.trace": EXTENDED_DRY},
        "run extended_dry.scenario --out out",
        out=_summary("PID-7: cycles=300 green=300"),
        after={"out/notifications.log": ""}),
    "run-extended_dry-spike": Case(
        {**_shipped("extended_dry"),
         "traces/extended_dry.trace": EXTENDED_SPIKE},
        "run extended_dry.scenario --out out",
        out=_summary("PID-7: cycles=300 green=299 red=1", notifications=1,
                     first="t=900"),
        after={"out/notifications.log":
               "900|PID-7|record-breach|red|status=green->red\n"}),
    "run-breach": Case(
        {"breach.scenario": BREACH_TEXT,
         **_traces("alcohol_spike", "curfew_presence", at="")},
        "run breach.scenario --out out", out=BREACH_STDOUT, after=BREACH_LOGS),
    # the same run on copies of its traces with "\r\n" line endings
    "run-breach-crlf": Case(
        {"breach.scenario": BREACH_TEXT,
         "alcohol_spike.trace": _crlf("alcohol_spike.trace"),
         "curfew_presence.trace": _crlf("curfew_presence.trace")},
        "run breach.scenario --out out", out=BREACH_STDOUT, after=BREACH_LOGS),
    # faults on lines the trace reader reaches after its first chunk
    "validate-long": Case(
        {"long.scenario": _sentence("long.trace"),
         "long.trace": _trace("decimal", "0.0100", 2500, "2498,0.010")},
        "validate long.scenario", EXIT_VALIDATION,
        err="long.scenario:1: entity A: long.trace:2500: decimal '0.010' "
            "must have exactly 4 fractional digits\n"),
    "validate-zero": Case(
        {"zero.scenario": _sentence("zero.trace"),
         "zero.trace": _trace("decimal", "0.0100", 2500, "2498,00.0100")},
        "validate zero.scenario", EXIT_VALIDATION,
        err="zero.scenario:1: entity A: zero.trace:2500: decimal '00.0100' "
            "must be written '0.0100'\n"),
    "validate-int": Case(
        {"int.scenario": _sentence("int.trace"),
         "int.trace": _trace("integer", "6", 2500, "2499,6")},
        "validate int.scenario", EXIT_VALIDATION,
        err="int.scenario:1: entity A: int.trace:2500: tick 2499 out of "
            "order (expected 2498)\n"),
    # a tick written as a prefix of itself on the last line of the first
    # chunk the trace reader reads
    "validate-cut": Case(
        {"cut.scenario": "[entity A]\ncurfew = 19:00,07:00\nnights = 1\n"
                         "trace = cut.trace\n",
         "cut.trace": _trace("boolean", "true", 1751, "174,true")},
        "validate cut.scenario", EXIT_VALIDATION,
        err="cut.scenario:1: entity A: cut.trace:1751: tick 174 out of "
            "order (expected 1749)\n"),
    "validate-tick": Case(
        {"tick.scenario": _sentence("tick.trace"),
         "tick.trace": _trace("decimal", "0.0100", 3, "01,0.0100", 721)},
        "validate tick.scenario", EXIT_VALIDATION,
        err="tick.scenario:1: entity A: tick.trace:3: tick '01' must be "
            "written '1'\n"),
    # a decimal is ASCII digits with an optional "-"
    "validate-plus": Case(
        {"plus.scenario": _sentence("alcohol_dry.trace").replace(
            "0.0200", "+0.0200")},
        "validate plus.scenario", EXIT_VALIDATION,
        err="plus.scenario:2: bad sentence '0,720,30,+0.0200,0.0050'\n"),
    # a directory named as a trace is never opened
    **{f"{command}-dir": Case(
        {"dir.scenario": _sentence("traces"), **_traces("alcohol_dry")},
        " ".join(_argv(command, "dir.scenario", "out")), EXIT_VALIDATION,
        err="dir.scenario:1: entity A: cannot read trace traces: not a "
            "regular file\n", after={"out": None})
       for command in ("validate", "run")},
    # and neither is a directory named as the scenario
    **{f"{command}-dir-scenario": Case(
        _traces("alcohol_dry"), " ".join(_argv(command, "traces", "out")),
        EXIT_VALIDATION, err="traces: not a regular file\n",
        after={"out": None})
       for command in ("validate", "run")},
    # a gap outside the trace is refused before a reading is drawn
    "gen-trace-far": Case(
        {}, "gen-trace --kind gap --minutes 1440000 --gap 5 2 --out far.trace",
        EXIT_VALIDATION, err="gen-trace failed: gap [5, 2] outside "
                             "[0, 1440000]\n", after={"far.trace": None}),
}


@pytest.fixture(scope="session")
def generated_trace(tmp_path_factory):
    """The trace ``gen-trace`` writes for a tuple of its arguments, written
    once per session."""
    @functools.cache
    def generate(args):
        path = tmp_path_factory.mktemp("gen-trace") / "gen.trace"
        assert main(["gen-trace", *args, "--out", str(path)]) == EXIT_OK
        return path
    return generate


@pytest.mark.parametrize("name", CLI_CASES)
def test_command_line(name, tmp_path, monkeypatch, capsys, generated_trace):
    case = CLI_CASES[name]
    for relative, source in case.files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(source, str):
            path.write_bytes(source.encode("ascii"))
        else:
            shutil.copy(generated_trace(source) if isinstance(source, tuple)
                        else source, path)
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert main(case.argv.split()) == case.code
    assert capsys.readouterr() == (case.out, case.err)
    for relative, text in case.after.items():
        if text is None:
            assert not (tmp_path / relative).exists()
        else:
            assert (tmp_path / relative).read_bytes() == text.encode("ascii")


def test_each_shipped_scenario_is_run_by_a_case():
    # a scenario added to scenarios/ with no row in CLI_CASES fails here
    run = set()
    for case in CLI_CASES.values():
        command, scenario = case.argv.split()[:2]
        if (command == "run"
                and case.files.get(scenario) == SCENARIOS / scenario):
            run.add(scenario)
    assert run == {path.name for path in SCENARIOS.glob("*.scenario")}
