import shutil

import pytest

import tagmon.scenario_file

from tagmon.cli import (
    EXIT_OK,
    EXIT_VALIDATION,
    RunSummary,
    gen_dry,
    gen_gap,
    gen_spike,
    main,
)
from tagmon.errors import BadParams
from tagmon.streams import load_trace
from tagmon.values import Dec4


def test_validate_ok_and_failure(scenarios_dir, capsys):
    assert main(["validate", str(scenarios_dir / "alcohol_dry.scenario")]) \
        == EXIT_OK
    assert main(["validate", str(scenarios_dir / "nope.scenario")]) \
        == EXIT_VALIDATION
    # extended scenario ships without its (large) trace: must fail cleanly
    code = main(["validate", str(scenarios_dir / "extended_dry.scenario")])
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


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("bad_file", ["scenario", "trace"])
def test_non_ascii_byte_is_a_line_diagnostic(scenarios_dir, tmp_path, capsys,
                                             command, bad_file):
    trace = (scenarios_dir / "traces" / "alcohol_dry.trace").read_bytes()
    comment = b"# ok\n"
    if bad_file == "trace":
        lines = trace.split(b"\n")
        lines[3] += b"\xe9"  # line 4 of the trace
        trace = b"\n".join(lines)
    else:
        comment = b"# caf\xc3\xa9\n"  # line 3 of the scenario
    (tmp_path / "dry.trace").write_bytes(trace)
    scenario = tmp_path / "bad.scenario"
    scenario.write_bytes(b"[entity A]\nsentence = 0,720,30,0.0200,0.0050\n"
                         + comment + b"trace = dry.trace\n")
    out = tmp_path / "out"
    argv = [command, str(scenario)] + (["--out", str(out)]
                                       if command == "run" else [])
    assert main(argv) == EXIT_VALIDATION
    expected = (f"{scenario}:1: entity A: line 4: non-ASCII byte 0xe9"
                if bad_file == "trace"
                else f"{scenario}: line 3: non-ASCII byte 0xc3")
    assert capsys.readouterr().err == expected + "\n"
    assert not out.exists()


# -- trace generation -----------------------------------------------------------

def test_gen_dry_is_seeded_and_below_green_threshold(tmp_path):
    a = gen_dry(720, 42)
    b = gen_dry(720, 42)
    assert a == b
    assert gen_dry(720, 43) != a
    ceiling = Dec4.parse("0.0150")
    assert all(v < ceiling for v in a.values)
    assert a.window.length == 721


def test_gen_trace_cli_files_identical(tmp_path, capsys):
    p1, p2 = tmp_path / "a.trace", tmp_path / "b.trace"
    for p in (p1, p2):
        assert main(["gen-trace", "--kind", "dry", "--minutes", "720",
                     "--seed", "42", "--out", str(p)]) == EXIT_OK
    assert p1.read_bytes() == p2.read_bytes()
    _, kind, stream = load_trace(p1)
    assert kind == "decimal" and stream.window.length == 721


def test_gen_spike_has_exactly_one_hot_sample():
    spike = gen_spike(720, 42, 600, Dec4.parse("0.0300"))
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
    with pytest.raises(BadParams):
        gen_gap(720, 0, 500, 100)
    with pytest.raises(BadParams):
        gen_spike(720, 0, 900, Dec4(300))
    with pytest.raises(BadParams):
        gen_dry(0, 0)
    with pytest.raises(BadParams):
        gen_dry(720, -1)


def test_run_summary_from_result_counts():
    class Rec:
        def __init__(self, entity, judgement):
            self.entity = entity
            self.judgement = judgement

    class Note:
        def __init__(self, at):
            self.evaluated_at = at

    class Result:
        records = [Rec("A", "green"), Rec("A", "red"), Rec("B", "green")]
        notifications = [Note(900), Note(420)]

    summary = RunSummary.from_result(Result(), EXIT_OK)
    assert summary.judgement_counts == {"A": {"green": 1, "red": 1},
                                        "B": {"green": 1}}
    assert summary.notification_count == 2
    assert summary.first_violation == 420
    rendered = summary.render()
    assert "entity A: cycles=2 green=1 red=1" in rendered
    assert "first violation: t=420" in rendered


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
