import shutil

import pytest

import tagmon.monitoring
import tagmon.scenario_file

from tagmon.errors import ScenarioFormatError
from tagmon.scenario_file import (
    Diagnostic,
    EntityConfig,
    InvalidScenario,
    RuleConfig,
    ScenarioConfig,
    ScheduleConfig,
    build_scenario,
    format_clock,
    format_scenario,
    parse_clock,
    parse_scenario,
    validate_scenario,
)
from tagmon.streams import Stream, save_trace
from tagmon.values import Dec4

ALCOHOL_TEXT = """\
# worked example
[entity PID-7]
sentence = 0,720,30,0.0200,0.0050
status = green
trace = traces/dry.trace

[policy]
rule = record-breach: on amber,red,absent set status
"""


def write_dry_trace(directory, minutes=720, name="dry.trace"):
    (directory / "traces").mkdir(exist_ok=True)
    path = directory / "traces" / name
    save_trace(path, Stream.of(0, [Dec4(100)] * (minutes + 1)), "b",
               "decimal")
    return path


def test_parse_clock():
    assert parse_clock("07:00") == 420
    assert parse_clock("23:00") == 1380
    assert format_clock(420) == "07:00"
    with pytest.raises(ScenarioFormatError):
        parse_clock("25:00")
    with pytest.raises(ScenarioFormatError):
        parse_clock("7h30")


def test_parse_alcohol_scenario():
    config = parse_scenario(ALCOHOL_TEXT)
    assert config == ScenarioConfig(
        entities=(EntityConfig(
            entity="PID-7",
            sentence=(0, 720, 30, Dec4(200), Dec4(50)),
            status="green", trace="traces/dry.trace"),),
        schedule=None,
        rules=(RuleConfig("record-breach", ("amber", "red", "absent"),
                          "status"),),
    )


def test_parse_schedule_and_curfew():
    text = """\
[entity A]
curfew = 19:00,07:00
nights = 7
status = compliant
trace = t.trace

[schedule]
uploads = 07:00,15:00,23:00
days = 100
"""
    config = parse_scenario(text)
    assert config.entities[0].curfew == (1140, 420)
    assert config.entities[0].nights == 7
    assert config.schedule == ScheduleConfig((420, 900, 1380), 100)


@pytest.mark.parametrize("mutation, fragment", [
    ("[entity PID-7]\nspeed = 3\n", "unknown entity key"),
    ("[widgets]\n", "bad section header"),
    ("status = green\n", "outside any section"),
    ("[entity A]\ntrace = a\n[entity A]\n", "duplicate entity"),
    ("[entity A]\nstatus = green\nstatus = red\n", "duplicate key"),
    ("[entity A]\nsentence = 1,2,3\n", "sentence needs"),
    ("[policy]\nrule = broken\n", "bad rule"),
    ("[schedule]\nuploads = 9am\n", "bad clock time"),
])
def test_parse_rejects_bad_input(mutation, fragment):
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario(mutation)
    assert fragment in str(err.value)


def test_format_parse_round_trip():
    config = parse_scenario(ALCOHOL_TEXT)
    assert parse_scenario(format_scenario(config)) == config


def test_format_parse_round_trip_full():
    config = ScenarioConfig(
        entities=(
            EntityConfig("PID-1", sentence=(0, 720, 30, Dec4(200), Dec4(50)),
                         status="green", trace="a.trace"),
            EntityConfig("PID-2", curfew=(1140, 420), nights=7,
                         status="compliant", trace="b.trace"),
        ),
        schedule=ScheduleConfig((420, 900, 1380), 100),
        rules=(RuleConfig("r1", ("red",), "status"),
               RuleConfig("r2", ("violation", "absent-signal"), "status")),
    )
    assert parse_scenario(format_scenario(config)) == config


def test_validate_clean_scenario(tmp_path):
    write_dry_trace(tmp_path)
    config = parse_scenario(ALCOHOL_TEXT)
    assert validate_scenario(config, tmp_path) == []


def test_validate_sentence_invariant(tmp_path):
    write_dry_trace(tmp_path)
    bad = ALCOHOL_TEXT.replace("0,720,30,", "0,720,900,")
    diagnostics = validate_scenario(parse_scenario(bad), tmp_path)
    assert len(diagnostics) == 1
    assert "sample interval" in diagnostics[0].message
    assert diagnostics[0].line == 2


def test_validate_trace_coverage(tmp_path):
    write_dry_trace(tmp_path, minutes=500)
    diagnostics = validate_scenario(parse_scenario(ALCOHOL_TEXT), tmp_path)
    assert any("does not cover" in d.message for d in diagnostics)


def test_validate_missing_trace(tmp_path):
    diagnostics = validate_scenario(parse_scenario(ALCOHOL_TEXT), tmp_path)
    assert any("not found" in d.message for d in diagnostics)


def test_validate_wrong_trace_kind(tmp_path):
    (tmp_path / "traces").mkdir()
    save_trace(tmp_path / "traces" / "dry.trace",
               Stream.of(0, [True] * 721), "b", "boolean")
    diagnostics = validate_scenario(parse_scenario(ALCOHOL_TEXT), tmp_path)
    assert any("expected 'decimal'" in d.message for d in diagnostics)


def test_validate_unknown_rule_labels(tmp_path):
    write_dry_trace(tmp_path)
    bad = ALCOHOL_TEXT.replace("on amber,red,absent", "on amber,purple")
    diagnostics = validate_scenario(parse_scenario(bad), tmp_path)
    assert any("purple" in d.message for d in diagnostics)


BAD_STATUS_TEXT = """\
[entity PID-7]
sentence = 0,720,30,0.0200,0.0050
status = purple
trace = traces/dry.trace

[entity PID-9]
curfew = 19:00,07:00
nights = 1
status = green
trace = traces/presence.trace
"""


@pytest.mark.parametrize("short", [False, True])
def test_validate_reports_a_bad_status_once(tmp_path, short):
    # the entity is still built, with its kind's default status, so a
    # too-short trace is reported as well
    write_dry_trace(tmp_path, minutes=500 if short else 720)
    save_trace(tmp_path / "traces" / "presence.trace",
               Stream.of(0, [True] * (1800 if short else 1861)), "presence",
               "boolean")
    diagnostics = validate_scenario(parse_scenario(BAD_STATUS_TEXT), tmp_path)
    messages = [(d.line, d.message) for d in diagnostics]
    status_lines = [
        (1, "entity PID-7: status 'purple' not in "
            "('green', 'amber', 'red', 'absent')"),
        (6, "entity PID-9: status 'green' not in "
            "('compliant', 'violation', 'absent-signal')")]
    if not short:
        assert messages == status_lines
        return
    assert [messages[0], messages[2]] == status_lines
    assert messages[1][0] == 1 and "does not cover" in messages[1][1]
    assert messages[3][0] == 6 and "does not cover" in messages[3][1]
    assert len(messages) == 4


def test_validate_evaluates_no_formula(scenarios_dir, tmp_path, monkeypatch):
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(tagmon.scenario_file, "observe_family")
    counted(tagmon.monitoring, "eval_formula")
    for trace in ("alcohol_dry", "alcohol_spike", "curfew_presence"):
        shutil.copy(scenarios_dir / "traces" / f"{trace}.trace", tmp_path)
    config = parse_scenario("""\
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

[policy]
rule = breach: on red,violation set status
""")
    assert validate_scenario(config, tmp_path) == []
    assert calls == []
    assert len(build_scenario(config, tmp_path).execute().records) == 9
    assert calls.count("eval_formula") > 0


def test_validate_status_outside_judgements(tmp_path):
    write_dry_trace(tmp_path)
    bad = ALCOHOL_TEXT.replace("status = green", "status = compliant")
    diagnostics = validate_scenario(parse_scenario(bad), tmp_path)
    assert any("'compliant' not in" in d.message for d in diagnostics)


SCHEDULED_TEXT = """\
[entity PID-7]
sentence = {span},60,0.0200,0.0050
status = green
trace = traces/dry.trace

[schedule]
uploads = 07:00,15:00,23:00
days = 2
"""


@pytest.mark.parametrize("span", ["900,5", "0,2760", "60,2820"])
def test_validate_schedule_sentence_span(tmp_path, span):
    # under [schedule] t1,t2 must be 0 and the last upload, 1440 + 23:00
    write_dry_trace(tmp_path, minutes=2820)
    good = parse_scenario(SCHEDULED_TEXT.format(span="0,2820"))
    assert validate_scenario(good, tmp_path) == []
    bad = parse_scenario(SCHEDULED_TEXT.format(span=span))
    diagnostics = validate_scenario(bad, tmp_path)
    assert len(diagnostics) == 1
    assert diagnostics[0].line == 1  # the entity's section header
    assert "must span 0,2820" in diagnostics[0].message
    assert f"got {span}" in diagnostics[0].message


def test_build_scenario_raises_every_diagnostic(tmp_path):
    write_dry_trace(tmp_path)
    bad = (ALCOHOL_TEXT.replace("status = green", "status = compliant")
           .replace("on amber,red,absent", "on amber,purple"))
    config = parse_scenario(bad)
    diagnostics = validate_scenario(config, tmp_path)
    assert len(diagnostics) > 1
    with pytest.raises(InvalidScenario) as err:
        build_scenario(config, tmp_path)
    assert isinstance(err.value, ScenarioFormatError)
    assert err.value.diagnostics == diagnostics


def test_build_scenario_runs(tmp_path):
    write_dry_trace(tmp_path)
    config = parse_scenario(ALCOHOL_TEXT)
    run = build_scenario(config, tmp_path)
    result = run.execute()
    assert [r.judgement for r in result.records] == ["green"]
    assert [rule.name for rule in run.policy.rules] == ["record-breach"]


def test_build_scenario_without_policy_section(tmp_path):
    write_dry_trace(tmp_path)
    config = parse_scenario(ALCOHOL_TEXT.split("[policy]")[0])
    run = build_scenario(config, tmp_path)
    assert run.policy.rules == ()
    result = run.execute()
    assert len(result.records) == 1 and result.notifications == []


def test_diagnostic_render():
    assert Diagnostic(3, "boom").render("x.scenario") == "x.scenario:3: boom"
