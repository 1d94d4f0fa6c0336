import random
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagmon.monitoring
import tagmon.scenario_file
import tagmon.scenarios

from oracles import reference_parse_scenario
from tagmon.errors import ScenarioFormatError, TraceFormatError
from tagmon.scenario_file import (
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


def _faults(faults):
    """Each fault of a scenario as its (line, message) pair."""
    return [(fault.line, fault.message) for fault in faults]


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
    for padded in (" 07:00", "07:00 "):
        with pytest.raises(ScenarioFormatError):
            parse_clock(padded)


def test_upload_times_may_be_spaced_around_their_commas():
    """The [schedule] uploads reader strips each time, as the curfew reader
    does, now that ``parse_clock`` takes a clock time and nothing else."""
    config = parse_scenario("[schedule]\nuploads = 07:00 ,15:00,\t23:00\n")
    assert config.schedule.uploads == (420, 900, 1380)


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
    ("[policy]\nrule = a: on red set status\n\n[policy]\n",
     "line 4: duplicate [policy] section"),
    ("[schedule]\ndays = 0\ndays = 2\n", "line 3: duplicate key 'days'"),
    ("[schedule]\nspeed = 3\n", "line 2: unknown schedule key 'speed'"),
    ("[policy]\nspeed = 3\n", "line 2: unknown policy key 'speed'"),
    ("[entity A]\nstatus\n", "line 2: expected 'key = value', got 'status'"),
    ("[entity A]\ntrace =\n", "line 2: empty trace path"),
    ("[entity A]\nsentence = 0,720,30,0.02x,0.0050\n",
     "line 2: bad sentence '0,720,30,0.02x,0.0050'"),
    ("[entity A]\ncurfew = 19:00\n",
     "line 2: curfew needs start,end clock times"),
    ("[entity A]\nnights = seven\n", "line 2: non-integer in 'seven'"),
    ("[schedule]\ndays = 1, 2\n",
     "line 2: expected 1 comma-separated values, got 2"),
    ("[schedule]\ndays = 1\n\n[schedule]\n",
     "line 4: duplicate [schedule] section"),
    ("[entity A]\nnights = 1_0\n", "line 2: non-integer in '1_0'"),
    ("[entity A]\nnights = +3\n", "line 2: non-integer in '+3'"),
    ("[entity A]\nnights = --3\n", "line 2: non-integer in '--3'"),
    ("[entity A]\nnights = \u0667\n", "line 2: non-integer in '\u0667'"),
    ("[schedule]\ndays = +3\n", "line 2: non-integer in '+3'"),
    ("[schedule]\ndays = 1_0\n", "line 2: non-integer in '1_0'"),
    ("[schedule]\ndays = -\n", "line 2: non-integer in '-'"),
    ("[entity A]\nsentence = 0,7_20,30,0.0200,0.0050\n",
     "line 2: bad sentence '0,7_20,30,0.0200,0.0050'"),
    ("[entity A]\nsentence = +0,720,30,0.0200,0.0050\n",
     "line 2: bad sentence '+0,720,30,0.0200,0.0050'"),
    ("[entity A]\nsentence = 0,720,+30,0.0200,0.0050\n",
     "line 2: bad sentence '0,720,+30,0.0200,0.0050'"),
    ("[entity A]\nsentence = 0,720,30,+0.0200,0.0050\n",
     "line 2: bad sentence '0,720,30,+0.0200,0.0050'"),
    ("[entity A]\nsentence = 0,720,30,0.0200,\u0660.\u0665\n",
     "line 2: bad sentence '0,720,30,0.0200,\u0660.\u0665'"),
    ("[entity A]\nsentence = 0,720,30," + "9" * 5000 + ".0,0.0050\n",
     "line 2: bad sentence '0,720,30,999"),
])
def test_parse_rejects_bad_input(mutation, fragment):
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario(mutation)
    assert fragment in str(err.value)


# Texts that both parsers read: sections whose keys mostly fit the header,
# with a key now and then repeated, and lines drawn from valid, repeated and
# malformed headers, every key with good and bad values, comments, blank
# lines and lines with no '='.  Most sections fit, so that many texts parse
# and the round trip is exercised too.
GOOD_VALUES = {
    "sentence": ("0,720,30,0.0200,0.0050", " 0 , 2820 ,60, 0.0200,-1.5000"),
    "curfew": ("19:00,07:00", " 7:30 ,23:59"),
    "nights": ("7", "0", "-1"),
    "status": ("green", "compliant", ""),
    "trace": ("t.trace", "a b.trace"),
    "uploads": ("07:00,15:00,23:00", " 9:05"),
    "days": ("2", "0"),
    "rule": ("a: on red set status", "b : on amber , red set x"),
}
BAD_VALUES = {
    "sentence": ("1,2,3", "0,720,30,0.02x,0.0050", "a,b,c,d,e", "",
                 "0,720,30,+0.0200,0.0050"),
    "curfew": ("19:00", "25:00,07:00", "19:00, 7h30", ""),
    "nights": ("seven", "1,2", "", "1_0"),
    "trace": ("",),
    "uploads": ("", " 9am", "07:00,", "24:00"),
    "days": ("x", "1, 2", "", "+3"),
    "rule": ("broken", "a: on set status", ""),
}
ENTITY_KEYS = ("sentence", "curfew", "nights", "status", "trace")
SECTION_KEYS = {
    "[entity A]": ENTITY_KEYS,
    "[entity B]": ENTITY_KEYS,
    "[entity C]": ENTITY_KEYS,
    "[schedule]": ("uploads", "days"),
    "[policy]": ("rule",),
}
BLANK_LINES = ("", "   ", "# comment")
ANY_LINES = tuple(SECTION_KEYS) + BLANK_LINES + (
    "[entity  A]", "[entity]", "[entity 1A]", "[widgets]", "[policy",
    "[Schedule]", "status = green  # a comment", "speed = 3", "status",
    "= 3", "days == 2", "status=x#y") + tuple(
    f"{key} = {value}" for values in (GOOD_VALUES, BAD_VALUES)
    for key in values for value in values[key])


def random_scenario_text(rng):
    """A scenario text of random sections and lines, drawn with ``rng``."""
    def fitting(key):
        return f"{key} = {rng.choice(GOOD_VALUES[key])}"

    lines = [rng.choice(ANY_LINES)] if rng.random() < 0.1 else []
    for _ in range(rng.randint(0, 4)):
        header = rng.choice(tuple(SECTION_KEYS))
        keys = SECTION_KEYS[header]
        body = [fitting(key)
                for key in rng.sample(keys, rng.randint(0, len(keys)))]
        for extra, chance in ((lambda: fitting(rng.choice(keys)), 0.3),
                              (lambda: rng.choice(ANY_LINES), 0.2),
                              (lambda: rng.choice(BLANK_LINES), 0.3)):
            if rng.random() < chance:
                body.insert(rng.randint(0, len(body)), extra())
        lines += [header, *body]
    return "\n".join(lines)


def _parsed(parse, text):
    """parse's config with every line field, or its fault."""
    try:
        config = parse(text)
    except ScenarioFormatError as exc:
        return type(exc), exc.message, exc.line
    return (config, [e.line for e in config.entities],
            config.schedule and config.schedule.line,
            [r.line for r in config.rules])


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(seed=st.integers(0, 2**32 - 1))
def test_parse_matches_the_reference_parser(seed):
    text = random_scenario_text(random.Random(seed))
    ours = _parsed(parse_scenario, text)
    assert ours == _parsed(reference_parse_scenario, text)
    if isinstance(ours[0], ScenarioConfig):
        assert parse_scenario(format_scenario(ours[0])) == ours[0]


@pytest.mark.parametrize("header, key", [
    (header, key) for header in ("[entity A]", "[schedule]")
    for key in SECTION_KEYS[header]])
def test_a_key_may_appear_once_per_section(header, key):
    line = f"{key} = {GOOD_VALUES[key][0]}"
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario(f"{header}\n{line}\n{line}\n")
    assert str(err.value) == f"line 3: duplicate key {key!r}"


def test_rule_may_repeat():
    config = parse_scenario("[policy]\nrule = a: on red set status\n"
                            "rule = a: on red set status\n")
    assert config.rules == (RuleConfig("a", ("red",), "status"),) * 2
    assert [rule.line for rule in config.rules] == [2, 3]


@pytest.mark.parametrize("header, key", [
    (header, key) for header in ("[entity A]", "[schedule]", "[policy]")
    for key in GOOD_VALUES if key not in SECTION_KEYS[header]])
def test_a_key_of_another_section_is_unknown(header, key):
    kind = "entity" if header.startswith("[entity") else header[1:-1]
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario(f"{header}\n{key} = {GOOD_VALUES[key][0]}\n")
    assert str(err.value) == f"line 2: unknown {kind} key {key!r}"


def test_format_parse_round_trip():
    # a [schedule] without uploads parses, so its text must parse back
    for text in (ALCOHOL_TEXT, "[schedule]\ndays = 2\n"):
        config = parse_scenario(text)
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


@pytest.mark.parametrize("path, fault", [
    ("traces/dry.trace", "trace file not found: traces/dry.trace"),
    # '#' starts a comment anywhere on a line, a value's middle too
    ("traces/alc#x.trace", "trace file not found: traces/alc"),
    # a path that is there but is no regular file is never opened
    ("traces", "cannot read trace traces: not a regular file"),
], ids=["missing", "cut-at-hash", "directory"])
def test_validate_missing_trace(tmp_path, path, fault):
    (tmp_path / "traces").mkdir()
    text = ALCOHOL_TEXT.replace("traces/dry.trace", path)
    assert _faults(validate_scenario(parse_scenario(text), tmp_path)) == [
        (2, f"entity PID-7: {fault}")]


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


def test_rule_labels_are_checked_against_the_entities_kinds(tmp_path):
    # B's trace is missing, so B builds no run, yet its kind's labels are
    # known from the config: the rule's "violation" is no fault
    write_dry_trace(tmp_path)
    text = ALCOHOL_TEXT.replace("[policy]", """\
[entity B]
curfew = 19:00,07:00
nights = 1
trace = traces/gone.trace

[policy]""").replace("on amber,red,absent", "on red,violation")
    assert _faults(validate_scenario(parse_scenario(text), tmp_path)) == [
        (7, "entity B: trace file not found: traces/gone.trace")]


def test_validate_repeated_rule_name(tmp_path):
    write_dry_trace(tmp_path)
    text = ALCOHOL_TEXT + "rule = b: on red set status\n" \
                          "rule = record-breach: on red set status\n"
    assert _faults(validate_scenario(parse_scenario(text), tmp_path)) == [
        (10, "rule record-breach: duplicate rule name")]


@pytest.mark.parametrize("labels, repeated", [
    ("red,red", ["red"]),
    ("amber, red ,amber,red,amber", ["amber", "red"]),
])
def test_validate_reports_a_label_listed_twice(tmp_path, labels, repeated):
    """Each label that a rule lists more than once is reported once."""
    write_dry_trace(tmp_path)
    text = ALCOHOL_TEXT + f"rule = r: on {labels} set status\n"
    assert _faults(validate_scenario(parse_scenario(text), tmp_path)) == [
        (9, f"rule r: label {label!r} listed twice") for label in repeated]


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
    messages = _faults(diagnostics)
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


def test_validate_schedule_coverage_lists_no_upload(tmp_path, monkeypatch):
    # a million days over a 721-tick trace: the span rule and the coverage
    # check need only the last upload, never the list of 3 million ticks
    def refuse(self):
        raise AssertionError("upload ticks listed before coverage")

    monkeypatch.setattr(tagmon.scenarios.ReportSchedule, "upload_ticks",
                        refuse)
    write_dry_trace(tmp_path, minutes=720)
    last = 999_999 * 1440 + 23 * 60
    text = (SCHEDULED_TEXT.format(span=f"0,{last}")
            .replace("days = 2", "days = 1000000"))
    diagnostics = validate_scenario(parse_scenario(text), tmp_path)
    assert _faults(diagnostics) == [
        (1, f"entity PID-7: trace window [0, 721) does not cover [0, {last}]")]


def _count_constructions(monkeypatch, name):
    built = []
    original = getattr(tagmon.scenario_file, name)

    def counted(*args, **kwargs):
        built.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(tagmon.scenario_file, name, counted)
    return built


def test_build_makes_each_sentence_and_schedule_once(tmp_path, monkeypatch):
    sentences = _count_constructions(monkeypatch, "Sentence")
    schedules = _count_constructions(monkeypatch, "ReportSchedule")
    write_dry_trace(tmp_path, minutes=2820)
    second = ALCOHOL_TEXT.split("[policy]")[0].replace("PID-7", "PID-8")
    build_scenario(parse_scenario(ALCOHOL_TEXT + second), tmp_path)
    assert (len(sentences), len(schedules)) == (2, 0)
    sentences.clear()
    scheduled = SCHEDULED_TEXT.format(span="0,2820")
    build_scenario(parse_scenario(
        scheduled + scheduled.split("[schedule]")[0].replace("PID-7", "PID-8")),
        tmp_path)
    assert (len(sentences), len(schedules)) == (0, 1)


def test_invalid_schedule_is_reported_for_each_sentence_entity(tmp_path):
    write_dry_trace(tmp_path, minutes=2820)
    scheduled = SCHEDULED_TEXT.format(span="0,2820").replace("days = 2",
                                                             "days = 0")
    text = scheduled + scheduled.split("[schedule]")[0].replace("PID-7",
                                                                "PID-8")
    diagnostics = validate_scenario(parse_scenario(text), tmp_path)
    assert _faults(diagnostics) == [
        (1, "entity PID-7: need at least one day, got 0"),
        (6, "need at least one day, got 0"),
        (9, "entity PID-8: need at least one day, got 0")]


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
    assert _faults(err.value.faults) == _faults(diagnostics)


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
    for error in (ScenarioFormatError, TraceFormatError):
        fault = error("boom", 3)
        assert fault.render("x.scenario") == "x.scenario:3: boom"
        assert str(fault) == "line 3: boom"


def test_scenario_wide_diagnostic_has_no_line(tmp_path):
    fault = ScenarioFormatError("boom")
    assert fault.render("x.scenario") == "x.scenario: boom"
    assert str(fault) == "boom"
    with pytest.raises(InvalidScenario) as err:
        build_scenario(parse_scenario("[policy]\nrule = r: on red set x\n"),
                       tmp_path)
    assert str(err.value) == (
        "no entities declared; line 2: rule r: labels ['red'] match no "
        "entity's judgements; line 2: rule r: no settable field 'x' in the "
        "entity schemas")
