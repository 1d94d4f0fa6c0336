"""Fuzz the input boundary: scenario and trace files from outside the program.

Whatever the bytes, loading and validating either returns, reports
faults or raises MonitorError, and ``tagmon validate`` exits 0 or 1; a
trace's fault has its line, and ``tagmon run`` refuses exactly the scenarios
that ``tagmon validate`` refuses, with the same report; one that runs writes
the same logs when run again.  Scenario-shaped texts draw most entities
sound, so that a good share of them run.
Examples are derandomized and bounded so the suite stays deterministic and
fast; generated ``days`` and ``nights`` stay at or below 10,000 so that a
regression cannot exhaust memory.
"""

import contextlib
import io
import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tagmon.cli import EXIT_OK, EXIT_VALIDATION, main
from tagmon.errors import MonitorError, TraceFormatError
from tagmon.scenario_file import load_scenario, validate_scenario
from tagmon.streams import load_trace

FUZZ = settings(max_examples=80,
                suppress_health_check=[HealthCheck.too_slow])

SHORT_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126),
                     max_size=12)
NUMBER = st.one_of(st.sampled_from(["0", "1", "7", "30", "60", "720",
                                    "2820"]),
                   st.integers(-5, 10_000).map(str))
DECIMAL = st.sampled_from(["0.0200", "0.0050", "0.0100", "0.0300", "1.5",
                           "-0.0100", "0.0000", "0.00001"])
CLOCK = st.one_of(st.sampled_from(["07:00", "15:00", "19:00", "23:00"]),
                  st.builds("{:02d}:{:02d}".format, st.integers(0, 24),
                            st.integers(0, 60)))
LABEL = st.sampled_from(["green", "amber", "red", "absent", "compliant",
                         "violation", "absent-signal", "purple"])
TRACE = st.sampled_from(["dry.trace", "presence.trace", "bad.trace",
                         "missing.trace", ".", "t" * 5000])


def _value(strategy):
    # junk one time in ten, so that parsing rarely stops the example
    # before validation sees it
    return st.integers(0, 9).flatmap(lambda i: strategy if i else SHORT_TEXT)


SENTENCE = st.builds("{},{},{},{},{}".format,
                     st.one_of(st.just("0"), NUMBER),
                     st.one_of(st.sampled_from(["720", "2820"]), NUMBER),
                     st.one_of(st.sampled_from(["30", "60"]), NUMBER),
                     DECIMAL, DECIMAL)
CURFEW = st.builds("{},{}".format, CLOCK, CLOCK)
# an entity's required keys by kind ("both" is invalid); status is optional
KINDS = {
    "sentence": {"sentence": SENTENCE, "trace": TRACE},
    "curfew": {"curfew": CURFEW, "nights": NUMBER, "trace": TRACE},
    "both": {"sentence": SENTENCE, "curfew": CURFEW, "trace": TRACE},
}
SCHEDULE_KEYS = {
    "uploads": st.lists(CLOCK, min_size=1, max_size=4).map(",".join),
    "days": st.one_of(st.sampled_from(["1", "2"]), NUMBER),
}
RULE = st.builds("{}: on {} set {}".format,
                 st.sampled_from(["r", "record-breach", "x1"]),
                 st.lists(LABEL, min_size=1, max_size=3).map(",".join),
                 st.sampled_from(["status", "nights"]))


def _section(header, optional, required, value=_value):
    body = st.fixed_dictionaries(
        {k: value(v) for k, v in required.items()},
        optional={k: value(v) for k, v in optional.items()})
    return body.map(lambda kv: "\n".join(
        [header] + [f"{k} = {v}" for k, v in kv.items()]))


# the keys of a sound entity of each kind over the fuzz directory's traces,
# and the judgements of its kind
SOUND = {
    "sentence": ({"sentence": st.sampled_from(["0,720,30,0.0200,0.0050",
                                               "60,660,60,0.0100,0.0050",
                                               "0,700,7,0.0300,0.0100"]),
                  "trace": st.just("dry.trace")},
                 ["green", "amber", "red", "absent"]),
    "curfew": ({"curfew": st.sampled_from(["19:00,07:00", "21:00,06:00",
                                           "23:00,05:00"]),
                "nights": st.sampled_from(["1", "4", "7"]),
                "trace": st.just("presence.trace")},
               ["compliant", "violation", "absent-signal"]),
}
SCHEDULE = _section("[schedule]", {}, SCHEDULE_KEYS)
POLICY = st.lists(_value(RULE), max_size=3)
RULE_NAMES = st.lists(st.sampled_from(["r", "record-breach", "x1"]),
                      unique=True, max_size=3)


@st.composite
def scenario_texts(draw):
    """A scenario's text.  Each entity is drawn three times in four sound,
    with no junk, and otherwise of any kind, junk and all; a [schedule]
    one time in three.  When some entity is sound, the rules are drawn half
    the time over the sound kinds' labels with ``set status``.  So a good
    share of the texts run: hypothesis draws small integers and False most,
    so those are the sound choices."""
    sections, labels = [], []
    for name in draw(st.lists(st.sampled_from(["A", "B-2", "C"]),
                              unique=True, min_size=1, max_size=3)):
        header = f"[entity {name}]"
        if draw(st.integers(0, 3)) < 3:
            keys, judgements = SOUND[draw(st.sampled_from(sorted(SOUND)))]
            labels += judgements
            section = _section(header, {"status": st.sampled_from(
                judgements)}, keys, value=lambda v: v)
        else:
            section = _section(header, {"status": LABEL}, KINDS[
                draw(st.sampled_from(["sentence", "curfew", "sentence",
                                      "curfew", "both"]))])
        sections.append(draw(section))
    if labels and not draw(st.booleans()):
        rules = [f"{name}: on {','.join(on)} set status"
                 for name in draw(RULE_NAMES)
                 for on in [draw(st.lists(st.sampled_from(labels),
                                          min_size=1, max_size=3,
                                          unique=True))]]
    else:
        rules = draw(POLICY)
    if draw(st.integers(0, 2)) == 2:
        sections.append(draw(SCHEDULE))
    policy = "\n".join(["[policy]"] + [f"rule = {r}" for r in rules])
    return "\n\n".join(sections + [policy]) + "\n"


SCENARIO_TEXT = scenario_texts()
TRACE_TEXT = st.builds(
    "trace b {} {} {}\n{}".format,
    st.sampled_from(["decimal", "boolean", "label", "x"]),
    st.integers(-2, 3), st.integers(-2, 5),
    st.lists(st.one_of(
        st.builds("{},{}".format, st.integers(-1, 5),
                  st.sampled_from(["NA", "0.0100", "0.01", "true", "1"])),
        SHORT_TEXT), max_size=6).map("\n".join))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory, scenarios_dir):
    base = tmp_path_factory.mktemp("fuzz")
    traces = scenarios_dir / "traces"
    shutil.copy(traces / "alcohol_dry.trace", base / "dry.trace")
    shutil.copy(traces / "curfew_presence.trace", base / "presence.trace")
    (base / "bad.trace").write_bytes(b"trace b decimal 0 2\n0,\xff\n")
    return base


def _main(argv):
    """``main``'s exit code and stderr, with stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, err.getvalue()


def _check_scenario(directory, data: bytes):
    path = directory / "fuzz.scenario"
    path.write_bytes(data)
    try:
        config, base_dir = load_scenario(path)
    except MonitorError:
        pass
    else:
        assert isinstance(validate_scenario(config, base_dir), list)
    code, err = _main(["validate", str(path)])
    assert code in (EXIT_OK, EXIT_VALIDATION)
    assert "Traceback" not in err


@FUZZ
@given(data=st.binary(max_size=300))
def test_arbitrary_bytes_as_a_scenario(fuzz_dir, data):
    _check_scenario(fuzz_dir, data)


@FUZZ
@given(text=SCENARIO_TEXT)
def test_scenario_shaped_text(fuzz_dir, text):
    _check_scenario(fuzz_dir, text.encode("ascii"))


@FUZZ
@given(data=st.one_of(st.binary(max_size=300),
                      TRACE_TEXT.map(lambda t: t.encode("ascii"))))
def test_arbitrary_bytes_as_a_trace(fuzz_dir, data):
    path = fuzz_dir / "fuzz.trace"
    path.write_bytes(data)
    try:
        load_trace(path)
    except TraceFormatError as exc:
        assert exc.line >= 1
    except MonitorError:
        pass


@FUZZ
@given(text=SCENARIO_TEXT)
# one scenario that runs with an entity of each kind, whatever is drawn
@example(text="[entity A]\nsentence = 0,720,30,0.0200,0.0050\n"
         "trace = dry.trace\n[entity B]\ncurfew = 19:00,07:00\nnights = 7\n"
         "trace = presence.trace\n[policy]\nrule = r: on red set status\n")
def test_run_refuses_what_validate_refuses(fuzz_dir, text):
    """``run`` exits 1 exactly when ``validate`` does, and then prints the
    same faults and creates no output directory.  A scenario runs with exit
    0 exactly when it validates, and a second run writes the same logs."""
    path = fuzz_dir / "fuzz.scenario"
    path.write_text(text)
    out, again = fuzz_dir / "out", fuzz_dir / "again"
    for directory in (out, again):
        shutil.rmtree(directory, ignore_errors=True)
    validated, validate_err = _main(["validate", str(path)])
    ran, run_err = _main(["run", str(path), "--out", str(out)])
    assert (validated == EXIT_VALIDATION) == (ran == EXIT_VALIDATION)
    if validated == EXIT_OK:
        assert ran == EXIT_OK
    if ran == EXIT_VALIDATION:
        assert run_err == validate_err
        assert not out.exists()
    elif ran == EXIT_OK:
        assert validated == EXIT_OK
        assert _main(["run", str(path), "--out", str(again)])[0] == EXIT_OK
        for log in ("records.log", "notifications.log"):
            assert (out / log).read_bytes() == (again / log).read_bytes()
