"""Traces read in chunks into columns, against the per-line reference parser.

``parse_trace`` checks and converts plain value lines a chunk at a time and
stores decimal and boolean readings as columns that box a value only when it
is read.  ``reference_parse_trace`` in ``oracles`` is the per-line parser it
replaced; on any text both must return the same readings or raise the same
fault on the same line.
"""

import contextlib
import io
import random
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import reference_parse_trace
from tagmon.cli import EXIT_OK, main
from tagmon.errors import TraceFormatError
from tagmon.streams import _CHUNK_LINES, Stream, format_trace, parse_trace
from tagmon.values import BOTTOM, Dec4

DIFFERENTIAL = settings(derandomize=True, database=None, deadline=None,
                        max_examples=150,
                        suppress_health_check=[HealthCheck.too_slow])

C = _CHUNK_LINES
READINGS = {
    "decimal": ("0.0100", "0.0250", "NA", "-0.0000", "12.3456", "-1.5000",
                "007.0000", "922337203685477.5807", "922337203685477.5808",
                "99999999999999999.0000", "-99999999999999999.9999"),
    "boolean": ("true", "false", "NA"),
    "integer": ("0", "-3", "7", "NA", "99999999999999999999"),
    "label": ("green", "amber", "NA"),
}
ARABIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
# (tick, reading) -> line: ticks that int() accepts and faults of every kind
LINE_MANGLES = (
    lambda t, v: f" {t},{v}",
    lambda t, v: f"+{t},{v}",
    lambda t, v: f"{t} ,{v}",
    lambda t, v: f"0{t},{v}",
    lambda t, v: f"{t // 10}_{t % 10},{v}" if t >= 10 else f"{t},{v}",
    lambda t, v: f"{t}".translate(ARABIC_DIGITS) + f",{v}",
    lambda t, v: f"{t + 1},{v}",
    lambda t, v: f"{t - 1},{v}",
    lambda t, v: f"x,{v}",
    lambda t, v: f",{v}",
    lambda t, v: f"{t};{v}",
    lambda t, v: "",
    lambda t, v: f"{t},",
    lambda t, v: f"{t},{v},x",
    lambda t, v: f"{t},{v} ",
    lambda t, v: f"{t}, {v}",
    lambda t, v: f"{t},0.010",
    lambda t, v: f"{t},1.5",
    lambda t, v: f"{t},0.01000",
    lambda t, v: f"{t},+0.0100",
    lambda t, v: f"{t},-.0100",
    lambda t, v: f"{t},1e3",
    lambda t, v: f"{t},na",
    lambda t, v: f"{t},TRUE",
    lambda t, v: f"{t},true",
    lambda t, v: f"{t},7",
    lambda t, v: f"{t},+7",
    lambda t, v: f"{t},1_0",
    lambda t, v: f"{t},green",
    lambda t, v: f"{t},9x",
    lambda t, v: f"{t}," + "0.0100".translate(ARABIC_DIGITS),
    lambda t, v: f"{t},{v}\r{t + 1},{v}",
)
HEADER_MANGLES = (
    lambda h: "",
    lambda h: h.replace("trace", "stream"),
    lambda h: h.replace(" ", "  ", 1),
    lambda h: h.rsplit(" ", 1)[0],
    lambda h: h + " 9",
    lambda h: h.replace(" b ", " 9b "),
    lambda h: h.replace(" b ", " b.x "),
    lambda h: h.replace("decimal", "float").replace("boolean", "bool"),
    lambda h: h.rsplit(" ", 1)[0] + " x",
    lambda h: h.rsplit(" ", 1)[0] + " +" + h.rsplit(" ", 1)[1],
)


@st.composite
def trace_texts(draw):
    kind = draw(st.sampled_from(sorted(READINGS)))
    start = draw(st.sampled_from([0, 1, 7, 10**20]))
    n = draw(st.sampled_from([C + 1, 1, 2, 3, C - 1, C, 2 * C + 1]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = READINGS[kind] if rng.random() < 0.5 else READINGS[kind][:3]
    readings = [rng.choice(pool) for _ in range(n)]
    if rng.random() < 0.5:  # a run of missed readings
        first = rng.randrange(n)
        last = min(n, first + rng.randint(1, 40))
        readings[first:last] = ["NA"] * (last - first)
    lines = [f"{start + i},{v}" for i, v in enumerate(readings)]
    # mangle lines just before, on and after a chunk boundary, or at the ends
    near = sorted({i for i in (0, 1, C - 2, C - 1, C, C + 1, n - 1)
                   if 0 <= i < n})
    for _ in range(rng.choice((0, 1, 1, 2))):
        i = rng.choice(near)
        lines[i] = rng.choice(LINE_MANGLES)(start + i, readings[i])
    header = f"trace b {kind} {start} {start + n}"
    if rng.random() < 0.1:
        header = rng.choice(HEADER_MANGLES)(header)
    text = "\n".join([header] + lines)
    return text + "\n" if rng.random() < 0.5 else text


def _outcome(parse, text):
    try:
        stream_id, kind, stream = parse(text)
    except TraceFormatError as exc:
        return ("fault", exc.message, exc.line)
    return ("ok", stream_id, kind, stream.window,
            tuple(map(repr, stream.values)))


@DIFFERENTIAL
@given(text=trace_texts())
def test_parse_trace_matches_the_per_line_reference(text):
    assert _outcome(parse_trace, text) == _outcome(reference_parse_trace,
                                                   text)


@pytest.mark.parametrize("i, line, message", [
    (0, "0,0.010", "decimal '0.010' must have exactly 4 fractional digits"),
    (C - 1, f"{C - 1},0.010",
     "decimal '0.010' must have exactly 4 fractional digits"),
    (C, f"{C},0.010", "decimal '0.010' must have exactly 4 fractional digits"),
    (C + 1, "9,0.0100", f"tick 9 out of order (expected {C + 1})"),
    (C + 1, "x,0.0100", "non-integer tick 'x'"),
])
def test_a_fault_in_any_chunk_keeps_its_message_and_line(i, line, message):
    lines = [f"{t},0.0100" for t in range(2 * C)]
    lines[i] = line
    text = "\n".join([f"trace b decimal 0 {2 * C}"] + lines) + "\n"
    with pytest.raises(TraceFormatError) as err:
        parse_trace(text)
    assert (err.value.message, err.value.line) == (message, i + 2)


@pytest.mark.parametrize("kind, readings", [
    ("decimal", [Dec4(100), BOTTOM, Dec4(0), Dec4(-15000),
                 Dec4(999999999999999990000)]),
    ("decimal", [Dec4(raw) for raw in range(-5, 2 * C)]),
    ("boolean", [True, BOTTOM, False] * C),
])
def test_a_loaded_stream_equals_and_hashes_like_stream_of(kind, readings):
    expected = Stream.of(3, readings)
    _, _, loaded = parse_trace(format_trace(expected, "b", kind))
    assert loaded == expected and expected == loaded
    assert hash(loaded) == hash(expected)
    assert [loaded.at(t) for t in loaded.window.ticks()] == readings
    assert loaded != Stream.of(4, readings)
    assert loaded != Stream.of(3, readings[:-1] + [BOTTOM])


def test_a_run_boxes_readings_only_when_it_reads_them(
        scenarios_dir, tmp_path, monkeypatch):
    """A mixed alcohol and curfew run never asks a stream for all its
    values, and writes the same logs as a run that may."""
    traces = scenarios_dir / "traces"
    for name in ("alcohol_spike.trace", "alcohol_gap.trace",
                 "curfew_presence.trace"):
        shutil.copy(traces / name, tmp_path / name)
    scenario = tmp_path / "mixed.scenario"
    scenario.write_text(
        "[entity PID-7]\nsentence = 0,720,30,0.0200,0.0050\n"
        "trace = alcohol_spike.trace\n"
        "[entity PID-8]\nsentence = 0,720,30,0.0200,0.0050\n"
        "trace = alcohol_gap.trace\n"
        "[entity PID-9]\ncurfew = 19:00,07:00\nnights = 7\n"
        "trace = curfew_presence.trace\n"
        "[policy]\nrule = breach: on red,absent,violation,absent-signal "
        "set status\n")

    def run(out):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(["run", str(scenario), "--out", str(out)]) == EXIT_OK
        return (stdout.getvalue(), (out / "records.log").read_text(),
                (out / "notifications.log").read_text())

    boxed = run(tmp_path / "boxed")

    def refuse(stream):
        raise AssertionError("the run boxed a whole stream")

    for storage in (Stream, *Stream.__subclasses__()):
        monkeypatch.setattr(storage, "values", property(refuse))
    lazy = run(tmp_path / "lazy")
    assert lazy == boxed
    assert "PID-7|breach|red" in boxed[2] and "PID-9" in boxed[2]
