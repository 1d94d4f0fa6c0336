"""Traces read in chunks into columns, against the per-line reference parser.

``parse_trace`` reads the text in place, in chunks cut at a line break after
a fixed number of characters.  It checks plain value lines a chunk at a
time, their ticks against a tick column cached per window, and stores a
boolean trace's codes or any other trace's texts, boxing a value only when
it is read.  ``reference_parse_trace`` in ``oracles`` is the per-line
parser it replaced; on any text, whatever its line breaks, both must return
the same readings or raise the same fault on the same line.
"""

import contextlib
import io
import random
import shutil
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import reference_parse_trace
from tagmon import streams
from tagmon.cli import EXIT_OK, gen_trace, main
from tagmon.errors import KindMismatch, TraceFormatError
from tagmon.streams import (
    _CHUNK_CHARS,
    Stream,
    _tick_column,
    format_trace,
    parse_trace,
    save_trace,
)
from tagmon.values import BOTTOM, KINDS, Dec4, format_value

DIFFERENTIAL = settings(derandomize=True, database=None, deadline=None,
                        max_examples=150,
                        suppress_health_check=[HealthCheck.too_slow])

C = _CHUNK_CHARS
READINGS = {
    "decimal": ("0.0100", "0.0250", "NA", "-0.0000", "12.3456", "-1.5000",
                "007.0000", "922337203685477.5807", "922337203685477.5808",
                "99999999999999999.0000", "-99999999999999999.9999"),
    "boolean": ("true", "false", "NA"),
    "integer": ("0", "-3", "7", "NA", "99999999999999999999"),
    "label": ("green", "amber", "NA"),
}
ARABIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def tick_prefix(t, v):
    """Tick t written as a proper prefix of itself (1749 as 174), which a
    tick check that compares the text alone takes for t."""
    return f"{t // 10},{v}" if t >= 10 else f"{t},{v}"


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
    tick_prefix,
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
    lambda t, v: f"{t},0{v}",
    lambda t, v: f"{t},-0",
    lambda t, v: f"{t},-0.0000",
    lambda t, v: f"{t},-0.0001",
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
    lambda h: h.rsplit(" ", 1)[0] + " 0_" + h.rsplit(" ", 1)[1],
    lambda h: h.rsplit(" ", 1)[0] + " 0" + h.rsplit(" ", 1)[1],
    lambda h: h.translate(ARABIC_DIGITS),
)


# line breaks that str.splitlines() honours besides \n
LINE_BREAKS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029")


def cut_lines(lines):
    """The indices of the value lines that hold a chunk's cut: each chunk
    ends with the first line that takes it past ``_CHUNK_CHARS`` characters,
    line breaks included."""
    cuts, size = [], 0
    for i, line in enumerate(lines):
        size += len(line) + 1
        if size > C:
            cuts.append(i)
            size = 0
    return cuts


@st.composite
def trace_texts(draw):
    kind = draw(st.sampled_from(sorted(READINGS)))
    start = draw(st.sampled_from([0, 1, 7, 10**20]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = READINGS[kind] if rng.random() < 0.5 else READINGS[kind][:3]
    # enough lines of at least 5 characters for two cuts
    readings = [rng.choice(pool) for _ in range(2 * C // 5 + 3)]
    if rng.random() < 0.5:  # a run of missed readings
        first = rng.randrange(len(readings))
        last = min(len(readings), first + rng.randint(1, 40))
        readings[first:last] = ["NA"] * (last - first)
    lines = [f"{start + i},{v}" for i, v in enumerate(readings)]
    cuts = cut_lines(lines)
    # in a quarter of the column-read traces, a fault on the first chunk's
    # last line, whose tick ends the first tick comparison
    at_cut = kind in ("decimal", "boolean") and rng.random() < 0.25
    # end the trace early, on the line before, on or after a cut, or past
    # the second cut
    ends = [cuts[0] + 1, cuts[0] + 2, cuts[1] + 2]
    n = draw(st.sampled_from(ends if at_cut else [1, 2, 3, cuts[0], *ends]))
    del lines[n:]
    # mangle lines just before, on and after a cut, or at the ends
    near = sorted({i for c in cuts
                   for i in (0, 1, c - 1, c, c + 1, c + 2, n - 1)
                   if 0 <= i < n})
    for _ in range(rng.choice((0, 1, 1, 2))):
        i = rng.choice(near)
        lines[i] = rng.choice(LINE_MANGLES)(start + i, readings[i])
    if at_cut:
        i = cuts[0]
        mangle = rng.choice((tick_prefix, rng.choice(LINE_MANGLES)))
        lines[i] = mangle(start + i, readings[i])
    header = f"trace b {kind} {start} {start + n}"
    if rng.random() < 0.1:
        header = rng.choice(HEADER_MANGLES)(header)
    elif rng.random() < 0.05:  # every tick one off its window
        shift = rng.choice((-1, 1))
        lines = [f"{start + i + shift},{v}"
                 for i, v in enumerate(readings[:n])]
    lines.insert(0, header)
    ending = rng.random()
    if ending < 0.7:
        text = "\n".join(lines)
    elif ending < 0.8:
        text = "\r\n".join(lines)
    elif ending < 0.9:
        text = "\r".join(lines)
    else:  # mixed endings, \n most of all
        text = lines[0] + "".join(
            rng.choice(("\n", "\n") + LINE_BREAKS) + line
            for line in lines[1:])
    return text + rng.choice(("", "\n", "\r\n", "\r"))


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


LONG_LINES = {kind: [f"{t},{reading}" for t in range(2 * C // 8)]
              for kind, reading in (("decimal", "0.0100"),
                                    ("boolean", "true"))}
CUT = cut_lines(LONG_LINES["decimal"])[0]
BOOLEAN_CUT = cut_lines(LONG_LINES["boolean"])[0]


@pytest.mark.parametrize("kind, i, line, message", [
    ("decimal", 0, "0,0.010",
     "decimal '0.010' must have exactly 4 fractional digits"),
    ("decimal", CUT - 1, f"{CUT - 1},0.010",
     "decimal '0.010' must have exactly 4 fractional digits"),
    ("decimal", CUT, f"{CUT},0.010",
     "decimal '0.010' must have exactly 4 fractional digits"),
    ("decimal", CUT + 1, f"{CUT + 1},0.010",
     "decimal '0.010' must have exactly 4 fractional digits"),
    ("decimal", CUT + 2, "9,0.0100",
     f"tick 9 out of order (expected {CUT + 2})"),
    ("decimal", CUT + 2, "x,0.0100", "non-integer tick 'x'"),
    ("decimal", 0, "+0,0.0100", "non-integer tick '+0'"),
    ("decimal", 0, " 0,0.0100", "non-integer tick ' 0'"),
    ("decimal", 0, "0_0,0.0100", "non-integer tick '0_0'"),
    ("decimal", CUT + 2, f"+{CUT + 2},0.0100",
     f"non-integer tick '+{CUT + 2}'"),
    ("decimal", CUT + 2, f"{CUT + 2}".translate(ARABIC_DIGITS) + ",0.0100",
     f"non-integer tick '{CUT + 2}'".translate(ARABIC_DIGITS)),
    ("decimal", CUT, f"{CUT}," + "0.0100".translate(ARABIC_DIGITS),
     "decimal '٠.٠١٠٠' must have exactly 4 fractional digits"),
    ("decimal", 0, "-0,0.0100", "tick '-0' must be written '0'"),
    ("decimal", 0, "00,0.0100", "tick '00' must be written '0'"),
    ("decimal", 1, "01,0.0100", "tick '01' must be written '1'"),
    ("decimal", CUT + 2, f"0{CUT + 2},0.0100",
     f"tick '0{CUT + 2}' must be written '{CUT + 2}'"),
    ("decimal", 0, "0,00.0100", "decimal '00.0100' must be written '0.0100'"),
    ("decimal", CUT, f"{CUT},-0.0000",
     "decimal '-0.0000' must be written '0.0000'"),
    ("decimal", CUT + 2, f"{CUT + 2},010.0000",
     "decimal '010.0000' must be written '10.0000'"),
    # a tick that is a proper prefix of the expected one, on the cut line
    ("decimal", CUT, f"{CUT // 10},0.0100",
     f"tick {CUT // 10} out of order (expected {CUT})"),
    ("boolean", BOOLEAN_CUT, f"{BOOLEAN_CUT // 10},true",
     f"tick {BOOLEAN_CUT // 10} out of order (expected {BOOLEAN_CUT})"),
])
@pytest.mark.parametrize("ending", ["\n", "\r\n"])
def test_a_fault_in_any_chunk_keeps_its_message_and_line(kind, i, line,
                                                          message, ending):
    """A fault on the line before the first cut, on the line that holds
    it, or on the lines after it, with either line ending."""
    lines = LONG_LINES[kind].copy()
    lines[i] = line
    assert cut_lines(lines)[0] == cut_lines(LONG_LINES[kind])[0]
    text = ending.join([f"trace b {kind} 0 {len(lines)}"] + lines) + ending
    with pytest.raises(TraceFormatError) as err:
        parse_trace(text)
    assert (err.value.message, err.value.line) == (message, i + 2)


@pytest.mark.parametrize("reading", ["1" * 5000, "-" + "9" * 5000])
def test_an_integer_past_the_digit_limit_is_refused_on_its_line(reading):
    """An integer reading that the plain pattern matches but ``int`` does
    not read, under the interpreter's limit on an integer's digits, is
    refused as the per-line parser refuses it."""
    lines = [f"{t},{t}" for t in range(3 * C // 8)]
    i = cut_lines(lines)[0] + 1
    lines[i] = f"{i},{reading}"
    text = "\n".join([f"trace b integer 0 {len(lines)}"] + lines)
    assert _outcome(parse_trace, text) == _outcome(reference_parse_trace,
                                                   text)
    assert _outcome(parse_trace, text) == (
        "fault", f"not an integer: {reading!r}", i + 2)


@pytest.mark.parametrize("kind, digits, fault", [
    ("decimal", "{}.0000", "not a fixed-point decimal"),
    ("integer", "{}0000", "not an integer"),
])
@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("past", [0, 1])
def test_a_number_past_the_digit_limit_is_refused_on_its_line(
        digit_limit, kind, digits, fault, sign, past):
    """A reading is refused, as the per-line parser refuses it, exactly
    when ``int`` cannot read it: when its digits, a decimal's 4 fractional
    ones too, are more than the limit.  A reading at the limit loads and
    is read, and with no limit the longer one does too."""
    whole = "9" * (digit_limit - 4 + past)
    reading = sign + digits.format(whole)
    lines = [f"{t},0.0100" if kind == "decimal" else f"{t},{t}"
             for t in range(3 * C // 8)]
    i = cut_lines(lines)[0] + 1
    lines[i] = f"{i},{reading}"
    text = "\n".join([f"trace b {kind} 0 {len(lines)}"] + lines)
    assert _outcome(parse_trace, text) == _outcome(reference_parse_trace,
                                                   text)
    if past:
        assert _outcome(parse_trace, text) == (
            "fault", f"{fault}: {reading!r}", i + 2)
        sys.set_int_max_str_digits(0)
    value = int(f"{sign}{whole}0000")
    stream = parse_trace(text)[2]
    if kind == "decimal":
        value = Dec4(value)
        assert stream.reduce_samples("max", i, i, 1) == value
    assert stream.at(i) == value


@pytest.mark.parametrize("kind, reading, box", [
    ("decimal", "9" * 700 + ".0000", Dec4), ("integer", "9" * 700, int)])
def test_a_reading_past_a_lowered_digit_limit_is_a_kind_mismatch(
        digit_limit, kind, reading, box):
    """A trace loaded under a looser digit limit than the one in force when
    it is read: each read of the long reading raises KindMismatch naming
    the limit, and the other readings still read."""
    sys.set_int_max_str_digits(0)
    _, _, stream = parse_trace(f"trace b {kind} 0 3\n0,NA\n1,{reading}\n"
                               f"2,{format_value(box(1))}\n")
    sys.set_int_max_str_digits(digit_limit)
    reads = (lambda: stream.at(1), lambda: stream.values,
             lambda: stream.reduce_samples("max", 1, 2, 1),
             # the NA before it does not hide it: every sample is read
             lambda: stream.reduce_samples("max", 0, 2, 1))
    for read in reads:
        with pytest.raises(KindMismatch) as err:
            read()
        assert str(err.value) == (f"{kind} reading past int's digit limit "
                                  f"of {digit_limit} cannot be read")
    assert stream.at(0) is BOTTOM and stream.at(2) == box(1)
    assert stream.reduce_samples("max", 2, 2, 1) == box(1)


@pytest.mark.parametrize("lowered", [False, True])
@pytest.mark.parametrize("kind, box", [("integer", int), ("decimal", Dec4)])
@pytest.mark.parametrize("sign", [1, -1])
def test_the_writer_refuses_a_number_the_reader_would_refuse(
        tmp_path, request, lowered, kind, box, sign):
    """The largest integer, and decimal in raw units, that ``int`` reads
    round-trips; one digit more is refused on its tick, in a trace of any
    kind, without writing the number, and ``save_trace`` leaves the file as
    it was."""
    limit = (request.getfixturevalue("digit_limit") if lowered
             else sys.get_int_max_str_digits())
    largest = Stream.of(5, [BOTTOM, box(sign * (10 ** limit - 1))])
    text = format_trace(largest, "b", kind)
    assert parse_trace(text) == ("b", kind, largest)
    path = tmp_path / "b.trace"
    path.write_text(text)
    past = Stream.of(5, [BOTTOM, box(sign * 10 ** limit)])
    for written in KINDS:
        with pytest.raises(TraceFormatError) as err:
            save_trace(path, past, "b", written)
        assert str(err.value) == (f"tick 6: {written} trace cannot hold a "
                                  "number past int's digit limit")
    assert path.read_text() == text


@pytest.mark.parametrize("first, second", [(0, 1), (1, 0), (7, 6)])
def test_a_tick_column_answers_only_for_its_window(first, second):
    """Two traces of one length whose windows start a tick apart: the
    second, whose lines carry the first one's ticks, is a fault, however
    the first was read."""
    lines = [f"{first + i},true" for i in range(3 * C // 8)]
    for start in (first, second):
        text = "\n".join([f"trace b boolean {start} {start + len(lines)}"]
                         + lines)
        assert _outcome(parse_trace, text) == _outcome(reference_parse_trace,
                                                       text)
    assert _outcome(parse_trace, text) == (
        "fault", f"tick {first} out of order (expected {second})", 2)


@pytest.mark.parametrize("start", [0, 1, 9, 10, 11, 99, 100, 101, 10**20 - 1])
def test_the_tick_column(start):
    """The column is the window's ticks, each ended by a line break, over
    more than one block of ticks."""
    horizon = start + 9000
    assert _tick_column(start, horizon) == "".join(
        f"{t}\n" for t in range(start, horizon))


@pytest.mark.parametrize("kind", sorted(READINGS))
@pytest.mark.parametrize("start", [0, 95, 9990, 10**20 - 5])
@pytest.mark.parametrize("ending", ["\n", "\r\n"])
def test_a_plain_trace_takes_no_per_line_check(kind, start, ending,
                                               monkeypatch):
    """Chunks of plain lines, whose ticks pass a power of ten, are checked
    against the tick column alone, never line by line."""
    n = 3 * C // 8
    lines = [f"trace b {kind} {start} {start + n}"] + [
        f"{start + i},{READINGS[kind][i % 3]}" for i in range(n)]
    text = ending.join(lines) + ending

    def refuse(*args):
        raise AssertionError("a plain chunk took the per-line checks")

    monkeypatch.setattr(streams, "_checked_readings", refuse)
    assert _outcome(parse_trace, text) == _outcome(reference_parse_trace,
                                                   text)


@pytest.mark.parametrize("kind", ["integer", "label"])
def test_an_integer_or_label_trace_checks_no_reading_again(kind,
                                                           monkeypatch):
    """The plain pattern has accepted every reading of a chunk, so the
    stream is not checked again value by value."""
    readings = READINGS[kind]
    lines = [f"{t},{readings[t % len(readings)]}" for t in range(C // 6)]
    assert len(cut_lines(lines)) == 1  # two chunks
    text = "\n".join([f"trace b {kind} 0 {len(lines)}"] + lines) + "\n"
    checked = []
    is_carrier = streams.is_carrier

    def counted(value):
        checked.append(value)
        return is_carrier(value)

    monkeypatch.setattr(streams, "is_carrier", counted)
    parsed = _outcome(parse_trace, text)
    assert parsed[0] == "ok" and checked == []
    monkeypatch.undo()
    assert parsed == _outcome(reference_parse_trace, text)


@DIFFERENTIAL
@given(text=trace_texts())
def test_every_refusal_is_worded_by_a_per_line_check(text):
    """Whatever chunk the plain rule refuses, a per-line check finds its
    fault: no text of the differential corpus gets the fault of a chunk
    whose lines pass them all."""
    try:
        parse_trace(text)
    except TraceFormatError as exc:
        assert exc.message != streams._UNWORDED_FAULT


@pytest.mark.parametrize("kind", sorted(READINGS))
def test_lines_that_pass_the_per_line_checks_are_still_refused(kind,
                                                               monkeypatch):
    """The per-line checks accept nothing: were they to find no fault in a
    chunk that the plain rule refused, the chunk is refused on its first
    line, and no reading is loaded."""
    lines = [f"{t},{READINGS[kind][t % 3]}" for t in range(3 * C // 8)]
    lines[-1] = "x,NA"
    text = "\n".join([f"trace b {kind} 0 {len(lines)}"] + lines)
    monkeypatch.setattr(streams, "_checked_readings", lambda *args: None)
    assert _outcome(parse_trace, text) == (
        "fault", streams._UNWORDED_FAULT, cut_lines(lines)[-1] + 3)


def long_trace(kind):
    """A 143,940-minute trace: the dry one of ``extended_dry``, or integer
    readings from 0 to 99,999 or two labels, each with a run of missed
    readings."""
    n = 143940
    if kind == "decimal":
        return format_trace(gen_trace(n, 42), "b", kind)
    readings = [str(t * 7919 % 100_000) if kind == "integer"
                else ("green", "amber")[t // 90 % 2] for t in range(n)]
    readings[5000:5060] = ["NA"] * 60
    return f"trace b {kind} 0 {n}\n" + "".join(
        f"{t},{reading}\n" for t, reading in enumerate(readings))


@pytest.mark.parametrize("kind", ["decimal", "integer", "label"])
def test_reading_a_long_trace_peaks_below_three_times_its_text(kind):
    """A long trace read with no tick column cached: the reader holds no
    list of its lines, ticks or boxed readings."""
    text = long_trace(kind)
    _tick_column.cache_clear()
    tracemalloc.start()
    try:
        parse_trace(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text)


@pytest.mark.parametrize("kind, readings", [
    ("decimal", [Dec4(100), BOTTOM, Dec4(0), Dec4(-15000),
                 Dec4(999999999999999990000)]),
    ("decimal", [Dec4(raw) for raw in range(-5, C // 4)]),
    ("boolean", [True, BOTTOM, False] * (C // 8)),
    ("integer", [7, BOTTOM, 0, -15000, 10 ** 30] * (C // 16)),
    ("label", ["green", BOTTOM, "amber"] * (C // 8)),
])
def test_a_loaded_stream_equals_and_hashes_like_stream_of(kind, readings):
    expected = Stream.of(3, readings)
    _, _, loaded = parse_trace(format_trace(expected, "b", kind))
    assert loaded == expected and expected == loaded
    assert hash(loaded) == hash(expected)
    assert [loaded.at(t) for t in loaded.window.ticks()] == readings
    assert loaded != Stream.of(4, readings)
    assert loaded != Stream.of(3, readings[:-1] + [BOTTOM])


def test_a_decimal_trace_converts_a_reading_only_when_it_is_read(
        monkeypatch):
    """Loading keeps the readings' texts; ``at`` converts the one it reads
    and ``reduce_samples`` every sample it takes but NA, before it answers
    BOTTOM for an NA, as the per-tick path reads them."""
    readings = [Dec4(raw) for raw in range(721)]
    readings[40] = BOTTOM
    text = format_trace(Stream.of(0, readings), "b", "decimal")
    converted = []

    def counted_int(text):
        converted.append(text)
        return int(text)

    monkeypatch.setattr(streams, "int", counted_int, raising=False)
    _, _, loaded = parse_trace(text)
    assert converted == []
    assert loaded.at(300) == Dec4(300) and len(converted) == 1
    assert loaded.at(40) is BOTTOM and len(converted) == 1
    assert loaded.reduce_samples("max", 0, 720, 30) == Dec4(720)
    assert len(converted) == 1 + 25
    assert loaded.reduce_samples("max", 0, 720, 20) is BOTTOM
    assert len(converted) == 1 + 25 + 36


# each kind's readings as written, and near misses of their spelling
SPELLINGS = {
    "decimal": (("0.0100", "12.3456", "-1.5000", "-0.0001", "0.0000", "NA"),
                ("00.0100", "-0.0000", "+0.0100", "1_2.3456", "012.3456",
                 "0.010", " 0.0100")),
    "integer": (("0", "7", "-3", "10", "NA"),
                ("007", "-0", "+7", "1_0", "00", " 7")),
    "boolean": (("true", "false", "NA"), ("+true", "0true", "True")),
    "label": (("green", "a_b", "NA"), ("_a", "0green", "green ")),
}


def tick_spellings(t):
    """A tick or bound as written, and near misses of it."""
    return (str(t),), (f"0{t}", f"+{t}", f"-{t}",
                       f"{t // 10}_{t % 10}" if t >= 10 else f"0_{t}")


@st.composite
def spelt_traces(draw):
    """Short traces whose numbers are mostly written as ``format_trace``
    writes them, and each one in ten a near miss."""
    def spelt(spellings):
        written, near = spellings
        return draw(st.sampled_from(near if draw(st.integers(0, 9)) == 0
                                    else written))

    kind = draw(st.sampled_from(sorted(SPELLINGS)))
    start = draw(st.sampled_from([0, 1, 9, 10, 99]))
    n = draw(st.integers(1, 12))
    lines = [f"trace b {kind} {spelt(tick_spellings(start))} "
             f"{spelt(tick_spellings(start + n))}"]
    lines += [f"{spelt(tick_spellings(t))},{spelt(SPELLINGS[kind])}"
              for t in range(start, start + n)]
    breaks = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                           min_size=len(lines), max_size=len(lines)))
    return "".join(map(str.__add__, lines, breaks))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(text=spelt_traces())
def test_an_accepted_trace_is_written_back_as_it_was_read(text):
    """Every number of a trace has one spelling: whatever text the reader
    accepts, the writer gives back, with each line ended by \\n."""
    try:
        stream_id, kind, stream = parse_trace(text)
    except TraceFormatError:
        return
    assert format_trace(stream, stream_id, kind) == "".join(
        line + "\n" for line in text.splitlines())


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
