"""The evaluator's column queries against its tick-by-tick loop.

A parsed boolean trace answers ``forall``/``exists k in lo .. hi : p[k] = c``
with a search of its code bytes, and a parsed decimal trace answers
``max``/``min(b, t1, t2, s)`` with strided slices of its texts.  Each example
evaluates one formula or term on a parsed column and on
``Stream.of(column.values)``, a tuple copy that only the loop can read, and
requires the same value, or the same exception type and message.  A column
query answers only a range its trace's window holds: for such a range,
``at`` is patched to raise, so an example that passes has taken the column
query; for any other range, and for near-misses of the lowered shapes, the
column query is patched to raise instead, so they must take the loop.  A
parsed integer or label trace takes the loop of ``max``/``min`` too,
reading its texts, and must give what its tuple copy gives.  A whole
``tagmon run`` must also log the same with ``at`` disabled.
"""

import contextlib
import io
import shutil
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagmon.cli import EXIT_OK, main
from tagmon.errors import (
    BottomEncountered,
    KindMismatch,
    MonitorError,
    OutOfWindow,
)
from tagmon.formulas import Environment, eval_formula, eval_term
from tagmon.parser import parse_formula, parse_term
from tagmon.streams import (
    Stream,
    _Booleans,
    _Texts,
    format_trace,
    parse_trace,
)
from tagmon.values import BOOLEAN, BOTTOM, DECIMAL, INTEGER, LABEL, Dec4

COLUMN_QUERIES = settings(derandomize=True, database=None, deadline=None,
                          max_examples=300)


def _refuse(*args):
    raise AssertionError("a disabled stream method was called")


def parsed(kind, start, values):
    """The trace of ``values`` from tick ``start`` as ``parse_trace`` stores
    it, and a tuple copy of it."""
    _, _, column = parse_trace(
        format_trace(Stream.of(start, values), "s", kind))
    assert isinstance(column, (_Booleans, _Texts))
    return column, Stream.of(start, column.values)


def outcome(evaluate, node, variables, stream):
    env = Environment({"p": stream, "b": stream, **variables})
    try:
        return evaluate(node, env)
    except MonitorError as exc:
        return type(exc), str(exc)


def same_outcome(evaluate, text, variables, column, copy, disabled):
    """The outcome on ``column``, with the method ``disabled`` of a column
    class raising, if one is given, after checking that it equals the
    outcome on ``copy``."""
    parse = parse_formula if evaluate is eval_formula else parse_term
    node = parse(text)
    with (mock.patch.object(*disabled, _refuse) if disabled
          else contextlib.nullcontext()):
        on_column = outcome(evaluate, node, variables, column)
    assert on_column == outcome(evaluate, node, variables, copy)
    return on_column


def runs(values):
    """Readings in runs of one value, so that scans cross long stretches."""
    return st.lists(st.tuples(values, st.integers(1, 9)), min_size=1,
                    max_size=6).map(
        lambda pairs: [v for v, n in pairs for _ in range(n)])


@st.composite
def gapped(draw, values):
    """(start, readings, lo, hi), with lo and hi inside, around or outside
    the window, in either order."""
    start = draw(st.integers(0, 6))
    readings = draw(runs(values))
    ticks = st.integers(start - 4, start + len(readings) + 4)
    return start, readings, draw(ticks), draw(ticks)


BOOLEANS = st.sampled_from([True, False, BOTTOM])
DECIMALS = st.one_of(st.integers(-99_999, 99_999).map(Dec4),
                     st.integers(-2 ** 70, 2 ** 70).map(Dec4),
                     st.just(BOTTOM))
INTEGERS = st.one_of(st.integers(-99_999, 99_999),
                     st.integers(-2 ** 70, 2 ** 70), st.just(BOTTOM))

# each scan with the reading that lets it go on to the next tick
SCANS = [("forall k in lo .. hi : p[k] = true", True),
         ("forall k in lo .. hi : p[k] = false", False),
         ("exists k in lo .. hi : p[k] = true", False),
         ("exists k in lo .. hi : p[k] = false", True)]
AT = {BOOLEAN: (_Booleans, "at"), DECIMAL: (_Texts, "at")}
# the column queries
SCAN = (_Booleans, "first_other")
TEXTS = (_Texts, "_reduce_texts")
# the readings of each kind whose sampled max/min is checked
REDUCED = {DECIMAL: DECIMALS, INTEGER: INTEGERS,
           LABEL: st.sampled_from(["green", "amber", BOTTOM])}


def path(column, lo, hi, query):
    """The method an example over [lo, hi] disables: ``at`` if the
    column's window holds lo and hi, so that the column query ``query``
    must answer, else ``query``, so that the loop must."""
    held = lo in column.window and hi in column.window
    return (type(column), "at") if held else query


def reduced_path(kind, column, t1, t2):
    """What a sampled max/min over [t1, t2] disables: on a decimal column
    as ``path`` says, on any other the decimal column query, which never
    answers it."""
    return path(column, t1, t2, TEXTS) if kind == DECIMAL else TEXTS


# -- the night scan ------------------------------------------------------------

@COLUMN_QUERIES
@given(trace=gapped(BOOLEANS), scan=st.sampled_from(SCANS))
def test_scan_of_a_boolean_column_matches_the_loop(trace, scan):
    start, readings, lo, hi = trace
    column, copy = parsed(BOOLEAN, start, readings)
    same_outcome(eval_formula, scan[0], {"lo": lo, "hi": hi}, column, copy,
                 path(column, lo, hi, SCAN))


@pytest.mark.parametrize("scan, keep", SCANS)
@pytest.mark.parametrize("gap", [0, 9])
def test_scan_meets_a_missed_reading_at_either_end(scan, keep, gap):
    readings = [keep] * 10
    readings[gap] = BOTTOM
    column, copy = parsed(BOOLEAN, 100, readings)
    assert same_outcome(eval_formula, scan, {"lo": 100, "hi": 109}, column,
                        copy, AT[BOOLEAN]) == (
        BottomEncountered, "test touched an undefined reading")


@pytest.mark.parametrize("scan, keep", SCANS)
@pytest.mark.parametrize("lo, hi, stop, expected", [
    (105, 108, None, "all kept"),
    (98, 105, None, OutOfWindow),   # starts before the window
    (105, 110, None, OutOfWindow),  # runs past its last tick
    (105, 112, 108, "stopped"),     # runs past it, but stops inside it
    (120, 125, None, OutOfWindow),  # entirely after it
    (105, 104, None, "all kept"),   # empty range
    (50, 40, None, "all kept"),     # empty range outside the window
])
def test_scan_bounds_against_the_window(scan, keep, lo, hi, stop, expected):
    readings = [keep] * 10
    if stop is not None:
        readings[stop - 100] = not keep
    column, copy = parsed(BOOLEAN, 100, readings)
    got = same_outcome(eval_formula, scan, {"lo": lo, "hi": hi}, column,
                       copy, path(column, lo, hi, SCAN))
    if expected is OutOfWindow:
        assert got[0] is OutOfWindow
    else:
        assert got is (scan.startswith("forall") == (expected == "all kept"))


NEAR_MISSES = [
    "forall k in lo .. hi : true = p[k]",
    "exists k in lo .. hi : p[k] != false",
    "forall k in lo .. hi : p[k + 1] = true",
    "forall p in lo .. hi : p[p] = true",
    "exists p in 0 .. 0 : forall k in lo .. hi : p[k] = true",
]


@COLUMN_QUERIES
@given(trace=gapped(BOOLEANS), text=st.sampled_from(NEAR_MISSES))
def test_near_misses_of_the_scan_take_the_loop(trace, text):
    start, readings, lo, hi = trace
    column, copy = parsed(BOOLEAN, start, readings)
    same_outcome(eval_formula, text, {"lo": lo, "hi": hi}, column, copy,
                 SCAN)


def test_a_variable_named_as_the_scanned_stream_hides_it():
    # one namespace: under a parameter p, p[k] reads no stream, neither by
    # the column's scan nor by the loop
    column, copy = parsed(BOOLEAN, 0, [True] * 3)
    assert same_outcome(eval_formula, "forall k in 0 .. 2 : p[k] = true",
                        {"p": 5}, column, copy, SCAN) == (
        KindMismatch, "'p' is not bound to a stream")


@COLUMN_QUERIES
@given(trace=gapped(DECIMALS))
def test_a_boolean_literal_over_a_decimal_column_takes_the_loop(trace):
    start, readings, lo, hi = trace
    column, copy = parsed(DECIMAL, start, readings)
    same_outcome(eval_formula, "forall k in lo .. hi : b[k] = true",
                 {"lo": lo, "hi": hi}, column, copy, SCAN)


# -- the sampled max and min ---------------------------------------------------

@pytest.mark.parametrize("kind", sorted(REDUCED))
@COLUMN_QUERIES
@given(data=st.data(), s=st.integers(0, 7),
       op=st.sampled_from(["max", "min"]))
def test_sampled_reduction_of_a_parsed_trace_matches_the_loop(kind, data, s,
                                                              op):
    start, readings, t1, t2 = data.draw(gapped(REDUCED[kind]))
    column, copy = parsed(kind, start, readings)
    same_outcome(eval_term, f"{op}(b, t1, t2, s)",
                 {"t1": t1, "t2": t2, "s": s}, column, copy,
                 reduced_path(kind, column, t1, t2))


@pytest.mark.parametrize("kind, box", [(DECIMAL, Dec4), (INTEGER, int)])
@pytest.mark.parametrize("op", ["max", "min"])
@pytest.mark.parametrize("t1, t2, s, expected", [
    (103, 103, 1, 3),         # one sample
    (102, 108, 10, 2),        # a step past t2: one sample
    (100, 109, 3, (0, 9)),    # samples 100, 103, 106, 109: (min, max)
    (106, 110, 3, (6, 9)),    # t2 past the window, samples 106, 109 in it
    (104, 106, 1, BOTTOM),    # the NA at 105
    (99, 102, 1, OutOfWindow),
    (106, 112, 2, OutOfWindow),
    (110, 110, 1, OutOfWindow),
])
def test_sampled_reduction_edges(kind, box, op, t1, t2, s, expected):
    readings = [box(unit) for unit in range(10)]
    readings[5] = BOTTOM
    column, copy = parsed(kind, 100, readings)
    got = same_outcome(eval_term, f"{op}(b, t1, t2, s)",
                       {"t1": t1, "t2": t2, "s": s}, column, copy,
                       reduced_path(kind, column, t1, t2))
    if isinstance(expected, tuple):
        assert got == box(expected[op == "max"])
    elif expected is OutOfWindow:
        assert got[0] is OutOfWindow
    elif expected is BOTTOM:
        assert got is BOTTOM
    else:
        assert got == box(expected)


# -- a whole run ---------------------------------------------------------------

MIXED = """\
[entity PID-7]
sentence = 0,720,30,0.0200,0.0050
trace = alcohol_spike.trace

[entity PID-8]
sentence = 0,720,30,0.0200,0.0050
trace = alcohol_gap.trace

[entity PID-9]
curfew = 19:00,07:00
nights = 7
trace = curfew_presence.trace

[policy]
rule = breach: on red,absent,violation,absent-signal set status
"""


def test_a_run_reads_both_columns_through_their_queries(tmp_path,
                                                        scenarios_dir):
    for name in ("alcohol_spike", "alcohol_gap", "curfew_presence"):
        shutil.copy(scenarios_dir / "traces" / f"{name}.trace", tmp_path)
    scenario = tmp_path / "mixed.scenario"
    scenario.write_text(MIXED, encoding="ascii")

    def run(out):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(["run", str(scenario), "--out", str(out)])
        logs = [(out / log).read_text(encoding="ascii")
                for log in ("records.log", "notifications.log")]
        return code, stdout.getvalue(), stderr.getvalue(), logs

    expected = run(tmp_path / "reference")
    assert expected[0] == EXIT_OK
    assert {"red", "absent", "violation", "absent-signal"} <= {
        line.split("|")[3] for line in expected[3][0].splitlines()}
    with mock.patch.object(*AT[BOOLEAN], _refuse), \
            mock.patch.object(*AT[DECIMAL], _refuse):
        assert run(tmp_path / "columns") == expected
