import random

import pytest
from hypothesis import given, strategies as st

from tagmon.errors import (
    ArityMismatch,
    BottomConstant,
    BottomEncountered,
    KindMismatch,
    OutOfWindow,
    ShiftTooLarge,
    TraceFormatError,
    WindowMismatch,
)
from tagmon.streams import (
    OPERATIONS,
    Operation,
    Relation,
    Stream,
    Window,
    exists_before,
    forall_before,
    format_trace,
    insert,
    lift_const,
    lift_op,
    lift_test,
    merge,
    parse_trace,
    shift,
)
from tagmon.values import BOTTOM, Dec4, compare

from oracles import random_int_stream

MAX_OP = OPERATIONS["max"]
ADD_OP = OPERATIONS["add"]
LT_TEST = Relation("lt", 2, lambda a, b: compare("lt", a, b))
EQ_TEST = Relation("eq", 2, lambda a, b: compare("eq", a, b))

int_streams = st.integers(0, 5).flatmap(
    lambda start: st.lists(st.integers(-9, 9), min_size=1, max_size=16).map(
        lambda vals: Stream.of(start, vals)))


def test_window_invariants():
    w = Window(2, 5)
    assert w.length == 3
    assert 2 in w and 4 in w and 5 not in w
    with pytest.raises(OutOfWindow):
        Window(3, 3)
    with pytest.raises(OutOfWindow):
        Window(-1, 4)


def test_eval_constant_stream():
    c = lift_const(5, Window(0, 10))
    assert c.at(3) == 5
    assert all(c.at(t) == 5 for t in c.window.ticks())


def test_eval_reads_back_constructed_trace():
    values = [Dec4(100)] * 121
    values[30] = Dec4.parse("0.0180")
    b = Stream.of(0, values)
    assert b.at(30) == Dec4.parse("0.0180")


def test_eval_missed_reading_is_bottom():
    b = Stream.of(0, [Dec4(10), BOTTOM, Dec4(12)])
    assert b.at(1) is BOTTOM


def test_eval_outside_window():
    a = Stream.of(5, [1, 2])
    with pytest.raises(OutOfWindow):
        a.at(4)
    with pytest.raises(OutOfWindow):
        a.at(7)


def test_lift_const_examples():
    assert lift_const(True, Window(0, 4)).values == (True,) * 4
    assert lift_const(Dec4.parse("0.02"), Window(0, 2)).values == (
        Dec4(200), Dec4(200))
    assert lift_const("green", Window(0, 1)).values == ("green",)
    with pytest.raises(BottomConstant):
        lift_const(BOTTOM, Window(0, 3))


def test_lift_op_elementwise_max():
    a = Stream.of(0, [1, 5, 2])
    b = Stream.of(0, [4, 0, 9])
    expected = tuple(max(x, y) for x, y in zip(a.values, b.values))
    assert lift_op(MAX_OP, [a, b]).values == expected == (4, 5, 9)


def test_lift_op_strict_bottom_propagation():
    a = Stream.of(0, [1, 1])
    b = Stream.of(0, [BOTTOM, 2])
    assert lift_op(ADD_OP, [a, b]).values == (BOTTOM, 3)


def test_lift_op_identity():
    ident = Operation("id", 1, lambda x: x)
    a = Stream.of(3, [7, BOTTOM, 9])
    assert lift_op(ident, [a]) == a


def test_lift_op_errors():
    a, b = Stream.of(0, [1, 2]), Stream.of(1, [1, 2])
    with pytest.raises(WindowMismatch):
        lift_op(ADD_OP, [a, b])
    with pytest.raises(ArityMismatch):
        lift_op(ADD_OP, [a])


def test_lift_test_pointwise():
    a = Stream.of(0, [1, 5])
    three = lift_const(3, a.window)
    assert lift_test(LT_TEST, [a, three]).values == (True, False)
    assert lift_test(EQ_TEST, [a, a]).values == (True, True)
    gappy = Stream.of(0, [1, BOTTOM])
    assert lift_test(EQ_TEST, [gappy, gappy]).values == (True, BOTTOM)


def test_shift_examples():
    a = Stream.of(0, [7, 8, 9])
    s = shift(a, 1)
    assert s.values == tuple(a.values[1:]) == (8, 9)
    assert s.window == Window(0, 2)
    assert shift(a, 0) == a
    assert shift(shift(a, 1), 1) == shift(a, 2)
    with pytest.raises(ShiftTooLarge):
        shift(a, 3)


def test_merge_interleaves():
    a, b = Stream.of(0, [1, 2]), Stream.of(0, [9, 8])
    interleaved = []
    for x, y in zip(a.values, b.values):
        interleaved += [x, y]
    m = merge(a, b)
    assert m.values == tuple(interleaved) == (1, 9, 2, 8)
    assert merge(Stream.of(0, ["x"]), Stream.of(0, ["y"])).values == ("x", "y")
    with pytest.raises(WindowMismatch):
        merge(a, Stream.of(0, [1, 2, 3]))


def test_insert_examples():
    a = Stream.of(0, [1, 2, 3])
    assert insert(a, 1, 9).values == (1, 9, 3)
    assert insert(a, 1, a.at(1)) == a
    gappy = Stream.of(0, [Dec4(10), BOTTOM])
    repaired = insert(gappy, 1, Dec4.parse("0.02"))
    assert repaired.at(1) == Dec4(200)
    with pytest.raises(OutOfWindow):
        insert(a, 3, 0)


@pytest.mark.parametrize("build, error, message", [
    (lambda: lift_const(1.5, Window(0, 3)), KindMismatch,
     "not a carrier value: 1.5"),
    (lambda: lift_const("no good", Window(0, 3)), KindMismatch,
     "not a carrier value: 'no good'"),
    (lambda: lift_const(BOTTOM, Window(0, 3)), BottomConstant,
     "cannot lift BOTTOM to a constant stream"),
    (lambda: insert(Stream.of(0, [1, 2, 3]), 1, None), KindMismatch,
     "not a carrier value: None"),
    (lambda: insert(Stream.of(0, [1, 2, 3]), 3, None), OutOfWindow,
     "t=3 outside window [0, 3)"),
])
def test_the_algebra_refuses_a_value_that_is_no_carrier(build, error,
                                                        message):
    """``lift_const`` and ``insert`` leave the check of a reading to
    ``Stream``; ``insert`` checks the tick first."""
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error
    assert str(err.value) == message



def _parsed_columns():
    """A parsed decimal and boolean trace, each with its tuple copy."""
    rng = random.Random(3)
    decimals = Stream.of(0, [BOTTOM if rng.random() < 0.1
                             else Dec4(rng.randint(-500, 500))
                             for _ in range(300)])
    booleans = Stream.of(0, [rng.choice((True, False, BOTTOM))
                             for _ in range(300)])
    out = []
    for stream, kind in ((decimals, "decimal"), (booleans, "boolean")):
        parsed = parse_trace(format_trace(stream, "x", kind).encode())[2]
        assert type(parsed) is not Stream
        out.append((parsed, Stream.of(0, stream.values)))
    return out


def test_liftings_read_each_parsed_column_once(monkeypatch):
    (dec, dec_copy), (bln, bln_copy) = _parsed_columns()
    calls = [
        (lambda d, b: lift_op(ADD_OP, [d, d]), 2),
        (lambda d, b: lift_test(LT_TEST, [d, d]), 2),
        (lambda d, b: lift_test(EQ_TEST, [b, b]), 2),
        (lambda d, b: insert(d, 7, Dec4(1)), 1),
        (lambda d, b: insert(b, 7, True), 1),
    ]
    expected = [call(dec_copy, bln_copy) for call, _ in calls]
    reads = []
    for column in (type(dec), type(bln)):
        boxed = column.values

        def counted(self, boxed=boxed):
            reads.append(self)
            return boxed.fget(self)

        monkeypatch.setattr(column, "values", property(counted))
    for (call, arity), want in zip(calls, expected):
        reads.clear()
        got = call(dec, bln)
        assert len(reads) == arity
        assert got == want


def lt3():
    return Relation("lt3", 1, lambda x: x < 3)


def gt4():
    return Relation("gt4", 1, lambda x: x > 4)


def test_forall_before_loop_oracle():
    a = Stream.of(0, [1, 2, 5])
    for t in range(0, 4):
        expected = all(v < 3 for v in a.values[:t])
        assert forall_before(lt3(), t, [a]) == expected
    assert forall_before(lt3(), 2, [a]) is True
    assert forall_before(lt3(), 0, [a]) is True  # vacuous at window start
    assert forall_before(lt3(), 3, [a]) is False


def test_exists_before_loop_oracle():
    a = Stream.of(0, [1, 2, 5])
    for t in range(0, 4):
        expected = any(v > 4 for v in a.values[:t])
        assert exists_before(gt4(), t, [a]) == expected
    assert exists_before(gt4(), 3, [a]) is True
    assert exists_before(gt4(), 0, [a]) is False


def test_quantified_tests_reject_bottom_and_overflow():
    gappy = Stream.of(0, [1, BOTTOM, 2])
    with pytest.raises(BottomEncountered):
        forall_before(lt3(), 3, [gappy])
    with pytest.raises(BottomEncountered):
        exists_before(gt4(), 2, [gappy])
    with pytest.raises(OutOfWindow):
        forall_before(lt3(), 4, [gappy])


# -- algebraic laws -----------------------------------------------------------

@given(int_streams)
def test_totality(a):
    for t in a.window.ticks():
        a.at(t)


@given(int_streams, int_streams)
def test_pointwise_law(a, b):
    if a.window != b.window:
        b = Stream(a.window, tuple(
            b.values[i % len(b.values)] for i in range(a.window.length)))
    lifted = lift_op(ADD_OP, [a, b])
    for t in a.window.ticks():
        assert lifted.at(t) == a.at(t) + b.at(t)


@given(int_streams, st.integers(0, 30))
def test_shift_laws(a, k):
    if k >= a.window.length:
        k = k % a.window.length
    s = shift(a, k)
    for t in s.window.ticks():
        assert s.at(t) == a.at(t + k)
    j = k // 2
    if j + (k - j) < a.window.length:
        assert shift(shift(a, j), k - j) == shift(a, k)


@given(int_streams, int_streams)
def test_merge_laws(a, b):
    if a.window != b.window:
        b = Stream(a.window, tuple(
            b.values[i % len(b.values)] for i in range(a.window.length)))
    m = merge(a, b)
    assert m.window.length == 2 * a.window.length
    for t in a.window.ticks():
        assert m.at(2 * t) == a.at(t)
        assert m.at(2 * t + 1) == b.at(t)


@given(int_streams, st.data())
def test_insert_locality(a, data):
    t = data.draw(st.integers(a.window.start, a.window.horizon - 1))
    x = data.draw(st.integers(-99, 99))
    out = insert(a, t, x)
    for u in a.window.ticks():
        assert out.at(u) == (x if u == t else a.at(u))


@given(st.integers(0, 10**6))
def test_quantifier_duality(seed):
    rng = random.Random(seed)
    a = random_int_stream(rng, rng.randint(0, 3), rng.randint(1, 12))
    t = rng.randint(a.window.start, a.window.horizon)
    neg = Relation("ge3", 1, lambda x: not (x < 3))
    assert exists_before(lt3(), t, [a]) == (not forall_before(neg, t, [a]))


# -- trace files ----------------------------------------------------------------

def test_trace_round_trip_is_byte_stable():
    values = [Dec4(100), BOTTOM, Dec4(250)]
    b = Stream.of(5, values)
    text = format_trace(b, "b", "decimal")
    assert text == ("trace b decimal 5 8\n"
                    "5,0.0100\n"
                    "6,NA\n"
                    "7,0.0250\n")
    stream_id, kind, parsed = parse_trace(text.encode())
    assert (stream_id, kind) == ("b", "decimal")
    assert parsed == b
    assert format_trace(parsed, stream_id, kind) == text


def test_trace_round_trip_other_kinds():
    for kind, values in [("boolean", (True, False, True)),
                         ("integer", (0, -3, 7)),
                         ("label", ("green", "amber", BOTTOM))]:
        s = Stream.of(0, values)
        text = format_trace(s, "x", kind)
        assert parse_trace(text.encode())[2] == s


READINGS_OF = {
    "boolean": st.booleans(),
    "integer": st.integers(),
    "decimal": st.builds(Dec4, st.integers()),
    "label": st.from_regex(r"[A-Za-z][A-Za-z0-9_-]*", fullmatch=True).filter(
        lambda label: label != "NA"),
}


@st.composite
def written_streams(draw):
    kind = draw(st.sampled_from(sorted(READINGS_OF)))
    readings = draw(st.lists(st.just(BOTTOM) | READINGS_OF[kind],
                             min_size=1, max_size=20))
    return kind, Stream.of(draw(st.integers(0, 10**6)), readings)


@given(written_streams())
def test_a_written_trace_reads_back_as_its_stream(case):
    kind, stream = case
    assert parse_trace(format_trace(stream, "s", kind).encode()) == (
        "s", kind, stream)


@pytest.mark.parametrize("kind, readings, message", [
    ("decimal", [Dec4(1), True, False],
     "tick 6: decimal trace cannot hold True"),
    ("decimal", [BOTTOM, 7], "tick 6: decimal trace cannot hold 7"),
    ("boolean", [True, BOTTOM, Dec4(1)],
     "tick 7: boolean trace cannot hold Dec4(1)"),
    ("integer", [False], "tick 5: integer trace cannot hold False"),
    ("label", [7], "tick 5: label trace cannot hold 7"),
    ("label", ["green", "NA"], "tick 6: label trace cannot hold 'NA'"),
])
def test_the_writer_refuses_what_the_reader_refuses(kind, readings, message):
    with pytest.raises(TraceFormatError) as err:
        format_trace(Stream.of(5, readings), "b", kind)
    assert err.value.message == message


@pytest.mark.parametrize("stream, kind", [
    (Stream.of(0, [Dec4(1)]), "float"),
    (Stream.of(0, [True]), "decimal"),
])
def test_a_refused_trace_is_a_trace_format_error(stream, kind):
    # raised before any file is opened; that a failed write leaves the file
    # as it was is test_cli.py's test_gen_trace_keeps_the_previous_trace_*
    with pytest.raises(TraceFormatError):
        format_trace(stream, "b", kind)


@pytest.mark.parametrize("mangle, message", [
    (lambda t: t.replace("trace b", "stream b"), "bad header"),
    (lambda t: t.replace("6,NA", "9,NA"), "out of order"),
    (lambda t: t.replace("7,0.0250", "7,0.025"), "4 fractional digits"),
    (lambda t: t + "8,0.0100\n", "value lines"),
    (lambda t: t.replace("6,NA\n", ""), "value lines"),
    (lambda t: t.replace("decimal 5 8", "decimal +5 8"),
     "non-integer window bounds"),
    (lambda t: t.replace("decimal 5 8", "decimal 5 0_8"),
     "non-integer window bounds"),
    (lambda t: t.replace("decimal 5 8", "decimal ٥ 8"),
     "line 1: non-ASCII byte 0xd9"),
    (lambda t: t.replace("6,NA", "+6,NA"), "non-integer tick '+6'"),
    (lambda t: t.replace("6,NA", " 6,NA"), "non-integer tick ' 6'"),
    (lambda t: t.replace("6,NA", "0_6,NA"), "non-integer tick '0_6'"),
    (lambda t: t.replace("6,NA", "06,NA"), "tick '06' must be written '6'"),
    (lambda t: t.replace("decimal 5 8", "decimal 005 8"),
     "window bound '005' must be written '5'"),
    (lambda t: t.replace("decimal 5 8", "decimal 5 08"),
     "window bound '08' must be written '8'"),
    (lambda t: t.replace("decimal 5 8", "decimal -0 8"),
     "window bound '-0' must be written '0'"),
    (lambda t: t.replace("5,0.0100", "5,00.0100"),
     "line 2: decimal '00.0100' must be written '0.0100'"),
    (lambda t: t.replace("7,0.0250", "7,-0.0000"),
     "line 4: decimal '-0.0000' must be written '0.0000'"),
    (lambda t: "trace b integer 5 8\n5,007\n6,NA\n7,1\n",
     "line 2: integer '007' must be written '7'"),
    (lambda t: "trace b integer 5 8\n5,7\n6,NA\n7,-0\n",
     "line 4: integer '-0' must be written '0'"),
])
def test_trace_parse_errors(mangle, message):
    good = format_trace(Stream.of(5, [Dec4(100), BOTTOM, Dec4(250)]),
                        "b", "decimal")
    with pytest.raises(TraceFormatError) as err:
        parse_trace(mangle(good).encode())
    assert message in str(err.value)
