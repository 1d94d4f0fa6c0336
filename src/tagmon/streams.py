"""Discrete-time data streams and their algebra.

A stream assigns exactly one carrier value (possibly BOTTOM) to every tick of
a bounded window [start, horizon).  Windows are finite so that every attribute
over a stream is decidable by direct evaluation; scenario logic only ever
quantifies over bounded intervals.

Operations come in two families: stream-building ones (constant lifting,
pointwise lifting of operations and tests, shift, merge, insert) and
value-returning ones (eval at a tick, bounded forall/exists over a tested
prefix).  Undefined readings propagate strictly through lifted operations and
abort quantified tests with BottomEncountered, so a missed reading can never
silently pass for a truth value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from .errors import (
    ArityMismatch,
    BottomConstant,
    BottomEncountered,
    KindMismatch,
    OutOfWindow,
    ShiftTooLarge,
    TraceFormatError,
    WindowMismatch,
)
from .values import (
    BOTTOM,
    KINDS,
    CarrierValue,
    add_values,
    compare,
    div_values,
    floor_value,
    format_value,
    is_carrier,
    max_values,
    min_values,
    mul_values,
    neg_value,
    parse_value,
    sub_values,
)

TimePoint = int


@dataclass(frozen=True)
class Window:
    """Half-open evaluation window [start, horizon) in engine ticks."""

    start: int
    horizon: int

    def __post_init__(self):
        if self.start < 0:
            raise OutOfWindow(f"window start {self.start} is negative")
        if self.start >= self.horizon:
            raise OutOfWindow(
                f"empty window [{self.start}, {self.horizon})")

    @property
    def length(self) -> int:
        return self.horizon - self.start

    def __contains__(self, t: int) -> bool:
        return self.start <= t < self.horizon

    def ticks(self) -> range:
        return range(self.start, self.horizon)


@dataclass(frozen=True)
class Stream:
    """Total assignment of carrier values over a window."""

    window: Window
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.window.length:
            raise WindowMismatch(
                f"{len(self.values)} values for a window of length "
                f"{self.window.length}")
        for v in self.values:
            if not is_carrier(v):
                raise KindMismatch(f"not a carrier value: {v!r}")

    @classmethod
    def of(cls, start: int, values: Sequence[CarrierValue]) -> "Stream":
        return cls(Window(start, start + len(values)), tuple(values))

    def at(self, t: int) -> CarrierValue:
        """The stored value at tick t (the algebra's evaluation function)."""
        if t not in self.window:
            raise OutOfWindow(f"t={t} outside window "
                              f"[{self.window.start}, {self.window.horizon})")
        return self.values[t - self.window.start]


# -- signatures --------------------------------------------------------------

@dataclass(frozen=True)
class Operation:
    """Declared operation symbol: value arguments in, value out."""

    name: str
    arity: Optional[int]  # None = variadic, at least 2
    fn: Callable[..., CarrierValue]


@dataclass(frozen=True)
class Relation:
    """Declared test symbol: value arguments in, boolean out."""

    name: str
    arity: Optional[int]
    fn: Callable[..., bool]


@dataclass(frozen=True)
class Signature:
    """Symbols usable in formulas and liftings over a data algebra.

    Symbol names are unique across constants, operations and tests; label
    sets declare the finite alphabets label values are drawn from.
    """

    label_sets: Mapping[str, tuple] = field(default_factory=dict)
    constants: Mapping[str, CarrierValue] = field(default_factory=dict)
    operations: Mapping[str, Operation] = field(default_factory=dict)
    tests: Mapping[str, Relation] = field(default_factory=dict)

    def __post_init__(self):
        names = (list(self.constants) + list(self.operations)
                 + list(self.tests))
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise KindMismatch(f"duplicate signature symbols: {sorted(dupes)}")
        for op in self.operations.values():
            if op.arity is not None and op.arity < 0:
                raise ArityMismatch(f"operation {op.name} has arity < 0")
        for ts in self.tests.values():
            if ts.arity is not None and ts.arity < 0:
                raise ArityMismatch(f"test {ts.name} has arity < 0")

    def operation(self, name: str) -> Operation:
        return self.operations[name]

    def test(self, name: str) -> Relation:
        return self.tests[name]

    def extended(self, *, label_sets=None, constants=None, operations=None,
                 tests=None) -> "Signature":
        return Signature(
            {**self.label_sets, **(label_sets or {})},
            {**self.constants, **(constants or {})},
            {**self.operations, **(operations or {})},
            {**self.tests, **(tests or {})},
        )


def base_signature() -> Signature:
    """Arithmetic, floor/max/min and the six comparison tests."""
    ops = [
        Operation("add", 2, add_values),
        Operation("sub", 2, sub_values),
        Operation("mul", 2, mul_values),
        Operation("div", 2, div_values),
        Operation("neg", 1, neg_value),
        Operation("floor", 1, floor_value),
        Operation("max", None, max_values),
        Operation("min", None, min_values),
    ]
    tests = [Relation(nm, 2, lambda a, b, _nm=nm: compare(_nm, a, b))
             for nm in ("eq", "ne", "lt", "le", "gt", "ge")]
    return Signature(
        operations={o.name: o for o in ops},
        tests={t.name: t for t in tests},
    )


BASE_SIGNATURE = base_signature()


# -- stream-building operations ----------------------------------------------

def lift_const(c: CarrierValue, w: Window) -> Stream:
    """Constant stream: the same value at every tick of the window."""
    if c is BOTTOM:
        raise BottomConstant("cannot lift BOTTOM to a constant stream")
    if not is_carrier(c):
        raise KindMismatch(f"not a carrier value: {c!r}")
    return Stream(w, (c,) * w.length)


def _common_window(streams: Sequence[Stream]) -> Window:
    if not streams:
        raise ArityMismatch("no argument streams")
    w = streams[0].window
    for s in streams[1:]:
        if s.window != w:
            raise WindowMismatch(
                f"windows differ: {w} vs {s.window}")
    return w


def _check_arity(symbol, nargs: int):
    if symbol.arity is None:
        if nargs < 2:
            raise ArityMismatch(
                f"{symbol.name} is variadic and needs at least 2 arguments")
    elif symbol.arity != nargs:
        raise ArityMismatch(
            f"{symbol.name} expects {symbol.arity} arguments, got {nargs}")


def lift_op(op: Operation, args: Sequence[Stream]) -> Stream:
    """Pointwise lifting of an operation; BOTTOM at t anywhere gives BOTTOM."""
    _check_arity(op, len(args))
    w = _common_window(args)
    out = []
    for i in range(w.length):
        row = [a.values[i] for a in args]
        out.append(BOTTOM if any(v is BOTTOM for v in row) else op.fn(*row))
    return Stream(w, tuple(out))


def lift_test(ts: Relation, args: Sequence[Stream]) -> Stream:
    """Pointwise lifting of a test to a boolean-valued stream."""
    _check_arity(ts, len(args))
    w = _common_window(args)
    out = []
    for i in range(w.length):
        row = [a.values[i] for a in args]
        out.append(BOTTOM if any(v is BOTTOM for v in row)
                   else bool(ts.fn(*row)))
    return Stream(w, tuple(out))


def shift(a: Stream, k: int) -> Stream:
    """Drop the first k readings: result(t) = a(t + k) on [start, horizon-k)."""
    if k < 0:
        raise ShiftTooLarge(f"negative shift {k}")
    if k >= a.window.length:
        raise ShiftTooLarge(
            f"shift {k} >= window length {a.window.length}")
    if k == 0:
        return a
    return Stream(Window(a.window.start, a.window.horizon - k), a.values[k:])


def merge(a: Stream, b: Stream) -> Stream:
    """Interleave two equally-windowed streams tick by tick.

    The result lives on [2*start, 2*horizon) so that the defining equations
    result(2t) = a(t) and result(2t+1) = b(t) hold at absolute time points.
    """
    if a.window != b.window:
        raise WindowMismatch(f"windows differ: {a.window} vs {b.window}")
    out = []
    for x, y in zip(a.values, b.values):
        out.append(x)
        out.append(y)
    return Stream(Window(2 * a.window.start, 2 * a.window.horizon),
                  tuple(out))


def insert(a: Stream, t: int, x: CarrierValue) -> Stream:
    """Replace the reading at tick t, leaving every other tick unchanged."""
    if t not in a.window:
        raise OutOfWindow(f"t={t} outside window "
                          f"[{a.window.start}, {a.window.horizon})")
    if not is_carrier(x):
        raise KindMismatch(f"not a carrier value: {x!r}")
    i = t - a.window.start
    return Stream(a.window, a.values[:i] + (x,) + a.values[i + 1:])


# -- value-returning quantified tests ----------------------------------------

def _tested_rows(ts: Relation, t: int, args: Sequence[Stream]):
    _check_arity(ts, len(args))
    w = _common_window(args)
    if t > w.horizon:
        raise OutOfWindow(f"t={t} beyond window horizon {w.horizon}")
    for s in range(w.start, t):
        row = [a.at(s) for a in args]
        if any(v is BOTTOM for v in row):
            raise BottomEncountered(
                f"{ts.name} touched an undefined reading at t={s}")
        yield row


def forall_before(ts: Relation, t: int, args: Sequence[Stream]) -> bool:
    """True iff the test holds at every tick s with start <= s < t."""
    return all(ts.fn(*row) for row in _tested_rows(ts, t, args))


def exists_before(ts: Relation, t: int, args: Sequence[Stream]) -> bool:
    """True iff the test holds at some tick s with start <= s < t."""
    return any(ts.fn(*row) for row in _tested_rows(ts, t, args))


# -- trace files --------------------------------------------------------------
#
# Line-oriented text format, byte-stable under read/write:
#
#   trace <stream-id> <kind> <start> <horizon>
#   <t>,<value>          one line per tick, ascending, no gaps
#
# NA marks an undefined reading; decimals always carry exactly 4 fractional
# digits.

_ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")
_STRICT_DEC_RE = re.compile(r"-?\d+\.\d{4}\Z")


def format_trace(stream: Stream, stream_id: str, kind: str) -> str:
    if kind not in KINDS:
        raise TraceFormatError(f"unknown stream kind {kind!r}")
    if not _ID_RE.match(stream_id):
        raise TraceFormatError(f"malformed stream id {stream_id!r}")
    lines = [f"trace {stream_id} {kind} "
             f"{stream.window.start} {stream.window.horizon}"]
    for t in stream.window.ticks():
        lines.append(f"{t},{format_value(stream.at(t))}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str):
    """Parse trace text; returns (stream_id, kind, Stream)."""
    lines = text.splitlines()
    if not lines:
        raise TraceFormatError("empty trace", 1)
    head = lines[0].split(" ")
    if len(head) != 5 or head[0] != "trace":
        raise TraceFormatError("bad header, expected "
                               "'trace <id> <kind> <start> <horizon>'", 1)
    _, stream_id, kind, start_s, horizon_s = head
    if not _ID_RE.match(stream_id):
        raise TraceFormatError(f"malformed stream id {stream_id!r}", 1)
    if kind not in KINDS:
        raise TraceFormatError(f"unknown stream kind {kind!r}", 1)
    try:
        start, horizon = int(start_s, 10), int(horizon_s, 10)
    except ValueError:
        raise TraceFormatError("non-integer window bounds", 1) from None
    if start < 0 or start >= horizon:
        raise TraceFormatError(f"bad window [{start}, {horizon})", 1)
    if len(lines) - 1 != horizon - start:
        raise TraceFormatError(
            f"expected {horizon - start} value lines, got {len(lines) - 1}", 1)
    values = []
    expected_t = start
    for i, line in enumerate(lines[1:], start=2):
        tick_s, sep, value_s = line.partition(",")
        if not sep:
            raise TraceFormatError("expected '<t>,<value>'", i)
        try:
            t = int(tick_s, 10)
        except ValueError:
            raise TraceFormatError(f"non-integer tick {tick_s!r}", i) from None
        if t != expected_t:
            raise TraceFormatError(
                f"tick {t} out of order (expected {expected_t})", i)
        expected_t += 1
        if value_s == "NA":
            values.append(BOTTOM)
            continue
        if kind == "decimal" and not _STRICT_DEC_RE.match(value_s):
            raise TraceFormatError(
                f"decimal {value_s!r} must have exactly 4 fractional digits", i)
        try:
            values.append(parse_value(value_s, kind))
        except KindMismatch as exc:
            raise TraceFormatError(str(exc), i) from None
    return stream_id, kind, Stream(Window(start, horizon), tuple(values))


def save_trace(path, stream: Stream, stream_id: str, kind: str):
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(format_trace(stream, stream_id, kind))


def read_ascii(path, error) -> str:
    """A text file's content; a non-ASCII byte raises ``error(message, line)``
    with the 1-based line of the byte, counted as the parsers count lines."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("ascii")
        raise error(f"non-ASCII byte 0x{data[exc.start]:02x}",
                    len((before + "x").splitlines())) from None


def load_trace(path):
    return parse_trace(read_ascii(path, TraceFormatError))
