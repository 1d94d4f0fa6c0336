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

The operations of the formula language are declared once, in
``OPERATIONS``, which maps a name to its ``Operation``; its comparisons are
``values.COMPARISONS``.  The liftings and quantified tests take any
``Operation`` or ``Relation``, declared or not.

Storage is not part of the algebra.  A trace read from a file keeps its
readings' texts, each NA or written as ``format_value`` writes it, joined
into one string, with an array of the offsets where each one ends, and
converts a reading, by its kind's reader, only when it is read; a boolean
trace keeps one byte code per tick instead (false, true or NA).  Streams
built from values keep a tuple.  ``at`` boxes the one reading it returns.
Every stream answers the evaluator's sampled max/min, ``reduce_samples``,
tick by tick; a decimal trace answers it on its texts, and a boolean trace
``first_other`` (the first tick of a range whose boolean is not a given
one) on its codes, each only over a range its window holds.

``parse_trace`` reads a trace's text in place, without a list of its lines:
in chunks cut at the first line break past a fixed number of characters.
One rule accepts a chunk, whatever the trace's kind: one match of the kind's
plain pattern, and one comparison of its ticks with the window's tick
column, which a small cache keeps for a fleet's traces.  Any other chunk is
refused; the per-line checks only word its fault.
"""

from __future__ import annotations

import functools
import math
import os
import re
import stat
from array import array
from itertools import accumulate
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ._frozen import Frozen
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
    BOOLEAN,
    BOTTOM,
    DECIMAL,
    INTEGER,
    KINDS,
    LABEL,
    LABEL_PATTERN,
    CarrierValue,
    Dec4,
    _LABEL_RE,
    add_values,
    digit_limit,
    div_values,
    floor_value,
    format_value,
    is_carrier,
    kind_of,
    max_values,
    min_values,
    mul_values,
    neg_value,
    parse_int,
    parse_value,
    sub_values,
)

class Window(Frozen):
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


class Stream:
    """Total assignment of carrier values over a window.

    ``Stream(window, values)`` and ``Stream.of`` keep the readings as a
    tuple, checked value by value.  ``parse_trace`` keeps a trace as a
    column instead (``_Texts``, ``_Booleans``): its readings are checked by
    the parser.  Either way ``at`` returns one boxed carrier value,
    ``values`` boxes every reading into a tuple, and equality and hashing go
    by the window and the readings, not the storage.
    """

    __slots__ = ("window", "_readings")

    def __init__(self, window: Window, values: Sequence[CarrierValue]):
        values = tuple(values)
        if len(values) != window.length:
            raise WindowMismatch(
                f"{len(values)} values for a window of length "
                f"{window.length}")
        for v in values:
            if not is_carrier(v):
                raise KindMismatch(f"not a carrier value: {v!r}")
        self.window = window
        self._readings = values

    @classmethod
    def of(cls, start: int, values: Sequence[CarrierValue]) -> "Stream":
        return cls(Window(start, start + len(values)), tuple(values))

    @property
    def values(self) -> tuple:
        return self._readings

    def at(self, t: int) -> CarrierValue:
        """The stored value at tick t (the algebra's evaluation function)."""
        # the column subclasses repeat this check inline: a read is one
        # Python call, which the formula evaluator makes per quantifier step
        w = self.window
        if not w.start <= t < w.horizon:
            raise _outside(w, t)
        return self._readings[t - w.start]

    def reduce_samples(self, op: str, t1: int, t2: int,
                       s: int) -> CarrierValue:
        """``op`` ("max" or "min") of the readings at t1, t1+s, ..., up to
        t2, with t1 <= t2 and s >= 1: BOTTOM if any of them is, the one
        sample if there is one, else ``OPERATIONS[op]`` of them.  The first
        sample outside the window raises as ``at``."""
        samples = [self.at(t) for t in range(t1, t2 + 1, s)]
        if any(v is BOTTOM for v in samples):
            return BOTTOM
        return samples[0] if len(samples) == 1 else OPERATIONS[op].fn(*samples)

    def __eq__(self, other):
        if not isinstance(other, Stream):
            return NotImplemented
        return self.window == other.window and self.values == other.values

    def __hash__(self):
        return hash((self.window, self.values))

    def __repr__(self):
        return f"Stream(window={self.window!r}, values={self.values!r})"


def _outside(w: Window, t: int) -> OutOfWindow:
    return OutOfWindow(f"t={t} outside window [{w.start}, {w.horizon})")


class _Texts(Stream):
    """A decimal, integer or label trace: its readings' texts joined into
    one string, reading i at ``_ends[i]:_ends[i + 1]`` of it.

    ``parse_trace`` builds it from the texts of each chunk of plain value
    lines.  Every text is NA or a reading written as ``format_value``
    writes it, so that a reading is converted, by its kind's reader, only
    when it is read.  A read fails only on a number past ``int``'s digit
    limit then in force (KindMismatch).
    """

    __slots__ = ("_ends", "_read")

    def __init__(self, window: Window, kind: str,
                 chunks: Iterable[List[str]], size: int):
        """``size``, at least the texts' total length, picks the offsets'
        item size, so that every trace a string can hold loads."""
        ends = array("I" if size < 1 << 8 * array("I").itemsize else "Q",
                     [0])
        parts = []
        for texts in chunks:
            parts.append("".join(texts))
            ends.extend(accumulate(map(len, texts), initial=ends.pop()))
        self.window = window
        self._readings = "".join(parts)
        self._ends = ends
        self._read = _READERS[kind]

    @property
    def values(self) -> tuple:
        ends = self._ends
        return tuple(map(self._read, map(self._readings.__getitem__,
                                         map(slice, ends, ends[1:]))))

    def at(self, t: int) -> CarrierValue:
        w = self.window
        if not w.start <= t < w.horizon:
            raise _outside(w, t)
        i = t - w.start
        return self._read(self._readings[self._ends[i]:self._ends[i + 1]])

    def reduce_samples(self, op: str, t1: int, t2: int,
                       s: int) -> CarrierValue:
        """As ``Stream.reduce_samples``.  A decimal trace answers a range
        its window holds on its texts, any other query tick by tick."""
        w = self.window
        if self._read is _decimal and w.start <= t1 <= t2 < w.horizon:
            return self._reduce_texts(op, t1 - w.start, t2 - w.start + 1, s)
        return super().reduce_samples(op, t1, t2, s)

    def _reduce_texts(self, op: str, lo: int, hi: int, s: int):
        """The decimal ``op`` of readings lo, lo+s, ... below hi, by index:
        their texts cut out by strided slices of the offsets, each reading
        converted, then BOTTOM for an NA; only the result is boxed."""
        ends, texts = self._ends, self._readings
        picked = ",".join([texts[a:b] for a, b in zip(ends[lo:hi:s],
                                                      ends[lo + 1:hi + 1:s])])
        digits = picked.replace(".", "").split(",")
        raws = [_int(text) for text in digits if text != "NA"]
        if len(raws) < len(digits):
            return BOTTOM
        return Dec4(max(raws) if op == "max" else min(raws))


def _decimal(text: str) -> CarrierValue:
    return BOTTOM if text == "NA" else Dec4(_int(text.replace(".", "")))


def _int(digits: str, kind: str = DECIMAL) -> int:
    """The number a kept text's digits spell.  The digit limit in force may
    be below the one the trace was loaded under: past it, KindMismatch."""
    try:
        return int(digits)
    except ValueError:
        raise KindMismatch(f"{kind} reading past int's digit limit of "
                           f"{digit_limit()} cannot be read") from None


# the reading of a kept text, by the trace's kind
_READERS = {
    DECIMAL: _decimal,
    INTEGER: lambda text: BOTTOM if text == "NA" else _int(text, INTEGER),
    LABEL: lambda text: BOTTOM if text == "NA" else text}


_BOOLEAN_BOXES = (False, True, BOTTOM)
# the text of plain boolean lines, turned by ``str.translate`` into the
# readings' codes (the first letters of false, true and NA differ, and the
# other letters are in no other reading) or into the ticks, one per line
_TO_CODES = str.maketrans("ftN", "\x00\x01\x02", "0123456789,\nrueaslA")
_TO_TICKS = str.maketrans("", "", ",truefalsNA")


class _Booleans(Stream):
    """A boolean trace: one byte code per tick, 0 false, 1 true, 2 NA,
    read off each chunk of plain value lines by ``_TO_CODES``."""

    __slots__ = ()

    def __init__(self, window: Window, chunks: Iterable[str]):
        self.window = window
        self._readings = bytearray()
        for chunk in chunks:
            self._readings += chunk.translate(_TO_CODES).encode("ascii")

    @property
    def values(self) -> tuple:
        return tuple(map(_BOOLEAN_BOXES.__getitem__, self._readings))

    def at(self, t: int) -> CarrierValue:
        w = self.window
        if not w.start <= t < w.horizon:
            raise _outside(w, t)
        return _BOOLEAN_BOXES[self._readings[t - w.start]]

    def first_other(self, keep: bool, lo: int, hi: int) -> CarrierValue:
        """The reading at the first tick of [lo, hi], whose bounds the
        window holds, that does not hold ``keep``: the other boolean or
        BOTTOM, or None if every tick holds ``keep`` or the range is empty.

        ``bytearray.find`` looks for each other code in turn, each search
        ending where the one before it hit; nothing is copied or boxed.
        """
        codes, start = self._readings, self.window.start
        hit = end = hi - start + 1
        for code in (not keep, 2):  # the other boolean's code, and NA's
            found = codes.find(code, lo - start, hit)
            if found >= 0:
                hit = found
        return _BOOLEAN_BOXES[codes[hit]] if hit < end else None


# -- the signature ------------------------------------------------------------

class Operation(Frozen):
    """Declared operation symbol: value arguments in, value out."""

    name: str
    arity: Optional[int]  # None = variadic, at least 2
    fn: Callable[..., CarrierValue]


class Relation(Frozen):
    """Test symbol: value arguments in, boolean out."""

    name: str
    arity: Optional[int]
    fn: Callable[..., bool]


# the formula language's operations: arithmetic, floor, max and min; its six
# comparison tests are ``values.COMPARISONS``, and no name is both
OPERATIONS = {op.name: op for op in (
    Operation("add", 2, add_values),
    Operation("sub", 2, sub_values),
    Operation("mul", 2, mul_values),
    Operation("div", 2, div_values),
    Operation("neg", 1, neg_value),
    Operation("floor", 1, floor_value),
    Operation("max", None, max_values),
    Operation("min", None, min_values),
)}


# -- stream-building operations ----------------------------------------------

def lift_const(c: CarrierValue, w: Window) -> Stream:
    """Constant stream: the same value at every tick of the window."""
    if c is BOTTOM:
        raise BottomConstant("cannot lift BOTTOM to a constant stream")
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


def check_arity(symbol, nargs: int):
    """Raise ArityMismatch unless ``nargs`` fits the symbol's arity."""
    if symbol.arity is None:
        if nargs < 2:
            raise ArityMismatch(
                f"{symbol.name} is variadic and needs at least 2 arguments")
    elif symbol.arity != nargs:
        raise ArityMismatch(
            f"{symbol.name} expects {symbol.arity} arguments, got {nargs}")


def _lift(symbol, fn: Callable, args: Sequence[Stream]) -> Stream:
    check_arity(symbol, len(args))
    return Stream(_common_window(args), tuple(
        BOTTOM if any(v is BOTTOM for v in row) else fn(*row)
        for row in zip(*[a.values for a in args])))


def lift_op(op: Operation, args: Sequence[Stream]) -> Stream:
    """Pointwise lifting of an operation; BOTTOM at t anywhere gives BOTTOM."""
    return _lift(op, op.fn, args)


def lift_test(ts: Relation, args: Sequence[Stream]) -> Stream:
    """Pointwise lifting of a test to a boolean-valued stream."""
    return _lift(ts, lambda *row: bool(ts.fn(*row)), args)


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
        raise _outside(a.window, t)
    i = t - a.window.start
    values = a.values
    return Stream(a.window, values[:i] + (x,) + values[i + 1:])


# -- value-returning quantified tests ----------------------------------------

def _tested_rows(ts: Relation, t: int, args: Sequence[Stream]):
    check_arity(ts, len(args))
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
# Ticks, bounds and readings are written as ``str`` and ``format_value``
# write them; NA marks an undefined reading; decimals always carry exactly 4
# fractional digits.

_STRICT_DEC_RE = re.compile(r"-?[0-9]+\.[0-9]{4}\Z")
# the fault of a refused chunk whose lines pass every per-line check
_UNWORDED_FAULT = "value lines not written as a trace writes them"
# a chunk of value lines ends at the first line break this many characters
# or more past its start
_CHUNK_CHARS = 16384
# ticks turned into strings at a time when a window's tick column is built
_COLUMN_BLOCK = 4096
# value lines written as ``format_trace`` writes them, but for their ticks,
# which must also continue the window's tick column; ``{more}`` is filled
# in, and the pattern compiled (and cached by ``re``), when a trace is read
_PLAIN_LINES = {
    kind: rf"[0-9]+,{reading}(?:\n[0-9]+,{reading})*"
    for kind, reading in (
        (DECIMAL,
         r"(?:(?:0|-?[1-9][0-9]{{0,{more}}}|-0(?!\.0000))\.[0-9]{{4}}|NA)"),
        (BOOLEAN, r"(?:true|false|NA)"),
        (INTEGER, r"(?:0|-?[1-9][0-9]{{0,{more}}}|NA)"),
        (LABEL, f"(?:{LABEL_PATTERN})"))}  # which also spells NA
# the line breaks that ``str.splitlines`` honours besides \n, and the
# ASCII ones among them
_LINE_BREAKS = r"\r\n?|[\x0b\x0c\x1c-\x1e\x85\u2028\u2029]"
_ASCII_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"


def format_trace(stream: Stream, stream_id: str, kind: str) -> str:
    if kind not in KINDS:
        raise TraceFormatError(f"unknown stream kind {kind!r}")
    if not _LABEL_RE.match(stream_id):
        raise TraceFormatError(f"malformed stream id {stream_id!r}")
    lines = [f"trace {stream_id} {kind} "
             f"{stream.window.start} {stream.window.horizon}"]
    # the reader reads back a number, a decimal in raw units, below this
    # in magnitude; neither ``str`` nor ``repr`` writes a larger integer
    limit = digit_limit()
    bound = 10 ** limit if limit else math.inf
    for t in stream.window.ticks():
        value = stream.at(t)
        if value is not BOTTOM:
            if (isinstance(value, (int, Dec4))
                    and not -bound < getattr(value, "raw", value) < bound):
                raise TraceFormatError(f"tick {t}: {kind} trace cannot hold "
                                       "a number past int's digit limit")
            if kind_of(value) != kind or value == "NA":
                raise TraceFormatError(f"tick {t}: {kind} trace cannot hold "
                                       f"{value!r}")
        lines.append(f"{t},{format_value(value)}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str):
    """Parse trace text; returns (stream_id, kind, Stream).

    Lines end as ``str.splitlines`` ends them; any line break other than
    ``\\n`` is first rewritten to ``\\n``.  The value lines are read in
    place, in chunks that end at the first ``\\n`` at least
    ``_CHUNK_CHARS`` characters past the chunk's start.  A chunk is accepted
    by one rule, for every kind: its lines match the kind's plain pattern
    (readings as ``format_value`` writes them, numbers within ``int``'s
    digit limit), and its ticks continue the window's cached tick column
    where the chunk before it left off.  Any other chunk is refused, with
    the fault of its first faulty line.  A boolean trace is stored as its
    readings' codes, any other as their texts.
    """
    if not text.isascii() or any(c in text for c in _ASCII_BREAKS):
        text = re.sub(_LINE_BREAKS, "\n", text)
    if not text:
        raise TraceFormatError("empty trace", 1)
    stop = len(text) - text.endswith("\n")
    end = text.find("\n", 0, stop)
    if end < 0:
        end = stop
    head = text[:end].split(" ")
    if len(head) != 5 or head[0] != "trace":
        raise TraceFormatError("bad header, expected "
                               "'trace <id> <kind> <start> <horizon>'", 1)
    _, stream_id, kind, start_s, horizon_s = head
    if not _LABEL_RE.match(stream_id):
        raise TraceFormatError(f"malformed stream id {stream_id!r}", 1)
    if kind not in KINDS:
        raise TraceFormatError(f"unknown stream kind {kind!r}", 1)
    try:
        start, horizon = parse_int(start_s), parse_int(horizon_s)
    except ValueError:
        raise TraceFormatError("non-integer window bounds", 1) from None
    for bound_s, bound in ((start_s, start), (horizon_s, horizon)):
        if bound_s != str(bound):
            raise TraceFormatError(
                f"window bound {bound_s!r} must be written '{bound}'", 1)
    if start < 0 or start >= horizon:
        raise TraceFormatError(f"bad window [{start}, {horizon})", 1)
    count = text.count("\n", end, stop)
    if count != horizon - start:
        raise TraceFormatError(
            f"expected {horizon - start} value lines, got {count}", 1)
    window = Window(start, horizon)
    chunks = _chunk_readings(text, end + 1, stop, kind, window)
    if kind == BOOLEAN:
        return stream_id, kind, _Booleans(window, chunks)
    return stream_id, kind, _Texts(window, kind, chunks, len(text))


def _chunk_readings(text: str, pos: int, stop: int, kind: str,
                    window: Window):
    """Yield the readings of each chunk of the value lines in
    ``text[pos:stop]`` up to the first chunk that is not plain or whose
    ticks do not continue the tick column, which raises its first faulty
    line's fault or, should the per-line checks find none, one fault."""
    # a number has no more digits than ``int`` reads, a decimal's 4
    # fractional ones included
    limit = digit_limit()
    more = limit - (5 if kind == DECIMAL else 1) if limit else ""
    plain = re.compile(_PLAIN_LINES[kind].format(more=more))
    column = _tick_column(window.start, window.horizon)
    first, at = pos, 0
    while pos <= stop:
        cut = text.find("\n", min(pos + _CHUNK_CHARS, stop), stop)
        if cut < 0:
            cut = stop
        chunk = text[pos:cut]
        if plain.fullmatch(chunk):
            ticks, readings = _split_cells(chunk, kind)
            if column.startswith(ticks + "\n", at):
                yield readings
                at, pos = at + len(ticks) + 1, cut + 1
                continue
        done = text.count("\n", first, pos)
        _checked_readings(kind, chunk.split("\n"), window.start + done,
                          done + 2)
        raise TraceFormatError(_UNWORDED_FAULT, done + 2)


def _split_cells(chunk: str, kind: str) -> Tuple[str, Sequence]:
    """A plain chunk's ticks, one per line, and its readings: a boolean
    chunk itself, any other chunk's texts."""
    if kind == BOOLEAN:
        return chunk.translate(_TO_TICKS), chunk
    cells = chunk.replace("\n", ",").split(",")
    return "\n".join(cells[0::2]), cells[1::2]


@functools.lru_cache(maxsize=4)
def _tick_column(start: int, horizon: int) -> str:
    """The window's ticks, each ended by ``\\n``, built a block of ticks at
    a time.  Cached, as a fleet's traces share a window (building each
    chunk's ticks afresh costs ~2 ms per 10,500-tick trace); built in blocks,
    as one ``join`` over 143,940 ticks peaks at over 5 times that trace's
    text under ``tracemalloc``."""
    blocks = (range(t, min(t + _COLUMN_BLOCK, horizon))
              for t in range(start, horizon, _COLUMN_BLOCK))
    return "".join(("%d\n" * len(ticks)) % tuple(ticks) for ticks in blocks)


def _checked_readings(kind: str, lines: List[str], expected_t: int,
                      lineno: int):
    """Word the fault of a refused chunk of value lines: check them one by
    one from file line ``lineno`` on, where tick ``expected_t`` is due, and
    raise the first faulty line's fault.  Accepts nothing: lines that pass
    every check are still refused."""
    for i, line in enumerate(lines, start=lineno):
        tick_s, sep, value_s = line.partition(",")
        if not sep:
            raise TraceFormatError("expected '<t>,<value>'", i)
        try:
            t = parse_int(tick_s)
        except ValueError:
            raise TraceFormatError(f"non-integer tick {tick_s!r}", i) from None
        if t != expected_t:
            raise TraceFormatError(
                f"tick {t} out of order (expected {expected_t})", i)
        if tick_s != str(t):
            raise TraceFormatError(f"tick {tick_s!r} must be written '{t}'", i)
        expected_t += 1
        if value_s == "NA":
            continue
        if kind == DECIMAL and not _STRICT_DEC_RE.match(value_s):
            raise TraceFormatError(
                f"decimal {value_s!r} must have exactly 4 fractional digits", i)
        try:
            written = format_value(parse_value(value_s, kind))
        except KindMismatch as exc:
            raise TraceFormatError(str(exc), i) from None
        if value_s != written:
            raise TraceFormatError(
                f"{kind} {value_s!r} must be written '{written}'", i)


def save_trace(path, stream: Stream, stream_id: str, kind: str):
    """Write a trace; a refused stream leaves the file as it was."""
    text = format_trace(stream, stream_id, kind)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def read_ascii(path, error) -> str:
    """A text file's content; a non-ASCII byte raises ``error(message, line)``
    with the 1-based line of the byte, counted as the parsers count lines.
    A path that is no regular file, such as a directory or a FIFO, is never
    opened: it raises ``OSError`` with the reason ``not a regular file``."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise OSError(0, "not a regular file")
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
