"""Carrier values of the data algebra.

A stream position holds one of five things: a boolean, an integer, a
fixed-point decimal with four fractional digits, a label drawn from a finite
set, or the marker BOTTOM standing for a missed reading.  Physiological
percentages are fixed-point on purpose: thresholds such as 0.0150 and 0.0250
must compare bit-exactly, which binary floats cannot guarantee.
"""

from __future__ import annotations

import operator
import re
import sys
from typing import Union

from .errors import DivisionByZero, KindMismatch

BOOLEAN = "boolean"
INTEGER = "integer"
DECIMAL = "decimal"
LABEL = "label"

KINDS = (BOOLEAN, INTEGER, DECIMAL, LABEL)
_NUMERIC = (INTEGER, DECIMAL)

# how a label, a stream id, an entity or a rule name is spelt
LABEL_PATTERN = r"[A-Za-z][A-Za-z0-9_-]*"
_LABEL_RE = re.compile(rf"{LABEL_PATTERN}\Z")
_DEC_RE = re.compile(r"(-?[0-9]+)\.([0-9]{1,4})\Z")


class Bottom:
    """The undefined-reading marker.  Use the BOTTOM singleton."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BOTTOM"

    def __bool__(self):
        raise KindMismatch("BOTTOM has no truth value")


BOTTOM = Bottom()


class Dec4:
    """Fixed-point decimal stored as an integer count of 0.0001 units.

    Arithmetic is exact integer arithmetic on the scaled representation;
    multiplication and division floor toward negative infinity.
    """

    __slots__ = ("raw",)
    SCALE = 10_000

    def __init__(self, raw: int):
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise KindMismatch(f"Dec4 raw units must be an int, got {raw!r}")
        self.raw = raw

    @classmethod
    def parse(cls, text: str) -> "Dec4":
        """``-?<digits>.<1 to 4 digits>``, in ASCII digits, with no ``+``,
        nothing around it and, with 4 fractional digits, no more digits
        than ``int``'s limit."""
        m = _DEC_RE.match(text)
        if m:
            whole, frac = m.groups()
            try:
                return cls(int(whole + frac.ljust(4, "0")))
            except ValueError:  # past ``int``'s digit limit
                pass
        raise KindMismatch(f"not a fixed-point decimal: {text!r}")

    def __str__(self):
        sign = "-" if self.raw < 0 else ""
        whole, frac = divmod(abs(self.raw), self.SCALE)
        try:
            return f"{sign}{whole}.{frac:04d}"
        except ValueError:  # past ``int``'s digit limit
            raise KindMismatch("a decimal past int's digit limit has no "
                               "text") from None

    def __repr__(self):
        try:
            return f"Dec4({self.raw})"
        except ValueError:  # past ``int``'s digit limit
            return "Dec4(<raw units past int's digit limit>)"

    def __eq__(self, other):
        return isinstance(other, Dec4) and self.raw == other.raw

    def __hash__(self):
        return hash(("Dec4", self.raw))

    def __lt__(self, other):
        return self.raw < _as_dec(other).raw

    def __le__(self, other):
        return self.raw <= _as_dec(other).raw

    def __gt__(self, other):
        return self.raw > _as_dec(other).raw

    def __ge__(self, other):
        return self.raw >= _as_dec(other).raw

    def __add__(self, other):
        return Dec4(self.raw + _as_dec(other).raw)

    def __sub__(self, other):
        return Dec4(self.raw - _as_dec(other).raw)

    def __neg__(self):
        return Dec4(-self.raw)

    def __mul__(self, other):
        return Dec4((self.raw * _as_dec(other).raw) // self.SCALE)

    def __floordiv__(self, other):
        d = _as_dec(other)
        if d.raw == 0:
            raise DivisionByZero("decimal division by zero")
        return Dec4((self.raw * self.SCALE) // d.raw)

    def floor(self) -> int:
        return self.raw // self.SCALE


def _as_dec(value) -> Dec4:
    if isinstance(value, Dec4):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Dec4(value * Dec4.SCALE)
    raise KindMismatch(f"cannot use {value!r} as a decimal")


CarrierValue = Union[bool, int, Dec4, str, Bottom]


def kind_of(value) -> str:
    """Carrier kind of a non-BOTTOM value; KindMismatch otherwise."""
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, Dec4):
        return DECIMAL
    if isinstance(value, str):
        if not _LABEL_RE.match(value):
            raise KindMismatch(f"malformed label {value!r}")
        return LABEL
    if value is BOTTOM:
        raise KindMismatch("BOTTOM has no kind")
    raise KindMismatch(f"not a carrier value: {value!r}")


def is_carrier(value) -> bool:
    if value is BOTTOM:
        return True
    try:
        kind_of(value)
    except KindMismatch:
        return False
    return True


def format_value(value) -> str:
    """Canonical text of a carrier value (decimals with 4 fractional digits)."""
    if value is BOTTOM:
        return "NA"
    kind = kind_of(value)
    if kind == BOOLEAN:
        return "true" if value else "false"
    if kind == LABEL:
        return value
    return str(value)


def digit_limit() -> int:
    """The most digits ``int`` reads from a string and ``str`` writes of an
    integer; 0, and Python before 3.10.7, set no limit."""
    return getattr(sys, "get_int_max_str_digits", int)()


def past_digit_limit(n: int) -> bool:
    """Whether ``n`` has more digits than ``str`` writes."""
    limit = digit_limit()
    return limit > 0 and abs(n) >= 10 ** limit


def parse_int(text: str) -> int:
    """An integer written as an optional ``-`` and ASCII digits; anything
    else that ``int`` would take, such as ``+3``, `` 3`` or ``1_0``, is a
    ValueError."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


def parse_value(text: str, kind: str) -> CarrierValue:
    """Parse the canonical text of a value under an expected kind."""
    if kind == BOOLEAN:
        if text == "true":
            return True
        if text == "false":
            return False
        raise KindMismatch(f"not a boolean: {text!r}")
    if kind == INTEGER:
        try:
            return parse_int(text)
        except ValueError:
            raise KindMismatch(f"not an integer: {text!r}") from None
    if kind == DECIMAL:
        return Dec4.parse(text)
    if kind == LABEL:
        if not _LABEL_RE.match(text):
            raise KindMismatch(f"not a label: {text!r}")
        return text
    raise KindMismatch(f"unknown kind {kind!r}")


# -- value-level operations and tests ---------------------------------------
#
# These back both the formula evaluator and the pointwise stream liftings.
# Integers promote to Dec4 when mixed with decimals; booleans and labels
# support equality only.

def _numeric_pair(a, b):
    ka, kb = kind_of(a), kind_of(b)
    if ka not in _NUMERIC or kb not in _NUMERIC:
        raise KindMismatch(f"numeric operation on {ka} and {kb}")
    if ka == kb:
        return a, b
    return _as_dec(a), _as_dec(b)


def _numeric(operation):
    """``operation`` on two numbers, promoted by ``_numeric_pair``."""
    return lambda a, b: operation(*_numeric_pair(a, b))


add_values = _numeric(operator.add)
sub_values = _numeric(operator.sub)
mul_values = _numeric(operator.mul)


def div_values(a, b):
    """Flooring division; the language has no fractional integer results."""
    a, b = _numeric_pair(a, b)
    if isinstance(a, Dec4):
        return a // b
    if b == 0:
        raise DivisionByZero("integer division by zero")
    return a // b


def neg_value(a):
    if kind_of(a) not in _NUMERIC:
        raise KindMismatch(f"cannot negate a {kind_of(a)}")
    return -a


def floor_value(a):
    k = kind_of(a)
    if k == INTEGER:
        return a
    if k == DECIMAL:
        return a.floor()
    raise KindMismatch(f"cannot floor a {k}")


def _extreme(name: str, test: str, args):
    """The first largest (``test`` "gt") or smallest ("lt") of ``args``."""
    if len(args) < 2:
        raise KindMismatch(f"{name} needs at least two values")
    out = args[0]
    for v in args[1:]:
        out = v if compare(test, v, out) else out
    return out


def max_values(*args):
    return _extreme("max", "gt", args)


def min_values(*args):
    return _extreme("min", "lt", args)


# the six comparison tests, by name; booleans and labels admit eq and ne only
COMPARISONS = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
               "le": operator.le, "gt": operator.gt, "ge": operator.ge}


def compare(op: str, a, b) -> bool:
    """Apply a comparison test (a name in ``COMPARISONS``) to two values;
    values of two kinds compare only as numbers, whatever the test."""
    ka, kb = kind_of(a), kind_of(b)
    if ka != kb:
        if ka not in _NUMERIC or kb not in _NUMERIC:
            raise KindMismatch(f"cannot compare {ka} with {kb}")
        a, b = _as_dec(a), _as_dec(b)
    elif ka not in _NUMERIC and op not in ("eq", "ne"):
        raise KindMismatch(f"{ka} values admit only equality tests")
    test = COMPARISONS.get(op)
    if test is None:
        raise KindMismatch(f"unknown comparison {op!r}")
    return test(a, b)
