"""Exception types shared across the engine.

Every error raised by this package derives from MonitorError so callers can
catch the whole family with one clause.  The CLI maps MonitorError subclasses
to exit codes; everything else is a genuine bug.
"""


class MonitorError(Exception):
    """Base class for all errors raised by tagmon."""


class FileFormatError(MonitorError):
    """Malformed input file; ``line`` is the fault's 1-based line, 0 if none.

    The fault words its own place in a file (``render``), which the CLI
    prints, so that no caller parses ``str(exc)`` to put the file's name in.
    """

    def __init__(self, message, line=0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.message = message
        self.line = line

    def render(self, path) -> str:
        """``path:line: message``, or ``path: message`` for line 0."""
        place = f"{path}:{self.line}" if self.line else path
        return f"{place}: {self.message}"


# -- stream algebra ---------------------------------------------------------

class OutOfWindow(MonitorError):
    """A time point was addressed outside a stream's window."""


class BottomConstant(MonitorError):
    """Attempted to lift the undefined marker into a constant stream."""


class WindowMismatch(MonitorError):
    """Pointwise operations require identical argument windows."""


class ArityMismatch(MonitorError):
    """Operation or test applied to the wrong number of arguments."""


class KindMismatch(MonitorError):
    """Value of the wrong carrier kind (boolean/integer/decimal/label).

    The formula layer raises it too, for well-formed syntax applied to
    values of unusable kinds: a stream used as a plain value, a non-integer
    index or sample bound, a decimal literal with more than 4 fractional
    digits.
    """


class ShiftTooLarge(MonitorError):
    """Shift distance meets or exceeds the window length."""


class BottomEncountered(MonitorError):
    """A test or quantifier touched an undefined reading."""


class TraceFormatError(FileFormatError):
    """Malformed trace file."""


# -- attribute formulas -----------------------------------------------------

class FormulaSyntaxError(MonitorError):
    """Unparseable formula text; position is a 0-based character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbol(MonitorError):
    """Call to an operation that ``streams.OPERATIONS`` does not declare."""


class UnboundIdentifier(MonitorError):
    """Identifier with no variable, stream or constant binding."""


class BoundNotInteger(MonitorError):
    """Quantifier bound evaluated to a non-integer."""


class MissingParameter(MonitorError):
    """Attribute template evaluated without all of its parameters bound."""


class DivisionByZero(MonitorError):
    """Division by zero inside term evaluation."""


# -- monitoring stack -------------------------------------------------------

class UnknownField(MonitorError):
    """Characteristics field name outside the declared schema."""


class NoJudgement(MonitorError):
    """No predicate of a family held: the family does not cover its domain."""


class AmbiguousJudgement(MonitorError):
    """More than one predicate of a family held: predicates overlap."""


# -- interventions ----------------------------------------------------------

class UnknownJudgement(MonitorError):
    """Trigger asked about a judgement outside its declared domain."""


# -- scenarios and CLI ------------------------------------------------------

class WindowTooShort(MonitorError):
    """Behaviour stream does not cover the interval to be tested."""


class ScenarioFormatError(FileFormatError):
    """Malformed scenario file."""


class BadParams(MonitorError):
    """Invalid parameters passed to a trace generator."""
