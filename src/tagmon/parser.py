"""Concrete syntax for attribute formulas: tokenizer and parser.

    formula    := not_f (("and" | "or") not_f)*
    not_f      := "not" not_f | quantified | atom
    quantified := ("forall" | "exists") ident "in" term ".." term ":" formula
    atom       := comparison | "true" | "false" | "(" formula ")"
    comparison := term ("=" | "!=" | "<" | "<=" | ">" | ">=") term
    term       := unary (("+" | "-" | "*" | "/") unary)*
    unary      := "-" unary | primary
    primary    := number | ident | ident "(" args ")" | ident "[" term "]"
                | "true" | "false" | "(" term ")"

``_BINARY`` gives each binary operator its precedence (``and`` over ``or``,
``*`` and ``/`` over ``+`` and ``-``); all associate to the left.
Quantifier bounds are inclusive and the body extends as far to the right as
possible.  Numbers are written in ASCII digits; one with a decimal point is a
fixed-point value with at most four fractional digits.  ``#`` starts a
comment that runs to the end of the line.

Call syntax is checked against ``streams.OPERATIONS``: an identifier applied
to arguments must be a declared operation, and is a term.  The comparisons of
``values.COMPARISONS`` are written with the comparison operators only, so
``lt(a, b)`` is an unknown operation, not a test.  Bare identifiers are
quantified variables, template parameters bound as variables, or stream
names, all resolved at evaluation time.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .errors import FormulaSyntaxError, KindMismatch, UnknownSymbol
from .formulas import (
    And,
    Apply,
    BoolLit,
    Cmp,
    Formula,
    Lit,
    Not,
    Or,
    Quant,
    StreamAt,
    Term,
    Var,
)
from .streams import OPERATIONS
from .values import Dec4

# the binary operators: spelling -> (the connective it builds or the term
# operation it applies, precedence); a higher precedence binds tighter.  A
# spelling that is a word is a keyword.
_MINUS = "-"  # also negation, before an operand
_BINARY = {"or": (Or, 1), "and": (And, 2),
           "+": ("add", 1), _MINUS: ("sub", 1), "*": ("mul", 2),
           "/": ("div", 2)}
# each comparison's spelling -> its name in ``values.COMPARISONS``
_CMP_OPS = {"=": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt",
            ">=": "ge"}
_QUANTIFIERS = ("forall", "exists")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KEYWORDS = {"true", "false", "not", "in", *_QUANTIFIERS,
             *filter(_IDENT_RE.fullmatch, _BINARY)}
# every other token that is not a name or a number, longest first
_SYMBOLS = sorted({*_BINARY, *_CMP_OPS, "..", "(", ")", "[", "]", ",", ":"}
                  - _KEYWORDS, key=lambda s: (-len(s), s))

_TOKEN_RE = re.compile(rf"""
      (?P<ws>\s+)
    | (?P<comment>\#[^\n]*)
    | (?P<number>[0-9]+(?:\.[0-9]+)?)
    | (?P<ident>{_IDENT_RE.pattern})
    | (?P<op>{"|".join(map(re.escape, _SYMBOLS))})
    | (?P<bad>.)
""", re.VERBOSE)


def tokenize(text: str) -> List[Tuple[str, str, int]]:
    """Return (type, text, offset) triples; type is 'number', 'ident', 'end',
    or the text itself for a keyword or any other symbol."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, value, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise FormulaSyntaxError(f"unexpected character {value!r}", pos)
        if kind == "op" or value in _KEYWORDS:
            tokens.append((value, value, pos))
        elif kind in ("number", "ident"):
            tokens.append((kind, value, pos))
    tokens.append(("end", "", len(text)))
    return tokens


def _number(text: str, pos: int):
    _, point, frac = text.partition(".")
    if len(frac) > 4:
        raise KindMismatch(
            f"decimal {text!r} has more than 4 fractional digits "
            f"(at position {pos})")
    try:
        return Dec4.parse(text) if point else int(text, 10)
    except (KindMismatch, ValueError):  # past ``int``'s digit limit
        raise KindMismatch(f"number past int's digit limit (at position "
                           f"{pos})") from None


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] != "end":
            self.i += 1
        return tok

    def expect(self, ttype):
        tok = self.tokens[self.i]
        if tok[0] != ttype:
            raise FormulaSyntaxError(
                f"expected {ttype!r}, found {tok[1] or 'end of input'!r}",
                tok[2])
        return self.next()

    def operator(self, kind: type, floor: int):
        """The next token's row of ``_BINARY``, taken, if it builds a
        ``kind`` (a connective ``type`` or an operation ``str``) and binds at
        least as tightly as ``floor``; None otherwise."""
        row = _BINARY.get(self.peek()[0])
        if row is None or not isinstance(row[0], kind) or row[1] < floor:
            return None
        self.next()
        return row

    def formula(self, floor: int = 1) -> Formula:
        """Operands joined by connectives of at least precedence ``floor``;
        a right operand takes only tighter ones, so each associates left."""
        f = self.not_f()
        while row := self.operator(type, floor):
            f = row[0](f, self.formula(row[1] + 1))
        return f

    def not_f(self) -> Formula:
        if self.peek()[0] == "not":
            self.next()
            return Not(self.not_f())
        if self.peek()[0] in _QUANTIFIERS:
            return self.quantified()
        return self.atom()

    def quantified(self) -> Formula:
        quantifier = self.next()[1]
        var_tok = self.expect("ident")
        self.expect("in")
        lo = self.term()
        self.expect("..")
        hi = self.term()
        _check_bound(lo, "lower")
        _check_bound(hi, "upper")
        self.expect(":")
        return Quant(quantifier, var_tok[1], lo, hi, self.formula())

    def atom(self) -> Formula:
        if self.peek()[0] == "(":
            # a parenthesis may open a nested formula or group a term;
            # try the formula reading first and fall back to a comparison
            mark = self.i
            try:
                self.next()
                f = self.formula()
                self.expect(")")
                return f
            except FormulaSyntaxError:
                self.i = mark
        lhs = self.term()
        tok = self.peek()
        if tok[0] in _CMP_OPS:
            self.next()
            return Cmp(_CMP_OPS[tok[0]], lhs, self.term())
        if isinstance(lhs, Lit) and isinstance(lhs.value, bool):
            return BoolLit(lhs.value)
        raise FormulaSyntaxError(
            f"expected a comparison operator, found {tok[1] or 'end'!r}",
            tok[2])

    def term(self, floor: int = 1) -> Term:
        """As ``formula``, over the term operators."""
        t = self.unary()
        while row := self.operator(str, floor):
            t = Apply(row[0], (t, self.term(row[1] + 1)))
        return t

    def unary(self) -> Term:
        if self.peek()[0] == _MINUS:
            self.next()
            operand = self.unary()
            if _numeric_lit(operand):
                return Lit(-operand.value)
            return Apply("neg", (operand,))
        return self.primary()

    def primary(self) -> Term:
        tok = self.next()
        if tok[0] == "number":
            return Lit(_number(tok[1], tok[2]))
        if tok[0] in ("true", "false"):
            return Lit(tok[0] == "true")
        if tok[0] == "(":
            t = self.term()
            self.expect(")")
            return t
        if tok[0] == "ident":
            name = tok[1]
            if self.peek()[0] == "(":
                if name not in OPERATIONS:
                    raise UnknownSymbol(
                        f"unknown operation {name!r} (at position {tok[2]})")
                self.next()
                args = [self.term()]
                while self.peek()[0] == ",":
                    self.next()
                    args.append(self.term())
                self.expect(")")
                return Apply(name, tuple(args))
            if self.peek()[0] == "[":
                self.next()
                index = self.term()
                self.expect("]")
                return StreamAt(name, index)
            return Var(name)
        raise FormulaSyntaxError(
            f"expected a term, found {tok[1] or 'end of input'!r}", tok[2])


def parse_formula(text: str) -> Formula:
    """Parse one formula; raises FormulaSyntaxError, UnknownSymbol or
    KindMismatch (a decimal with more than 4 fractional digits, or a literal
    quantifier bound that is not an integer)."""
    return _parse_all(text, _Parser.formula)


def parse_term(text: str) -> Term:
    """Parse one term; raises as ``parse_formula`` does."""
    return _parse_all(text, _Parser.term)


def _parse_all(text: str, rule):
    p = _Parser(tokenize(text))
    tree = rule(p)
    tok = p.peek()
    if tok[0] != "end":
        raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return tree


def _numeric_lit(t: Term) -> bool:
    """Whether the parser folds a "-" before ``t`` into ``t`` itself."""
    return isinstance(t, Lit) and not isinstance(t.value, bool)


def _check_bound(t: Term, side: str) -> None:
    """Refuse a literal quantifier bound that is not an integer."""
    if isinstance(t, Lit) and (isinstance(t.value, bool)
                               or not isinstance(t.value, int)):
        raise KindMismatch(f"{side} quantifier bound must be an integer term")

