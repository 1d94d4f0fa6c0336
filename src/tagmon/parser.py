"""Concrete syntax for attribute formulas.

    formula    := or_f
    or_f       := and_f ("or" and_f)*
    and_f      := not_f ("and" not_f)*
    not_f      := "not" not_f | quantified | atom
    quantified := ("forall" | "exists") ident "in" term ".." term ":" or_f
    atom       := comparison | "true" | "false" | "(" or_f ")"
    comparison := term ("=" | "!=" | "<" | "<=" | ">" | ">=") term
    term       := multerm (("+" | "-") multerm)*
    multerm    := unary (("*" | "/") unary)*
    unary      := "-" unary | primary
    primary    := number | ident | ident "(" args ")" | ident "[" term "]"
                | "true" | "false" | "(" term ")"

Quantifier bounds are inclusive and the body extends as far to the right as
possible.  Numbers are written in ASCII digits; one with a decimal point is a
fixed-point value with at most four fractional digits.  ``#`` starts a
comment that runs to the end of the line.

Call syntax is checked against ``streams.OPERATIONS``: an identifier applied
to arguments must be a declared operation, and is a term.  The relations of
``streams.RELATIONS`` are written as comparisons only, spelt as the printer
spells them, so ``lt(a, b)`` is an unknown operation, not a test.  Bare identifiers are
quantified variables, template parameters bound as variables, or stream
names, all resolved at evaluation time.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .errors import FormulaSyntaxError, KindMismatch, UnknownSymbol
from .formulas import (
    _CMP_TEXT,
    _IDENT_RE,
    _KEYWORDS,
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
    _check_bound,
    _numeric_lit,
)
from .streams import OPERATIONS
from .values import Dec4

_TOKEN_RE = re.compile(rf"""
      (?P<ws>\s+)
    | (?P<comment>\#[^\n]*)
    | (?P<number>[0-9]+(?:\.[0-9]+)?)
    | (?P<ident>{_IDENT_RE.pattern})
    | (?P<op>\.\.|<=|>=|!=|[=<>+\-*/()\[\],:])
""", re.VERBOSE)

_CMP_OPS = {text: name for name, text in _CMP_TEXT.items()}


def tokenize(text: str) -> List[Tuple[str, str, int]]:
    """Return (type, text, offset) triples; type is 'number', 'ident',
    'keyword', a punctuation literal, or 'end'."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaSyntaxError(
                f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        value = m.group()
        if kind == "number":
            tokens.append(("number", value, pos))
        elif kind == "ident":
            tokens.append(("keyword" if value in _KEYWORDS else "ident",
                           value, pos))
        elif kind == "op":
            tokens.append((value, value, pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _number(text: str, pos: int):
    if "." not in text:
        return int(text, 10)
    frac = text.split(".", 1)[1]
    if len(frac) > 4:
        raise KindMismatch(
            f"decimal {text!r} has more than 4 fractional digits "
            f"(at position {pos})")
    return Dec4.parse(text)


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

    def at_keyword(self, word):
        tok = self.peek()
        return tok[0] == "keyword" and tok[1] == word

    # formulas ---------------------------------------------------------------

    def formula(self) -> Formula:
        f = self.and_f()
        while self.at_keyword("or"):
            self.next()
            f = Or(f, self.and_f())
        return f

    def and_f(self) -> Formula:
        f = self.not_f()
        while self.at_keyword("and"):
            self.next()
            f = And(f, self.not_f())
        return f

    def not_f(self) -> Formula:
        if self.at_keyword("not"):
            self.next()
            return Not(self.not_f())
        if self.at_keyword("forall") or self.at_keyword("exists"):
            return self.quantified()
        return self.atom()

    def quantified(self) -> Formula:
        quantifier = self.next()[1]
        var_tok = self.expect("ident")
        tok = self.peek()
        if not self.at_keyword("in"):
            raise FormulaSyntaxError(
                f"expected 'in', found {tok[1]!r}", tok[2])
        self.next()
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

    def call_args(self) -> List[Term]:
        args = [self.term()]
        while self.peek()[0] == ",":
            self.next()
            args.append(self.term())
        self.expect(")")
        return args

    # terms --------------------------------------------------------------------

    def term(self) -> Term:
        t = self.multerm()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            t = Apply("add" if op == "+" else "sub", (t, self.multerm()))
        return t

    def multerm(self) -> Term:
        t = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            t = Apply("mul" if op == "*" else "div", (t, self.unary()))
        return t

    def unary(self) -> Term:
        if self.peek()[0] == "-":
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
        if tok[0] == "keyword" and tok[1] in ("true", "false"):
            return Lit(tok[1] == "true")
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
                return Apply(name, tuple(self.call_args()))
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
