"""Attribute formulas: their trees, evaluation and templates.  Their text,
read and printed, is ``tagmon.parser``'s.

Attributes over behaviour streams are written in a small first-order language
whose quantifiers always carry explicit finite integer bounds, which keeps
every formula evaluable by direct expansion.  Terms may read a stream at a
computed tick (``b[t1 + k*s]``) or hand a whole stream to the sampling
reductions ``max``/``min`` (``max(b, t1, t2, s)`` is the maximum of the
readings at t1, t1+s, ..., up to t2).

Every name is bound in one namespace, ``Environment.bindings``: parameters,
the behaviour stream, and in a quantifier's body its variable, which hides
any outer binding of its name.  A predicate family declares, once for all
of its templates, the parameters and the stream name they are observed
under.

Undefined readings are strict: a BOTTOM anywhere inside a term makes the term
BOTTOM, and an atomic test over BOTTOM raises BottomEncountered rather than
inventing a truth value.  The monitoring layer routes that exception to the
predicate family's one label for undefined data.

Two leaf shapes are asked of the stream instead of stepped tick by tick
here: ``forall``/``exists k in lo .. hi : s[k] = c`` with c a boolean
literal, over a parsed boolean trace, which searches its codes, and
``max``/``min(s, t1, t2, step)`` over any stream, which a parsed decimal
trace answers on its texts.  Each gives what the loop gives, down to the
error or BOTTOM it meets first.  Every other formula takes the loop.
"""

from __future__ import annotations

from typing import Tuple, Union

from ._frozen import Frozen
from .errors import (
    ArityMismatch,
    BottomEncountered,
    BoundNotInteger,
    KindMismatch,
    UnboundIdentifier,
    UnknownSymbol,
)
from .streams import OPERATIONS, Stream, _Booleans, check_arity
from .values import BOTTOM, CarrierValue, compare

# -- terms --------------------------------------------------------------------


class Lit(Frozen):
    value: CarrierValue


class Var(Frozen):
    name: str


class Apply(Frozen):
    op: str
    args: Tuple["Term", ...]


class StreamAt(Frozen):
    stream: str
    index: "Term"


Term = Union[Lit, Var, Apply, StreamAt]


# -- formulas -----------------------------------------------------------------


class BoolLit(Frozen):
    value: bool


class Cmp(Frozen):
    op: str  # eq ne lt le gt ge
    lhs: Term
    rhs: Term


class Not(Frozen):
    body: "Formula"


class And(Frozen):
    lhs: "Formula"
    rhs: "Formula"


class Or(Frozen):
    lhs: "Formula"
    rhs: "Formula"


class Quant(Frozen):
    quantifier: str  # "forall" | "exists"
    var: str
    lo: Term
    hi: Term
    body: "Formula"


Formula = Union[BoolLit, Cmp, Not, And, Or, Quant]


class Environment:
    """Evaluation state: ``bindings`` maps every name in scope, a template
    parameter, a quantified variable or a behaviour stream, to its value.
    ``memo`` keeps the answers of the column queries asked under these
    bindings (see ``_asked``); environments that share one ask each query
    once between them.  Mutable, and never compared or hashed."""

    __slots__ = ("bindings", "memo")

    def __init__(self, bindings=None, memo=None):
        self.bindings = {} if bindings is None else bindings
        self.memo = {} if memo is None else memo


# -- evaluation ---------------------------------------------------------------


def _lookup(name: str, env: Environment):
    try:
        return env.bindings[name]
    except KeyError:
        raise UnboundIdentifier(f"unbound identifier {name!r}") from None


def _asked(env: Environment, stream: Stream, query: str, *args):
    """``stream.<query>(*args)``, asked once per memo of ``env``: a stream
    never changes, so neither do its answers.  The key is the stream's
    identity, never its hash, which would box every reading; the bindings
    of the memo's environment hold the stream, so the identity is not
    reused while the memo lives.  A query that raises is asked again next
    time."""
    key = (query, id(stream), *args)
    memo = env.memo
    if key not in memo:
        memo[key] = getattr(stream, query)(*args)
    return memo[key]


def _sampled_reduce(op: str, args, env: Environment):
    if len(args) != 4:
        raise ArityMismatch(
            f"sampled {op} takes (stream, start, end, step), got {len(args)} "
            "arguments")
    stream, t1, t2, s = args
    for bound in (t1, t2, s):
        if bound is BOTTOM:
            return BOTTOM
        if isinstance(bound, bool) or not isinstance(bound, int):
            raise KindMismatch(
                f"sample bounds must be integers, got {bound!r}")
    if s < 1:
        raise KindMismatch(f"sample step must be positive, got {s}")
    if t2 < t1:
        raise KindMismatch(f"empty sample range [{t1}, {t2}]")
    return _asked(env, stream, "reduce_samples", op, t1, t2, s)


def eval_term(term: Term, env: Environment):
    """Value of a term; returns BOTTOM if any reading involved is undefined.

    A bare identifier bound to a stream evaluates to the stream itself, which
    is only consumable as the first argument of ``max``/``min``.
    """
    if isinstance(term, Lit):
        return term.value
    if isinstance(term, Var):
        return _lookup(term.name, env)
    if isinstance(term, StreamAt):
        bound = _lookup(term.stream, env)
        if not isinstance(bound, Stream):
            raise KindMismatch(f"{term.stream!r} is not bound to a stream")
        idx = eval_term(term.index, env)
        if idx is BOTTOM:
            return BOTTOM
        if isinstance(idx, bool) or not isinstance(idx, int):
            raise KindMismatch(f"stream index must be an integer, got {idx!r}")
        return bound.at(idx)
    if isinstance(term, Apply):
        op = OPERATIONS.get(term.op)
        if op is None:
            raise UnknownSymbol(f"unknown operation {term.op!r}")
        args = [eval_term(a, env) for a in term.args]
        if args and isinstance(args[0], Stream):
            if term.op in ("max", "min"):
                return _sampled_reduce(term.op, args, env)
            raise KindMismatch(
                f"stream argument is only valid in sampled max/min, "
                f"not {term.op!r}")
        if any(isinstance(a, Stream) for a in args):
            raise KindMismatch(f"stream used as a plain value in {term.op!r}")
        check_arity(op, len(args))
        if any(a is BOTTOM for a in args):
            return BOTTOM
        return op.fn(*args)
    raise KindMismatch(f"not a term: {term!r}")


def _int_bound(term: Term, env: Environment) -> int:
    v = eval_term(term, env)
    if v is BOTTOM:
        raise BottomEncountered("quantifier bound is undefined")
    if isinstance(v, bool) or not isinstance(v, int):
        raise BoundNotInteger(f"quantifier bound {v!r} is not an integer")
    return v


def _atom_value(term: Term, env: Environment):
    v = eval_term(term, env)
    if v is BOTTOM:
        raise BottomEncountered("test touched an undefined reading")
    if isinstance(v, Stream):
        raise KindMismatch("stream used as a plain value in a test")
    return v


def _scanned_column(formula: Quant, env: Environment):
    """The parsed boolean trace that ``k in lo .. hi : s[k] = c`` scans,
    with c a boolean literal and s bound to that trace, not the quantified
    variable; None for any other quantifier."""
    body = formula.body
    if not (isinstance(body, Cmp) and body.op == "eq"
            and isinstance(body.lhs, StreamAt)
            and isinstance(body.lhs.index, Var)
            and body.lhs.index.name == formula.var
            and isinstance(body.rhs, Lit)
            and isinstance(body.rhs.value, bool)):
        return None
    name = body.lhs.stream
    if name == formula.var:
        return None
    stream = env.bindings.get(name)
    return stream if isinstance(stream, _Booleans) else None


def eval_formula(formula: Formula, env: Environment) -> bool:
    """Tarskian evaluation; quantifiers range over their inclusive bounds."""
    if isinstance(formula, BoolLit):
        return formula.value
    if isinstance(formula, Cmp):
        return compare(formula.op, _atom_value(formula.lhs, env),
                       _atom_value(formula.rhs, env))
    if isinstance(formula, Not):
        return not eval_formula(formula.body, env)
    if isinstance(formula, And):
        return (eval_formula(formula.lhs, env)
                and eval_formula(formula.rhs, env))
    if isinstance(formula, Or):
        return (eval_formula(formula.lhs, env)
                or eval_formula(formula.rhs, env))
    if isinstance(formula, Quant):
        lo = _int_bound(formula.lo, env)
        hi = _int_bound(formula.hi, env)
        forall = formula.quantifier == "forall"
        column = _scanned_column(formula, env)
        if column is not None:
            # the first tick that stops the loop below decides the result
            literal = formula.body.rhs.value
            stop = _asked(env, column, "first_other",
                          literal if forall else not literal, lo, hi)
            if stop is BOTTOM:
                raise BottomEncountered("test touched an undefined reading")
            return forall if stop is None else not forall
        scope = dict(env.bindings)
        inner = Environment(scope, env.memo)
        # forall stops at the first false body, exists at the first true one
        for k in range(lo, hi + 1):
            scope[formula.var] = k
            if bool(eval_formula(formula.body, inner)) is not forall:
                return not forall
        return forall
    raise KindMismatch(f"not a formula: {formula!r}")


# -- attribute templates ------------------------------------------------------


class AttributeSpec(Frozen):
    """The formula template backing one judgement label of a predicate
    family; the family declares the names the template is bound under."""

    label: str
    template: Formula
