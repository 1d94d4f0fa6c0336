"""Independent reference implementations used to check the engine.

Everything here is deliberately naive: quantifiers expand into explicit
Python lists, terms are evaluated with plain integer arithmetic, and streams
are indexed directly into their value tuples.  None of it shares code with
the evaluator under test.
"""

from __future__ import annotations

import dataclasses
import random
import re
import sys
from typing import List, Optional

from tagmon.errors import (
    FormulaSyntaxError,
    KindMismatch,
    MonitorError,
    ScenarioFormatError,
    TraceFormatError,
    UnknownSymbol,
)
from tagmon.formulas import (
    And,
    Apply,
    AttributeSpec,
    BoolLit,
    Cmp,
    Lit,
    Not,
    Or,
    Quant,
    StreamAt,
    Var,
)
from tagmon.interventions import (
    Action,
    Intervention,
    Notification,
    Policy,
    Trigger,
)
from tagmon.monitoring import JudgementSet, PredicateFamily, Record
from tagmon.scenario_file import (
    EntityConfig,
    RuleConfig,
    ScenarioConfig,
    ScheduleConfig,
    parse_clock,
)
from tagmon.scenarios import (
    CurfewOrder,
    EntityRun,
    ReportSchedule,
    ScenarioRun,
    Sentence,
    merge_runs,
)
from tagmon.streams import OPERATIONS, Operation, Relation, Stream, Window
from tagmon.values import BOTTOM, KINDS, Dec4, format_value, parse_value

_CMP_FN = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


def brute_term(term, env, streams):
    """Plain-integer term evaluation (no decimals, no bottoms)."""
    if isinstance(term, Lit):
        return term.value
    if isinstance(term, Var):
        return env[term.name]
    if isinstance(term, StreamAt):
        s = streams[term.stream]
        idx = brute_term(term.index, env, streams)
        return s.values[idx - s.window.start]
    if isinstance(term, Apply):
        args = [brute_term(a, env, streams) for a in term.args]
        if term.op == "add":
            return args[0] + args[1]
        if term.op == "sub":
            return args[0] - args[1]
        if term.op == "mul":
            return args[0] * args[1]
        if term.op == "max":
            return max(args)
        if term.op == "min":
            return min(args)
    raise AssertionError(f"oracle cannot evaluate {term!r}")


def brute_formula(formula, env, streams):
    """Quantifiers expand by full enumeration; connectives do not short-circuit."""
    if isinstance(formula, BoolLit):
        return formula.value
    if isinstance(formula, Cmp):
        return _CMP_FN[formula.op](brute_term(formula.lhs, env, streams),
                                   brute_term(formula.rhs, env, streams))
    if isinstance(formula, Not):
        return not brute_formula(formula.body, env, streams)
    if isinstance(formula, And):
        lhs = brute_formula(formula.lhs, env, streams)
        rhs = brute_formula(formula.rhs, env, streams)
        return lhs and rhs
    if isinstance(formula, Or):
        lhs = brute_formula(formula.lhs, env, streams)
        rhs = brute_formula(formula.rhs, env, streams)
        return lhs or rhs
    if isinstance(formula, Quant):
        lo = brute_term(formula.lo, env, streams)
        hi = brute_term(formula.hi, env, streams)
        rows = [brute_formula(formula.body, {**env, formula.var: k}, streams)
                for k in range(lo, hi + 1)]
        return all(rows) if formula.quantifier == "forall" else any(rows)
    raise AssertionError(f"oracle cannot evaluate {formula!r}")


def count_samples(t1, t2, s):
    """Enumerate sample points t1 + k*s while they stay within t2."""
    n = 0
    k = 0
    while t1 + k * s <= t2:
        n += 1
        k += 1
    return n


def band_oracle(sample_raws, eps_raw, delta_raw):
    """Classify raw scaled samples; None marks a missed reading."""
    if any(v is None for v in sample_raws):
        return "absent"
    peak = max(sample_raws)
    if peak < eps_raw - delta_raw:
        return "green"
    if peak > eps_raw + delta_raw:
        return "red"
    return "amber"


# -- one entity's row, run alone ----------------------------------------------
#
# The [policy] rule that the shipped scenarios declare for each family's
# entities: alcohol_*.scenario's record-breach and curfew.scenario's
# curfew-breach.  Each records a breach judgement as the entity's status.
SHIPPED_RULES = {
    "bac-band": ("record-breach", ("amber", "red", "absent")),
    "curfew-presence": ("curfew-breach", ("violation", "absent-signal")),
}


def execute_alone(row: EntityRun):
    """Execute one entity's row under its family's shipped rule."""
    name, labels = SHIPPED_RULES[row.family.name]
    rule = Intervention(name, Trigger(row.family.judgements,
                                      frozenset(labels)),
                        Action("status"))
    return merge_runs([row], Policy((rule,))).execute()


# -- trace files ----------------------------------------------------------------

_ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")
_STRICT_DEC_RE = re.compile(r"-?[0-9]+\.[0-9]{4}\Z")


def reference_parse_trace(text: str):
    """Parse trace text line by line; returns (stream_id, kind, Stream).

    The per-line trace parser as it stood before traces were read in
    chunks: every value line is checked and boxed on its own.  Window
    bounds and ticks are read through ``_strict_int`` and must be written as
    ``str`` writes them, decimals are in ASCII digits only, and each reading
    must be written as ``format_value`` writes it, as ``parse_trace`` now
    reads them.
    """
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
        start, horizon = _strict_int(start_s), _strict_int(horizon_s)
    except ValueError:
        raise TraceFormatError("non-integer window bounds", 1) from None
    for bound_s, bound in ((start_s, start), (horizon_s, horizon)):
        if bound_s != str(bound):
            raise TraceFormatError(
                f"window bound {bound_s!r} must be written '{bound}'", 1)
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
            t = _strict_int(tick_s)
        except ValueError:
            raise TraceFormatError(f"non-integer tick {tick_s!r}", i) from None
        if t != expected_t:
            raise TraceFormatError(
                f"tick {t} out of order (expected {expected_t})", i)
        if tick_s != str(t):
            raise TraceFormatError(f"tick {tick_s!r} must be written '{t}'", i)
        expected_t += 1
        if value_s == "NA":
            values.append(BOTTOM)
            continue
        if kind == "decimal" and not _STRICT_DEC_RE.match(value_s):
            raise TraceFormatError(
                f"decimal {value_s!r} must have exactly 4 fractional digits", i)
        try:
            value = parse_value(value_s, kind)
        except KindMismatch as exc:
            raise TraceFormatError(str(exc), i) from None
        if value_s != format_value(value):
            raise TraceFormatError(f"{kind} {value_s!r} must be written "
                                   f"'{format_value(value)}'", i)
        values.append(value)
    return stream_id, kind, Stream(Window(start, horizon), tuple(values))


# -- the scenario parser before its table of sections and keys --------------
#
# Its per-section branches, copied unchanged with the helpers they call, are
# the reference that ``parse_scenario`` is checked against.  Only integers
# are read more strictly than the copy did, through ``_strict_int``, as
# ``parse_scenario`` now reads them.

_SECTION_RE = re.compile(r"\[(entity\s+([A-Za-z][A-Za-z0-9_-]*)"
                         r"|schedule|policy)\]\Z")
_LABEL_LIST = r"[A-Za-z][A-Za-z0-9_-]*(?:\s*,\s*[A-Za-z][A-Za-z0-9_-]*)*"
_RULE_RE = re.compile(
    rf"([A-Za-z][A-Za-z0-9_-]*)\s*:\s*on\s+({_LABEL_LIST})\s+set\s+"
    r"([A-Za-z][A-Za-z0-9_-]*)\Z")

_ENTITY_KEYS = ("sentence", "curfew", "nights", "status", "trace")
_SCHEDULE_KEYS = ("uploads", "days")


def replace(obj, **changes):
    """A copy of a value-class instance with the given fields changed."""
    return type(obj)(**{**obj.__dict__, **changes})


def _strict_int(text: str) -> int:
    """A scenario or trace integer: an optional '-' and ASCII digits,
    nothing else."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text, 10)


def _ints(text: str, count: int, line: int) -> List[int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise ScenarioFormatError(
            f"expected {count} comma-separated values, got {len(parts)}", line)
    try:
        return [_strict_int(p) for p in parts]
    except ValueError:
        raise ScenarioFormatError(f"non-integer in {text!r}", line) from None


def reference_parse_scenario(text: str) -> ScenarioConfig:
    entities: List[EntityConfig] = []
    schedule: Optional[ScheduleConfig] = None
    schedule_keys = set()
    rules: List[RuleConfig] = []
    has_policy = False
    section = None  # None | ("entity", index) | "schedule" | "policy"

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = _SECTION_RE.match(line)
            if not m:
                raise ScenarioFormatError(f"bad section header {line!r}",
                                          lineno)
            if m.group(2):
                entity = m.group(2)
                if any(e.entity == entity for e in entities):
                    raise ScenarioFormatError(
                        f"duplicate entity {entity!r}", lineno)
                entities.append(EntityConfig(entity=entity, line=lineno))
                section = ("entity", len(entities) - 1)
            elif m.group(1) == "schedule":
                if schedule is not None:
                    raise ScenarioFormatError("duplicate [schedule] section",
                                              lineno)
                schedule = ScheduleConfig((), 0, line=lineno)
                section = "schedule"
            else:
                if has_policy:
                    raise ScenarioFormatError("duplicate [policy] section",
                                              lineno)
                has_policy = True
                section = "policy"
            continue
        key, sep, value = (p.strip() for p in line.partition("="))
        if not sep or not key:
            raise ScenarioFormatError(f"expected 'key = value', got {line!r}",
                                      lineno)
        if section is None:
            raise ScenarioFormatError(
                f"key {key!r} outside any section", lineno)
        if isinstance(section, tuple):
            idx = section[1]
            ent = entities[idx]
            if key not in _ENTITY_KEYS:
                raise ScenarioFormatError(f"unknown entity key {key!r}",
                                          lineno)
            if getattr(ent, key) is not None:
                raise ScenarioFormatError(f"duplicate key {key!r}", lineno)
            if key == "sentence":
                parts = [p.strip() for p in value.split(",")]
                if len(parts) != 5:
                    raise ScenarioFormatError(
                        "sentence needs t1,t2,s,epsilon,delta", lineno)
                try:
                    sent = (_strict_int(parts[0]), _strict_int(parts[1]),
                            _strict_int(parts[2]), Dec4.parse(parts[3]),
                            Dec4.parse(parts[4]))
                except (ValueError, MonitorError):
                    raise ScenarioFormatError(
                        f"bad sentence {value!r}", lineno) from None
                entities[idx] = replace(ent, sentence=sent)
            elif key == "curfew":
                parts = [p.strip() for p in value.split(",")]
                if len(parts) != 2:
                    raise ScenarioFormatError(
                        "curfew needs start,end clock times", lineno)
                entities[idx] = replace(ent, curfew=(
                    parse_clock(parts[0], lineno),
                    parse_clock(parts[1], lineno)))
            elif key == "nights":
                entities[idx] = replace(ent,
                                        nights=_ints(value, 1, lineno)[0])
            elif key == "status":
                entities[idx] = replace(ent, status=value)
            else:
                if not value:
                    raise ScenarioFormatError("empty trace path", lineno)
                entities[idx] = replace(ent, trace=value)
        elif section == "schedule":
            if key not in _SCHEDULE_KEYS:
                raise ScenarioFormatError(f"unknown schedule key {key!r}",
                                          lineno)
            if key in schedule_keys:
                raise ScenarioFormatError(f"duplicate key {key!r}", lineno)
            schedule_keys.add(key)
            if key == "uploads":
                uploads = tuple(parse_clock(p.strip(), lineno)
                                for p in value.split(","))
                schedule = replace(schedule, uploads=uploads)
            else:
                schedule = replace(schedule, days=_ints(value, 1, lineno)[0])
        else:
            if key != "rule":
                raise ScenarioFormatError(f"unknown policy key {key!r}",
                                          lineno)
            m = _RULE_RE.match(value)
            if not m:
                raise ScenarioFormatError(
                    f"bad rule {value!r}, expected "
                    "'<name>: on <labels> set <field>'", lineno)
            labels = tuple(p.strip() for p in m.group(2).split(","))
            rules.append(RuleConfig(m.group(1), labels, m.group(3),
                                    line=lineno))

    return ScenarioConfig(tuple(entities), schedule, tuple(rules))


# -- formula text: the tokenizer, parser and printer before the operator table

# each spelling written where it is read, as the engine's syntax was before
# one table drove its tokenizer, parser and printer
_FORMULA_KEYWORDS = {"true", "false", "not", "and", "or", "forall", "exists",
                     "in"}
_FORMULA_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_FORMULA_CMP_TEXT = {"eq": "=", "ne": "!=", "lt": "<", "le": "<=",
                     "gt": ">", "ge": ">="}
_FORMULA_CMP_OPS = {text: name for name, text in _FORMULA_CMP_TEXT.items()}
_FORMULA_INFIX = {"add": (" + ", 1), "sub": (" - ", 1),
                  "mul": (" * ", 2), "div": (" / ", 2)}
_FORMULA_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+)
    | (?P<comment>\#[^\n]*)
    | (?P<number>[0-9]+(?:\.[0-9]+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>\.\.|<=|>=|!=|[=<>+\-*/()\[\],:])
""", re.VERBOSE)


def _formula_tokens(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _FORMULA_TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaSyntaxError(
                f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        value = m.group()
        if kind == "number":
            tokens.append(("number", value, pos))
        elif kind == "ident":
            tokens.append(("keyword" if value in _FORMULA_KEYWORDS
                           else "ident", value, pos))
        elif kind == "op":
            tokens.append((value, value, pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _formula_number(text: str, pos: int):
    whole, point, frac = text.partition(".")
    if len(frac) > 4:
        raise KindMismatch(
            f"decimal {text!r} has more than 4 fractional digits "
            f"(at position {pos})")
    # int reads a decimal in raw units, its fraction padded to 4 digits;
    # a limit of 0, or none before Python 3.10.7, lets any length through
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and len(whole) + (4 if point else 0) > limit:
        raise KindMismatch(
            f"number past int's digit limit (at position {pos})")
    return Dec4.parse(text) if point else int(text, 10)


def _foldable(t) -> bool:
    return isinstance(t, Lit) and not isinstance(t.value, bool)


def _integer_bound(t, side: str) -> None:
    if isinstance(t, Lit) and (isinstance(t.value, bool)
                               or not isinstance(t.value, int)):
        raise KindMismatch(f"{side} quantifier bound must be an integer term")


class _FormulaParser:
    """Recursive descent with one method per precedence level."""

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

    def formula(self):
        f = self.and_f()
        while self.at_keyword("or"):
            self.next()
            f = Or(f, self.and_f())
        return f

    def and_f(self):
        f = self.not_f()
        while self.at_keyword("and"):
            self.next()
            f = And(f, self.not_f())
        return f

    def not_f(self):
        if self.at_keyword("not"):
            self.next()
            return Not(self.not_f())
        if self.at_keyword("forall") or self.at_keyword("exists"):
            return self.quantified()
        return self.atom()

    def quantified(self):
        quantifier = self.next()[1]
        var_tok = self.expect("ident")
        tok = self.peek()
        if not self.at_keyword("in"):
            raise FormulaSyntaxError(
                f"expected 'in', found {tok[1] or 'end of input'!r}",
                tok[2])
        self.next()
        lo = self.term()
        self.expect("..")
        hi = self.term()
        _integer_bound(lo, "lower")
        _integer_bound(hi, "upper")
        self.expect(":")
        return Quant(quantifier, var_tok[1], lo, hi, self.formula())

    def atom(self):
        if self.peek()[0] == "(":
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
        if tok[0] in _FORMULA_CMP_OPS:
            self.next()
            return Cmp(_FORMULA_CMP_OPS[tok[0]], lhs, self.term())
        if isinstance(lhs, Lit) and isinstance(lhs.value, bool):
            return BoolLit(lhs.value)
        raise FormulaSyntaxError(
            f"expected a comparison operator, found {tok[1] or 'end'!r}",
            tok[2])

    def call_args(self):
        args = [self.term()]
        while self.peek()[0] == ",":
            self.next()
            args.append(self.term())
        self.expect(")")
        return args

    def term(self):
        t = self.multerm()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            t = Apply("add" if op == "+" else "sub", (t, self.multerm()))
        return t

    def multerm(self):
        t = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            t = Apply("mul" if op == "*" else "div", (t, self.unary()))
        return t

    def unary(self):
        if self.peek()[0] == "-":
            self.next()
            operand = self.unary()
            if _foldable(operand):
                return Lit(-operand.value)
            return Apply("neg", (operand,))
        return self.primary()

    def primary(self):
        tok = self.next()
        if tok[0] == "number":
            return Lit(_formula_number(tok[1], tok[2]))
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


def _parse_formula_text(text: str, rule):
    p = _FormulaParser(_formula_tokens(text))
    tree = rule(p)
    tok = p.peek()
    if tok[0] != "end":
        raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return tree


def reference_parse_formula(text: str):
    return _parse_formula_text(text, _FormulaParser.formula)


def reference_parse_term(text: str):
    return _parse_formula_text(text, _FormulaParser.term)


def _formula_name(name: str) -> str:
    if (not _FORMULA_IDENT_RE.fullmatch(name)
            or name in _FORMULA_KEYWORDS):
        raise KindMismatch(f"no formula text for the name {name!r}")
    return name


def _term_text(t, req: int) -> str:
    if isinstance(t, Lit):
        if isinstance(t.value, str) or t.value is BOTTOM:
            raise KindMismatch(f"no formula text for {t!r}")
        return format_value(t.value)
    if isinstance(t, Var):
        return _formula_name(t.name)
    if isinstance(t, StreamAt):
        return f"{_formula_name(t.stream)}[{_term_text(t.index, 0)}]"
    if isinstance(t, Apply):
        if t.op not in OPERATIONS or not t.args:
            raise KindMismatch(f"no formula text for {t!r}")
        if t.op in _FORMULA_INFIX and len(t.args) == 2:
            text, prec = _FORMULA_INFIX[t.op]
            s = (_term_text(t.args[0], prec) + text
                 + _term_text(t.args[1], prec + 1))
            return f"({s})" if prec < req else s
        if (t.op == "neg" and len(t.args) == 1
                and not _foldable(t.args[0])):
            s = "-" + _term_text(t.args[0], 3)
            return f"({s})" if req > 3 else s
        return f"{t.op}({', '.join(_term_text(a, 0) for a in t.args)})"
    raise KindMismatch(f"not a term: {t!r}")


def reference_print_formula(f, req: int = 0) -> str:
    if isinstance(f, BoolLit):
        return "true" if f.value else "false"
    if isinstance(f, Cmp):
        if f.op not in _FORMULA_CMP_TEXT:
            raise KindMismatch(f"no formula text for {f!r}")
        return (f"{_term_text(f.lhs, 1)} {_FORMULA_CMP_TEXT[f.op]} "
                f"{_term_text(f.rhs, 1)}")
    if isinstance(f, Not):
        s = "not " + reference_print_formula(f.body, 3)
        return f"({s})" if req > 3 else s
    if isinstance(f, And):
        s = (reference_print_formula(f.lhs, 2) + " and "
             + reference_print_formula(f.rhs, 3))
        return f"({s})" if req > 2 else s
    if isinstance(f, Or):
        s = (reference_print_formula(f.lhs, 1) + " or "
             + reference_print_formula(f.rhs, 2))
        return f"({s})" if req > 1 else s
    if isinstance(f, Quant):
        if f.quantifier not in ("forall", "exists"):
            raise KindMismatch(f"no formula text for {f!r}")
        _integer_bound(f.lo, "lower")
        _integer_bound(f.hi, "upper")
        s = (f"{f.quantifier} {_formula_name(f.var)} in "
             f"{_term_text(f.lo, 0)} .. {_term_text(f.hi, 0)} : "
             f"{reference_print_formula(f.body, 0)}")
        return f"({s})" if req > 0 else s
    raise KindMismatch(f"not a formula: {f!r}")


# -- random generation ---------------------------------------------------------

_VAR_POOL = ("i", "j", "k")


def random_int_stream(rng: random.Random, start: int, length: int,
                      lo=-9, hi=9, bottom_rate=0.0) -> Stream:
    values = []
    for _ in range(length):
        if bottom_rate and rng.random() < bottom_rate:
            values.append(BOTTOM)
        else:
            values.append(rng.randint(lo, hi))
    return Stream(Window(start, start + length), tuple(values))


def random_term(rng: random.Random, depth: int, scope: dict,
                window: int, stream_name: str = "S"):
    """Integer-valued term; stream indices always land inside the window."""
    if depth <= 0 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.35 and scope:
            return Var(rng.choice(sorted(scope)))
        if roll < 0.6:
            safe_vars = [v for v, (lo, hi) in scope.items()
                         if 0 <= lo and hi < window]
            if safe_vars and rng.random() < 0.7:
                return StreamAt(stream_name, Var(rng.choice(sorted(safe_vars))))
            return StreamAt(stream_name, Lit(rng.randrange(window)))
        return Lit(rng.randint(-20, 20))
    op = rng.choice(("add", "sub", "mul"))
    return Apply(op, (random_term(rng, depth - 1, scope, window, stream_name),
                      random_term(rng, depth - 1, scope, window, stream_name)))


def random_formula(rng: random.Random, depth: int, scope: dict,
                   window: int, stream_name: str = "S", quants_left: int = 2):
    """Closed random formula over one integer stream named stream_name."""
    if depth <= 0:
        if rng.random() < 0.1:
            return BoolLit(rng.random() < 0.5)
        op = rng.choice(("eq", "ne", "lt", "le", "gt", "ge"))
        return Cmp(op, random_term(rng, 1, scope, window, stream_name),
                   random_term(rng, 1, scope, window, stream_name))
    roll = rng.random()
    if roll < 0.2:
        return Not(random_formula(rng, depth - 1, scope, window,
                                  stream_name, quants_left))
    if roll < 0.45:
        node = And if rng.random() < 0.5 else Or
        return node(random_formula(rng, depth - 1, scope, window,
                                   stream_name, quants_left),
                    random_formula(rng, depth - 1, scope, window,
                                   stream_name, quants_left))
    if roll < 0.7 and quants_left > 0:
        var = rng.choice(_VAR_POOL)
        lo = rng.randrange(window)
        hi = min(window - 1, lo + rng.randint(0, 7))
        body_scope = dict(scope)
        body_scope[var] = (lo, hi)
        body = random_formula(rng, depth - 1, body_scope, window,
                              stream_name, quants_left - 1)
        quantifier = "forall" if rng.random() < 0.5 else "exists"
        return Quant(quantifier, var, Lit(lo), Lit(hi), body)
    op = rng.choice(("eq", "ne", "lt", "le", "gt", "ge"))
    return Cmp(op, random_term(rng, 2, scope, window, stream_name),
               random_term(rng, 2, scope, window, stream_name))


# -- dataclass twins of the value classes -------------------------------------

def _line():
    return dataclasses.field(default=0, compare=False)


def _twin(cls, *fields):
    """A frozen dataclass named like ``cls`` with the given fields: a name,
    or (name, default), or (name, dataclasses.field(...))."""
    specs = []
    for f in fields:
        if isinstance(f, str):
            specs.append(f)
        else:
            name, default = f
            if not isinstance(default, dataclasses.Field):
                default = dataclasses.field(default=default)
            specs.append((name, object, default))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


# each value class of tagmon -> the reference dataclass it must behave as
VALUE_CLASS_TWINS = {cls: _twin(cls, *fields) for cls, fields in [
    (Lit, ["value"]),
    (Var, ["name"]),
    (Apply, ["op", "args"]),
    (StreamAt, ["stream", "index"]),
    (BoolLit, ["value"]),
    (Cmp, ["op", "lhs", "rhs"]),
    (Not, ["body"]),
    (And, ["lhs", "rhs"]),
    (Or, ["lhs", "rhs"]),
    (Quant, ["quantifier", "var", "lo", "hi", "body"]),
    (AttributeSpec, ["label", "template"]),
    (Window, ["start", "horizon"]),
    (Operation, ["name", "arity", "fn"]),
    (Relation, ["name", "arity", "fn"]),
    (JudgementSet, ["labels"]),
    (PredicateFamily, ["name", "params", "stream_name", "specs",
                       ("undefined", None)]),
    (Record, ["entity", "characteristics", "attribute", "judgement",
              "evaluated_at"]),
    (Trigger, ["domain", "fires_on"]),
    (Action, ["field"]),
    (Intervention, ["name", "trigger", "action"]),
    (Policy, [("rules", ())]),
    (Notification, ["entity", "rule", "judgement", "evaluated_at", "before",
                    "after"]),
    (Sentence, ["t1", "t2", "s", "epsilon", "delta"]),
    (EntityRun, ["entity", "characteristics", "stream", "family",
                 "cycles"]),
    (ScenarioRun, ["entities", "policy"]),
    (CurfewOrder, ["presence", "nights", ("start_minute", 1140),
                   ("end_minute", 420)]),
    (ReportSchedule, ["uploads", "days"]),
    (EntityConfig, ["entity", ("sentence", None), ("curfew", None),
                    ("nights", None), ("status", None), ("trace", None),
                    ("line", _line())]),
    (ScheduleConfig, ["uploads", "days", ("line", _line())]),
    (RuleConfig, ["name", "labels", "field_name", ("line", _line())]),
    (ScenarioConfig, [("entities", ()), ("schedule", None), ("rules", ())]),
]}
