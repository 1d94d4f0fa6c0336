import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagmon.errors import (
    ArityMismatch,
    BottomEncountered,
    BoundNotInteger,
    DivisionByZero,
    FormulaSyntaxError,
    KindMismatch,
    MissingParameter,
    UnboundIdentifier,
    UnknownSymbol,
)
from tagmon.formulas import (
    And,
    Apply,
    AttributeSpec,
    BoolLit,
    Cmp,
    Environment,
    Lit,
    Not,
    Or,
    Quant,
    StreamAt,
    Var,
    eval_formula,
    eval_term,
)
from tagmon.monitoring import PredicateFamily, instantiate
from tagmon.parser import _KEYWORDS, parse_formula, parse_term
from tagmon.streams import OPERATIONS, Stream
from tagmon.values import BOTTOM, COMPARISONS, Dec4, compare

from oracles import (
    brute_formula,
    random_formula,
    random_int_stream,
    reference_parse_formula,
    reference_parse_term,
    reference_print_formula,
)


def bac_trace(peak_at=None, peak=None, gap_at=None):
    """[0, 120] trace at 0.0100 with an optional peak or gap at one tick."""
    values = [Dec4(100)] * 121
    if peak_at is not None:
        values[peak_at] = peak
    if gap_at is not None:
        values[gap_at] = BOTTOM
    return Stream.of(0, values)


# -- parsing -------------------------------------------------------------------

def test_parse_band_comparison():
    f = parse_formula("max(b, t1, t2, s) < eps - delta")
    assert f == Cmp("lt",
                    Apply("max", (Var("b"), Var("t1"), Var("t2"), Var("s"))),
                    Apply("sub", (Var("eps"), Var("delta"))))


def test_parse_true_literal():
    assert parse_formula("true") == BoolLit(True)
    assert parse_formula("false") == BoolLit(False)


def test_parse_bounded_universal_round_trips():
    f = parse_formula("forall k in 0..N : b[t1 + k*s] <= eps")
    assert isinstance(f, Quant) and f.quantifier == "forall"
    assert parse_formula(reference_print_formula(f)) == f


def test_parse_precedence_not_and_or():
    f = parse_formula("not a = 1 and b = 2 or c = 3")
    assert f == Or(And(Not(Cmp("eq", Var("a"), Lit(1))),
                       Cmp("eq", Var("b"), Lit(2))),
                   Cmp("eq", Var("c"), Lit(3)))


def test_parse_arithmetic_precedence():
    t = parse_term("1 + 2 * 3 - 4 / 2")
    assert t == Apply("sub",
                      (Apply("add", (Lit(1), Apply("mul", (Lit(2), Lit(3))))),
                       Apply("div", (Lit(4), Lit(2)))))


def test_parse_parenthesized_formula_vs_term():
    assert parse_formula("(1 + 2) < 4") == Cmp(
        "lt", Apply("add", (Lit(1), Lit(2))), Lit(4))
    assert parse_formula("(a < b) and c < d") == And(
        Cmp("lt", Var("a"), Var("b")), Cmp("lt", Var("c"), Var("d")))


def test_parse_negative_literals_fold():
    assert parse_term("-5") == Lit(-5)
    assert parse_term("-0.0150") == Lit(Dec4(-150))
    assert parse_term("-x") == Apply("neg", (Var("x"),))


def test_parse_nested_negation():
    assert parse_term("- -x") == Apply("neg", (Apply("neg", (Var("x"),)),))
    assert parse_term("-(-3)") == Lit(3)


# every token of the formula language, and a few that are not tokens
TEXT_VOCABULARY = (
    "x", "b", "k", "t1", "max", "neg", "lt", "true", "false", "not", "and",
    "or", "forall", "exists", "in", "0", "12", "0.5", "2.00001", "+", "-",
    "*", "/", "=", "!=", "<", "<=", ">", ">=", "..", "(", ")", "[", "]", ",",
    ":", "# c\n", "$", "==")
OPERANDS = ("x", "b", "k", "t1", "0", "12", "0.5", "true", "false")


def grammar_tokens(rng, depth, formula):
    """The tokens of a random formula, or term, that the grammar reads."""
    roll = rng.random() if depth > 0 else 0

    def sub(is_formula):
        return grammar_tokens(rng, depth - 1, is_formula)

    if formula:
        if roll < 0.4:
            return [*sub(False), rng.choice(("=", "!=", "<", "<=", ">", ">=")),
                    *sub(False)]
        if roll < 0.5:
            return ["not", *sub(True)]
        if roll < 0.6:
            return [rng.choice(("forall", "exists")), "k", "in", *sub(False),
                    "..", *sub(False), ":", *sub(True)]
        if roll < 0.7:
            return ["(", *sub(True), ")"]
        return [*sub(True), rng.choice(("and", "or")), *sub(True)]
    if roll < 0.3:
        return [rng.choice(OPERANDS)]
    if roll < 0.4:
        return ["-", *sub(False)]
    if roll < 0.5:
        return ["(", *sub(False), ")"]
    if roll < 0.6:
        return [rng.choice(("max", "neg")), "(", *sub(False), ",",
                *sub(False), ")"]
    if roll < 0.7:
        return ["b", "[", *sub(False), "]"]
    return [*sub(False), rng.choice(("+", "-", "*", "/")), *sub(False)]


def random_text(rng):
    """Tokens drawn from ``TEXT_VOCABULARY``, or the tokens of a formula or
    term with a few of them replaced by such draws, at random spacing."""
    if rng.random() < 0.5:
        tokens = [rng.choice(TEXT_VOCABULARY)
                  for _ in range(rng.randint(1, 12))]
    else:
        tokens = [rng.choice(TEXT_VOCABULARY) if rng.random() < 0.02 else tok
                  for tok in grammar_tokens(rng, 4, rng.random() < 0.5)]
    return "".join(rng.choice(("", " ", " ", " ")) + tok for tok in tokens)


def _outcome(fn, arg):
    try:
        result = fn(arg)
    except Exception as exc:
        return type(exc), str(exc)
    return result, repr(result)


def test_formula_text_matches_the_reference_parser_and_printer():
    # the tree or the error of each text; each tree parses back from its
    # printed text
    rng = random.Random(7)
    # an integer and a decimal literal past int's digit limit
    texts = ["b[0] < " + "9" * 5000, "b[0] < " + "9" * 5000 + ".5"]
    for text in texts + [random_text(rng) for _ in range(8000)]:
        for parse, reference in ((parse_formula, reference_parse_formula),
                                 (parse_term, reference_parse_term)):
            tree = _outcome(parse, text)
            assert tree == _outcome(reference, text), text
            if isinstance(tree[0], type):
                continue
            f = tree[0] if parse is parse_formula else Cmp("lt", tree[0],
                                                            Lit(0))
            assert parse_formula(reference_print_formula(f)) == f, text


def test_parse_stream_access():
    assert parse_term("b[30 * k]") == StreamAt(
        "b", Apply("mul", (Lit(30), Var("k"))))


def test_parse_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("1 < ")
    assert err.value.position == 4
    with pytest.raises(FormulaSyntaxError):
        parse_formula("forall k in 0..2 q = 1")
    # a missing "in" is worded as every other expected token
    for text, message in (
            ("forall k", "expected 'in', found 'end of input' "
                         "(at position 8)"),
            ("forall k x", "expected 'in', found 'x' (at position 9)")):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text)
        assert str(err.value) == message
    with pytest.raises(FormulaSyntaxError):
        parse_formula("1 <> 2")
    with pytest.raises(UnknownSymbol):
        parse_formula("frob(1) < 2")
    with pytest.raises(KindMismatch):
        parse_formula("forall k in 0.5..2 : k < 3")
    with pytest.raises(KindMismatch):
        parse_formula("1.00001 < 2")
    # a literal past int's digit limit
    for number in ("9" * 5000, "9" * 5000 + ".5"):
        with pytest.raises(KindMismatch, match=r"^number past int's digit "
                           r"limit \(at position 7\)$"):
            parse_formula("b[0] < " + number)
    # Arabic-Indic and full-width digits are digits to int() and to the re
    # module's \d, but not to the formula language
    for text, position in (("b[0] < \u0663", 7), ("\u0661 = 1", 0),
                           ("1.\u0665 < 2", 1), ("\uff11 < 2", 0)):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text)
        assert err.value.position == position


@pytest.mark.parametrize("text", ["lt(a, b)", "eq(x, 1) and true",
                                  "1 < lt(a, b)"])
def test_relations_are_written_as_comparisons_only(text):
    # a relation name called like a function is not a formula node: the
    # six relations are Cmp, spelled with =, !=, <, <=, > and >=
    with pytest.raises(UnknownSymbol) as err:
        parse_formula(text)
    assert "unknown operation" in str(err.value)


def test_parse_formula_skips_comments():
    assert parse_formula("# attribute definitions\ntrue\n\n") == BoolLit(True)
    assert parse_formula("b[0] < 1 # inline") == Cmp(
        "lt", StreamAt("b", Lit(0)), Lit(1))


# -- the signature tables --------------------------------------------------------

# int, Dec4 and mixed pairs, none with a zero divisor
PAIRS = [(7, 2), (-7, 2), (2, 2), (Dec4(150), Dec4(250)),
         (Dec4(250), Dec4(250)), (Dec4(-150), 3), (3, Dec4(15000)),
         (1, Dec4(10000))]


def test_no_name_is_both_an_operation_and_a_relation():
    assert not set(OPERATIONS) & set(COMPARISONS)


@pytest.mark.parametrize("name", sorted(COMPARISONS))
def test_each_relation_is_spelt_and_evaluated_by_its_table_entry(name):
    f = Cmp(name, Var("a"), Var("b"))
    assert parse_formula(reference_print_formula(f)) == f
    for a, b in PAIRS:
        expected = compare(name, a, b)
        assert eval_formula(f, Environment({"a": a, "b": b})) is expected


@pytest.mark.parametrize("name", ["add", "sub", "mul", "div"])
def test_each_infix_operation_is_evaluated_by_its_table_entry(name):
    f = Cmp("eq", Apply(name, (Var("a"), Var("b"))), Var("c"))
    assert parse_formula(reference_print_formula(f)) == f
    for a, b in PAIRS:
        env = Environment({"a": a, "b": b})
        assert eval_term(f.lhs, env) == OPERATIONS[name].fn(a, b)


# -- term evaluation ------------------------------------------------------------

def test_eval_term_examples():
    env = Environment({"b": bac_trace(peak_at=30, peak=Dec4(180)),
                       "t1": 0, "s": 30})
    assert eval_term(Lit(Dec4.parse("0.02")), env) == Dec4(200)
    assert eval_term(parse_term("b[30]"), env) == Dec4.parse("0.0180")
    assert eval_term(parse_term("t1 + 2*s"), env) == 60


def test_eval_term_bottom_is_strict():
    env = Environment({"b": bac_trace(gap_at=60)})
    assert eval_term(parse_term("b[60]"), env) is BOTTOM
    assert eval_term(parse_term("b[60] + 1"), env) is BOTTOM
    assert eval_term(parse_term("max(b, 0, 120, 30)"), env) is BOTTOM


def test_eval_term_sampled_max_ignores_between_samples():
    env = Environment({"b": bac_trace(peak_at=31, peak=Dec4(9000))})
    assert eval_term(parse_term("max(b, 0, 120, 30)"), env) == Dec4(100)


@pytest.mark.parametrize("x, negated", [
    (5, -5), (Dec4(250), Dec4(-250)), (BOTTOM, BOTTOM)])
def test_eval_unary_minus(x, negated):
    assert eval_term(parse_term("-x"), Environment({"x": x})) == negated


def test_eval_unary_minus_refuses_a_boolean():
    with pytest.raises(KindMismatch, match="^cannot negate a boolean$"):
        eval_term(parse_term("-x"), Environment({"x": True}))


@pytest.mark.parametrize("text, error, message", [
    ("nope + 1 = 1", UnboundIdentifier, "unbound identifier 'nope'"),
    ("b + 1 = 1", KindMismatch,
     "stream argument is only valid in sampled max/min, not 'add'"),
    ("floor(b, 1) = 1", KindMismatch,
     "stream argument is only valid in sampled max/min, not 'floor'"),
    ("b[true] = 1", KindMismatch, "stream index must be an integer, got True"),
    ("1 + b = 2", KindMismatch, "stream used as a plain value in 'add'"),
    ("max(b, 0, 3) = 1", ArityMismatch,
     "sampled max takes (stream, start, end, step), got 3 arguments"),
    ("max(b, 0, 3, 1.0000) = 1", KindMismatch,
     "sample bounds must be integers, got Dec4(10000)"),
    ("max(b, 0, b[2], 1) > 0", BottomEncountered,
     "test touched an undefined reading"),
    ("b[b[2]] = 1", BottomEncountered, "test touched an undefined reading"),
    ("b = 1", KindMismatch, "stream used as a plain value in a test"),
    ("1 / 0 = 0", DivisionByZero, "integer division by zero"),
])
def test_eval_term_errors(text, error, message):
    env = Environment({"b": Stream.of(0, [1, 2, BOTTOM, 4])})
    with pytest.raises(error) as raised:
        eval_formula(parse_formula(text), env)
    assert str(raised.value) == message


@pytest.mark.parametrize("text", ["floor(1.5000) = 1", "floor(-1.5000) = -2"])
def test_eval_floor_rounds_down(text):
    assert eval_formula(parse_formula(text), Environment()) is True


def test_sampled_max_of_unordered_readings_is_a_kind_error():
    # booleans have no order: a sampled max over them fails as the plain
    # max(true, false) does; a single sample is still its own maximum
    env = Environment({"p": Stream.of(0, (True, False, True))})
    with pytest.raises(KindMismatch):
        eval_formula(parse_formula("max(true, false) = true"), env)
    with pytest.raises(KindMismatch):
        eval_formula(parse_formula("max(p, 0, 2, 1) = true"), env)
    with pytest.raises(KindMismatch):
        eval_term(parse_term("min(p, 0, 1, 1)"), env)
    assert eval_term(parse_term("max(p, 1, 1, 1)"), env) is False


# -- formula evaluation ----------------------------------------------------------

def test_eval_formula_trivial_equality():
    assert eval_formula(parse_formula("0.02 = 0.02"), Environment())


def test_eval_formula_red_band_with_bruteforce_peak():
    trace = bac_trace(peak_at=60, peak=Dec4.parse("0.0300"))
    sampled = [trace.at(30 * k) for k in range(5)]
    peak = max(v.raw for v in sampled)
    assert peak == 300  # brute-force max over samples 0,30,60,90,120
    env = Environment({"b": trace})
    red = parse_formula("max(b, 0, 120, 30) > 0.0250")
    assert eval_formula(red, env) is True


def test_eval_formula_bottom_raises():
    env = Environment({"b": bac_trace(gap_at=60)})
    for text in ("max(b, 0, 120, 30) < 0.0150",
                 "exists k in 0..4 : b[30*k] > 0.0200"):
        with pytest.raises(BottomEncountered):
            eval_formula(parse_formula(text), env)


def test_eval_formula_vacuous_quantifiers():
    env = Environment()
    assert eval_formula(parse_formula("forall k in 1..0 : 1 = 2"), env)
    assert not eval_formula(parse_formula("exists k in 1..0 : 1 = 1"), env)


def test_eval_formula_bound_errors():
    env = Environment({"b": bac_trace()})
    with pytest.raises(BoundNotInteger):
        eval_formula(Quant("forall", "k", Lit(Dec4(0)), Lit(2),
                           BoolLit(True)), env)
    with pytest.raises(BottomEncountered):
        eval_formula(Quant("forall", "k", parse_term("b[60]"), Lit(2),
                           BoolLit(True)),
                     Environment({"b": bac_trace(gap_at=60)}))


# -- templates -------------------------------------------------------------------

GREEN_FAMILY = PredicateFamily(
    "bac-green", ("t1", "t2", "s", "glim"), "b",
    (AttributeSpec("green", parse_formula("max(b, t1, t2, s) < glim")),))
GREEN_TEMPLATE = GREEN_FAMILY.specs[0].template


def test_instantiate_green_band():
    glim = Dec4.parse("0.0150")
    variables = instantiate(GREEN_FAMILY, {"t1": 0, "t2": 120, "s": 30,
                                           "glim": glim, "status": "green"})
    assert variables == {"t1": 0, "t2": 120, "s": 30, "glim": glim}
    closed = parse_formula("max(b, 0, 120, 30) < 0.0150")
    for trace in (bac_trace(), bac_trace(peak_at=60, peak=Dec4(150)),
                  bac_trace(peak_at=61, peak=Dec4(9000))):
        streams = {"b": trace}
        assert (eval_formula(GREEN_TEMPLATE,
                             Environment({**streams, **variables}))
                == eval_formula(closed, Environment(streams)))
    with pytest.raises(BottomEncountered):
        eval_formula(GREEN_TEMPLATE,
                     Environment({"b": bac_trace(gap_at=90), **variables}))


def test_instantiate_no_params_binds_nothing():
    family = PredicateFamily("always", (), "b",
                             (AttributeSpec("ok", parse_formula("true")),))
    assert instantiate(family, {}) == {}
    assert instantiate(family, {"t1": 0}) == {}


def test_instantiate_missing_parameter():
    with pytest.raises(MissingParameter, match=r"^bac-green: unbound "
                       r"parameters \['t2', 's', 'glim'\]$"):
        instantiate(GREEN_FAMILY, {"t1": 0})


def test_instantiate_rejects_non_carrier():
    with pytest.raises(KindMismatch):
        instantiate(GREEN_FAMILY, {"t1": 0, "t2": 120, "s": 30, "glim": None})


def test_bound_parameter_respects_shadowing():
    f = parse_formula("k < 9 and forall k in 0..2 : k < 3")
    closed = And(Cmp("lt", Lit(7), Lit(9)),
                 Quant("forall", "k", Lit(0), Lit(2),
                       Cmp("lt", Var("k"), Lit(3))))
    env = Environment({"k": 7})
    assert eval_formula(f, env) is eval_formula(closed, Environment()) is True
    assert not eval_formula(parse_formula("exists k in 0..2 : k = 7"), env)
    assert env.bindings == {"k": 7}


def test_instantiate_curfew_window_expansion():
    template = parse_formula("forall k in wstart..wend : presence[k] = true")
    family = PredicateFamily("night", ("wstart", "wend"), "presence",
                             (AttributeSpec("compliant", template),))
    variables = instantiate(family, {"wstart": 1140, "wend": 1859})
    ticks = list(range(1140, 1860))
    assert len(ticks) == 720
    present = Stream.of(1140, [True] * 720)
    assert eval_formula(template,
                        Environment({"presence": present, **variables}))
    absent = Stream.of(1140, [True] * 300 + [False] + [True] * 419)
    assert not eval_formula(template,
                            Environment({"presence": absent, **variables}))


# -- properties ------------------------------------------------------------------

def test_bruteforce_equivalence_sample():
    rng = random.Random(20260808)
    window = 16
    for _ in range(300):
        stream = random_int_stream(rng, 0, window)
        f = random_formula(rng, rng.randint(0, 4), {}, window)
        env = Environment({"S": stream})
        assert eval_formula(f, env) == brute_formula(f, {}, {"S": stream})
    # a free parameter bound as a variable; quantifiers over the same name
    # shadow it
    for _ in range(300):
        stream = random_int_stream(rng, 0, window)
        lo = rng.randrange(window)
        hi = min(window - 1, lo + rng.randint(0, 7))
        f = random_formula(rng, rng.randint(0, 4), {"k": (lo, hi)}, window)
        k = rng.randint(lo, hi)
        env = Environment({"S": stream, "k": k})
        assert eval_formula(f, env) == brute_formula(f, {"k": k},
                                                     {"S": stream})


def test_de_morgan():
    rng = random.Random(99)
    window = 12
    for _ in range(200):
        stream = random_int_stream(rng, 0, window)
        env = Environment({"S": stream})
        f = random_formula(rng, 2, {}, window)
        g = random_formula(rng, 2, {}, window)
        lhs = eval_formula(Not(And(f, g)), env)
        rhs = eval_formula(Or(Not(f), Not(g)), env)
        assert lhs == rhs


def test_quantifier_matches_explicit_expansion():
    rng = random.Random(4)
    window = 10
    for _ in range(100):
        stream = random_int_stream(rng, 0, window)
        env = Environment({"S": stream})
        lo = rng.randrange(window)
        hi = min(window - 1, lo + rng.randint(0, 5))
        body = random_formula(rng, 1, {"k": (lo, hi)}, window)
        instances = [eval_formula(body, Environment({**env.bindings, "k": k}))
                     for k in range(lo, hi + 1)]
        forall = Quant("forall", "k", Lit(lo), Lit(hi), body)
        assert eval_formula(forall, env) == all(instances)
        exists = Quant("exists", "k", Lit(lo), Lit(hi), body)
        negated = Not(Quant("forall", "k", Lit(lo), Lit(hi), Not(body)))
        assert eval_formula(exists, env) == eval_formula(negated, env)


def test_print_parse_round_trip():
    rng = random.Random(7)
    for _ in range(400):
        f = random_formula(rng, rng.randint(0, 4), {}, 8)
        assert parse_formula(reference_print_formula(f)) == f


@pytest.mark.parametrize("term, text", [
    (Apply("neg", (Lit(5),)), "neg(5)"),
    (Apply("neg", (Lit(-5),)), "neg(-5)"),
    (Apply("neg", (Lit(Dec4(150)),)), "neg(0.0150)"),
    (Apply("neg", (Lit(Dec4(-150)),)), "neg(-0.0150)"),
    (Apply("neg", (Apply("neg", (Lit(5),)),)), "-neg(5)"),
    (Apply("neg", (Var("x"),)), "-x"),
    (Apply("neg", (Lit(True),)), "-true"),
    (Lit(-5), "-5"),
])
def test_print_parse_round_trip_negation(term, text):
    # the parser folds "-5" into the literal -5, so neg of a numeric
    # literal is printed as a call
    f = Cmp("lt", term, Lit(0))
    assert reference_print_formula(f) == f"{text} < 0"
    assert parse_formula(reference_print_formula(f)) == f


# the reference printer, which the round trips print with, refuses a tree
# that no text parses back to


def test_print_formula_refuses_a_label_literal():
    # it would print as the name of the variable green
    with pytest.raises(KindMismatch):
        reference_print_formula(Cmp("eq", Var("status"), Lit("green")))


@pytest.mark.parametrize("f", [
    Cmp("eq", Var("true"), Lit(1)),
    Cmp("eq", Var("a b"), Lit(1)),
    Cmp("eq", StreamAt("and", Lit(0)), Lit(1)),
    Quant("forall", "in", Lit(0), Lit(1), BoolLit(True)),
    Cmp("eq", Apply("foo", (Var("x"),)), Lit(1)),
    Cmp("eq", Apply("max", ()), Lit(1)),
    Cmp("xx", Var("x"), Lit(1)),
    Quant("every", "k", Lit(0), Lit(1), BoolLit(True)),
    Quant("forall", "k", Lit(Dec4(0)), Lit(1), BoolLit(True)),
    Quant("exists", "k", Lit(0), Lit(True), BoolLit(True)),
    Cmp("eq", Var("x"), Lit(BOTTOM)),
], ids=repr)
def test_print_formula_refuses_what_would_not_parse_back(f):
    # each prints, on a printer that does not check, as text that parses
    # to another tree or does not parse
    with pytest.raises(KindMismatch):
        reference_print_formula(f)


def mostly(good, bad):
    """Draws from ``good`` most of the time, else from ``bad``."""
    # hypothesis favours the ends of a range, so bad sits in its middle
    return st.tuples(st.integers(0, 9), good, bad).map(
        lambda drawn: drawn[2] if drawn[0] == 5 else drawn[1])


# names: identifiers, keywords and junk
NAMES = mostly(
    st.sampled_from(["x", "b", "k", "t1", "_", "Z9_", "max", "neg", "TRUE"]),
    st.sampled_from(sorted(_KEYWORDS)) | st.text(max_size=3)
    | st.sampled_from(["", "a b", "1x", "x-y", "\u00e9", "x\n", "b[0]",
                       "f(", " in"]))
LITERALS = mostly(
    st.integers(-20, 20) | st.booleans()
    | st.builds(Dec4, st.integers(-10**5, 10**5)),
    st.sampled_from(["green", BOTTOM, None, 1.5]))
TERMS = st.recursive(
    st.builds(Lit, LITERALS) | st.builds(Var, NAMES),
    lambda terms: (
        st.builds(Apply,
                  mostly(st.sampled_from(sorted(OPERATIONS)),
                         st.sampled_from(["foo", "lt", "and", ""])),
                  mostly(st.lists(terms, min_size=1, max_size=3),
                         st.just([])).map(tuple))
        | st.builds(StreamAt, NAMES, terms)),
    max_leaves=6)
FORMULAS = st.recursive(
    st.builds(BoolLit, st.booleans())
    | st.builds(Cmp, mostly(st.sampled_from(sorted(COMPARISONS)),
                            st.just("xx")), TERMS, TERMS),
    lambda formulas: (
        st.builds(Not, formulas) | st.builds(And, formulas, formulas)
        | st.builds(Or, formulas, formulas)
        | st.builds(Quant, mostly(st.sampled_from(["forall", "exists"]),
                                  st.just("all")),
                    NAMES, TERMS, TERMS, formulas)),
    max_leaves=5)


# one failure is shrunk, not each of many, so that a regression fails fast
@settings(max_examples=300, report_multiple_bugs=False)
@given(f=FORMULAS)
def test_print_formula_refuses_or_round_trips(f):
    try:
        text = reference_print_formula(f)
    except KindMismatch:
        return
    assert parse_formula(text) == f


def test_print_parse_round_trip_decimals():
    for text in ("max(b, 0, 720, 30) < 0.0150",
                 "b[0] >= 0.0000 and not b[1] = 0.0250",
                 "exists k in 0 .. 4 : b[30 * k] > 1.5000 or false"):
        f = parse_formula(text)
        assert reference_print_formula(f) == text
        assert parse_formula(text) == f
