from hypothesis import given, strategies as st
import pytest

from tagmon.errors import DivisionByZero, KindMismatch
from tagmon.values import (
    BOTTOM,
    Bottom,
    Dec4,
    add_values,
    compare,
    div_values,
    floor_value,
    format_value,
    kind_of,
    max_values,
    min_values,
    mul_values,
    parse_int,
    parse_value,
    sub_values,
)

raws = st.integers(min_value=-10**9, max_value=10**9)


def test_parse_and_format_thresholds_exactly():
    assert Dec4.parse("0.0150").raw == 150
    assert Dec4.parse("0.0250").raw == 250
    assert Dec4.parse("0.02").raw == 200
    assert str(Dec4(150)) == "0.0150"
    assert str(Dec4(-150)) == "-0.0150"
    assert str(Dec4(12345)) == "1.2345"


def test_parse_rejects_junk():
    # ASCII digits only, and no "+": Arabic-Indic and full-width digits
    # are digits to int() and to the re module's \d
    for bad in ("x", "1.", ".5", "1.00000", "--1.0", "", "+0.0200", "+1.5",
                "-+1.0", "\u0660.\u0660\u0662\u0660\u0660", "1.\u0665",
                "\uff11.\uff10", "9" * 5000 + ".0"):
        with pytest.raises(KindMismatch):
            Dec4.parse(bad)


def test_integers_are_an_optional_minus_and_ascii_digits():
    for text, value in [("0", 0), ("-3", -3), ("007", 7), ("-0", 0),
                        ("99999999999999999999", 10**20 - 1)]:
        assert parse_int(text) == value
        assert parse_value(text, "integer") == value
    # int() takes each of these but "--3", "-" and ""
    for bad in ("+3", " 3", "3 ", "3\n", "1_0", "--3", "-", "",
                "\u0663", "\uff13", "-\u0663"):
        with pytest.raises(ValueError):
            parse_int(bad)
        with pytest.raises(KindMismatch, match="not an integer: "):
            parse_value(bad, "integer")


@given(raws)
def test_format_parse_round_trip(raw):
    d = Dec4(raw)
    assert Dec4.parse(str(d)) == d


@given(raws, raws)
def test_add_sub_inverse(a, b):
    x, y = Dec4(a), Dec4(b)
    assert (x + y) - y == x


def test_mul_div_floor_semantics():
    assert Dec4.parse("0.5000") * Dec4.parse("0.5000") == Dec4.parse("0.2500")
    assert Dec4.parse("1.0000") // Dec4.parse("3.0000") == Dec4(3333)
    assert Dec4.parse("2.5000").floor() == 2
    assert Dec4.parse("-2.5000").floor() == -3
    with pytest.raises(DivisionByZero):
        Dec4(1) // Dec4(0)


def test_bottom_is_a_singleton_and_unequal_to_values():
    assert Bottom() is BOTTOM
    for v in (0, False, "green", Dec4(0)):
        assert BOTTOM != v
    with pytest.raises(KindMismatch):
        bool(BOTTOM)


def test_kind_of_distinguishes_bool_from_int():
    assert kind_of(True) == "boolean"
    assert kind_of(1) == "integer"
    assert kind_of(Dec4(1)) == "decimal"
    assert kind_of("green") == "label"
    with pytest.raises(KindMismatch):
        kind_of(BOTTOM)
    with pytest.raises(KindMismatch):
        kind_of(1.5)


def test_format_parse_value_all_kinds():
    cases = [
        (True, "boolean", "true"),
        (False, "boolean", "false"),
        (42, "integer", "42"),
        (Dec4(200), "decimal", "0.0200"),
        ("amber", "label", "amber"),
    ]
    for value, kind, text in cases:
        assert format_value(value) == text
        assert parse_value(text, kind) == value
    assert format_value(BOTTOM) == "NA"


def test_mixed_numeric_promotion():
    assert add_values(1, Dec4(5000)) == Dec4(15000)
    assert sub_values(Dec4(5000), 1) == Dec4(-5000)
    assert mul_values(2, Dec4(150)) == Dec4(300)
    assert div_values(7, 2) == 3
    assert div_values(-7, 2) == -4
    assert floor_value(9) == 9
    assert compare("lt", 0, Dec4(1))
    assert compare("eq", 1, Dec4(10000))


def test_max_min_values():
    assert max_values(Dec4(100), Dec4(120), Dec4(80)) == Dec4(120)
    assert min_values(3, 1, 2) == 1
    with pytest.raises(KindMismatch):
        max_values(Dec4(1))


def test_labels_and_booleans_only_support_equality():
    assert compare("eq", "green", "green")
    assert compare("ne", "green", "red")
    assert compare("eq", True, True)
    with pytest.raises(KindMismatch):
        compare("lt", "green", "red")
    with pytest.raises(KindMismatch):
        compare("le", True, False)
    with pytest.raises(KindMismatch):
        compare("eq", "green", 1)
    with pytest.raises(KindMismatch):
        compare("eq", True, 1)
    with pytest.raises(KindMismatch, match="unknown comparison 'xx'"):
        compare("xx", 1, 2)


B, I, D, L = True, 1, Dec4.parse("0.0100"), "green"
# each pair of kinds: the result of eq and of lt, or the fault's message
COMPARISON_TABLE = [
    (B, B, True, "boolean values admit only equality tests"),
    (B, I, "cannot compare boolean with integer",
     "cannot compare boolean with integer"),
    (B, D, "cannot compare boolean with decimal",
     "cannot compare boolean with decimal"),
    (B, L, "cannot compare boolean with label",
     "cannot compare boolean with label"),
    (I, B, "cannot compare integer with boolean",
     "cannot compare integer with boolean"),
    (I, I, True, False),
    (I, D, False, False),
    (I, L, "cannot compare integer with label",
     "cannot compare integer with label"),
    (D, B, "cannot compare decimal with boolean",
     "cannot compare decimal with boolean"),
    (D, I, False, True),
    (D, D, True, False),
    (D, L, "cannot compare decimal with label",
     "cannot compare decimal with label"),
    (L, B, "cannot compare label with boolean",
     "cannot compare label with boolean"),
    (L, I, "cannot compare label with integer",
     "cannot compare label with integer"),
    (L, D, "cannot compare label with decimal",
     "cannot compare label with decimal"),
    (L, L, True, "label values admit only equality tests"),
]


@pytest.mark.parametrize("a, b, eq, lt", COMPARISON_TABLE, ids=[
    f"{kind_of(a)}-{kind_of(b)}" for a, b, _, _ in COMPARISON_TABLE])
def test_comparison_results_and_faults_by_kind(a, b, eq, lt):
    # two kinds compare only as numbers, whatever the test; booleans and
    # labels admit eq and ne only
    for op, expected in (("eq", eq), ("lt", lt)):
        if isinstance(expected, bool):
            assert compare(op, a, b) is expected
        else:
            with pytest.raises(KindMismatch) as err:
                compare(op, a, b)
            assert str(err.value) == expected


def test_mixed_kind_faults_name_both_kinds():
    with pytest.raises(KindMismatch) as err:
        compare("gt", L, D)
    assert str(err.value) == "cannot compare label with decimal"
    with pytest.raises(KindMismatch) as err:
        add_values(True, 1)
    assert str(err.value) == "numeric operation on boolean and integer"
