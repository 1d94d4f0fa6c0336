import random

import pytest

import tagmon.monitoring

from tagmon.errors import (
    AmbiguousJudgement,
    BottomEncountered,
    KindMismatch,
    MissingParameter,
    NoJudgement,
    UnknownField,
)
from tagmon.formulas import AttributeSpec, Environment, eval_formula
from tagmon.monitoring import (
    Characteristics,
    JudgementSet,
    PredicateFamily,
    Record,
    format_record,
    monitor,
    observe_family,
)
from tagmon.parser import parse_formula
from tagmon.scenarios import (
    Sentence,
    alcohol_family,
    compliance_judgement,
    curfew_family,
)
from tagmon.streams import (
    Stream,
    _Booleans,
    _Texts,
    format_trace,
    parse_trace,
)
from tagmon.values import BOTTOM, Dec4

SIGMA = Sentence(0, 120, 30, Dec4.parse("0.0200"), Dec4.parse("0.0050"))


def bac_trace(level=Dec4(100), gap_at=None, peak_at=None, peak=None):
    values = [level] * 121
    if peak_at is not None:
        values[peak_at] = peak
    if gap_at is not None:
        values[gap_at] = BOTTOM
    return Stream.of(0, values)


def test_judgement_set_validation():
    js = JudgementSet(("green", "red"))
    assert "green" in js and list(js) == ["green", "red"]
    with pytest.raises(KindMismatch):
        JudgementSet(())
    with pytest.raises(KindMismatch):
        JudgementSet(("a", "a"))


def test_characteristics_are_immutable_records():
    chi = SIGMA.characteristics("green")
    assert chi.field_names == ("sentence", "status")
    assert chi.get("status") == "green"
    with pytest.raises(AttributeError):
        chi.status = "red"
    updated = chi.with_field("status", "red")
    assert updated.get("status") == "red"
    assert chi.get("status") == "green"
    with pytest.raises(UnknownField):
        chi.with_field("colour", "blue")
    with pytest.raises(UnknownField):
        chi.get("colour")


def test_characteristics_from_a_list_equal_those_from_a_tuple():
    pairs = [("status", "green"), ("nights", 7)]
    from_list = Characteristics(pairs)
    from_tuple = Characteristics(tuple(pairs))
    assert from_list == from_tuple == Characteristics.of(status="green",
                                                         nights=7)
    assert hash(from_list) == hash(from_tuple)
    assert from_list.pairs == tuple(pairs)
    assert from_list != Characteristics.of(status="green", nights=8)
    assert from_list != from_list.pairs


def test_characteristics_refuse_assignment_and_deletion():
    chi = SIGMA.characteristics("green")
    for name in ("pairs", "status"):
        with pytest.raises(AttributeError):
            setattr(chi, name, ())
        with pytest.raises(AttributeError):
            delattr(chi, name)
    assert chi == SIGMA.characteristics("green")


def test_characteristics_repr_names_its_pairs():
    chi = SIGMA.characteristics("green")
    assert repr(chi) == (
        "Characteristics(pairs=(('sentence', Characteristics(pairs=("
        "('t1', 0), ('t2', 120), ('s', 30), ('epsilon', Dec4(200)), "
        "('delta', Dec4(50))))), ('status', 'green')))")


@pytest.mark.parametrize("lowered", [False, True])
def test_a_record_holding_a_number_past_the_digit_limit_has_a_repr(
        request, lowered):
    """A decimal that ``str`` cannot write, at the default digit limit or
    under a lowered one, leaves the repr of its characteristics and of the
    record that holds them to its Dec4's."""
    if lowered:
        request.getfixturevalue("digit_limit")
    chi = Characteristics.of(x=Dec4(10 ** 5000), status="green")
    expected = ("Characteristics(pairs=(('x', Dec4(<raw units past int's "
                "digit limit>)), ('status', 'green')))")
    assert repr(chi) == expected
    record = Record("e", chi, "bac-band", "green", 7)
    assert repr(record) == (
        f"Record(entity='e', characteristics={expected}, "
        "attribute='bac-band', judgement='green', evaluated_at=7)")


def test_characteristics_refuse_a_repeated_or_non_carrier_field():
    with pytest.raises(KindMismatch, match="duplicate field 'a'"):
        Characteristics([("a", 1), ("a", 2)])
    with pytest.raises(KindMismatch, match="field 'a' holds 1.5"):
        Characteristics([("a", 1.5)])


def test_characteristics_flatten_and_fingerprint():
    chi = SIGMA.characteristics("green")
    flat = chi.flatten()
    assert flat["t1"] == 0 and flat["t2"] == 120 and flat["s"] == 30
    assert flat["epsilon"] == Dec4(200) and flat["status"] == "green"
    assert chi.fingerprint() == ("sentence=(t1=0,t2=120,s=30,"
                                 "epsilon=0.0200,delta=0.0050);status=green")
    with pytest.raises(KindMismatch):
        Characteristics.of(a=Characteristics.of(x=1),
                           b=Characteristics.of(x=2)).flatten()


def test_closed_template_over_one_behaviour():
    assert eval_formula(parse_formula("true"),
                        Environment({"b": bac_trace()})) is True
    red = parse_formula("max(b, 0, 120, 30) > 0.0250")
    assert eval_formula(red, Environment(
        {"b": bac_trace(peak_at=60, peak=Dec4(300))})) is True
    with pytest.raises(BottomEncountered):
        eval_formula(red, Environment({"b": bac_trace(gap_at=30)}))


def test_observe_family_bands():
    family = alcohol_family()
    chi = SIGMA.characteristics("green")
    assert observe_family(family, "e", chi, bac_trace()) == "green"
    assert observe_family(family, "e", chi,
                          bac_trace(peak_at=30, peak=Dec4(300))) == "red"
    assert observe_family(family, "e", chi,
                          bac_trace(peak_at=30, peak=Dec4(200))) == "amber"
    assert observe_family(family, "e", chi, bac_trace(gap_at=60)) == "absent"


def bad_family(first, second):
    specs = (
        AttributeSpec("yes", parse_formula(first)),
        AttributeSpec("no", parse_formula(second)),
    )
    return PredicateFamily("broken", (), "b", specs)


def test_observe_family_reports_overlap_and_gaps():
    chi = Characteristics.of(status="green")
    with pytest.raises(AmbiguousJudgement):
        observe_family(bad_family("true", "true"), "e", chi, bac_trace())
    with pytest.raises(NoJudgement):
        observe_family(bad_family("false", "false"), "e", chi, bac_trace())


@pytest.mark.parametrize("params, stream_name", [
    (("b",), "b"), (("wstart", "presence"), "presence")])
def test_family_rejects_a_parameter_named_like_its_stream(params,
                                                          stream_name):
    spec = AttributeSpec("green", parse_formula(f"{stream_name}[0] = 1"))
    with pytest.raises(KindMismatch, match=f"^family band: parameter "
                       f"'{stream_name}' is also the stream's name$"):
        PredicateFamily("band", params, stream_name, (spec,))


def test_a_missing_parameter_is_named_by_the_family():
    chi = Characteristics.of(status="green")
    with pytest.raises(MissingParameter, match="^bac-band: unbound "):
        observe_family(alcohol_family(), "e", chi, bac_trace())


GAP_SPEC = AttributeSpec("no", parse_formula("max(b, 0, 120, 30) < 0.0000"))


def parsed(kind, values):
    """``Stream.of(0, values)`` as ``parse_trace`` stores it: a column."""
    return parse_trace(format_trace(Stream.of(0, values), "b", kind))[2]


PRESENCE = [True] * 30 + [False] + [True] * 9 + [BOTTOM] + [True] * 9
OVERLAP = bad_family("max(b, 0, 120, 30) >= 0.0000",
                     "max(b, 0, 120, 30) < 1.0000")


@pytest.mark.parametrize("family, trace, params, query, outcome", [
    (alcohol_family(), parsed("decimal", bac_trace().values), {},
     (_Texts, "reduce_samples"), "green"),
    (alcohol_family(), parsed("decimal", bac_trace(peak_at=30,
                                                   peak=Dec4(200)).values),
     {}, (_Texts, "reduce_samples"), "amber"),
    (alcohol_family(), parsed("decimal", bac_trace(gap_at=60).values), {},
     (_Texts, "reduce_samples"), "absent"),
    (curfew_family(), parsed("boolean", PRESENCE), {"wstart": 0, "wend": 29},
     (_Booleans, "first_other"), "compliant"),
    (curfew_family(), parsed("boolean", PRESENCE), {"wstart": 0, "wend": 35},
     (_Booleans, "first_other"), "violation"),
    (curfew_family(), parsed("boolean", PRESENCE),
     {"wstart": 35, "wend": 45}, (_Booleans, "first_other"),
     "absent-signal"),
    (OVERLAP, parsed("decimal", bac_trace().values), {},
     (_Texts, "reduce_samples"), AmbiguousJudgement),
])
def test_observe_family_asks_a_leaf_query_once_and_evaluates_every_spec(
        monkeypatch, family, trace, params, query, outcome):
    """The specs of a family that make the same column query share its
    answer, a BOTTOM answer too, and each spec is still evaluated."""
    asked, evaluated = [], []
    column_query = getattr(*query)
    evaluate = tagmon.monitoring.eval_formula

    def counted_query(*args):
        asked.append(args[1:])
        return column_query(*args)

    def counted_evaluate(formula, env):
        evaluated.append(formula)
        return evaluate(formula, env)

    monkeypatch.setattr(*query, counted_query)
    monkeypatch.setattr(tagmon.monitoring, "eval_formula", counted_evaluate)
    chi = SIGMA.characteristics("green")

    def observe():
        try:
            return observe_family(family, "e", chi, trace, params)
        except AmbiguousJudgement as exc:
            return type(exc)

    assert observe() == outcome
    assert evaluated == [spec.template for spec in family.specs]
    assert len(asked) == 1
    # each observation has a memo of its own
    assert observe() == outcome
    assert len(asked) == 2


@pytest.mark.parametrize("bottom_first", [True, False])
def test_undefined_label_is_checked_against_every_spec(bottom_first):
    # a spec that touches BOTTOM does not stop the others from being checked
    specs = (GAP_SPEC, AttributeSpec("yes", parse_formula("true")))
    family = PredicateFamily("careless", (), "b",
                             specs if bottom_first else specs[::-1],
                             undefined="gap")
    chi = Characteristics.of(status="green")
    assert observe_family(family, "e", chi, bac_trace()) == "yes"
    with pytest.raises(AmbiguousJudgement):
        observe_family(family, "e", chi, bac_trace(gap_at=60))


def test_family_without_undefined_label_has_no_judgement_for_a_gap():
    specs = (
        AttributeSpec("low", parse_formula("max(b, 0, 120, 30) < 0.0200")),
        AttributeSpec("high", parse_formula("max(b, 0, 120, 30) >= 0.0200")),
    )
    family = PredicateFamily("split", (), "b", specs)
    chi = Characteristics.of(status="green")
    assert observe_family(family, "e", chi, bac_trace()) == "low"
    with pytest.raises(NoJudgement):
        observe_family(family, "e", chi, bac_trace(gap_at=60))


@pytest.mark.parametrize("specs, undefined, message", [
    ((AttributeSpec("yes", parse_formula("true")), GAP_SPEC), "no",
     "family bad: duplicate judgement labels: ('yes', 'no', 'no')"),
    ((GAP_SPEC, GAP_SPEC), None,
     "family bad: duplicate judgement labels: ('no', 'no')"),
    ((), None, "family bad: judgement set must be non-empty"),
], ids=["undefined taken", "label twice", "empty"])
def test_family_rejects_a_judgement_set_with_a_label_twice_or_none(
        specs, undefined, message):
    with pytest.raises(KindMismatch) as err:
        PredicateFamily("bad", (), "b", specs, undefined=undefined)
    assert str(err.value) == message


def test_each_spec_is_evaluated_once_per_observation(monkeypatch):
    calls = []
    original = tagmon.monitoring.eval_formula

    def counted(formula, env):
        calls.append(formula)
        return original(formula, env)

    monkeypatch.setattr(tagmon.monitoring, "eval_formula", counted)
    alcohol = SIGMA.characteristics("green")
    for trace, label in [(bac_trace(), "green"),
                         (bac_trace(peak_at=30, peak=Dec4(200)), "amber"),
                         (bac_trace(peak_at=30, peak=Dec4(300)), "red"),
                         (bac_trace(gap_at=60), "absent")]:
        calls.clear()
        assert observe_family(alcohol_family(), "e", alcohol, trace) == label
        assert len(calls) == 3
        # each template is evaluated as written, its parameters bound as
        # variables, never rewritten per observation
        assert all(formula is spec.template
                   for formula, spec in zip(calls, alcohol_family().specs))
    curfew = Characteristics.of(status="compliant")
    window = {"wstart": 0, "wend": 9}
    for values, label in [([True] * 10, "compliant"),
                          ([True, False] + [True] * 8, "violation"),
                          ([True, BOTTOM] + [True] * 8, "absent-signal")]:
        calls.clear()
        assert observe_family(curfew_family(), "e", curfew,
                              Stream.of(0, values),
                              extra_params=window) == label
        assert len(calls) == 2
        assert all(formula is spec.template
                   for formula, spec in zip(calls, curfew_family().specs))


@pytest.mark.parametrize("family, chi, trace, params", [
    (alcohol_family(), SIGMA.characteristics("green"), bac_trace(), {}),
    (curfew_family(), Characteristics.of(status="compliant"),
     parsed("boolean", PRESENCE), {"wstart": 0, "wend": 29}),
], ids=["alcohol", "curfew"])
def test_an_observation_binds_its_family_once(monkeypatch, family, chi,
                                              trace, params):
    made = []

    def counted(original):
        def call(*args):
            made.append(original)
            return original(*args)
        return call

    for name in ("instantiate", "Environment"):
        monkeypatch.setattr(tagmon.monitoring, name,
                            counted(getattr(tagmon.monitoring, name)))
    for _ in range(2):
        made.clear()
        observe_family(family, "e", chi, trace, params)
        assert sorted(f.__name__ for f in made) == ["Environment",
                                                    "instantiate"]


def test_monitor_produces_stable_records():
    family = alcohol_family()
    chi = SIGMA.characteristics("green")
    trace = bac_trace(peak_at=30, peak=Dec4(300))
    rec = monitor("PID-7", chi, family, trace, now=120)
    assert rec.entity == "PID-7"
    assert rec.judgement == "red"
    assert rec.attribute == "bac-band"
    assert rec.evaluated_at == 120
    assert rec.characteristics == chi  # snapshot of the pre-intervention state
    again = monitor("PID-7", chi, family, trace, now=120)
    assert again == rec
    assert chi.get("status") == "green"


def test_record_fidelity_matches_standalone_observation():
    family = alcohol_family()
    chi = SIGMA.characteristics("green")
    trace = bac_trace(peak_at=90, peak=Dec4(170))
    rec = monitor("e", chi, family, trace, now=120)
    assert rec.judgement == observe_family(family, "e", chi, trace)


def test_format_record_line():
    family = alcohol_family()
    chi = SIGMA.characteristics("green")
    rec = monitor("PID-7", chi, family, bac_trace(), now=120)
    assert format_record(rec) == (
        "120|PID-7|bac-band|green|sentence=(t1=0,t2=120,s=30,"
        "epsilon=0.0200,delta=0.0050);status=green")


def test_uniform_individual_coherence():
    """A family without characteristic parameters agrees, label by label,
    with each template evaluated over the behaviour alone."""
    specs = (
        AttributeSpec("low", parse_formula("max(b, 0, 120, 30) < 0.0200")),
        AttributeSpec("high", parse_formula("max(b, 0, 120, 30) >= 0.0200")),
    )
    family = PredicateFamily("split", (), "b", specs)
    chi = Characteristics.of(status="green")
    for trace in (bac_trace(), bac_trace(peak_at=30, peak=Dec4(250))):
        label = observe_family(family, "e", chi, trace)
        holders = [s.label for s in specs
                   if eval_formula(s.template, Environment({"b": trace}))]
        assert holders == [label]


def test_exactly_one_judgement_on_random_traces():
    family = alcohol_family()
    chi = SIGMA.characteristics("green")
    rng = random.Random(6)
    labels = set()
    for _ in range(1000):
        values = [Dec4(rng.randrange(0, 400)) for _ in range(121)]
        if rng.random() < 0.3:
            values[rng.randrange(121)] = BOTTOM
        trace = Stream.of(0, values)
        label = observe_family(family, "e", chi, trace)
        labels.add(label)
        assert label == compliance_judgement(SIGMA, trace)
    assert labels == {"green", "amber", "red", "absent"}
