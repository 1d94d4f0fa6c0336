import random

import pytest

from tagmon.errors import KindMismatch, OutOfWindow, UnknownJudgement
from tagmon.interventions import (
    Action,
    Intervention,
    Notification,
    Policy,
    Trigger,
    apply_policy,
    format_notification,
    run_cycle,
)
from tagmon.monitoring import (
    Characteristics,
    JudgementSet,
    Record,
    format_record,
)
from tagmon.scenarios import EntityRun, Sentence, alcohol_family
from tagmon.streams import Stream
from tagmon.values import BOTTOM, Dec4

JS = JudgementSet(("green", "amber", "red", "absent"))
SIGMA = Sentence(0, 120, 30, Dec4.parse("0.0200"), Dec4.parse("0.0050"))


def breach_trigger():
    return Trigger(JS, frozenset({"amber", "red", "absent"}))


def record(judgement, chi=None, at=120):
    chi = chi or SIGMA.characteristics("green")
    return Record("PID-7", chi, "bac-band", judgement, at)


def status_rule(name="record-breach", action=None, fires=None):
    return Intervention(
        name=name,
        trigger=Trigger(JS, frozenset(fires or {"amber", "red", "absent"})),
        action=action or Action("status"))


def bac_trace(level=Dec4(100), peak_at=None, peak=None, gap_at=None):
    values = [level] * 121
    if peak_at is not None:
        values[peak_at] = peak
    if gap_at is not None:
        values[gap_at] = BOTTOM
    return Stream.of(0, values)


def test_trigger_totality_and_errors():
    tc = breach_trigger()
    assert not tc.fires("green")
    assert tc.fires("red") and tc.fires("absent")
    with pytest.raises(UnknownJudgement):
        tc.fires("violation")
    with pytest.raises(KindMismatch):
        Trigger(JS, frozenset({"purple"}))


def test_action_sets_its_field_from_the_judgement():
    chi = Characteristics.of(status="green", count=0)
    after = Action("status").apply(chi, "red")
    assert after == Characteristics.of(status="red", count=0)


def test_apply_intervention_green_is_identity():
    rule = status_rule()
    entity, chi, _ = apply_policy(record("green"), Policy((rule,)))
    assert entity == "PID-7"
    assert chi.get("status") == "green"
    assert chi == record("green").characteristics


def test_apply_intervention_red_updates_status():
    entity, chi, _ = apply_policy(record("red"), Policy((status_rule(),)))
    assert chi.get("status") == "red"


def test_apply_intervention_never_firing_trigger_is_identity():
    rule = Intervention("noop", Trigger(JS, frozenset()),
                        Action("status"))
    for judgement in JS:
        _, chi, _ = apply_policy(record(judgement), Policy((rule,)))
        assert chi == record(judgement).characteristics


def test_apply_policy_singleton_equals_single_rule():
    rule = status_rule()
    rec = record("red")
    chi_single = rule.action.apply(rec.characteristics, rec.judgement)
    _, chi_policy, notes = apply_policy(rec, Policy((rule,)))
    assert chi_policy == chi_single
    assert [n.rule for n in notes] == ["record-breach"]


def test_apply_policy_threads_characteristics_in_order():
    first = status_rule("widen", fires={"absent"})
    second = status_rule("flag", fires={"red"})
    rec = record("red")
    _, chi, notes = apply_policy(rec, Policy((first, second)))
    assert chi.get("status") == "red"
    assert [n.rule for n in notes] == ["flag"]
    assert notes[0].before.get("status") == "green"
    assert notes[0].after.get("status") == "red"


def test_apply_policy_notifies_per_fired_trigger():
    # audit-2 finds status already set, and still notifies; a rule whose
    # trigger does not fire does not
    rules = (status_rule("audit-1"), status_rule("audit-2"),
             status_rule("quiet", fires={"red"}))
    rec = record("amber")
    _, chi, notes = apply_policy(rec, Policy(rules))
    assert chi.get("status") == "amber"
    assert [n.rule for n in notes] == ["audit-1", "audit-2"]
    assert notes[1].before == notes[1].after == chi


def test_action_idempotence():
    act = Action("status")
    chi = SIGMA.characteristics("green")
    once = act.apply(chi, "red")
    twice = act.apply(once, "red")
    assert once == twice


def test_format_notification_line():
    rec = record("red")
    _, _, notes = apply_policy(rec, Policy((status_rule(),)))
    assert format_notification(notes[0]) == (
        "120|PID-7|record-breach|red|status=green->red")


def test_format_notification_prints_a_sub_record_as_records_do():
    """A replaced sub-record prints as in records.log, in parentheses with
    commas, so that ';' only separates the changes of the line."""
    rec = record("red", at=720)
    wipe = status_rule(name="wipe",
                       action=Action("sentence"),
                       fires={"red"})
    _, chi, notes = apply_policy(rec, Policy((wipe, status_rule())))
    assert chi.get("sentence") == "red"
    terms = "t1=0,t2=120,s=30,epsilon=0.0200,delta=0.0050"
    assert [format_notification(n) for n in notes] == [
        f"720|PID-7|wipe|red|sentence=({terms})->red",
        "720|PID-7|record-breach|red|status=green->red"]
    assert format_record(rec).endswith(f"|sentence=({terms});status=green")


def test_format_notification_lists_a_field_whose_text_changes():
    """true and 1 are equal in Python, but a field that goes from true to 1
    is written differently, so the notification lists the change."""
    before = Characteristics.of(flag=True, status="green")
    after = Characteristics.of(flag=1, status="green")
    assert before == after
    note = Notification("PID-7", "r", "red", 5, before, after)
    assert format_notification(note) == "5|PID-7|r|red|flag=true->1"


def alcohol_row(entity, trace):
    return EntityRun(entity, SIGMA.characteristics("green"), trace,
                     alcohol_family(), {120: {}})


def cycle_inputs(trace):
    rows = {"PID-7": alcohol_row("PID-7", trace)}
    chi = {"PID-7": rows["PID-7"].characteristics}
    policy = Policy((status_rule(),))
    return chi, rows, policy


def test_run_cycle_green():
    chi, rows, policy = cycle_inputs(bac_trace())
    result = run_cycle({"PID-7": {}}, chi, rows, policy, now=120)
    assert len(result.records) == 1
    assert result.records[0].judgement == "green"
    assert result.notifications == []
    assert result.errors == []
    assert result.characteristics["PID-7"].get("status") == "green"


def test_run_cycle_red():
    chi, rows, policy = cycle_inputs(bac_trace(peak_at=60, peak=Dec4(400)))
    result = run_cycle({"PID-7": {}}, chi, rows, policy, now=120)
    assert len(result.records) == 1
    assert len(result.notifications) == 1
    assert result.characteristics["PID-7"].get("status") == "red"


def test_run_cycle_no_entities():
    result = run_cycle({}, {}, {}, Policy(()), now=0)
    assert result.records == [] and result.notifications == []
    assert result.characteristics == {} and result.errors == []


def test_run_cycle_isolates_entity_errors():
    # PID-9's trace ends before its sentence's t2, so only its observation
    # fails; PID-7, judged red, still gets its record and its update
    chi, rows, policy = cycle_inputs(bac_trace(peak_at=60, peak=Dec4(400)))
    rows["PID-9"] = alcohol_row("PID-9", Stream.of(0, [Dec4(100)] * 100))
    chi["PID-9"] = rows["PID-9"].characteristics
    result = run_cycle({"PID-9": {}, "PID-7": {}}, chi, rows, policy,
                       now=120)
    assert [r.entity for r in result.records] == ["PID-7"]
    assert [n.entity for n in result.notifications] == ["PID-7"]
    assert [(now, e, type(exc)) for now, e, exc in result.errors] == [
        (120, "PID-9", OutOfWindow)]
    assert result.characteristics["PID-7"].get("status") == "red"
    assert result.characteristics["PID-9"] == chi["PID-9"]


def test_firing_soundness_on_random_cycles():
    rng = random.Random(11)
    policy = Policy((status_rule(),))
    for _ in range(200):
        values = [Dec4(rng.randrange(0, 400)) for _ in range(121)]
        if rng.random() < 0.3:
            values[rng.randrange(121)] = BOTTOM
        chi, rows, _ = cycle_inputs(Stream.of(0, values))
        result = run_cycle({"PID-7": {}}, chi, rows, policy, now=120)
        fired = result.records[0].judgement != "green"
        assert (len(result.notifications) == 1) == fired


def test_replaying_a_cycle_is_deterministic():
    from tagmon.interventions import format_notification as fmt_note
    from tagmon.monitoring import format_record as fmt_rec

    def lines():
        chi, rows, policy = cycle_inputs(
            bac_trace(peak_at=30, peak=Dec4(210)))
        result = run_cycle({"PID-7": {}}, chi, rows, policy, now=120)
        return ([fmt_rec(r) for r in result.records],
                [fmt_note(n) for n in result.notifications])

    assert lines() == lines()
