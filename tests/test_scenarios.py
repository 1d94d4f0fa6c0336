import random

import pytest

from tagmon.errors import KindMismatch, WindowTooShort
from tagmon.monitoring import Characteristics, observe_family
from tagmon.scenarios import (
    ALCOHOL_JUDGEMENTS,
    CURFEW_JUDGEMENTS,
    CurfewOrder,
    ReportSchedule,
    Sentence,
    alcohol_family,
    build_alcohol_scenario,
    build_curfew_scenario,
    build_extended_scenario,
    compliance_judgement,
    curfew_family,
    judgement_union,
    merge_runs,
    sample_count,
    sample_times,
    sampled_max,
)
from tagmon.streams import Stream, Window
from tagmon.values import BOTTOM, Dec4

from oracles import band_oracle, count_samples

EPS = Dec4.parse("0.0200")
DELTA = Dec4.parse("0.0050")
SIGMA = Sentence(0, 120, 30, EPS, DELTA)


def trace_from_samples(samples, t1=0, t2=120, s=30, filler=Dec4(0)):
    """Trace whose sampled readings are exactly `samples`."""
    values = [filler] * (t2 + 1)
    for k, v in enumerate(samples):
        values[t1 + k * s] = v
    return Stream.of(0, values)


def test_sentence_invariants():
    Sentence(0, 720, 30, EPS, DELTA)
    with pytest.raises(KindMismatch):
        Sentence(720, 720, 30, EPS, DELTA)
    with pytest.raises(KindMismatch):
        Sentence(0, 120, 130, EPS, DELTA)
    with pytest.raises(KindMismatch):
        Sentence(0, 120, 30, EPS, Dec4(0))  # delta must be positive
    with pytest.raises(KindMismatch):
        Sentence(0, 120, 30, Dec4(50), Dec4(100))  # delta < epsilon


def test_sample_count_examples():
    assert sample_count(0, 120, 30) == 4
    assert sample_count(0, 125, 30) == 4
    assert sample_times(0, 120, 30) == [0, 30, 60, 90, 120]


def test_sample_count_matches_enumeration_oracle():
    rng = random.Random(13)
    for _ in range(2000):
        s = rng.randint(1, 60)
        t1 = rng.randint(0, 500)
        t2 = t1 + rng.randint(s, 600)
        assert sample_count(t1, t2, s) + 1 == count_samples(t1, t2, s)


def test_sampled_max_picks_sampled_peak():
    samples = [Dec4.parse(x) for x in
               ("0.0100", "0.0120", "0.0080", "0.0090", "0.0110")]
    trace = trace_from_samples(samples)
    assert sampled_max(0, 120, 30, trace) == Dec4.parse("0.0120")


def test_sampled_max_undefined_on_any_missing_sample():
    samples = [Dec4(100)] * 5
    trace = trace_from_samples(samples)
    for k in range(5):
        broken = list(samples)
        broken[k] = BOTTOM
        assert sampled_max(0, 120, 30, trace_from_samples(broken)) is None
    assert sampled_max(0, 120, 30, trace) == Dec4(100)


def test_sampled_max_all_zero():
    assert sampled_max(0, 120, 30, trace_from_samples([Dec4(0)] * 5)) == Dec4(0)


def test_sampled_max_requires_coverage():
    with pytest.raises(WindowTooShort):
        sampled_max(0, 120, 30, Stream.of(0, [Dec4(0)] * 120))  # stops at 119


def test_compliance_bands_and_boundaries():
    cases = [
        ("0.0100", "green"),
        ("0.0149", "green"),
        ("0.0150", "amber"),  # closed band includes epsilon - delta
        ("0.0200", "amber"),
        ("0.0250", "amber"),  # and epsilon + delta
        ("0.0251", "red"),
        ("0.0300", "red"),
    ]
    for text, expected in cases:
        trace = trace_from_samples([Dec4(0)] * 4 + [Dec4.parse(text)])
        assert compliance_judgement(SIGMA, trace) == expected
    gap = trace_from_samples([Dec4(0)] * 4 + [BOTTOM])
    assert compliance_judgement(SIGMA, gap) == "absent"


def test_partition_against_band_oracle():
    rng = random.Random(17)
    for _ in range(1000):
        raws = [rng.randrange(0, 400) for _ in range(5)]
        gap = rng.random() < 0.3
        if gap:
            raws[rng.randrange(5)] = None
        samples = [BOTTOM if r is None else Dec4(r) for r in raws]
        trace = trace_from_samples(samples)
        expected = band_oracle(raws, EPS.raw, DELTA.raw)
        assert compliance_judgement(SIGMA, trace) == expected


def test_sampling_blindness():
    rng = random.Random(23)
    for _ in range(200):
        samples = [Dec4(rng.randrange(0, 400)) for _ in range(5)]
        trace = trace_from_samples(samples)
        baseline = compliance_judgement(SIGMA, trace)
        values = list(trace.values)
        for _ in range(10):
            t = rng.randrange(121)
            if t % 30 == 0:
                continue  # only touch ticks strictly between samples
            values[t] = Dec4(rng.randrange(0, 10000))
        assert compliance_judgement(SIGMA, Stream.of(0, values)) == baseline


def test_raising_one_sample_never_improves_judgement():
    order = {"green": 0, "amber": 1, "red": 2}
    rng = random.Random(29)
    for _ in range(300):
        samples = [Dec4(rng.randrange(0, 400)) for _ in range(5)]
        before = compliance_judgement(SIGMA, trace_from_samples(samples))
        k = rng.randrange(5)
        raised = list(samples)
        raised[k] = raised[k] + Dec4(rng.randrange(0, 200))
        after = compliance_judgement(SIGMA, trace_from_samples(raised))
        assert order[after] >= order[before]


# -- alcohol scenario end to end ------------------------------------------------

def full_trace(level=Dec4(100), peak_at=None, peak=None, gap=None):
    values = [level] * 721
    if peak_at is not None:
        values[peak_at] = peak
    if gap is not None:
        for t in range(gap[0], gap[1] + 1):
            values[t] = BOTTOM
    return Stream.of(0, values)


WORKED_SIGMA = Sentence(0, 720, 30, EPS, DELTA)


def test_alcohol_run_green():
    run = build_alcohol_scenario(WORKED_SIGMA, "green", full_trace(), "PID-7")
    result = run.execute()
    assert not result.errors
    assert [r.judgement for r in result.records] == ["green"]
    assert result.notifications == []
    assert result.characteristics["PID-7"] == WORKED_SIGMA.characteristics(
        "green")


def test_alcohol_run_red():
    trace = full_trace(peak_at=600, peak=Dec4.parse("0.0300"))
    run = build_alcohol_scenario(WORKED_SIGMA, "green", trace, "PID-7")
    result = run.execute()
    assert [r.judgement for r in result.records] == ["red"]
    assert len(result.notifications) == 1
    assert result.characteristics["PID-7"].get("status") == "red"


def test_alcohol_run_absent():
    run = build_alcohol_scenario(WORKED_SIGMA, "green",
                                 full_trace(gap=(60, 120)), "PID-7")
    result = run.execute()
    assert [r.judgement for r in result.records] == ["absent"]
    assert len(result.notifications) == 1
    assert result.characteristics["PID-7"].get("status") == "absent"


def test_alcohol_requires_trace_coverage():
    with pytest.raises(WindowTooShort):
        build_alcohol_scenario(WORKED_SIGMA, "green",
                               Stream.of(0, [Dec4(0)] * 700), "PID-7")


# -- curfew ----------------------------------------------------------------------

def presence_trace(nights=7, absence=None, gap=None):
    horizon = nights * 1440 + 421
    values = [True] * horizon
    if absence is not None:
        for t in range(*absence):
            values[t] = False
    if gap is not None:
        for t in range(*gap):
            values[t] = BOTTOM
    return Stream.of(0, values)


def test_curfew_order_wraps_720_minutes():
    order = CurfewOrder(presence_trace(1), 1)
    assert order.night_length == 720
    assert order.night_window(1) == (1140, 1859)
    assert order.report_tick(1) == 1860
    with pytest.raises(KindMismatch):
        CurfewOrder(presence_trace(1), 1, start_minute=420, end_minute=1140)


def test_curfew_all_present():
    run = build_curfew_scenario(CurfewOrder(presence_trace(), 7), "PID-9")
    result = run.execute()
    assert [r.judgement for r in result.records] == ["compliant"] * 7
    assert result.notifications == []


def test_curfew_absence_and_gap_nights():
    # night 3 absence 02:00-03:00; night 5 signal gap
    trace = presence_trace(absence=(4440, 4500), gap=(7000, 7060))
    run = build_curfew_scenario(CurfewOrder(trace, 7), "PID-9")
    result = run.execute()
    assert [(r.evaluated_at, r.judgement) for r in result.records] == [
        (1860, "compliant"),
        (3300, "compliant"),
        (4740, "violation"),
        (6180, "compliant"),
        (7620, "absent-signal"),
        (9060, "compliant"),
        (10500, "compliant"),
    ]
    assert [(n.evaluated_at, n.judgement) for n in result.notifications] == [
        (4740, "violation"), (7620, "absent-signal")]
    assert result.characteristics["PID-9"].get("status") == "absent-signal"


# -- extended schedule ------------------------------------------------------------

def dry_extended_trace(days=3, hot_at=None):
    horizon = (days - 1) * 1440 + 1380 + 1
    values = [Dec4(100)] * horizon
    if hot_at is not None:
        values[hot_at] = Dec4.parse("0.0400")
    return Stream.of(0, values)


def test_report_schedule_validation():
    ReportSchedule((420, 900, 1380), 100)
    with pytest.raises(KindMismatch):
        ReportSchedule((), 10)
    with pytest.raises(KindMismatch):
        ReportSchedule((900, 420), 10)
    with pytest.raises(KindMismatch):
        ReportSchedule((420,), 0)


def test_extended_record_count_and_order():
    schedule = ReportSchedule((420, 900, 1380), 3)
    run = build_extended_scenario(schedule, 60, EPS, DELTA,
                                  dry_extended_trace(3))
    result = run.execute()
    assert len(result.records) == 9
    assert [r.evaluated_at for r in result.records] == schedule.upload_ticks()
    assert {r.judgement for r in result.records} == {"green"}
    assert result.notifications == []


def test_extended_hot_reading_lands_in_one_window():
    # hot reading at 10:00 on day 2 (0-based): only the 15:00 upload sees it
    hot_tick = 2 * 1440 + 600
    schedule = ReportSchedule((420, 900, 1380), 3)
    run = build_extended_scenario(schedule, 60, EPS, DELTA,
                                  dry_extended_trace(3, hot_at=hot_tick))
    result = run.execute()
    reds = [(r.evaluated_at, r.judgement) for r in result.records
            if r.judgement != "green"]
    assert reds == [(2 * 1440 + 900, "red")]
    assert len(result.notifications) == 1


def test_extended_windows_are_independent_after_gap():
    # a missed reading at a sample tick of day 0's first window
    trace = dry_extended_trace(2)
    values = list(trace.values)
    values[120] = BOTTOM
    schedule = ReportSchedule((420, 900, 1380), 2)
    run = build_extended_scenario(schedule, 60, EPS, DELTA,
                                  Stream.of(0, tuple(values)))
    result = run.execute()
    assert [r.judgement for r in result.records] == [
        "absent", "green", "green", "green", "green", "green"]


def test_extended_windows_agree_with_compliance_judgement():
    rng = random.Random(606)
    seen = set()
    for _ in range(20):
        s = rng.randint(1, 60)
        uploads = tuple(sorted(rng.sample(range(s, 1440, s), 3)))
        schedule = ReportSchedule(uploads, rng.randint(1, 3))
        ticks = schedule.upload_ticks()
        ceiling = rng.choice((150, 251, 300))  # mostly green/amber/red
        values = [Dec4(rng.randrange(0, ceiling))
                  for _ in range(ticks[-1] + 1)]
        for _ in range(rng.randint(0, 3)):  # NA runs of 1..s readings
            start = rng.randrange(len(values))
            for t in range(start, min(start + rng.randint(1, s),
                                      len(values))):
                values[t] = BOTTOM
        trace = Stream.of(0, values)
        result = build_extended_scenario(schedule, s, EPS, DELTA,
                                         trace).execute()
        assert not result.errors
        previous = 0
        for now, rec in zip(ticks, result.records, strict=True):
            assert rec.evaluated_at == now
            assert rec.judgement == compliance_judgement(
                Sentence(previous, now, s, EPS, DELTA), trace)
            seen.add(rec.judgement)
            previous = now
    assert seen == set(ALCOHOL_JUDGEMENTS)


# -- mixed scenarios ---------------------------------------------------------------

def test_merge_runs_mixes_entity_types():
    alcohol = build_alcohol_scenario(
        WORKED_SIGMA, "green", full_trace(peak_at=600, peak=Dec4(400)),
        "PID-7")
    curfew = build_curfew_scenario(
        CurfewOrder(presence_trace(absence=(4440, 4500)), 7), "PID-9")
    merged = merge_runs([alcohol, curfew])
    result = merged.execute()
    assert not result.errors
    by_entity = {}
    for rec in result.records:
        by_entity.setdefault(rec.entity, []).append(rec.judgement)
    assert by_entity["PID-7"] == ["red"]
    assert by_entity["PID-9"].count("violation") == 1
    assert result.characteristics["PID-7"].get("status") == "red"
    assert result.characteristics["PID-9"].get("status") == "violation"
    labels = set(ALCOHOL_JUDGEMENTS) | set(CURFEW_JUDGEMENTS)
    assert set(merged.policy.rules[0].trigger.domain.labels) == labels


def test_judgement_union_keeps_first_seen_order():
    union = judgement_union((CURFEW_JUDGEMENTS, ALCOHOL_JUDGEMENTS,
                             CURFEW_JUDGEMENTS))
    assert union.labels == CURFEW_JUDGEMENTS.labels + ALCOHOL_JUDGEMENTS.labels


# -- predicate family partition ----------------------------------------------------
#
# Scenario validation does not probe the families per entity; these seeded
# property tests, together with observe_family's exactly-one check on every
# real observation, carry the partition guarantee.

def test_alcohol_family_partitions_like_compliance_judgement():
    rng = random.Random(41)
    family = alcohol_family()
    seen = set()
    for _ in range(60):
        s = rng.randint(1, 60)
        delta = Dec4(rng.randint(1, 300))
        eps = delta + Dec4(rng.randint(1, 500))
        t1 = rng.randint(0, 100)
        t2 = t1 + rng.randint(s, 4 * s)
        sigma = Sentence(t1, t2, s, eps, delta)
        length = t2 + 1
        traces = [[level] * length
                  for level in (Dec4(0), eps - delta, eps, eps + delta,
                                eps + delta + Dec4(rng.randint(1, 500)))]
        gap = [eps] * length
        gap[t1 + s] = BOTTOM
        traces.append(gap)
        for _ in range(3):
            values = [Dec4(rng.randrange(0, 2 * (eps + delta).raw))
                      for _ in range(length)]
            for _ in range(rng.randint(0, 2)):
                values[rng.randrange(length)] = BOTTOM
            traces.append(values)
        chi = sigma.characteristics()
        for values in traces:
            trace = Stream.of(0, values)
            got = observe_family(family, "PID-1", chi, trace)
            assert got == compliance_judgement(sigma, trace)
            seen.add(got)
    assert seen == set(ALCOHOL_JUDGEMENTS)


def first_non_true_oracle(values):
    for v in values:
        if v is BOTTOM:
            return "absent-signal"
        if v is False:
            return "violation"
    return "compliant"


def test_curfew_family_partitions_like_first_non_true_minute():
    rng = random.Random(43)
    family = curfew_family()
    seen = set()
    for _ in range(25):
        end = rng.randrange(0, 1439)
        start = rng.randrange(end + 1, 1440)  # wraps midnight once
        night = rng.randint(1, 3)
        length = 1440 - start + end
        wstart = (night - 1) * 1440 + start
        chi = Characteristics.of(curfew_start=start, curfew_end=end,
                                 nights=night, status="compliant")
        edge = rng.choice((False, BOTTOM))
        nights = [[True] * length, [False] * length,
                  [edge] + [True] * (length - 1),
                  [True] * (length - 1) + [edge]]
        for _ in range(3):
            values = [True] * length
            for _ in range(rng.randint(0, 3)):
                values[rng.randrange(length)] = rng.choice((False, BOTTOM))
            nights.append(values)
        for values in nights:
            presence = Stream(Window(wstart, wstart + length), tuple(values))
            got = observe_family(family, "PID-9", chi, presence,
                                 extra_params={"wstart": wstart,
                                               "wend": wstart + length - 1})
            assert got == first_non_true_oracle(values)
            seen.add(got)
    assert seen == set(CURFEW_JUDGEMENTS)


def test_entities_of_one_kind_share_one_family():
    a = build_alcohol_scenario(WORKED_SIGMA, "green", full_trace(), "PID-1")
    b = build_extended_scenario(ReportSchedule((420,), 1), 60, EPS, DELTA,
                                full_trace(), "PID-2")
    assert a.families["PID-1"] is b.families["PID-2"] is alcohol_family()
    c = build_curfew_scenario(CurfewOrder(presence_trace(1), 1), "PID-9")
    assert c.families["PID-9"] is curfew_family()
