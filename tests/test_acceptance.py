"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
import time
from contextlib import contextmanager

from tagmon.cli import main
from tagmon.formulas import Environment, eval_formula
from tagmon.monitoring import observe_family
from tagmon.scenario_file import format_scenario, parse_scenario
from tagmon.scenarios import (
    ReportSchedule,
    Sentence,
    alcohol_family,
    build_extended_scenario,
    compliance_judgement,
    sample_count,
)
from tagmon.streams import (
    OPERATIONS,
    Relation,
    Stream,
    exists_before,
    forall_before,
    format_trace,
    insert,
    lift_op,
    merge,
    parse_trace,
    shift,
)
from tagmon.values import BOTTOM, Dec4

from oracles import brute_formula, count_samples, execute_alone, \
    random_formula, random_int_stream

EPS = Dec4.parse("0.0200")
DELTA = Dec4.parse("0.0050")


@contextmanager
def criterion(num, title, capsys):
    """Always print one summary line per criterion, however pytest captures."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num} ({title}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {num} ({title}): PASS")


GOLDEN = {
    "alcohol_dry": (
        ["720|PID-7|bac-band|green|sentence=(t1=0,t2=720,s=30,"
         "epsilon=0.0200,delta=0.0050);status=green"],
        [],
        "green"),
    "alcohol_spike": (
        ["720|PID-7|bac-band|red|sentence=(t1=0,t2=720,s=30,"
         "epsilon=0.0200,delta=0.0050);status=green"],
        ["720|PID-7|record-breach|red|status=green->red"],
        "red"),
    "alcohol_gap": (
        ["720|PID-7|bac-band|absent|sentence=(t1=0,t2=720,s=30,"
         "epsilon=0.0200,delta=0.0050);status=green"],
        ["720|PID-7|record-breach|absent|status=green->absent"],
        "absent"),
}


def run_canned(name, scenarios_dir, out_dir):
    code = main(["run", str(scenarios_dir / f"{name}.scenario"),
                 "--out", str(out_dir)])
    records = (out_dir / "records.log").read_text().splitlines()
    notes = (out_dir / "notifications.log").read_text().splitlines()
    return code, records, notes


def test_criterion_1_worked_alcohol_example(scenarios_dir, tmp_path, capsys):
    with criterion(1, "worked alcohol scenario", capsys):
        start = time.perf_counter()
        for name, (want_records, want_notes, judgement) in GOLDEN.items():
            code, records, notes = run_canned(name, scenarios_dir,
                                              tmp_path / name)
            assert code == 0
            assert records == want_records
            assert notes == want_notes
            assert f"|{judgement}|" in records[0]
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_sample_count_identity(capsys):
    with criterion(2, "sample count identity", capsys):
        assert sample_count(0, 120, 30) == 4
        rng = random.Random(101)
        for _ in range(100_000):
            s = rng.randint(1, 60)
            t1 = rng.randint(0, 400)
            t2 = t1 + rng.randint(s, 600)
            assert sample_count(t1, t2, s) + 1 == count_samples(t1, t2, s)


def test_criterion_3_judgement_partition(capsys):
    with criterion(3, "judgement partition", capsys):
        sigma = Sentence(0, 120, 30, EPS, DELTA)
        family = alcohol_family()
        chi = sigma.characteristics("green")
        rng = random.Random(202)
        seen = set()
        for _ in range(10_000):
            values = [Dec4(rng.randrange(0, 400)) for _ in range(121)]
            if rng.random() < 0.4:
                for _ in range(rng.randint(1, 3)):
                    values[rng.randrange(121)] = BOTTOM
            trace = Stream.of(0, values)
            # observe_family raises NoJudgement/AmbiguousJudgement unless
            # exactly one predicate holds
            label = observe_family(family, "e", chi, trace)
            assert label == compliance_judgement(sigma, trace)
            seen.add(label)
        assert seen == {"green", "amber", "red", "absent"}


def test_criterion_4_stream_algebra_laws(capsys):
    with criterion(4, "stream algebra laws", capsys):
        rng = random.Random(303)
        add = OPERATIONS["add"]
        lt3 = Relation("lt3", 1, lambda x: x < 3)
        ge3 = Relation("ge3", 1, lambda x: not (x < 3))
        for _ in range(1000):
            start = rng.randint(0, 4)
            length = rng.randint(1, 24)
            a = random_int_stream(rng, start, length)
            b = random_int_stream(rng, start, length)

            # shift identity and composition
            assert shift(a, 0) == a
            j = rng.randint(0, length - 1)
            k = rng.randint(0, length - 1 - j)
            assert shift(shift(a, j), k) == shift(a, j + k)

            # merge interleaving
            m = merge(a, b)
            for t in a.window.ticks():
                assert m.at(2 * t) == a.at(t)
                assert m.at(2 * t + 1) == b.at(t)

            # insert locality
            t0 = rng.randint(start, start + length - 1)
            x = rng.randint(-99, 99)
            out = insert(a, t0, x)
            assert all(out.at(u) == (x if u == t0 else a.at(u))
                       for u in a.window.ticks())

            # pointwise lifting law
            lifted = lift_op(add, [a, b])
            for t in a.window.ticks():
                va, vb = a.at(t), b.at(t)
                expected = BOTTOM if BOTTOM in (va, vb) else va + vb
                assert lifted.at(t) == expected

            # quantifier duality on bottom-free prefixes
            total = random_int_stream(rng, start, length)
            t1 = rng.randint(start, start + length)
            assert exists_before(lt3, t1, [total]) == (
                not forall_before(ge3, t1, [total]))


def test_criterion_5_formula_evaluator_equivalence(capsys):
    with criterion(5, "formula evaluator equivalence", capsys):
        rng = random.Random(404)
        for _ in range(1000):
            window = rng.randint(4, 32)
            stream = random_int_stream(rng, 0, window)
            f = random_formula(rng, rng.randint(0, 4), {}, window)
            ours = eval_formula(f, Environment({"S": stream}))
            oracle = brute_formula(f, {}, {"S": stream})
            assert ours == oracle


def test_criterion_6_curfew_fixture(scenarios_dir, tmp_path, capsys):
    with criterion(6, "curfew fixture", capsys):
        code, records, notes = run_canned("curfew", scenarios_dir,
                                          tmp_path / "curfew")
        assert code == 0
        judged = [(int(line.split("|")[0]), line.split("|")[3])
                  for line in records]
        assert judged == [
            (1860, "compliant"), (3300, "compliant"), (4740, "violation"),
            (6180, "compliant"), (7620, "absent-signal"), (9060, "compliant"),
            (10500, "compliant")]
        assert judged.count((4740, "violation")) == 1
        assert len([j for _, j in judged if j == "compliant"]) == 5
        assert [(int(line.split("|")[0]), line.split("|")[3])
                for line in notes] == [(4740, "violation"),
                                       (7620, "absent-signal")]


def test_criterion_7_extended_schedule(capsys):
    with criterion(7, "extended reporting schedule", capsys):
        start = time.perf_counter()
        rng = random.Random(505)
        horizon = 99 * 1440 + 1380 + 1
        values = tuple(Dec4(rng.randrange(0, 150)) for _ in range(horizon))
        trace = Stream.of(0, values)
        schedule = ReportSchedule((420, 900, 1380), 100)
        row = build_extended_scenario(schedule, 60, EPS, DELTA, trace,
                                      "PID-7")
        result = execute_alone(row)
        assert not result.errors
        assert len(result.records) == 300
        assert {r.judgement for r in result.records} == {"green"}
        assert result.notifications == []
        assert [r.evaluated_at for r in result.records] == \
            schedule.upload_ticks()
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_criterion_8_determinism_and_round_trips(scenarios_dir, tmp_path,
                                                 capsys):
    with criterion(8, "determinism and round-trips", capsys):
        # rerunning the worked example is byte-identical
        for name in GOLDEN:
            out1 = tmp_path / f"{name}-1"
            out2 = tmp_path / f"{name}-2"
            assert run_canned(name, scenarios_dir, out1) == \
                run_canned(name, scenarios_dir, out2)
            for log in ("records.log", "notifications.log"):
                assert (out1 / log).read_bytes() == (out2 / log).read_bytes()

        # trace files: parse -> print -> parse, byte-stable and structural
        for trace_file in sorted((scenarios_dir / "traces").iterdir()):
            data = trace_file.read_bytes()
            stream_id, kind, stream = parse_trace(data)
            printed = format_trace(stream, stream_id, kind).encode()
            assert printed == data
            assert parse_trace(printed) == (stream_id, kind, stream)

        # scenario files: parse -> print -> parse, structurally equal
        for scenario_file in sorted(scenarios_dir.glob("*.scenario")):
            config = parse_scenario(scenario_file.read_text())
            assert parse_scenario(format_scenario(config)) == config
