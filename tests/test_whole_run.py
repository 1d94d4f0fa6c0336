"""Whole runs of generated scenarios against an independent model.

Each example writes a small scenario file and its traces, runs ``tagmon run``
through ``main`` and compares records.log and notifications.log line by line
with logs the model builds from the readings alone:

* alcohol: the sample points of each window go to ``band_oracle``, which
  must agree with ``compliance_judgement`` wherever a ``Sentence`` can hold
  the window;
* curfew: the first minute of the night that is not true decides, false
  gives violation and a missed reading absent-signal;
* policy: every record passes through the ``[policy]`` rules in file order;
  a rule whose labels hold the judgement writes it as the status, which the
  next cycle's record shows, and an unchanged status logs no change.

Scenarios mix alcohol and curfew entities, or run alcohol entities under a
2-day ``[schedule]`` (a curfew entity under a schedule is a diagnostic).
Examples are derandomized and small, so the test is deterministic and fast.
The same scenarios check the slicing law: each entity's row executed alone
under the run's policy gives that entity's part of the whole run.
"""

import contextlib
import io
import random
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import band_oracle
from tagmon.cli import EXIT_OK, main
from tagmon.interventions import RunResult, format_notification
from tagmon.monitoring import format_record
from tagmon.scenario_file import build_scenario, load_scenario
from tagmon.scenarios import Sentence, compliance_judgement, merge_runs
from tagmon.streams import Stream, Window
from tagmon.values import BOTTOM, Dec4

WHOLE_RUN = settings(max_examples=40,
                     suppress_health_check=[HealthCheck.too_slow])

DAY = 1440
NA = None
ALCOHOL_LABELS = ("green", "amber", "red", "absent")
CURFEW_LABELS = ("compliant", "violation", "absent-signal")
# (epsilon, delta) in 0.0001 units
LIMITS = ((200, 50), (300, 100))
# spike readings as (epsilon, delta) -> raw: either side of, and on, each
# edge of the closed amber band, its middle and a far red
LEVELS = (lambda e, d: e - d - 1, lambda e, d: e - d, lambda e, d: e,
          lambda e, d: e + d, lambda e, d: e + d + 1, lambda e, d: 4 * e)
UPLOADS = (60, 240, 420, 720, 900, 1140, 1380)


def _dec(raw):
    whole, frac = divmod(raw, 10_000)
    return f"{whole}.{frac:04d}"


def _trace_text(stream_id, kind, values):
    def fmt(v):
        if v is NA:
            return "NA"
        if kind == "boolean":
            return "true" if v else "false"
        return _dec(v)
    return "\n".join([f"trace {stream_id} {kind} 0 {len(values)}"]
                     + [f"{t},{fmt(v)}" for t, v in enumerate(values)]) + "\n"


def _stream(values):
    return Stream(Window(0, len(values)),
                  tuple(BOTTOM if v is NA else Dec4(v) for v in values))


# -- generated scenarios ------------------------------------------------------

def _some(strategy, most):
    """Lists of 0..most items; the larger counts are listed first, so that
    derandomized examples are not mostly empty."""
    return st.sampled_from(range(most, -1, -1)).flatmap(
        lambda n: st.lists(strategy, min_size=n, max_size=n))


@st.composite
def alcohol_entity(draw, scheduled):
    eps, delta = draw(st.sampled_from(LIMITS))
    s = draw(st.sampled_from((5, 15, 30, 60)))
    if scheduled:
        t1 = t2 = None
    else:
        t1 = draw(st.integers(0, 30))
        t2 = t1 + draw(st.integers(s, 300))
    status = draw(st.one_of(st.none(), st.sampled_from(ALCOHOL_LABELS)))
    seed = draw(st.integers(0, 2 ** 32))
    # (position as a fraction of the horizon, on a sample point?, reading)
    spikes = draw(_some(st.tuples(st.floats(0, 1), st.booleans(),
                                  st.sampled_from(LEVELS)), 3))
    # (position as a fraction of the horizon, NA run length)
    gaps = draw(_some(st.tuples(st.floats(0, 1), st.integers(1, s)), 2))
    return dict(kind="alcohol", eps=eps, delta=delta, s=s, t1=t1, t2=t2,
                status=status, seed=seed, spikes=spikes, gaps=gaps)


@st.composite
def curfew_entity(draw):
    start = draw(st.sampled_from((18 * 60, 21 * 60, 23 * 60 + 30)))
    end = draw(st.sampled_from((30, 6 * 60, 7 * 60)))
    nights = draw(st.integers(1, 3))
    status = draw(st.one_of(st.none(), st.sampled_from(CURFEW_LABELS)))
    # (night, position as a fraction of the night, a little outside it too)
    where = st.tuples(st.integers(1, nights), st.floats(-0.05, 1.05))
    absences = draw(_some(where, 2))
    gaps = draw(_some(st.tuples(where, st.integers(1, 90)), 2))
    return dict(kind="curfew", start=start, end=end, nights=nights,
                status=status, absences=absences, gaps=gaps)


@st.composite
def scenarios(draw):
    scheduled = draw(st.sampled_from((False, True, False)))
    count = draw(st.sampled_from((2, 3, 1)))
    names = draw(st.permutations(["P-3", "P-1", "P-2"]))[:count]
    if scheduled:
        uploads = sorted(draw(st.sets(st.sampled_from(UPLOADS), min_size=1,
                                      max_size=3)))
        entities = [draw(alcohol_entity(True)) for _ in names]
    else:
        uploads = None
        # any two or more of these mix the kinds
        kinds = draw(st.permutations(["curfew", "alcohol"] * 2))[:count]
        entities = [draw(curfew_entity() if kind == "curfew"
                         else alcohol_entity(False)) for kind in kinds]
    labels = []
    if any(e["kind"] == "alcohol" for e in entities):
        labels += ALCOHOL_LABELS
    if any(e["kind"] == "curfew" for e in entities):
        labels += CURFEW_LABELS
    # 1..4 labels of a shuffled list, so that rules often list both kinds
    rules = draw(_some(st.tuples(st.permutations(labels),
                                 st.sampled_from((3, 2, 1, 4))).map(
        lambda shuffled: shuffled[0][:shuffled[1]]), 3))
    return dict(names=names, entities=entities, uploads=uploads,
                rules=[(f"rule-{i}", tuple(r)) for i, r in enumerate(rules)])


# -- traces and the model ----------------------------------------------------

def _alcohol_readings(ent, horizon):
    rng = random.Random(ent["seed"])
    values = [rng.randrange(0, ent["eps"] - ent["delta"])
              for _ in range(horizon)]
    t1 = ent["t1"] or 0
    for where, on_sample, level in ent["spikes"]:
        at = min(int(where * horizon), horizon - 1)
        if on_sample:  # every window starts on t1 plus a multiple of s
            at = max(t1, at - (at - t1) % ent["s"])
        values[at] = level(ent["eps"], ent["delta"])
    for where, length in ent["gaps"]:
        at = min(int(where * horizon), horizon - 1)
        values[at:at + length] = [NA] * len(values[at:at + length])
    return values


def _band(ent, values, t1, t2):
    samples = [values[t] for t in range(t1, t2 + 1, ent["s"])]
    judgement = band_oracle(samples, ent["eps"], ent["delta"])
    if ent["s"] <= t2 - t1:
        sentence = Sentence(t1, t2, ent["s"], Dec4(ent["eps"]),
                            Dec4(ent["delta"]))
        assert compliance_judgement(sentence, _stream(values)) == judgement
    return judgement


def _night_window(ent, night):
    start = (night - 1) * DAY + ent["start"]
    return start, start + DAY - ent["start"] + ent["end"] - 1


def _curfew_readings(ent):
    _, last = _night_window(ent, ent["nights"])
    horizon = last + 1
    values = [True] * horizon
    def at(night, fraction):
        lo, hi = _night_window(ent, night)
        return min(lo + int(fraction * (hi - lo + 1)), horizon - 1)

    for night, fraction in ent["absences"]:
        values[at(night, fraction)] = False
    for (night, fraction), length in ent["gaps"]:
        start = at(night, fraction)
        values[start:start + length] = [NA] * len(values[start:start + length])
    return values


def _first_non_true(values, lo, hi):
    for v in values[lo:hi + 1]:
        if v is NA:
            return "absent-signal"
        if v is False:
            return "violation"
    return "compliant"


def _entity(ent, upload_ticks):
    """Scenario block, trace text and (now, judgement) list of one entity,
    plus its attribute, initial status and characteristics text."""
    status = ent["status"]
    if ent["kind"] == "curfew":
        values = _curfew_readings(ent)
        cycles = []
        for night in range(1, ent["nights"] + 1):
            lo, hi = _night_window(ent, night)
            cycles.append((night * DAY + ent["end"],
                           _first_non_true(values, lo, hi)))
        start, end = ent["start"], ent["end"]
        block = (f"curfew = {start // 60:02d}:{start % 60:02d},"
                 f"{end // 60:02d}:{end % 60:02d}\n"
                 f"nights = {ent['nights']}\n")
        chi = (f"curfew_start={start};curfew_end={end};"
               f"nights={ent['nights']};status={{}}")
        return (block, _trace_text("presence", "boolean", values), cycles,
                "curfew-presence", status or "compliant", chi)
    eps, delta = _dec(ent["eps"]), _dec(ent["delta"])
    if upload_ticks:
        t1, t2 = 0, upload_ticks[-1]
        values = _alcohol_readings(ent, t2 + 1)
        cycles, previous = [], 0
        for now in upload_ticks:
            cycles.append((now, _band(ent, values, previous, now)))
            previous = now
        chi = f"s={ent['s']};epsilon={eps};delta={delta};days=2;status={{}}"
    else:
        t1, t2 = ent["t1"], ent["t2"]
        values = _alcohol_readings(ent, t2 + 1)
        cycles = [(t2, _band(ent, values, t1, t2))]
        chi = (f"sentence=(t1={t1},t2={t2},s={ent['s']},epsilon={eps},"
               f"delta={delta});status={{}}")
    block = f"sentence = {t1},{t2},{ent['s']},{eps},{delta}\n"
    return (block, _trace_text("b", "decimal", values), cycles, "bac-band",
            status or "green", chi)


def _write_and_model(spec, directory: Path):
    """Write the scenario and traces; return the expected log lines."""
    upload_ticks = None
    if spec["uploads"]:
        upload_ticks = [day * DAY + u for day in range(2)
                        for u in spec["uploads"]]
    blocks, events, status, chi_text = [], [], {}, {}
    for name, ent in zip(spec["names"], spec["entities"]):
        block, trace, cycles, attribute, initial, chi = _entity(
            ent, upload_ticks)
        (directory / f"{name}.trace").write_text(trace)
        blocks.append(f"[entity {name}]\n{block}"
                      + (f"status = {ent['status']}\n" if ent["status"]
                         else "")
                      + f"trace = {name}.trace\n")
        events += [(now, name, attribute, j) for now, j in cycles]
        status[name], chi_text[name] = initial, chi
    if upload_ticks:
        uploads = ",".join(f"{u // 60:02d}:{u % 60:02d}"
                           for u in spec["uploads"])
        blocks.append(f"[schedule]\nuploads = {uploads}\ndays = 2\n")
    if spec["rules"]:
        blocks.append("[policy]\n" + "".join(
            f"rule = {name}: on {','.join(labels)} set status\n"
            for name, labels in spec["rules"]))
    (directory / "run.scenario").write_text("\n".join(blocks))

    records, notifications = [], []
    for now, name, attribute, judgement in sorted(events):
        records.append(f"{now}|{name}|{attribute}|{judgement}|"
                       + chi_text[name].format(status[name]))
        for rule, labels in spec["rules"]:
            if judgement in labels:
                old = status[name]
                change = f"status={old}->{judgement}" if old != judgement \
                    else ""
                notifications.append(
                    f"{now}|{name}|{rule}|{judgement}|{change}")
                status[name] = judgement
    return records, notifications


def _lines(result):
    """A run's records, notifications and cycle errors as log lines."""
    return ([format_record(r) for r in result.records],
            [format_notification(n) for n in result.notifications],
            [f"{now}|{entity}|{type(exc).__name__}: {exc}"
             for now, entity, exc in result.errors])


def _merge_of_rows_alone(run):
    """Each entity's row executed alone under the run's policy, the results
    merged by (now, entity); a stable sort keeps each entity's own order."""
    alone = [merge_runs([row], run.policy).execute()
             for row in run.entities.values()]
    return RunResult(
        {},
        sorted((r for a in alone for r in a.records),
               key=lambda r: (r.evaluated_at, r.entity)),
        sorted((n for a in alone for n in a.notifications),
               key=lambda n: (n.evaluated_at, n.entity)),
        sorted((e for a in alone for e in a.errors), key=lambda e: e[:2]))


@WHOLE_RUN
@given(spec=scenarios())
def test_whole_run_matches_the_model(spec):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        records, notifications = _write_and_model(spec, directory)
        out = directory / "out"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["run", str(directory / "run.scenario"),
                         "--out", str(out)])
        assert (code, err.getvalue()) == (EXIT_OK, "")
        assert (out / "records.log").read_text().splitlines() == records
        assert (out / "notifications.log").read_text().splitlines() \
            == notifications
        run = build_scenario(*load_scenario(directory / "run.scenario"))
    # the slicing law: entities do not interact, so the whole run is the
    # merge of its rows' runs
    assert _lines(run.execute()) == _lines(_merge_of_rows_alone(run))
