"""Seeded fleet workloads for the tagmon benchmark (standard library only).

``generate(name, seed, out_dir)`` writes ``fleet.scenario`` and one trace per
entity under ``out_dir/traces`` and returns the judgement every
(cycle, entity) must receive.  The expected judgements are computed here from
the generated readings, by the rules the scenarios document, and never by
calling tagmon's evaluator:

* alcohol: sample every ``s`` minutes from the window start up to its end;
  any missed sample gives ``absent``, otherwise the peak sample is ``green``
  below epsilon - delta, ``red`` above epsilon + delta and ``amber`` on the
  closed band between;
* curfew: the first minute of the night that is not ``true`` decides; a
  ``false`` gives ``violation``, a missed reading ``absent-signal``, and a
  night with neither is ``compliant``.

The same (name, seed) always gives byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

MINUTES_PER_DAY = 1440
NA = None  # a missed reading

EPSILON, DELTA = 200, 50  # 0.0200 and 0.0050, in 0.0001 units
LO_LIMIT, HI_LIMIT = EPSILON - DELTA, EPSILON + DELTA

ALCOHOL_RULE = ("record-breach", ("amber", "red", "absent"), "green")
CURFEW_RULE = ("curfew-breach", ("violation", "absent-signal"), "compliant")

# Fleet sizes keep one `tagmon run` of a workload near one second on a
# 2-core machine, so a 60-second benchmark run takes 20 to 30 timed samples.
# Disturbances are drawn in fixed proportions and only their placement is
# random, so that the work per run, and with it the timings, barely depends
# on the seed.
CURFEW_ENTITIES, CURFEW_NIGHTS = 12, 7
CURFEW_NIGHT_KINDS = ("compliant",) * 3 + ("absence",) * 2 + ("gap", "both")
CURFEW_START, CURFEW_END = 19 * 60, 7 * 60
FLEET_ENTITIES, FLEET_T2, FLEET_INTERVAL = 100, 720, 30
FLEET_KINDS = ("dry",) * 10 + ("red",) * 4 + ("amber",) * 3 + ("gap",) * 3

WORKLOADS = ("curfew-fleet", "alcohol-fleet")


@dataclass(frozen=True)
class Expected:
    """What a correct run of a generated workload writes.

    ``records`` lists (now, entity, attribute, judgement) in log order;
    ``notifications`` the full notifications.log lines in log order.
    """

    scenario: Path
    records: Tuple[Tuple[int, str, str, str], ...]
    notifications: Tuple[str, ...]
    ticks: int


def _dec(raw: Optional[int]) -> str:
    if raw is NA:
        return "NA"
    whole, frac = divmod(raw, 10_000)
    return f"{whole}.{frac:04d}"


def _bool(value: Optional[bool]) -> str:
    if value is NA:
        return "NA"
    return "true" if value else "false"


def _write_trace(path: Path, stream_id: str, kind: str, values) -> None:
    fmt = _dec if kind == "decimal" else _bool
    lines = [f"trace {stream_id} {kind} 0 {len(values)}"]
    lines.extend(f"{t},{fmt(v)}" for t, v in enumerate(values))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def band(values) -> str:
    """Alcohol judgement of a fleet trace: the samples 0, 30, ..., 720."""
    samples = values[:FLEET_T2 + 1:FLEET_INTERVAL]
    if any(v is NA for v in samples):
        return "absent"
    peak = max(samples)
    if peak < LO_LIMIT:
        return "green"
    if peak > HI_LIMIT:
        return "red"
    return "amber"


def night_rule(values, wstart: int, wend: int) -> str:
    """Curfew judgement of the minutes wstart..wend: first non-true decides."""
    for v in values[wstart:wend + 1]:
        if v is NA:
            return "absent-signal"
        if v is False:
            return "violation"
    return "compliant"


def _dry(rng: random.Random, n: int) -> List[Optional[int]]:
    return [rng.randrange(0, LO_LIMIT) for _ in range(n)]


def _disturb(rng: random.Random, values, kind: str) -> None:
    """Put a red spike, an amber reading or a gap into a fleet trace.

    One disturbance in five falls between sample points, where the sentence
    cannot see it; the rest sit on a sample point.
    """
    between = rng.random() >= 0.8
    t = rng.choice(range(0, FLEET_T2 + 1, FLEET_INTERVAL))
    if between and t + 1 < FLEET_T2:
        t += rng.randrange(1, min(FLEET_INTERVAL, FLEET_T2 - t))
    if kind == "red":
        values[t] = rng.randrange(HI_LIMIT + 1, 4 * EPSILON)
    elif kind == "amber":
        values[t] = rng.randrange(LO_LIMIT, HI_LIMIT + 1)
    else:
        length = rng.randrange(1, 2 * FLEET_INTERVAL)
        for k in range(t, min(t + length, FLEET_T2 + 1)):
            values[k] = NA


def _notifications(records, rule) -> Tuple[str, ...]:
    """Expected notifications.log lines: one per breach judgement; the
    status field takes the judgement, and an unchanged status logs no
    change."""
    name, fires_on, initial = rule
    status: Dict[str, str] = {}
    lines = []
    for now, entity, _, judgement in records:
        if judgement not in fires_on:
            continue
        old = status.get(entity, initial)
        change = f"status={old}->{judgement}" if old != judgement else ""
        lines.append(f"{now}|{entity}|{name}|{judgement}|{change}")
        status[entity] = judgement
    return tuple(lines)


def _scenario_text(entities: List[str], rule) -> str:
    name, fires_on, _ = rule
    return ("\n".join(entities)
            + f"[policy]\nrule = {name}: on {','.join(fires_on)} set status\n")


def _curfew_fleet(rng: random.Random, out: Path):
    night_len = MINUTES_PER_DAY - CURFEW_START + CURFEW_END
    horizon = CURFEW_NIGHTS * MINUTES_PER_DAY + CURFEW_END + 1
    blocks, records = [], []
    for i in range(CURFEW_ENTITIES):
        entity = f"PID-{i:04d}"
        values: List[Optional[bool]] = [True] * horizon
        kinds = list(CURFEW_NIGHT_KINDS)
        rng.shuffle(kinds)
        for night, kind in enumerate(kinds, start=1):
            wstart = (night - 1) * MINUTES_PER_DAY + CURFEW_START
            if kind in ("absence", "both"):  # a one-minute absence
                values[wstart + rng.randrange(night_len)] = False
            if kind == "gap":  # the receiver loses the signal for a while
                t = wstart + rng.randrange(night_len)
                for k in range(t, min(t + rng.randrange(1, 90),
                                      wstart + night_len)):
                    values[k] = NA
            if kind == "both":  # whichever comes first decides
                values[wstart + rng.randrange(night_len)] = NA
        _write_trace(out / "traces" / f"{entity}.trace", "presence",
                     "boolean", values)
        blocks.append(f"[entity {entity}]\ncurfew = 19:00,07:00\n"
                      f"nights = {CURFEW_NIGHTS}\nstatus = compliant\n"
                      f"trace = traces/{entity}.trace\n")
        for night in range(1, CURFEW_NIGHTS + 1):
            wstart = (night - 1) * MINUTES_PER_DAY + CURFEW_START
            records.append((night * MINUTES_PER_DAY + CURFEW_END, entity,
                            "curfew-presence",
                            night_rule(values, wstart,
                                       wstart + night_len - 1)))
    return (_scenario_text(blocks, CURFEW_RULE), records, CURFEW_RULE,
            CURFEW_ENTITIES * horizon)


def _alcohol_fleet(rng: random.Random, out: Path):
    horizon = FLEET_T2 + 1
    kinds = list(FLEET_KINDS) * (FLEET_ENTITIES // len(FLEET_KINDS))
    rng.shuffle(kinds)
    blocks, records = [], []
    for i, kind in enumerate(kinds):
        entity = f"PID-{i:04d}"
        values = _dry(rng, horizon)
        if kind != "dry":
            _disturb(rng, values, kind)
        _write_trace(out / "traces" / f"{entity}.trace", "b", "decimal",
                     values)
        blocks.append(f"[entity {entity}]\n"
                      f"sentence = 0,{FLEET_T2},{FLEET_INTERVAL},"
                      "0.0200,0.0050\nstatus = green\n"
                      f"trace = traces/{entity}.trace\n")
        records.append((FLEET_T2, entity, "bac-band",
                        band(values)))
    return (_scenario_text(blocks, ALCOHOL_RULE), records, ALCOHOL_RULE,
            FLEET_ENTITIES * horizon)


_BUILDERS = {
    "curfew-fleet": _curfew_fleet,
    "alcohol-fleet": _alcohol_fleet,
}


def generate(name: str, seed: int, out_dir) -> Expected:
    """Write workload ``name`` for ``seed`` under ``out_dir``."""
    out = Path(out_dir)
    (out / "traces").mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    text, records, rule, ticks = _BUILDERS[name](rng, out)
    scenario = out / "fleet.scenario"
    scenario.write_text(text, encoding="ascii")
    records.sort(key=lambda r: (r[0], r[1]))
    return Expected(scenario, tuple(records), _notifications(records, rule),
                    ticks)
