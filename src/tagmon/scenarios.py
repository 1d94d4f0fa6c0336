"""Executable criminal-justice scenarios: remote alcohol monitoring and
home-detention curfew.

Ticks are minutes throughout.  An alcohol sentence samples a blood-alcohol
stream every ``s`` minutes over [t1, t2] and classifies the maximum sampled
reading against a limit ``epsilon`` with error margin ``delta``:

    green   max < epsilon - delta
    amber   epsilon - delta <= max <= epsilon + delta   (closed band)
    red     max > epsilon + delta
    absent  some sampled reading was missing

The amber band is closed so the four judgements partition every trace; values
between sample points are invisible by construction.  ``compliance_judgement``
computes the classification directly; the predicate families used by the
monitoring engine express the three bands as parsed formulas and name
``absent`` as the label for undefined data, so each route checks the other.

The curfew scenario judges one night per cycle: an offender must be in range
every minute of the wrapped 19:00-07:00 window.  The extended alcohol
scenario evaluates at scheduled daily upload times, each upload covering the
readings since the previous one (the first window of a run starts at t=0).

A run is one row per entity, its ``EntityRun``, under one policy over all
of them.  Each builder returns its entity's row; ``merge_runs`` puts the rows
under the policy it is given, and a scenario file passes its ``[policy]``
section there.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ._frozen import Frozen
from .errors import KindMismatch, WindowTooShort
from .formulas import AttributeSpec
from .interventions import Policy, RunResult, run_cycle
from .monitoring import (
    Characteristics,
    JudgementSet,
    PredicateFamily,
)
from .parser import parse_formula
from .streams import Stream
from .values import BOTTOM, Dec4, past_digit_limit

MINUTES_PER_DAY = 1440

GREEN, AMBER, RED, ABSENT = "green", "amber", "red", "absent"

COMPLIANT, VIOLATION, ABSENT_SIGNAL = ("compliant", "violation",
                                       "absent-signal")


def _require_status(status: str, judgements: JudgementSet) -> None:
    if status not in judgements:
        raise KindMismatch(f"unknown status {status!r}")


def _require_margin(epsilon: Dec4, delta: Dec4) -> None:
    if not Dec4(0) < delta < epsilon:
        raise KindMismatch(
            f"need 0 < delta < epsilon, got delta={delta}, epsilon={epsilon}")


class Sentence(Frozen):
    """Terms of an alcohol monitoring sentence.

    t1/t2 bound the monitored interval, s is the sample interval and
    epsilon/delta the limit and error margin, all in engine units (minutes,
    percent).  delta must be strictly positive: with delta = 0 the amber band
    would collapse onto the green/red boundaries.
    """

    t1: int
    t2: int
    s: int
    epsilon: Dec4
    delta: Dec4

    def __post_init__(self):
        if self.t1 < 0 or self.t1 >= self.t2:
            raise KindMismatch(f"need 0 <= t1 < t2, got [{self.t1}, {self.t2}]")
        if self.s < 1 or self.s > self.t2 - self.t1:
            raise KindMismatch(
                f"sample interval {self.s} outside [1, {self.t2 - self.t1}]")
        _require_margin(self.epsilon, self.delta)

    def characteristics(self, status: str = GREEN) -> Characteristics:
        _require_status(status, alcohol_family().judgements)
        terms = Characteristics.of(t1=self.t1, t2=self.t2, s=self.s,
                                   epsilon=self.epsilon, delta=self.delta)
        return Characteristics.of(sentence=terms, status=status)


def sample_count(t1: int, t2: int, s: int) -> int:
    """Number of whole sample intervals in [t1, t2]; samples sit at
    t1 + k*s for k = 0..N, so there are N + 1 readings."""
    return (t2 - t1) // s


def sample_times(t1: int, t2: int, s: int) -> List[int]:
    return list(range(t1, t2 + 1, s))


def _require_cover(b: Stream, t1: int, t2: int, name: str,
                   span: str = "") -> None:
    """Raise WindowTooShort unless the window of ``b``, called ``name`` in
    the message, covers the ticks [t1, t2]; a t2 that ``str`` cannot write
    is named as such."""
    if b.window.start > t1 or b.window.horizon <= t2:
        last = "a tick past int's digit limit" if past_digit_limit(t2) else t2
        raise WindowTooShort(
            f"{name} window [{b.window.start}, {b.window.horizon}) does not "
            f"cover {span}[{t1}, {last}]")


def sampled_max(t1: int, t2: int, s: int, b: Stream) -> Optional[Dec4]:
    """Maximum sampled reading over [t1, t2], or None if any sample is missing."""
    _require_cover(b, t1, t2, "stream")
    best = None
    for t in sample_times(t1, t2, s):
        v = b.at(t)
        if v is BOTTOM:
            return None
        if best is None or v > best:
            best = v
    return best


def compliance_judgement(sigma: Sentence, b: Stream) -> str:
    """Direct band classification of a trace under a sentence."""
    peak = sampled_max(sigma.t1, sigma.t2, sigma.s, b)
    if peak is None:
        return ABSENT
    if peak < sigma.epsilon - sigma.delta:
        return GREEN
    if peak > sigma.epsilon + sigma.delta:
        return RED
    return AMBER


# -- predicate families -------------------------------------------------------
#
# Each family is parsed once per process and shared by every entity of its
# kind: it is frozen, and everything entity-specific reaches it as bindings
# from the characteristics or the cycle parameters, which it declares once.

def _specs(rows) -> Tuple[AttributeSpec, ...]:
    return tuple(AttributeSpec(label, parse_formula(text))
                 for label, text in rows)


@functools.cache
def alcohol_family() -> PredicateFamily:
    """Band predicates over the sampled maximum of a BAC stream.

    The window bounds t1/t2 come either from a sentence in the offender's
    characteristics or, for scheduled uploads, from the cycle parameters of
    each upload; the sample interval s, epsilon and delta always come from
    the characteristics.  The band thresholds epsilon - delta and
    epsilon + delta are computed in the formulas.  Every band formula reads
    the sampled maximum, so a missed sample makes each of them touch BOTTOM,
    and the family's undefined label is absent.
    """
    rows = [
        (GREEN, "max(b, t1, t2, s) < epsilon - delta"),
        (AMBER, "max(b, t1, t2, s) >= epsilon - delta"
                " and max(b, t1, t2, s) <= epsilon + delta"),
        (RED, "max(b, t1, t2, s) > epsilon + delta"),
    ]
    return PredicateFamily("bac-band", ("t1", "t2", "s", "epsilon", "delta"),
                           "b", _specs(rows), undefined=ABSENT)


@functools.cache
def curfew_family() -> PredicateFamily:
    """Night-presence predicates over a boolean in-range stream.

    The night window [wstart, wend] arrives as cycle parameters.  A night is
    compliant when every minute shows presence and a violation when some
    minute shows a definite absence.  Both scans stop at the first minute
    that is not a presence, so a signal gap (missed reading) there makes
    both touch BOTTOM, and the family's undefined label is absent-signal.
    """
    rows = [
        (COMPLIANT, "forall k in wstart .. wend : presence[k] = true"),
        (VIOLATION, "exists k in wstart .. wend : presence[k] = false"),
    ]
    return PredicateFamily("curfew-presence", ("wstart", "wend"), "presence",
                           _specs(rows), undefined=ABSENT_SIGNAL)


# -- configured runs ----------------------------------------------------------

class EntityRun(Frozen):
    """One entity's part of a run: its characteristics, its behaviour
    stream, its predicate family and its cycles (evaluation instant -> the
    family's template parameters then)."""

    entity: str
    characteristics: Characteristics
    stream: Stream
    family: PredicateFamily
    cycles: Dict[int, Mapping]


class ScenarioRun(Frozen):
    """A fully wired engine run: one row per entity, keyed by the entity,
    and the policy over all of them.  An intervention changes what a later
    cycle judges only through the characteristics, never through the
    stream."""

    entities: Dict[str, EntityRun]
    policy: Policy

    def execute(self) -> RunResult:
        """Run one cycle per distinct instant of the rows, in time order,
        over the entities that have a cycle then; each cycle is given, and
        gives back, the characteristics of those entities only."""
        due: Dict[int, Dict[str, Mapping]] = {}
        for entity, row in self.entities.items():
            for now, params in row.cycles.items():
                due.setdefault(now, {})[entity] = params
        run = RunResult({entity: row.characteristics
                         for entity, row in self.entities.items()}, [], [], [])
        chi = run.characteristics
        for now in sorted(due):
            cycle = run_cycle(due[now], {entity: chi[entity]
                                         for entity in due[now]},
                              self.entities, self.policy, now)
            chi.update(cycle.characteristics)
            run.records += cycle.records
            run.notifications += cycle.notifications
            run.errors += cycle.errors
        return run


def judgement_union(sets: Iterable[JudgementSet]) -> JudgementSet:
    """Every label of the judgement sets, in first-seen order."""
    return JudgementSet(tuple(dict.fromkeys(
        label for judgements in sets for label in judgements)))


def merge_runs(rows: List[EntityRun], policy: Policy) -> ScenarioRun:
    """Put entities' rows into one run under ``policy``.

    ``policy``'s triggers should be total on every judgement the rows'
    families give, which a trigger over ``judgement_union`` of them is; any
    other judgement is a cycle error for its entity.
    """
    if not rows:
        raise KindMismatch("nothing to merge")
    entities: Dict[str, EntityRun] = {}
    for row in rows:
        if row.entity in entities:
            raise KindMismatch(f"duplicate entity {row.entity!r}")
        entities[row.entity] = row
    return ScenarioRun(entities, policy)


def build_alcohol_scenario(sigma: Sentence, initial_status: str,
                           trace: Stream, entity: str = "PID-1"
                           ) -> EntityRun:
    """The entity's row: one window over [t1, t2], evaluated at t2."""
    _require_cover(trace, sigma.t1, sigma.t2, "trace")
    return EntityRun(entity, sigma.characteristics(initial_status), trace,
                     alcohol_family(), {sigma.t2: {}})


class CurfewOrder(Frozen):
    """Home-detention terms: a wrapped nightly window and a duration.

    The presence stream is boolean, true when the tag is in range of the home
    receiver.  Clock minutes wrap midnight exactly once, so start > end
    (19:00 = 1140 wraps to 07:00 = 420 by default).
    """

    presence: Stream
    nights: int
    start_minute: int = 1140
    end_minute: int = 420

    def __post_init__(self):
        if not 0 <= self.end_minute < self.start_minute < MINUTES_PER_DAY:
            raise KindMismatch(
                f"curfew window must wrap midnight once, got "
                f"{self.start_minute}..{self.end_minute}")
        if self.nights < 1:
            raise KindMismatch(f"need at least one night, got {self.nights}")

    @property
    def night_length(self) -> int:
        return MINUTES_PER_DAY - self.start_minute + self.end_minute

    def night_window(self, night: int) -> Tuple[int, int]:
        """Inclusive tick bounds of the n-th night (1-based)."""
        start = (night - 1) * MINUTES_PER_DAY + self.start_minute
        return start, start + self.night_length - 1

    def report_tick(self, night: int) -> int:
        return night * MINUTES_PER_DAY + self.end_minute

    def characteristics(self, status: str = COMPLIANT) -> Characteristics:
        _require_status(status, curfew_family().judgements)
        return Characteristics.of(curfew_start=self.start_minute,
                                  curfew_end=self.end_minute,
                                  nights=self.nights, status=status)


def build_curfew_scenario(order: CurfewOrder, entity: str = "PID-1",
                          initial_status: str = COMPLIANT) -> EntityRun:
    """The entity's row: one cycle per night, at the morning report tick."""
    _require_cover(order.presence, order.night_window(1)[0],
                   order.night_window(order.nights)[1], "presence", "nights ")
    cycles = {order.report_tick(night):
              dict(zip(("wstart", "wend"), order.night_window(night)))
              for night in range(1, order.nights + 1)}
    return EntityRun(entity, order.characteristics(initial_status),
                     order.presence, curfew_family(), cycles)


class ReportSchedule(Frozen):
    """Daily upload times (clock minutes) over a sentence of whole days."""

    uploads: Tuple[int, ...]
    days: int

    def __post_init__(self):
        if not self.uploads:
            raise KindMismatch("need at least one upload time per day")
        if list(self.uploads) != sorted(set(self.uploads)):
            raise KindMismatch(
                f"upload times must be strictly increasing: {self.uploads}")
        if self.uploads[0] < 0 or self.uploads[-1] >= MINUTES_PER_DAY:
            raise KindMismatch(
                f"upload times must lie within one day: {self.uploads}")
        if self.days < 1:
            raise KindMismatch(f"need at least one day, got {self.days}")

    @property
    def last_upload(self) -> int:
        """Tick of the last upload, without listing the others."""
        return (self.days - 1) * MINUTES_PER_DAY + self.uploads[-1]

    def upload_ticks(self) -> List[int]:
        return [day * MINUTES_PER_DAY + u
                for day in range(self.days) for u in self.uploads]


def build_extended_scenario(schedule: ReportSchedule, interval: int,
                            epsilon: Dec4, delta: Dec4, trace: Stream,
                            entity: str = "PID-1",
                            initial_status: str = GREEN) -> EntityRun:
    """The entity's row of scheduled uploads, each covering the readings
    since the previous upload.

    The very first window starts at t = 0; afterwards window i is
    [upload_{i-1}, upload_i] with samples every ``interval`` minutes from the
    window start.  Windows are judged independently: a missed reading affects
    only the upload whose window contains it.  Each upload's cycle parameters
    carry its window as t1/t2 to ``alcohol_family``; the characteristics hold
    no t1/t2 of their own.
    """
    if interval < 1:
        raise KindMismatch(f"sample interval must be positive: {interval}")
    _require_margin(epsilon, delta)
    # the trace bounds the number of upload ticks listed below
    _require_cover(trace, 0, schedule.last_upload, "trace")
    _require_status(initial_status, alcohol_family().judgements)
    chi = Characteristics.of(s=interval, epsilon=epsilon, delta=delta,
                             days=schedule.days, status=initial_status)
    ticks = schedule.upload_ticks()
    cycles = {now: {"t1": t1, "t2": now}
              for t1, now in zip([0] + ticks, ticks)}
    return EntityRun(entity, chi, trace, alcohol_family(), cycles)
