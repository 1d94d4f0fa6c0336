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
monitoring engine express the same bands as parsed formulas, so each route
checks the other.

The curfew scenario judges one night per cycle: an offender must be in range
every minute of the wrapped 19:00-07:00 window.  The extended alcohol
scenario evaluates at scheduled daily upload times, each upload covering the
readings since the previous one (the first window of a run starts at t=0).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .errors import KindMismatch, MonitorError, WindowTooShort
from .formulas import AttributeSpec
from .interventions import (
    Action,
    CycleResult,
    Intervention,
    Notification,
    Policy,
    Trigger,
    run_cycle,
)
from .monitoring import (
    BehaviourBinding,
    Characteristics,
    JudgementSet,
    PredicateFamily,
    Record,
)
from .parser import parse_formula
from .streams import Stream
from .values import BOTTOM, Dec4

MINUTES_PER_DAY = 1440

GREEN, AMBER, RED, ABSENT = "green", "amber", "red", "absent"
ALCOHOL_JUDGEMENTS = JudgementSet((GREEN, AMBER, RED, ABSENT))

COMPLIANT, VIOLATION, ABSENT_SIGNAL = ("compliant", "violation",
                                       "absent-signal")
CURFEW_JUDGEMENTS = JudgementSet((COMPLIANT, VIOLATION, ABSENT_SIGNAL))


@dataclass(frozen=True)
class Sentence:
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
        if not Dec4(0) < self.delta < self.epsilon:
            raise KindMismatch(
                f"need 0 < delta < epsilon, got delta={self.delta}, "
                f"epsilon={self.epsilon}")

    def characteristics(self, status: str = GREEN) -> Characteristics:
        if status not in ALCOHOL_JUDGEMENTS:
            raise KindMismatch(f"unknown status {status!r}")
        terms = Characteristics.of(t1=self.t1, t2=self.t2, s=self.s,
                                   epsilon=self.epsilon, delta=self.delta)
        return Characteristics.of(sentence=terms, status=status)


def sample_count(t1: int, t2: int, s: int) -> int:
    """Number of whole sample intervals in [t1, t2]; samples sit at
    t1 + k*s for k = 0..N, so there are N + 1 readings."""
    return (t2 - t1) // s


def sample_times(t1: int, t2: int, s: int) -> List[int]:
    return [t1 + k * s for k in range(sample_count(t1, t2, s) + 1)]


def sampled_max(t1: int, t2: int, s: int, b: Stream) -> Optional[Dec4]:
    """Maximum sampled reading over [t1, t2], or None if any sample is missing."""
    if b.window.start > t1 or b.window.horizon <= t2:
        raise WindowTooShort(
            f"stream window [{b.window.start}, {b.window.horizon}) does not "
            f"cover [{t1}, {t2}]")
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
# from the characteristics or the cycle parameters.

def _specs(rows, stream_name) -> Tuple[AttributeSpec, ...]:
    out = []
    for name, label, text, params, undef in rows:
        out.append(AttributeSpec(
            name=name, label=label, template=parse_formula(text),
            params=params, stream_name=stream_name,
            matches_undefined=undef))
    return tuple(out)


@functools.cache
def alcohol_family() -> PredicateFamily:
    """Band predicates over the sampled maximum of a BAC stream.

    The window bounds t1/t2 come either from a sentence in the offender's
    characteristics or, for scheduled uploads, from the cycle parameters of
    each upload; the sample interval s, epsilon and delta always come from
    the characteristics.  Thresholds lo_limit/hi_limit are derived from
    epsilon and delta.  The absent predicate holds exactly when sampling the
    stream touches a missed reading.
    """
    window = ("t1", "t2", "s")
    rows = [
        ("bac-green", GREEN, "max(b, t1, t2, s) < lo_limit",
         window + ("lo_limit",), False),
        ("bac-amber", AMBER,
         "max(b, t1, t2, s) >= lo_limit and max(b, t1, t2, s) <= hi_limit",
         window + ("lo_limit", "hi_limit"), False),
        ("bac-red", RED, "max(b, t1, t2, s) > hi_limit",
         window + ("hi_limit",), False),
        ("bac-absent", ABSENT, "max(b, t1, t2, s) >= 0.0000", window, True),
    ]

    def derive(bindings):
        out = dict(bindings)
        out["lo_limit"] = bindings["epsilon"] - bindings["delta"]
        out["hi_limit"] = bindings["epsilon"] + bindings["delta"]
        return out

    return PredicateFamily(name="bac-band", judgements=ALCOHOL_JUDGEMENTS,
                           specs=_specs(rows, "b"), derive_params=derive)


@functools.cache
def curfew_family() -> PredicateFamily:
    """Night-presence predicates over a boolean in-range stream.

    The night window [wstart, wend] arrives as cycle parameters.  A night is
    compliant when every minute shows presence, a violation when some minute
    shows a definite absence, and a signal gap (missed reading) anywhere in
    the window is judged absent-signal.
    """
    rows = [
        ("night-presence", COMPLIANT,
         "forall k in wstart .. wend : presence[k] = true",
         ("wstart", "wend"), False),
        ("night-absence", VIOLATION,
         "exists k in wstart .. wend : presence[k] = false",
         ("wstart", "wend"), False),
        ("night-signal-gap", ABSENT_SIGNAL,
         "forall k in wstart .. wend : presence[k] = true",
         ("wstart", "wend"), True),
    ]
    return PredicateFamily(name="curfew-presence",
                           judgements=CURFEW_JUDGEMENTS,
                           specs=_specs(rows, "presence"))


def breach_policy(judgements: JudgementSet, fires_on, rule_name: str,
                  tag: str = "penalty") -> Policy:
    """Single rule: on the given judgements, record the judgement as the
    entity's status."""
    return Policy((Intervention(
        name=rule_name,
        trigger=Trigger(judgements, frozenset(fires_on)),
        action=Action.set_from_judgement("status"),
        tag=tag),))


# -- configured runs ----------------------------------------------------------

@dataclass(frozen=True)
class Cycle:
    """One evaluation instant: which entities to monitor and with what
    schedule-derived template parameters."""

    now: int
    params_by_entity: Mapping[str, Mapping] = field(default_factory=dict)

    @property
    def entities(self) -> Tuple[str, ...]:
        return tuple(self.params_by_entity)


@dataclass
class RunResult:
    characteristics: Dict[str, Characteristics]
    records: List[Record]
    notifications: List[Notification]
    errors: List[Tuple[str, MonitorError]]


@dataclass
class ScenarioRun:
    """A fully wired engine run: entities, behaviours, attribute families,
    policy and the evaluation schedule."""

    characteristics: Dict[str, Characteristics]
    binding: BehaviourBinding
    families: Dict[str, PredicateFamily]
    policy: Policy
    cycles: Tuple[Cycle, ...]

    def execute(self) -> RunResult:
        chi = dict(self.characteristics)
        records: List[Record] = []
        notifications: List[Notification] = []
        errors: List[Tuple[str, MonitorError]] = []
        for cycle in sorted(self.cycles, key=lambda c: c.now):
            result: CycleResult = run_cycle(
                cycle.entities, chi, self.binding, self.families,
                self.policy, cycle.now,
                params_by_entity=cycle.params_by_entity)
            chi = result.characteristics
            records.extend(result.records)
            notifications.extend(result.notifications)
            errors.extend(result.errors)
        return RunResult(chi, records, notifications, errors)


def judgement_union(sets: Iterable[JudgementSet]) -> JudgementSet:
    """Every label of the judgement sets, in first-seen order."""
    labels: List[str] = []
    for judgements in sets:
        for label in judgements:
            if label not in labels:
                labels.append(label)
    return JudgementSet(tuple(labels))


def merge_runs(runs: List[ScenarioRun]) -> ScenarioRun:
    """Combine per-entity runs into one; cycles at equal times coalesce.

    The merged scenario judges over the union of the runs' judgement sets,
    so every trigger is rebuilt to be total on that union.
    """
    if not runs:
        raise KindMismatch("nothing to merge")
    chi: Dict[str, Characteristics] = {}
    families: Dict[str, PredicateFamily] = {}
    binding = BehaviourBinding()
    by_now: Dict[int, Dict[str, Mapping]] = {}
    raw_rules: List[Intervention] = []
    for run in runs:
        for entity, c in run.characteristics.items():
            if entity in chi:
                raise KindMismatch(f"duplicate entity {entity!r}")
            chi[entity] = c
            families[entity] = run.families[entity]
            binding.bind(entity, run.binding.resolve(entity, c))
        for rule in run.policy.rules:
            if rule not in raw_rules:
                raw_rules.append(rule)
        for cycle in run.cycles:
            by_now.setdefault(cycle.now, {}).update(cycle.params_by_entity)
    union = judgement_union(f.judgements for f in families.values())
    rules: List[Intervention] = []
    for rule in raw_rules:
        widened = Intervention(
            name=rule.name,
            trigger=Trigger(union, rule.trigger.fires_on),
            action=rule.action, tag=rule.tag,
            notify_always=rule.notify_always)
        if widened not in rules:
            rules.append(widened)
    cycles = tuple(Cycle(now, by_now[now]) for now in sorted(by_now))
    return ScenarioRun(chi, binding, families, Policy(tuple(rules)), cycles)


def build_alcohol_scenario(sigma: Sentence, initial_status: str,
                           trace: Stream, entity: str = "PID-1"
                           ) -> ScenarioRun:
    """Single reporting window over [t1, t2], evaluated at t2."""
    if trace.window.start > sigma.t1 or trace.window.horizon <= sigma.t2:
        raise WindowTooShort(
            f"trace window [{trace.window.start}, {trace.window.horizon}) "
            f"does not cover [{sigma.t1}, {sigma.t2}]")
    chi = sigma.characteristics(initial_status)
    binding = BehaviourBinding().bind(entity, trace)
    policy = breach_policy(ALCOHOL_JUDGEMENTS, (AMBER, RED, ABSENT),
                           "record-breach")
    cycles = (Cycle(sigma.t2, {entity: {}}),)
    return ScenarioRun({entity: chi}, binding, {entity: alcohol_family()},
                       policy, cycles)


@dataclass(frozen=True)
class CurfewOrder:
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
        if status not in CURFEW_JUDGEMENTS:
            raise KindMismatch(f"unknown status {status!r}")
        return Characteristics.of(curfew_start=self.start_minute,
                                  curfew_end=self.end_minute,
                                  nights=self.nights, status=status)


def build_curfew_scenario(order: CurfewOrder, entity: str = "PID-1",
                          initial_status: str = COMPLIANT) -> ScenarioRun:
    """One cycle per night, evaluated at the morning report tick."""
    last_start, last_end = order.night_window(order.nights)
    first_start, _ = order.night_window(1)
    w = order.presence.window
    if w.start > first_start or w.horizon <= last_end:
        raise WindowTooShort(
            f"presence window [{w.start}, {w.horizon}) does not cover nights "
            f"[{first_start}, {last_end}]")
    chi = order.characteristics(initial_status)
    binding = BehaviourBinding().bind(entity, order.presence)
    policy = breach_policy(CURFEW_JUDGEMENTS, (VIOLATION, ABSENT_SIGNAL),
                           "curfew-breach")
    cycles = []
    for night in range(1, order.nights + 1):
        wstart, wend = order.night_window(night)
        cycles.append(Cycle(order.report_tick(night),
                            {entity: {"wstart": wstart, "wend": wend}}))
    return ScenarioRun({entity: chi}, binding,
                       {entity: curfew_family()}, policy, tuple(cycles))


@dataclass(frozen=True)
class ReportSchedule:
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

    def upload_ticks(self) -> List[int]:
        return [day * MINUTES_PER_DAY + u
                for day in range(self.days) for u in self.uploads]


def build_extended_scenario(schedule: ReportSchedule, interval: int,
                            epsilon: Dec4, delta: Dec4, trace: Stream,
                            entity: str = "PID-1",
                            initial_status: str = GREEN) -> ScenarioRun:
    """Scheduled uploads: each covers the readings since the previous upload.

    The very first window starts at t = 0; afterwards window i is
    [upload_{i-1}, upload_i] with samples every ``interval`` minutes from the
    window start.  Windows are judged independently: a missed reading affects
    only the upload whose window contains it.  Each upload's cycle parameters
    carry its window as t1/t2 to ``alcohol_family``; the characteristics hold
    no t1/t2 of their own.
    """
    if interval < 1:
        raise KindMismatch(f"sample interval must be positive: {interval}")
    if not Dec4(0) < delta < epsilon:
        raise KindMismatch(
            f"need 0 < delta < epsilon, got delta={delta}, epsilon={epsilon}")
    ticks = schedule.upload_ticks()
    if trace.window.start > 0 or trace.window.horizon <= ticks[-1]:
        raise WindowTooShort(
            f"trace window [{trace.window.start}, {trace.window.horizon}) "
            f"does not cover [0, {ticks[-1]}]")
    chi = Characteristics.of(s=interval, epsilon=epsilon, delta=delta,
                             days=schedule.days, status=initial_status)
    binding = BehaviourBinding().bind(entity, trace)
    policy = breach_policy(ALCOHOL_JUDGEMENTS, (AMBER, RED, ABSENT),
                           "record-breach")
    cycles = []
    previous = 0
    for now in ticks:
        cycles.append(Cycle(now, {entity: {"t1": previous, "t2": now}}))
        previous = now
    return ScenarioRun({entity: chi}, binding,
                       {entity: alcohol_family()}, policy, tuple(cycles))
