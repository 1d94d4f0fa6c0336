"""Trigger->action intervention rules and the per-cycle engine loop.

An intervention inspects the judgement in a monitoring record and, when its
trigger fires, transforms the entity's characteristics, setting one field to
the judgement, and emits a notification to whatever infrastructure sits
outside the data stack.  A
policy is an ordered list of interventions applied sequentially, each to the
characteristics the previous one produced; updates take effect from the next
monitoring cycle, never retroactively.

The engine is deterministic by construction: entities are processed in
identifier order within a cycle, so replaying the same traces and initial
characteristics reproduces byte-identical logs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Tuple

from ._frozen import Frozen
from .errors import KindMismatch, MonitorError, UnknownJudgement
from .monitoring import (
    Characteristics,
    JudgementSet,
    Record,
    format_field,
    monitor,
)

if TYPE_CHECKING:
    from .scenarios import EntityRun


class Trigger(Frozen):
    """Total boolean condition on a judgement set, given extensionally."""

    domain: JudgementSet
    fires_on: frozenset

    def __post_init__(self):
        bad = set(self.fires_on) - set(self.domain.labels)
        if bad:
            raise KindMismatch(
                f"trigger fires on labels outside its domain: {sorted(bad)}")

    def fires(self, judgement: str) -> bool:
        if judgement not in self.domain:
            raise UnknownJudgement(
                f"judgement {judgement!r} outside trigger domain "
                f"{self.domain.labels}")
        return judgement in self.fires_on


class Action(Frozen):
    """Characteristics transformer: sets ``field`` to the judgement."""

    field: str

    def apply(self, chi: Characteristics, judgement: str) -> Characteristics:
        return chi.with_field(self.field, judgement)


class Intervention(Frozen):
    """A named trigger->action rule: when the trigger fires on a record's
    judgement, the action sets its field from that judgement."""

    name: str
    trigger: Trigger
    action: Action


class Policy(Frozen):
    """Ordered interventions; application order is declaration order."""

    rules: Tuple[Intervention, ...] = ()


class Notification(Frozen):
    """What a fired intervention tells the outside infrastructure."""

    entity: str
    rule: str
    judgement: str
    evaluated_at: int
    before: Characteristics
    after: Characteristics


def apply_policy(rec: Record, policy: Policy
                 ) -> Tuple[str, Characteristics, List[Notification]]:
    """Apply every rule in order, threading characteristics through; each
    rule that fires emits one notification."""
    chi = rec.characteristics
    notifications = []
    for rule in policy.rules:
        if not rule.trigger.fires(rec.judgement):
            continue
        new_chi = rule.action.apply(chi, rec.judgement)
        notifications.append(Notification(
            entity=rec.entity, rule=rule.name, judgement=rec.judgement,
            evaluated_at=rec.evaluated_at, before=chi, after=new_chi))
        chi = new_chi
    return rec.entity, chi, notifications


class RunResult:
    """What one cycle, or a run of cycles, leaves: the characteristics
    after it, its records and notifications, and each failure as the
    cycle's tick, the failing entity and its error."""

    def __init__(self, characteristics: Dict[str, Characteristics],
                 records: List[Record], notifications: List[Notification],
                 errors: List[Tuple[int, str, MonitorError]]):
        self.characteristics = characteristics
        self.records = records
        self.notifications = notifications
        self.errors = errors


def run_cycle(params_by_entity: Mapping[str, Mapping],
              characteristics: Mapping[str, Characteristics],
              entities: Mapping[str, EntityRun],
              policy: Policy,
              now: int) -> RunResult:
    """Monitor each entity of ``params_by_entity`` at one time point, with
    its template parameters and its row's family and stream, and apply the
    policy.

    A failing entity is recorded and skipped; the cycle continues for the
    others.  Updated characteristics feed the next cycle through the returned
    map; records and notifications are appended in (now, entity) order.
    """
    cycle = RunResult(dict(characteristics), [], [], [])
    for entity in sorted(params_by_entity):
        try:
            row = entities[entity]
            rec = monitor(entity, cycle.characteristics[entity], row.family,
                          row.stream, now, params_by_entity[entity])
            _, chi, notes = apply_policy(rec, policy)
        except MonitorError as exc:
            cycle.errors.append((now, entity, exc))
            continue
        cycle.characteristics[entity] = chi
        cycle.records.append(rec)
        cycle.notifications.extend(notes)
    return cycle


def format_notification(note: Notification) -> str:
    """Log line: evaluated_at|entity|rule|judgement|field=old->new;..."""
    changes = []
    for (name, old), (_, new) in zip(note.before.pairs, note.after.pairs):
        # compared as written: true and 1 are equal values, not equal fields
        old, new = format_field(old), format_field(new)
        if old != new:
            changes.append(f"{name}={old}->{new}")
    return (f"{note.evaluated_at}|{note.entity}|{note.rule}"
            f"|{note.judgement}|{';'.join(changes)}")
