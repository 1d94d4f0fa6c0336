"""Line-oriented scenario files.

    # comment
    [entity PID-7]
    sentence = 0,720,30,0.0200,0.0050     # t1,t2,s,epsilon,delta
    status = green
    trace = traces/dry.trace              # relative to the scenario file

    [entity PID-9]
    curfew = 19:00,07:00                  # wrapped nightly window
    nights = 7
    status = compliant
    trace = traces/presence.trace

    [schedule]                            # optional: scheduled uploads
    uploads = 07:00,15:00,23:00
    days = 100

    [policy]
    rule = record-breach: on amber,red,absent set status

Unknown section names and keys are rejected at parse time.  Clock times use
HH:MM and become minute ticks.  An entity carries either a sentence (alcohol
monitoring) or a curfew order; when a [schedule] section is present, sentence
entities are evaluated per upload instead of once over [t1, t2].

Under a [schedule] a sentence's t1,t2 must be 0 and the tick of the last
upload, (days-1)*1440 + the last upload time.

``parse_scenario``/``format_scenario`` round-trip structurally.  Checking
and building are one pass that loads each trace and builds each entity's run
once: ``validate_scenario`` returns that pass's diagnostics instead of
raising, so a command line can report them all, and ``build_scenario`` wires
a runnable engine from the same pass or raises ``InvalidScenario`` carrying
every diagnostic.

Validation checks the scenario, not the engine: the predicate families are
fixed code, so their partition property (exactly one judgement holds) is
property-tested and enforced by ``observe_family`` on every observation, not
probed per entity here.  A non-ASCII byte in a scenario or trace file is a
format error on its line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Tuple

from .errors import MonitorError, ScenarioFormatError
from .monitoring import JudgementSet
# Re-exported, not called here: perfbench/tracer.py wraps it under this
# module's name.
from .monitoring import observe_family  # noqa: F401
from .scenarios import (
    ALCOHOL_JUDGEMENTS,
    CURFEW_JUDGEMENTS,
    CurfewOrder,
    Intervention,
    Policy,
    ReportSchedule,
    ScenarioRun,
    Sentence,
    Trigger,
    build_alcohol_scenario,
    build_curfew_scenario,
    build_extended_scenario,
    judgement_union,
    merge_runs,
)
from .interventions import Action
from .streams import Stream, load_trace, read_ascii
from .values import Dec4

_SECTION_RE = re.compile(r"\[(entity\s+([A-Za-z][A-Za-z0-9_-]*)"
                         r"|schedule|policy)\]\Z")
_LABEL_LIST = r"[A-Za-z][A-Za-z0-9_-]*(?:\s*,\s*[A-Za-z][A-Za-z0-9_-]*)*"
_RULE_RE = re.compile(
    rf"([A-Za-z][A-Za-z0-9_-]*)\s*:\s*on\s+({_LABEL_LIST})\s+set\s+"
    r"([A-Za-z][A-Za-z0-9_-]*)\Z")
_CLOCK_RE = re.compile(r"([0-9]{1,2}):([0-9]{2})\Z")

_ENTITY_KEYS = ("sentence", "curfew", "nights", "status", "trace")
_SCHEDULE_KEYS = ("uploads", "days")


def parse_clock(text: str, line: int = 0) -> int:
    """HH:MM -> minute tick within a day."""
    m = _CLOCK_RE.match(text.strip())
    if not m:
        raise ScenarioFormatError(f"bad clock time {text!r}", line)
    hours, minutes = int(m.group(1)), int(m.group(2))
    if hours > 23 or minutes > 59:
        raise ScenarioFormatError(f"bad clock time {text!r}", line)
    return hours * 60 + minutes


def format_clock(minute: int) -> str:
    return f"{minute // 60:02d}:{minute % 60:02d}"


@dataclass(frozen=True)
class EntityConfig:
    entity: str
    sentence: Optional[Tuple[int, int, int, Dec4, Dec4]] = None
    curfew: Optional[Tuple[int, int]] = None
    nights: Optional[int] = None
    status: Optional[str] = None
    trace: Optional[str] = None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ScheduleConfig:
    uploads: Tuple[int, ...]
    days: int
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class RuleConfig:
    name: str
    labels: Tuple[str, ...]
    field_name: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ScenarioConfig:
    entities: Tuple[EntityConfig, ...] = ()
    schedule: Optional[ScheduleConfig] = None
    rules: Tuple[RuleConfig, ...] = ()


def _ints(text: str, count: int, line: int) -> List[int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise ScenarioFormatError(
            f"expected {count} comma-separated values, got {len(parts)}", line)
    try:
        return [int(p, 10) for p in parts]
    except ValueError:
        raise ScenarioFormatError(f"non-integer in {text!r}", line) from None


def parse_scenario(text: str) -> ScenarioConfig:
    entities: List[EntityConfig] = []
    schedule: Optional[ScheduleConfig] = None
    rules: List[RuleConfig] = []
    section = None  # None | ("entity", index) | "schedule" | "policy"

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = _SECTION_RE.match(line)
            if not m:
                raise ScenarioFormatError(f"bad section header {line!r}",
                                          lineno)
            if m.group(2):
                entity = m.group(2)
                if any(e.entity == entity for e in entities):
                    raise ScenarioFormatError(
                        f"duplicate entity {entity!r}", lineno)
                entities.append(EntityConfig(entity=entity, line=lineno))
                section = ("entity", len(entities) - 1)
            elif m.group(1) == "schedule":
                if schedule is not None:
                    raise ScenarioFormatError("duplicate [schedule] section",
                                              lineno)
                schedule = ScheduleConfig((), 0, line=lineno)
                section = "schedule"
            else:
                section = "policy"
            continue
        key, sep, value = (p.strip() for p in line.partition("="))
        if not sep or not key:
            raise ScenarioFormatError(f"expected 'key = value', got {line!r}",
                                      lineno)
        if section is None:
            raise ScenarioFormatError(
                f"key {key!r} outside any section", lineno)
        if isinstance(section, tuple):
            idx = section[1]
            ent = entities[idx]
            if key not in _ENTITY_KEYS:
                raise ScenarioFormatError(f"unknown entity key {key!r}",
                                          lineno)
            if getattr(ent, key) is not None:
                raise ScenarioFormatError(f"duplicate key {key!r}", lineno)
            if key == "sentence":
                parts = [p.strip() for p in value.split(",")]
                if len(parts) != 5:
                    raise ScenarioFormatError(
                        "sentence needs t1,t2,s,epsilon,delta", lineno)
                try:
                    sent = (int(parts[0], 10), int(parts[1], 10),
                            int(parts[2], 10), Dec4.parse(parts[3]),
                            Dec4.parse(parts[4]))
                except (ValueError, MonitorError):
                    raise ScenarioFormatError(
                        f"bad sentence {value!r}", lineno) from None
                entities[idx] = replace(ent, sentence=sent)
            elif key == "curfew":
                parts = [p.strip() for p in value.split(",")]
                if len(parts) != 2:
                    raise ScenarioFormatError(
                        "curfew needs start,end clock times", lineno)
                entities[idx] = replace(ent, curfew=(
                    parse_clock(parts[0], lineno),
                    parse_clock(parts[1], lineno)))
            elif key == "nights":
                entities[idx] = replace(ent,
                                        nights=_ints(value, 1, lineno)[0])
            elif key == "status":
                entities[idx] = replace(ent, status=value)
            else:
                if not value:
                    raise ScenarioFormatError("empty trace path", lineno)
                entities[idx] = replace(ent, trace=value)
        elif section == "schedule":
            if key not in _SCHEDULE_KEYS:
                raise ScenarioFormatError(f"unknown schedule key {key!r}",
                                          lineno)
            if key == "uploads":
                if schedule.uploads:
                    raise ScenarioFormatError("duplicate key 'uploads'",
                                              lineno)
                uploads = tuple(parse_clock(p, lineno)
                                for p in value.split(","))
                schedule = replace(schedule, uploads=uploads)
            else:
                if schedule.days:
                    raise ScenarioFormatError("duplicate key 'days'", lineno)
                schedule = replace(schedule, days=_ints(value, 1, lineno)[0])
        else:
            if key != "rule":
                raise ScenarioFormatError(f"unknown policy key {key!r}",
                                          lineno)
            m = _RULE_RE.match(value)
            if not m:
                raise ScenarioFormatError(
                    f"bad rule {value!r}, expected "
                    "'<name>: on <labels> set <field>'", lineno)
            labels = tuple(p.strip() for p in m.group(2).split(","))
            rules.append(RuleConfig(m.group(1), labels, m.group(3),
                                    line=lineno))

    return ScenarioConfig(tuple(entities), schedule, tuple(rules))


def format_scenario(config: ScenarioConfig) -> str:
    """Canonical text; parse(format(config)) == config."""
    lines: List[str] = []
    for ent in config.entities:
        lines.append(f"[entity {ent.entity}]")
        if ent.sentence is not None:
            t1, t2, s, eps, delta = ent.sentence
            lines.append(f"sentence = {t1},{t2},{s},{eps},{delta}")
        if ent.curfew is not None:
            lines.append(f"curfew = {format_clock(ent.curfew[0])},"
                         f"{format_clock(ent.curfew[1])}")
        if ent.nights is not None:
            lines.append(f"nights = {ent.nights}")
        if ent.status is not None:
            lines.append(f"status = {ent.status}")
        if ent.trace is not None:
            lines.append(f"trace = {ent.trace}")
        lines.append("")
    if config.schedule is not None:
        lines.append("[schedule]")
        lines.append("uploads = " + ",".join(
            format_clock(u) for u in config.schedule.uploads))
        lines.append(f"days = {config.schedule.days}")
        lines.append("")
    if config.rules:
        lines.append("[policy]")
        for rule in config.rules:
            lines.append(f"rule = {rule.name}: on {','.join(rule.labels)} "
                         f"set {rule.field_name}")
        lines.append("")
    return "\n".join(lines)


@dataclass(frozen=True)
class Diagnostic:
    line: int
    message: str

    def render(self, path: str) -> str:
        return f"{path}:{self.line}: {self.message}"


class InvalidScenario(ScenarioFormatError):
    """A parsed scenario that fails validation; carries every diagnostic."""

    def __init__(self, diagnostics: List[Diagnostic]):
        super().__init__("; ".join(f"line {d.line}: {d.message}"
                                   for d in diagnostics))
        self.diagnostics = diagnostics


def _check_and_build(config: ScenarioConfig, base_dir
                     ) -> Tuple[List[Diagnostic], List[ScenarioRun]]:
    """The one pass over a config: diagnostics, and each sound entity's run.

    Each trace is loaded and each entity's run built exactly once; the runs
    are only complete when there are no diagnostics.
    """
    base = Path(base_dir)
    diagnostics: List[Diagnostic] = []
    runs: List[ScenarioRun] = []

    if not config.entities:
        diagnostics.append(Diagnostic(0, "no entities declared"))

    last_upload = schedule_diagnostic = None
    if config.schedule is not None:
        try:
            last_upload = ReportSchedule(
                config.schedule.uploads,
                config.schedule.days).upload_ticks()[-1]
        except MonitorError as exc:
            schedule_diagnostic = Diagnostic(config.schedule.line, str(exc))

    judgement_sets: List[JudgementSet] = []
    for ent in config.entities:
        if (ent.sentence is None) == (ent.curfew is None):
            diagnostics.append(Diagnostic(
                ent.line,
                f"entity {ent.entity}: needs exactly one of sentence/curfew"))
            continue
        judgements = (ALCOHOL_JUDGEMENTS if ent.sentence is not None
                      else CURFEW_JUDGEMENTS)
        judgement_sets.append(judgements)
        if ent.status is not None and ent.status not in judgements:
            diagnostics.append(Diagnostic(
                ent.line, f"entity {ent.entity}: status {ent.status!r} not "
                          f"in {judgements.labels}"))
            # build with the kind's default status so that the entity's
            # other faults are still found, and this one reported once
            ent = replace(ent, status=None)
        if ent.curfew is not None and ent.nights is None:
            diagnostics.append(Diagnostic(
                ent.line, f"entity {ent.entity}: curfew needs nights"))
            continue
        if ent.sentence is not None and config.schedule is None:
            try:
                Sentence(*ent.sentence)
            except MonitorError as exc:
                diagnostics.append(Diagnostic(
                    ent.line, f"entity {ent.entity}: {exc}"))
                continue
        if (ent.sentence is not None and last_upload is not None
                and ent.sentence[:2] != (0, last_upload)):
            t1, t2 = ent.sentence[:2]
            diagnostics.append(Diagnostic(
                ent.line, f"entity {ent.entity}: under [schedule] the "
                          f"sentence must span 0,{last_upload} (t=0 to the "
                          f"last upload), got {t1},{t2}"))
            continue
        if ent.trace is None:
            diagnostics.append(Diagnostic(
                ent.line, f"entity {ent.entity}: missing trace"))
            continue
        trace_path = base / ent.trace
        if not trace_path.is_file():
            diagnostics.append(Diagnostic(
                ent.line, f"entity {ent.entity}: trace file not found: "
                          f"{ent.trace}"))
            continue
        try:
            _, kind, stream = load_trace(trace_path)
        except MonitorError as exc:
            diagnostics.append(Diagnostic(
                ent.line, f"entity {ent.entity}: {exc}"))
            continue
        expected_kind = "decimal" if ent.sentence is not None else "boolean"
        if kind != expected_kind:
            diagnostics.append(Diagnostic(
                ent.line, f"entity {ent.entity}: trace kind {kind!r}, "
                          f"expected {expected_kind!r}"))
            continue
        try:
            run = _entity_run(ent, config.schedule, stream)
        except MonitorError as exc:
            diagnostics.append(Diagnostic(
                ent.line, f"entity {ent.entity}: {exc}"))
            continue
        runs.append(run)

    if schedule_diagnostic is not None:
        diagnostics.append(schedule_diagnostic)
    if config.schedule is not None:
        for ent in config.entities:
            if ent.curfew is not None:
                diagnostics.append(Diagnostic(
                    ent.line, f"entity {ent.entity}: [schedule] applies to "
                              "sentence entities only"))

    labels = judgement_union(judgement_sets) if judgement_sets else ()
    for rule in config.rules:
        unknown = [lb for lb in rule.labels if lb not in labels]
        if unknown:
            diagnostics.append(Diagnostic(
                rule.line, f"rule {rule.name}: labels {unknown} match no "
                           "entity's judgements"))
        if rule.field_name != "status":
            diagnostics.append(Diagnostic(
                rule.line, f"rule {rule.name}: no settable field "
                           f"{rule.field_name!r} in the entity schemas"))

    return diagnostics, runs


def validate_scenario(config: ScenarioConfig, base_dir) -> List[Diagnostic]:
    """Semantic diagnostics of a parsed scenario.

    Checks each entity's kind, status, sentence or curfew terms and trace
    (present, readable, of the right kind and covering every cycle), the
    [schedule] section, and that each [policy] rule names known labels and a
    settable field.  The predicate families are fixed code whose partition
    property is tested, not probed here.
    """
    return _check_and_build(config, base_dir)[0]


def _entity_run(ent: EntityConfig, schedule: Optional[ScheduleConfig],
                stream: Stream) -> ScenarioRun:
    if ent.sentence is not None:
        t1, t2, s, eps, delta = ent.sentence
        if schedule is not None:
            return build_extended_scenario(
                ReportSchedule(schedule.uploads, schedule.days), s, eps,
                delta, stream, ent.entity, ent.status or "green")
        return build_alcohol_scenario(Sentence(t1, t2, s, eps, delta),
                                      ent.status or "green", stream,
                                      ent.entity)
    order = CurfewOrder(stream, ent.nights, ent.curfew[0], ent.curfew[1])
    return build_curfew_scenario(order, ent.entity, ent.status or "compliant")


def build_scenario(config: ScenarioConfig, base_dir) -> ScenarioRun:
    """Validate a config and wire it into a runnable engine in one pass.

    Raises InvalidScenario with every diagnostic ``validate_scenario`` would
    return.  The [policy] section replaces the builders' default rules;
    triggers are made total over the union of the entities' judgement sets.
    """
    diagnostics, runs = _check_and_build(config, base_dir)
    if diagnostics:
        raise InvalidScenario(diagnostics)
    merged = merge_runs(runs)
    union = judgement_union(f.judgements for f in merged.families.values())
    merged.policy = Policy(tuple(
        Intervention(name=rule.name,
                     trigger=Trigger(union, frozenset(rule.labels)),
                     action=Action.set_from_judgement(rule.field_name))
        for rule in config.rules))
    return merged


def load_scenario(path):
    """Parse a scenario file; returns (config, base_dir for trace paths)."""
    p = Path(path)
    return parse_scenario(read_ascii(p, ScenarioFormatError)), p.parent
