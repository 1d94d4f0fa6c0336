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

Unknown section names and keys, and a second [schedule] or [policy] section,
are rejected at parse time.  Clock times use HH:MM and become minute ticks.
An entity carries either a sentence (alcohol monitoring) or a curfew order;
when a [schedule] section is present, sentence entities are evaluated per
upload instead of once over [t1, t2].

Under a [schedule] a sentence's t1,t2 must be 0 and the tick of the last
upload, (days-1)*1440 + the last upload time.

``parse_scenario``/``format_scenario`` round-trip structurally.  Checking
and building are one pass that loads each trace and builds each entity's run
once: ``validate_scenario`` returns that pass's diagnostics instead of
raising, so a command line can report them all, and ``build_scenario`` wires
a runnable engine from the same pass or raises ``InvalidScenario`` carrying
every diagnostic.  One function checks and builds an entity: it works out
the entity's kind once, and each fault it finds becomes one
``entity X: ...`` diagnostic on the entity's line.

Validation checks the scenario, not the engine: the predicate families are
fixed code, so their partition property (exactly one judgement holds) is
property-tested and enforced by ``observe_family`` on every observation, not
probed per entity here.  A non-ASCII byte in a scenario or trace file is a
format error on its line; a fault in an entity's trace, or a trace that
cannot be read, is a diagnostic on the entity's line that names the trace.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ._frozen import Frozen, replace
from .errors import MonitorError, ScenarioFormatError, TraceFormatError
from .monitoring import JudgementSet
# Re-exported, not called here: perfbench/tracer.py wraps it under this
# module's name.
from .monitoring import observe_family  # noqa: F401
from .scenarios import (
    ALCOHOL_JUDGEMENTS,
    COMPLIANT,
    CURFEW_JUDGEMENTS,
    GREEN,
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
from .streams import load_trace, read_ascii
from .values import BOOLEAN, DECIMAL, Dec4

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


class EntityConfig(Frozen, uncompared=("line",)):
    entity: str
    sentence: Optional[Tuple[int, int, int, Dec4, Dec4]] = None
    curfew: Optional[Tuple[int, int]] = None
    nights: Optional[int] = None
    status: Optional[str] = None
    trace: Optional[str] = None
    line: int = 0


class ScheduleConfig(Frozen, uncompared=("line",)):
    uploads: Tuple[int, ...]
    days: int
    line: int = 0


class RuleConfig(Frozen, uncompared=("line",)):
    name: str
    labels: Tuple[str, ...]
    field_name: str
    line: int = 0


class ScenarioConfig(Frozen):
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
    schedule_keys = set()
    rules: List[RuleConfig] = []
    has_policy = False
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
                if has_policy:
                    raise ScenarioFormatError("duplicate [policy] section",
                                              lineno)
                has_policy = True
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
            if key in schedule_keys:
                raise ScenarioFormatError(f"duplicate key {key!r}", lineno)
            schedule_keys.add(key)
            if key == "uploads":
                uploads = tuple(parse_clock(p, lineno)
                                for p in value.split(","))
                schedule = replace(schedule, uploads=uploads)
            else:
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
        if config.schedule.uploads:
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


class Diagnostic(Frozen):
    """A fault on a 1-based line of a scenario; line 0 means the whole file."""

    line: int
    message: str

    def render(self, path: str) -> str:
        if self.line == 0:
            return f"{path}: {self.message}"
        return f"{path}:{self.line}: {self.message}"


class InvalidScenario(ScenarioFormatError):
    """A parsed scenario that fails validation; carries every diagnostic."""

    def __init__(self, diagnostics: List[Diagnostic]):
        super().__init__("; ".join(
            f"line {d.line}: {d.message}" if d.line else d.message
            for d in diagnostics))
        self.diagnostics = diagnostics


def _entity_run(ent: EntityConfig, base: Path,
                schedule: Union[None, ReportSchedule, MonitorError],
                judgement_sets: List[JudgementSet],
                faults: List[str]) -> Optional[ScenarioRun]:
    """An entity's run, or a MonitorError at the first fault that stops it.

    ``schedule`` is the scenario's [schedule], or the fault that built none,
    or None without the section.  The entity's kind adds its judgement set to
    ``judgement_sets``.  The faults that do not stop the build, a status
    outside the kind's judgements and nights on a sentence entity, go to
    ``faults``, and the entity is built with its kind's default status.
    A curfew entity under a [schedule] gets every check that needs no trace
    and then None: the scenario's "[schedule] applies to sentence entities
    only" diagnostic rejects it, so its trace is not read.
    """
    if (ent.sentence is None) == (ent.curfew is None):
        raise ScenarioFormatError("needs exactly one of sentence/curfew")
    alcohol = ent.sentence is not None
    judgements, status, trace_kind = (
        (ALCOHOL_JUDGEMENTS, GREEN, DECIMAL) if alcohol
        else (CURFEW_JUDGEMENTS, COMPLIANT, BOOLEAN))
    judgement_sets.append(judgements)
    if ent.status in judgements:
        status = ent.status
    elif ent.status is not None:
        faults.append(f"status {ent.status!r} not in {judgements.labels}")
    if alcohol:
        if ent.nights is not None:
            faults.append("nights applies to curfew entities only")
        if schedule is None:
            sentence = Sentence(*ent.sentence)
        elif (not isinstance(schedule, MonitorError)
              and ent.sentence[:2] != (0, schedule.last_upload)):
            t1, t2 = ent.sentence[:2]
            raise ScenarioFormatError(
                f"under [schedule] the sentence must span "
                f"0,{schedule.last_upload} (t=0 to the last upload), "
                f"got {t1},{t2}")
    elif ent.nights is None:
        raise ScenarioFormatError("curfew needs nights")
    if ent.trace is None:
        raise ScenarioFormatError("missing trace")
    if not alcohol and schedule is not None:
        return None
    trace_path = base / ent.trace
    try:
        if not trace_path.is_file():
            raise ScenarioFormatError(f"trace file not found: {ent.trace}")
        _, kind, stream = load_trace(trace_path)
    except OSError as exc:
        raise ScenarioFormatError(
            f"cannot read trace {ent.trace}: "
            f"{exc.strerror or 'unreadable'}") from None
    except TraceFormatError as exc:
        raise ScenarioFormatError(
            f"{ent.trace}:{exc.line}: {exc.message}") from None
    if kind != trace_kind:
        raise ScenarioFormatError(
            f"trace kind {kind!r}, expected {trace_kind!r}")
    if not alcohol:
        order = CurfewOrder(stream, ent.nights, ent.curfew[0], ent.curfew[1])
        return build_curfew_scenario(order, ent.entity, status)
    if schedule is None:
        return build_alcohol_scenario(sentence, status, stream, ent.entity)
    if isinstance(schedule, MonitorError):
        # the schedule's fault is also each sentence entity's
        raise ScenarioFormatError(str(schedule))
    _, _, s, eps, delta = ent.sentence
    return build_extended_scenario(schedule, s, eps, delta, stream,
                                   ent.entity, status)


def _check_and_build(config: ScenarioConfig, base_dir
                     ) -> Tuple[List[Diagnostic], List[ScenarioRun],
                                JudgementSet]:
    """The one pass over a config: diagnostics, each sound entity's run and
    the union of the entities' judgement sets that the rules are checked
    against.

    Each trace is loaded and each entity's run built at most once, by
    ``_entity_run``; every fault it reports becomes one ``entity X: ...``
    diagnostic on the entity's line, the faults that do not stop the build
    first.  The runs and the union are only complete when there are no
    diagnostics.
    """
    base = Path(base_dir)
    diagnostics: List[Diagnostic] = []
    runs: List[ScenarioRun] = []

    if not config.entities:
        diagnostics.append(Diagnostic(0, "no entities declared"))

    schedule = None
    if config.schedule is not None:
        try:
            schedule = ReportSchedule(config.schedule.uploads,
                                      config.schedule.days)
        except MonitorError as exc:
            schedule = exc

    judgement_sets: List[JudgementSet] = []
    for ent in config.entities:
        faults: List[str] = []
        try:
            run = _entity_run(ent, base, schedule, judgement_sets, faults)
        except MonitorError as exc:
            faults.append(str(exc))
        else:
            if run is not None:
                runs.append(run)
        diagnostics.extend(
            Diagnostic(ent.line, f"entity {ent.entity}: {fault}")
            for fault in faults)

    if isinstance(schedule, MonitorError):
        diagnostics.append(Diagnostic(config.schedule.line, str(schedule)))
    if config.schedule is not None:
        for ent in config.entities:
            if ent.curfew is not None:
                diagnostics.append(Diagnostic(
                    ent.line, f"entity {ent.entity}: [schedule] applies to "
                              "sentence entities only"))

    labels = judgement_union(judgement_sets) if judgement_sets else ()
    names = set()
    for rule in config.rules:
        if rule.name in names:
            diagnostics.append(Diagnostic(
                rule.line, f"rule {rule.name}: duplicate rule name"))
        names.add(rule.name)
        unknown = [lb for lb in rule.labels if lb not in labels]
        if unknown:
            diagnostics.append(Diagnostic(
                rule.line, f"rule {rule.name}: labels {unknown} match no "
                           "entity's judgements"))
        if rule.field_name != "status":
            diagnostics.append(Diagnostic(
                rule.line, f"rule {rule.name}: no settable field "
                           f"{rule.field_name!r} in the entity schemas"))

    return diagnostics, runs, labels


def validate_scenario(config: ScenarioConfig, base_dir) -> List[Diagnostic]:
    """Semantic diagnostics of a parsed scenario.

    Checks each entity's kind, status, sentence or curfew terms and trace
    (present, readable, of the right kind and covering every cycle), the
    [schedule] section, and that each [policy] rule has a name no earlier
    rule has and names known labels and a settable field.  The predicate
    families are fixed code whose partition property is tested, not probed
    here.
    """
    return _check_and_build(config, base_dir)[0]


def build_scenario(config: ScenarioConfig, base_dir) -> ScenarioRun:
    """Validate a config and wire it into a runnable engine in one pass.

    Raises InvalidScenario with every diagnostic ``validate_scenario`` would
    return.  The [policy] section is the run's whole policy: its rules apply
    in file order, each trigger is total over the union of the entities'
    judgement sets, and without the section no rule fires.
    """
    diagnostics, runs, labels = _check_and_build(config, base_dir)
    if diagnostics:
        raise InvalidScenario(diagnostics)
    return merge_runs(runs, Policy(tuple(
        Intervention(name=rule.name,
                     trigger=Trigger(labels, frozenset(rule.labels)),
                     action=Action.set_from_judgement(rule.field_name))
        for rule in config.rules)))


def load_scenario(path):
    """Parse a scenario file; returns (config, base_dir for trace paths)."""
    p = Path(path)
    return parse_scenario(read_ascii(p, ScenarioFormatError)), p.parent
