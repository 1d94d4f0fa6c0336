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

Parsing rejects an unknown section header and a break of three rules: a
header may repeat only as an entity with a new name, a key may appear once
per section except ``rule``, and a key not in its section's table is an
``unknown <section> key``.  ``#`` starts a comment anywhere on a line, so
a value cannot hold ``#``.  Clock times use HH:MM and become minute ticks.
An entity carries either a sentence (alcohol monitoring) or a curfew order;
when a [schedule] section is present, sentence entities are evaluated per
upload instead of once over [t1, t2].

Under a [schedule] a sentence's t1,t2 must be 0 and the tick of the last
upload, (days-1)*1440 + the last upload time.

``parse_scenario`` and ``format_scenario`` read one table of sections and
keys, and round-trip structurally.  One pass checks and builds each section
in one place: it loads each trace and builds each entity's row once, and
makes each rule its intervention as it checks it.  Each fault is one
``ScenarioFormatError`` on its line, and the faults come in file order:
``validate_scenario`` returns them instead of raising, so a command line
can ``render`` them all, and ``build_scenario`` wires a runnable engine from
the same pass or raises ``InvalidScenario`` carrying every fault.

Validation checks the scenario, not the engine: the predicate families are
fixed code, so their partition property (exactly one judgement holds) is
property-tested and enforced by ``observe_family`` on every observation, not
probed per entity here.  A non-ASCII byte in a scenario or trace file is a
format error on its line; a fault in an entity's trace, or a trace that
cannot be read, is a fault on the entity's line that names the trace's place.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ._frozen import Frozen
from .errors import MonitorError, ScenarioFormatError, TraceFormatError
from .monitoring import JudgementSet
# Re-exported, not called here: perfbench/tracer.py wraps it under this
# module's name.
from .monitoring import observe_family  # noqa: F401
from .scenarios import (
    COMPLIANT,
    GREEN,
    CurfewOrder,
    EntityRun,
    ReportSchedule,
    ScenarioRun,
    Sentence,
    alcohol_family,
    build_alcohol_scenario,
    build_curfew_scenario,
    build_extended_scenario,
    curfew_family,
    judgement_union,
    merge_runs,
    require_scheduled_terms,
)
from .interventions import Action, Intervention, Policy, Trigger
from .streams import check_ascii, load_trace, read_file
from .values import (
    BOOLEAN,
    DECIMAL,
    LABEL_PATTERN,
    Dec4,
    parse_int,
    past_digit_limit,
)

_SECTION_RE = re.compile(
    rf"\[(entity\s+({LABEL_PATTERN})|schedule|policy)\]\Z")
_LABEL_LIST = rf"{LABEL_PATTERN}(?:\s*,\s*{LABEL_PATTERN})*"
_RULE_RE = re.compile(rf"({LABEL_PATTERN})\s*:\s*on\s+({_LABEL_LIST})"
                      rf"\s+set\s+({LABEL_PATTERN})\Z")
_CLOCK_RE = re.compile(r"([01]?[0-9]|2[0-3]):([0-5][0-9])\Z")


def parse_clock(text: str, line: int = 0) -> int:
    """HH:MM -> minute tick within a day."""
    m = _CLOCK_RE.match(text)
    if not m:
        raise ScenarioFormatError(f"bad clock time {text!r}", line)
    return int(m.group(1)) * 60 + int(m.group(2))


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
    """A parsed scenario, under three rules: a header repeats only as an
    entity with a new name, a key appears once per section except ``rule``,
    and any other key is an ``unknown <section> key``.  Configs hold values
    unvalidated, with their lines, so that validation can report a value
    that ``Sentence`` or ``ReportSchedule`` refuses on its line."""

    entities: Tuple[EntityConfig, ...] = ()
    schedule: Optional[ScheduleConfig] = None
    rules: Tuple[RuleConfig, ...] = ()


def _read_sentence(text: str, line: int) -> Tuple[int, int, int, Dec4, Dec4]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise ScenarioFormatError("sentence needs t1,t2,s,epsilon,delta", line)
    try:
        return (parse_int(parts[0]), parse_int(parts[1]), parse_int(parts[2]),
                Dec4.parse(parts[3]), Dec4.parse(parts[4]))
    except (ValueError, MonitorError):
        raise ScenarioFormatError(f"bad sentence {text!r}", line) from None


def _read_curfew(text: str, line: int) -> Tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ScenarioFormatError("curfew needs start,end clock times", line)
    return tuple(parse_clock(p.strip(), line) for p in parts)


def _read_int(text: str, line: int) -> int:
    if "," in text:
        raise ScenarioFormatError("expected 1 comma-separated values, got "
                                  f"{text.count(',') + 1}", line)
    try:
        return parse_int(text)
    except ValueError:
        raise ScenarioFormatError(f"non-integer in {text!r}", line) from None


def _read_trace(text: str, line: int) -> str:
    if not text:
        raise ScenarioFormatError("empty trace path", line)
    return text


def _read_rule(text: str, line: int) -> RuleConfig:
    m = _RULE_RE.match(text)
    if not m:
        raise ScenarioFormatError(
            f"bad rule {text!r}, expected '<name>: on <labels> set <field>'",
            line)
    labels = tuple(p.strip() for p in m.group(2).split(","))
    return RuleConfig(m.group(1), labels, m.group(3), line=line)


# section -> key, in writing order -> (reader (text, line), writer (value))
_SECTIONS = {
    "entity": {
        "sentence": (_read_sentence, lambda s: ",".join(map(str, s))),
        "curfew": (_read_curfew, lambda c: ",".join(map(format_clock, c))),
        "nights": (_read_int, str),
        "status": (lambda text, line: text, str),
        "trace": (_read_trace, str),
    },
    "schedule": {
        "uploads": (lambda text, line: tuple(parse_clock(p.strip(), line)
                                             for p in text.split(",")),
                    lambda u: ",".join(map(format_clock, u))),
        "days": (_read_int, str),
    },
    "policy": {
        "rule": (_read_rule, lambda rule: f"{rule.name}: on "
                 f"{','.join(rule.labels)} set {rule.field_name}"),
    },
}


def parse_scenario(text: str) -> ScenarioConfig:
    sections = {}  # (kind, entity name or None) -> (line, {key: value})
    rules: List[RuleConfig] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = _SECTION_RE.match(line)
            if not m:
                raise ScenarioFormatError(f"bad section header {line!r}",
                                          lineno)
            name = m.group(2)
            kind = "entity" if name else m.group(1)
            if (kind, name) in sections:
                raise ScenarioFormatError(
                    f"duplicate entity {name!r}" if name
                    else f"duplicate [{kind}] section", lineno)
            keys, values = _SECTIONS[kind], {}
            sections[kind, name] = lineno, values
            continue
        key, sep, value = (p.strip() for p in line.partition("="))
        if not sep or not key:
            raise ScenarioFormatError(f"expected 'key = value', got {line!r}",
                                      lineno)
        if not sections:
            raise ScenarioFormatError(
                f"key {key!r} outside any section", lineno)
        if key not in keys:
            raise ScenarioFormatError(f"unknown {kind} key {key!r}", lineno)
        if key in values:
            raise ScenarioFormatError(f"duplicate key {key!r}", lineno)
        value = keys[key][0](value, lineno)
        if key == "rule":  # kept out of values, so that it may repeat
            rules.append(value)
        else:
            values[key] = value

    at, schedule = sections.get(("schedule", None), (0, None))
    return ScenarioConfig(
        tuple(EntityConfig(name, **values, line=at)
              for (kind, name), (at, values) in sections.items()
              if kind == "entity"),
        None if schedule is None else ScheduleConfig(
            schedule.get("uploads", ()), schedule.get("days", 0), line=at),
        tuple(rules))


def format_scenario(config: ScenarioConfig) -> str:
    """Canonical text; parse(format(config)) == config."""
    sections = [(f"entity {ent.entity}", "entity", vars(ent))
                for ent in config.entities]
    if config.schedule is not None:
        sections.append(("schedule", "schedule", vars(config.schedule)))
    if config.rules:
        sections.append(("policy", "policy", {"rule": config.rules}))
    lines: List[str] = []
    for header, kind, values in sections:
        lines.append(f"[{header}]")
        for key, (_, write) in _SECTIONS[kind].items():
            for value in values[key] if key == "rule" else (values[key],):
                if value is not None and value != ():  # None, (): left out
                    lines.append(f"{key} = {write(value)}")
        lines.append("")
    return "\n".join(lines)


class InvalidScenario(ScenarioFormatError):
    """A parsed scenario that fails validation; carries every fault."""

    def __init__(self, faults: List[ScenarioFormatError]):
        super().__init__("; ".join(map(str, faults)))
        self.faults = faults


# (has a sentence, has a curfew) -> predicate family, default status, trace
# kind; the family is stored as its function, so importing parses no formula
_KINDS = {
    (True, False): (alcohol_family, GREEN, DECIMAL),
    (False, True): (curfew_family, COMPLIANT, BOOLEAN),
}


def _entity_row(ent: EntityConfig, kind: Optional[tuple], base: Path,
                schedule: Union[None, ReportSchedule, MonitorError],
                faults: List[str]) -> Optional[EntityRun]:
    """An entity's row, or a MonitorError at the first fault that stops it.

    ``kind`` is the entity's row of ``_KINDS``, or None if it has none.
    ``schedule`` is the scenario's [schedule], or the fault that built none,
    or None without the section.  The faults that do not stop the build, a
    status outside the kind's judgements and nights on a sentence entity, go
    to ``faults``, and the entity is built with its kind's default status.
    A curfew order and a sentence's terms (under a [schedule], its span,
    interval and margin) are checked before the trace is read; under a
    [schedule] a curfew entity then gets None, as the "[schedule] applies to
    sentence entities only" fault rejects it.
    """
    if kind is None:
        raise ScenarioFormatError("needs exactly one of sentence/curfew")
    alcohol = ent.sentence is not None
    family, status, trace_kind = kind
    judgements = family().judgements
    if ent.status in judgements:
        status = ent.status
    elif ent.status is not None:
        faults.append(f"status {ent.status!r} not in {judgements.labels}")
    if alcohol:
        if ent.nights is not None:
            faults.append("nights applies to curfew entities only")
        if schedule is None:
            sentence = Sentence(*ent.sentence)
        else:
            if (not isinstance(schedule, MonitorError)
                    and ent.sentence[:2] != (0, schedule.last_upload)):
                last = schedule.last_upload
                span = ("0 to the last upload, which days puts past int's "
                        "digit limit" if past_digit_limit(last)
                        else f"0,{last} (t=0 to the last upload)")
                raise ScenarioFormatError(
                    f"under [schedule] the sentence must span {span}, "
                    f"got {ent.sentence[0]},{ent.sentence[1]}")
            require_scheduled_terms(*ent.sentence[2:])
    elif ent.nights is None:
        raise ScenarioFormatError("curfew needs nights")
    else:
        order = CurfewOrder(ent.nights, *ent.curfew)
    if ent.trace is None:
        raise ScenarioFormatError("missing trace")
    if not alcohol and schedule is not None:
        return None
    trace_path = base / ent.trace
    try:
        if not trace_path.exists():
            raise ScenarioFormatError(f"trace file not found: {ent.trace}")
        _, loaded, stream = load_trace(trace_path)
    except OSError as exc:
        raise ScenarioFormatError(
            f"cannot read trace {ent.trace}: "
            f"{exc.strerror or 'unreadable'}") from None
    except TraceFormatError as exc:
        raise ScenarioFormatError(exc.render(ent.trace)) from None
    if loaded != trace_kind:
        raise ScenarioFormatError(
            f"trace kind {loaded!r}, expected {trace_kind!r}")
    if not alcohol:
        return build_curfew_scenario(order, stream, ent.entity, status)
    if schedule is None:
        return build_alcohol_scenario(sentence, status, stream, ent.entity)
    if isinstance(schedule, MonitorError):
        # the schedule's fault is also each sentence entity's
        raise ScenarioFormatError(str(schedule))
    return build_extended_scenario(schedule, *ent.sentence[2:], stream,
                                   ent.entity, status)


def _check_and_build(config: ScenarioConfig, base_dir) -> Tuple[
        List[ScenarioFormatError], List[EntityRun], Policy]:
    """The one pass over a config: its faults, stably sorted by line, the
    rows of its sound entities and the policy of its sound rules, the last
    two complete only when there are no faults.

    Each section is checked and built in one place, and each fault of an
    entity or rule is one ``entity X: ...`` or ``rule X: ...`` fault on its
    line.  The rules are checked against the union of the judgement sets
    of the entities' kinds, which the config gives without reading a trace.
    """
    base = Path(base_dir)
    found: List[ScenarioFormatError] = []
    if not config.entities:
        found.append(ScenarioFormatError("no entities declared"))

    schedule = None
    if config.schedule is not None:
        try:
            schedule = ReportSchedule(config.schedule.uploads,
                                      config.schedule.days)
        except MonitorError as exc:
            schedule = exc
            found.append(ScenarioFormatError(str(exc), config.schedule.line))

    rows: List[EntityRun] = []
    judgement_sets: List[JudgementSet] = []
    for ent in config.entities:
        kind = _KINDS.get((ent.sentence is not None, ent.curfew is not None))
        if kind is not None:
            judgement_sets.append(kind[0]().judgements)
        faults: List[str] = []
        try:
            row = _entity_row(ent, kind, base, schedule, faults)
        except MonitorError as exc:
            faults.append(str(exc))
        else:
            if row is not None:
                rows.append(row)
        if schedule is not None and ent.curfew is not None:
            faults.append("[schedule] applies to sentence entities only")
        found += [ScenarioFormatError(f"entity {ent.entity}: {fault}",
                                      ent.line) for fault in faults]

    labels = judgement_union(judgement_sets) if judgement_sets else ()
    interventions: List[Intervention] = []
    names = set()
    for rule in config.rules:
        faults = ["duplicate rule name"] if rule.name in names else []
        names.add(rule.name)
        faults += [f"label {label!r} listed twice" for label in
                   dict.fromkeys(rule.labels) if rule.labels.count(label) > 1]
        unknown = [lb for lb in rule.labels if lb not in labels]
        if unknown:
            faults.append(f"labels {unknown} match no entity's judgements")
        if rule.field_name != "status":
            faults.append(f"no settable field {rule.field_name!r} in the "
                          "entity schemas")
        found += [ScenarioFormatError(f"rule {rule.name}: {fault}",
                                      rule.line) for fault in faults]
        if not faults:
            interventions.append(Intervention(
                rule.name, Trigger(labels, frozenset(rule.labels)),
                Action(rule.field_name)))

    found.sort(key=lambda fault: fault.line)
    return found, rows, Policy(tuple(interventions))


def validate_scenario(config: ScenarioConfig, base_dir
                      ) -> List[ScenarioFormatError]:
    """Semantic faults of a parsed scenario, in file order.

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

    Raises InvalidScenario with every fault ``validate_scenario`` would
    return.  The [policy] section is the run's whole policy: its rules apply
    in file order, each trigger is total over the union of the entities'
    judgement sets, and without the section no rule fires.
    """
    faults, rows, policy = _check_and_build(config, base_dir)
    if faults:
        raise InvalidScenario(faults)
    return merge_runs(rows, policy)


def load_scenario(path):
    """Parse a scenario file; returns (config, base_dir for trace paths)."""
    data = read_file(path)
    check_ascii(data, ScenarioFormatError)
    return parse_scenario(data.decode("ascii")), Path(path).parent
