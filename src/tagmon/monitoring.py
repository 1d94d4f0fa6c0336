"""Monitoring stack: observe attributes over behaviour streams, emit records.

An entity's characteristics parameterise both its behaviour stream and the
attributes observed over it.  Observation of a predicate family evaluates one
formula per judgement label, its parameters bound as variables, and demands
that exactly one label holds; anything else means the family was
mis-specified and is reported loudly instead of being masked by evaluation
order.  A family may name one label for undefined data: it holds when some
formula touched a missed reading, which is how a missing-data judgement is
expressed without a three-valued logic.

Everything here is pure: monitoring never mutates characteristics or streams,
so records are audit-stable snapshots.  The only mutation in the whole engine
happens downstream, in the intervention layer.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from ._frozen import Frozen
from .errors import (
    AmbiguousJudgement,
    BottomEncountered,
    KindMismatch,
    MissingParameter,
    NoJudgement,
    UnknownField,
)
from .formulas import AttributeSpec, Environment, eval_formula
from .streams import Stream
from .values import BOTTOM, CarrierValue, format_value, is_carrier


class JudgementSet(Frozen):
    """Finite, ordered set of judgement labels."""

    labels: Tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise KindMismatch("judgement set must be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise KindMismatch(f"duplicate judgement labels: {self.labels}")

    def __contains__(self, label):
        return label in self.labels

    def __iter__(self):
        return iter(self.labels)


class Characteristics(Frozen):
    """Immutable ordered record of named fields, as ``(name, value)`` pairs.

    A field holds either a carrier value or a nested Characteristics
    sub-record (a sentence inside an offender's characteristics, say).  The
    schema is fixed at construction: updates may replace values but never add
    or remove fields.
    """

    pairs: Tuple[Tuple[str, object], ...]

    def __post_init__(self):
        pairs = self.pairs
        if type(pairs) is not tuple:
            pairs = self.__dict__["pairs"] = tuple(pairs)
        seen = set()
        for name, value in pairs:
            if name in seen:
                raise KindMismatch(f"duplicate field {name!r}")
            seen.add(name)
            if not isinstance(value, Characteristics) and not is_carrier(value):
                raise KindMismatch(f"field {name!r} holds {value!r}")

    @classmethod
    def of(cls, **fields) -> "Characteristics":
        return cls(tuple(fields.items()))

    @property
    def field_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.pairs)

    def get(self, name: str):
        for n, v in self.pairs:
            if n == name:
                return v
        raise UnknownField(f"no characteristics field {name!r}")

    def with_field(self, name: str, value) -> "Characteristics":
        """Copy with one existing top-level field replaced."""
        if name not in self.field_names:
            raise UnknownField(f"no characteristics field {name!r}")
        return Characteristics(tuple(
            (n, value if n == name else v) for n, v in self.pairs))

    def flatten(self) -> dict:
        """Leaf fields by name, descending into sub-records.

        Leaf names must be unique across the whole record; attribute
        templates bind their parameters as variables from these fields.
        """
        out = {}

        def walk(rec):
            for n, v in rec.pairs:
                if isinstance(v, Characteristics):
                    walk(v)
                else:
                    if n in out:
                        raise KindMismatch(
                            f"flattened field name {n!r} is ambiguous")
                    out[n] = v

        walk(self)
        return out

    def fingerprint(self) -> str:
        """Canonical one-line text; also the records-file serialization."""
        return ";".join(f"{n}={format_field(v)}" for n, v in self.pairs)


def format_field(value) -> str:
    """Text of one field's value, in records and notifications alike: a
    sub-record's fields in parentheses, separated by commas."""
    if isinstance(value, Characteristics):
        return f"({value.fingerprint().replace(';', ',')})"
    return format_value(value)


class PredicateFamily(Frozen):
    """The attributes that yield one judgement, one per spec's label.

    An observation binds each of ``params`` to its checked value, from the
    flattened characteristics and the cycle parameters, and ``stream_name``
    to the behaviour stream, once for every spec's template, in one
    namespace.  ``undefined``, if set, is the label that holds when
    evaluating a template raises BottomEncountered.  The judgements are the
    spec labels, in order, then ``undefined``.
    """

    name: str
    params: Tuple[str, ...]
    stream_name: str
    specs: Tuple[AttributeSpec, ...]
    undefined: Optional[str] = None

    def __post_init__(self):
        if self.stream_name in self.params:
            raise KindMismatch(
                f"family {self.name}: parameter {self.stream_name!r} is also "
                "the stream's name")
        labels = tuple(s.label for s in self.specs)
        if self.undefined is not None:
            labels += (self.undefined,)
        try:
            self.__dict__["_judgements"] = JudgementSet(labels)
        except KindMismatch as exc:
            raise KindMismatch(f"family {self.name}: {exc}") from None

    @property
    def judgements(self) -> JudgementSet:
        return self._judgements


def instantiate(family: PredicateFamily,
                bindings: Mapping[str, CarrierValue]) -> dict:
    """The family's parameter bindings, in a new dict: each parameter it
    declares, with its value from ``bindings`` checked."""
    missing = [p for p in family.params if p not in bindings]
    if missing:
        raise MissingParameter(f"{family.name}: unbound parameters {missing}")
    chosen = {p: bindings[p] for p in family.params}
    for p, v in chosen.items():
        if v is BOTTOM or not is_carrier(v):
            raise KindMismatch(
                f"{family.name}: parameter {p}={v!r} is not a carrier value")
    return chosen


class Record(Frozen):
    """Monitoring output: who, under what characteristics, judged what."""

    entity: str
    characteristics: Characteristics
    attribute: str
    judgement: str
    evaluated_at: int


def observe_family(family: PredicateFamily, entity: str,
                   chi: Characteristics, a: Stream,
                   extra_params: Optional[Mapping] = None) -> str:
    """Judgement label that holds; every predicate is checked.

    Every template is evaluated, even after a hit or a BOTTOM, so that
    coverage and disjointness violations surface as
    NoJudgement/AmbiguousJudgement instead of being hidden by declaration
    order.  A template that touches a missed reading does not hold; if any
    did, the family's ``undefined`` label holds.  The templates share one
    environment: the family is bound once, and a leaf query that several
    of them make is asked of the stream once, through its memo.
    """
    params = chi.flatten()
    params.update(extra_params or {})
    env = Environment({**instantiate(family, params), family.stream_name: a})
    holders = []
    bottom = False
    for spec in family.specs:
        try:
            if eval_formula(spec.template, env):
                holders.append(spec.label)
        except BottomEncountered:
            bottom = True
    if bottom and family.undefined is not None:
        holders.append(family.undefined)
    if not holders:
        raise NoJudgement(
            f"family {family.name}: no predicate holds for {entity!r}")
    if len(holders) > 1:
        raise AmbiguousJudgement(
            f"family {family.name}: predicates overlap on {holders} "
            f"for {entity!r}")
    return holders[0]


def monitor(entity: str, chi: Characteristics, family: PredicateFamily,
            a: Stream, now: int,
            extra_params: Optional[Mapping] = None) -> Record:
    """Observe one entity over its behaviour stream and produce its record.

    The characteristics parameterise the family's attributes and are copied
    into the record as they stand; inputs are left untouched.
    """
    judgement = observe_family(family, entity, chi, a, extra_params)
    return Record(entity=entity, characteristics=chi, attribute=family.name,
                  judgement=judgement, evaluated_at=now)


def format_record(rec: Record) -> str:
    """Records-file line: evaluated_at|entity|attribute|judgement|chi."""
    return (f"{rec.evaluated_at}|{rec.entity}|{rec.attribute}"
            f"|{rec.judgement}|{rec.characteristics.fingerprint()}")
