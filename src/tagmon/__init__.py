"""tagmon: stream-based compliance monitoring with intervention rules.

Entities with characteristics produce discrete-time data streams; attributes
written as bounded first-order formulas are observed over those streams to
yield judgements; records of the judgements drive trigger->action rules that
update characteristics and notify the outside world.  Ships with executable
remote-alcohol-monitoring and home-detention-curfew scenarios.
"""

from .errors import MonitorError
from .formulas import (
    AttributeSpec,
    Environment,
    eval_formula,
    eval_term,
)
from .interventions import (
    Action,
    Intervention,
    Notification,
    Policy,
    Trigger,
    apply_policy,
    run_cycle,
)
from .monitoring import (
    Characteristics,
    JudgementSet,
    PredicateFamily,
    Record,
    instantiate,
    monitor,
    observe_family,
    observe_uniform,
)
from .parser import parse_formula, print_formula
from .scenarios import (
    CurfewOrder,
    ReportSchedule,
    ScenarioRun,
    Sentence,
    build_alcohol_scenario,
    build_curfew_scenario,
    build_extended_scenario,
    compliance_judgement,
    sample_count,
    sampled_max,
)
from .streams import (
    OPERATIONS,
    RELATIONS,
    Stream,
    Window,
    exists_before,
    forall_before,
    insert,
    lift_const,
    lift_op,
    lift_test,
    load_trace,
    merge,
    parse_trace,
    save_trace,
    shift,
)
from .values import BOTTOM, Dec4

__version__ = "0.1.0"
