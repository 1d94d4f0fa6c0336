"""Per-layer tracing of one `tagmon run`, from outside the engine.

The tracer replaces public functions of tagmon's modules with wrappers that
record a span per call: (name, start, end, parent, run id, outcome, note).
Each function is wrapped in the namespace its callers resolve it from, for
example ``tagmon.monitoring.eval_formula`` (the name ``observe_family`` calls)
rather than ``tagmon.formulas.eval_formula``, whose recursive calls stay
untraced.  Spans are kept in memory and written out when the run ends.
``layer_metrics`` turns them into per-layer counts and times; a span's self
time is its duration minus that of its child spans.

Run as a script it executes one traced command line in a fresh process:

    PYTHONPATH=src python perfbench/tracer.py SPANS.json RUN_ID \\
        run SCENARIO --out DIR
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

UNDEFINED_JUDGEMENTS = ("absent", "absent-signal")
FAMILIES = ("bac-band", "curfew-presence")


def _ticks(args, result):
    return result[2].window.length


def _observation(args, result):
    return [args[0].name, result]


def _notifications(args, result):
    return len(result[2])


def _cycle_errors(args, result):
    return len(result.errors)


# (module, attribute in that module, span name, note taken from the call)
HOOKS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("tagmon.cli", "main", "cli.main", None),
    ("tagmon.cli", "load_scenario", "scenario_file.load_scenario", None),
    ("tagmon.cli", "validate_scenario", "scenario_file.validate", None),
    ("tagmon.cli", "execute_scenario", "cli.execute_scenario", None),
    ("tagmon.cli", "build_scenario", "scenario_file.build", None),
    ("tagmon.scenario_file", "load_trace", "streams.load_trace", _ticks),
    ("tagmon.scenario_file", "observe_family", "scenario_file.probe_observe",
     None),
    ("tagmon.scenario_file", "build_alcohol_scenario",
     "scenarios.build_entity", None),
    ("tagmon.scenario_file", "build_extended_scenario",
     "scenarios.build_entity", None),
    ("tagmon.scenario_file", "build_curfew_scenario",
     "scenarios.build_entity", None),
    ("tagmon.scenario_file", "merge_runs", "scenarios.merge_runs", None),
    ("tagmon.scenarios", "parse_formula", "parser.parse_formula", None),
    ("tagmon.scenarios", "ScenarioRun.execute", "scenarios.execute", None),
    ("tagmon.scenarios", "run_cycle", "scenarios.run_cycle", _cycle_errors),
    ("tagmon.interventions", "monitor", "monitoring.monitor", None),
    ("tagmon.interventions", "apply_policy", "interventions.apply_policy",
     _notifications),
    ("tagmon.monitoring", "observe_family", "monitoring.observe_family",
     _observation),
    ("tagmon.monitoring", "instantiate", "formulas.instantiate", None),
    ("tagmon.monitoring", "eval_formula", "formulas.eval_formula", None),
)


class Tracer:
    """Installs the HOOKS wrappers on entry and restores the originals on
    exit; ``spans`` holds one tuple per completed call."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, attribute, name, note in HOOKS:
            owner = importlib.import_module(module)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, note))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def _wrap(self, fn, name: str, note):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, run_id,
                                type(exc).__name__, None)
                raise
            end = clock()
            stack.pop()
            spans[index] = (name, start, end, parent, run_id, "ok",
                            note(args, result) if note else None)
            return result

        return traced


# The phase a span's self time counts towards is that of its nearest
# ancestor-or-self listed here; the phases partition the time of cli.main.
PHASES = {
    "streams.load_trace": "ingest",
    "scenario_file.load_scenario": "entity_setup",
    "scenario_file.validate": "entity_setup",
    "scenario_file.probe_observe": "entity_setup",
    "scenario_file.build": "entity_setup",
    "scenarios.build_entity": "entity_setup",
    "scenarios.merge_runs": "entity_setup",
    "parser.parse_formula": "entity_setup",
    "monitoring.monitor": "observation",
    "interventions.apply_policy": "policy",
    "scenarios.execute": "engine_loop",
    "scenarios.run_cycle": "engine_loop",
    "cli.execute_scenario": "log_writing",
    "cli.main": "other",
}


def layer_metrics(spans) -> Dict[str, float]:
    """Per-layer counts and times (seconds, summed over calls) of one run.

    Names ending in ``_self_s`` are self times; other ``_s`` names are
    inclusive times.  ``phase.*`` split the run into the phases of PHASES.
    """
    calls: Dict[str, int] = defaultdict(int)
    total: Dict[str, int] = defaultdict(int)
    self_ns = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, *_ in spans:
        calls[name] += 1
        total[name] += end - start
        if parent is not None:
            self_ns[parent] -= end - start
    by_name: Dict[str, int] = defaultdict(int)
    phase_ns: Dict[str, int] = defaultdict(int)
    for index, span in enumerate(spans):
        by_name[span[0]] += self_ns[index]
        owner = index
        while owner is not None and spans[owner][0] not in PHASES:
            owner = spans[owner][3]
        if owner is not None:
            phase_ns[PHASES[spans[owner][0]]] += self_ns[index]

    observed: Dict[str, List[int]] = defaultdict(list)
    undefined = bottom = notifications = cycle_errors = ticks = 0
    for name, start, end, _, _, outcome, note in spans:
        if outcome != "ok":
            bottom += (name == "formulas.eval_formula"
                       and outcome == "BottomEncountered")
        elif name == "monitoring.observe_family":
            observed[note[0]].append(end - start)
            undefined += note[1] in UNDEFINED_JUDGEMENTS
        elif name == "interventions.apply_policy":
            notifications += note
        elif name == "scenarios.run_cycle":
            cycle_errors += note
        elif name == "streams.load_trace":
            ticks += note

    def s(ns):
        return ns / 1e9

    metrics = {
        "streams.load_trace_s": s(total["streams.load_trace"]),
        "streams.load_trace_calls": calls["streams.load_trace"],
        "streams.ticks_parsed": ticks,
        "scenario_file.load_scenario_s":
            s(total["scenario_file.load_scenario"]),
        "scenario_file.validate_self_s": s(by_name["scenario_file.validate"]),
        "scenario_file.build_self_s": s(by_name["scenario_file.build"]),
        "scenario_file.probe_observe_s":
            s(total["scenario_file.probe_observe"]),
        "parser.parse_formula_calls": calls["parser.parse_formula"],
        "parser.parse_formula_s": s(total["parser.parse_formula"]),
        "scenarios.build_entity_calls": calls["scenarios.build_entity"],
        "scenarios.build_entity_s": s(total["scenarios.build_entity"]),
        "scenarios.merge_runs_s": s(total["scenarios.merge_runs"]),
        "scenarios.execute_self_s": s(by_name["scenarios.execute"]
                                      + by_name["scenarios.run_cycle"]),
        "scenarios.cycles": calls["scenarios.run_cycle"],
        "formulas.instantiate_s": s(total["formulas.instantiate"]),
        "formulas.eval_formula_calls": calls["formulas.eval_formula"],
        "formulas.eval_formula_s": s(total["formulas.eval_formula"]),
        "formulas.bottom_raised": bottom,
        "monitoring.observe_calls": calls["monitoring.observe_family"],
        "monitoring.monitor_s": s(total["monitoring.monitor"]),
        "monitoring.undefined_judgements": undefined,
        "interventions.apply_policy_s":
            s(total["interventions.apply_policy"]),
        "interventions.notifications": notifications,
        "interventions.cycle_errors": cycle_errors,
        "cli.write_logs_s": s(by_name["cli.execute_scenario"]),
    }
    for family in FAMILIES:
        durations = observed.get(family)
        metrics[f"monitoring.us_per_observation.{family}"] = (
            sum(durations) / len(durations) / 1e3 if durations else 0.0)
    for phase in sorted(set(PHASES.values())):
        metrics[f"phase.{phase}_s"] = s(phase_ns[phase])
    return metrics


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spans_path, run_id, command = argv[0], int(argv[1]), argv[2:]
    import tagmon.cli

    with Tracer(run_id) as tracer:
        status = tagmon.cli.main(command)
    with open(spans_path, "w", encoding="ascii") as fh:
        json.dump(tracer.spans, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
