"""Command-line front end: validate scenarios, run them, generate traces.

    tagmon validate <scenario>
    tagmon run <scenario> --out <dir>
    tagmon gen-trace --kind dry|spike|gap --minutes N --seed S
                     [--spike-at T --spike-value V] [--gap A B] --out <file>

A run executes every monitoring cycle in time order over recorded traces and
writes records.log and notifications.log to the output directory.  Outputs
are deterministic: rerunning the same scenario and traces reproduces the
files byte for byte.

Exit codes: 0 success, 1 validation failure, 2 runtime error.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from .errors import BadParams, MonitorError
from .interventions import format_notification
from .monitoring import format_record
from .scenario_file import (
    InvalidScenario,
    build_scenario,
    load_scenario,
    parse_clock,
    validate_scenario,
)
from .scenarios import RunResult
from .streams import Stream, Window, save_trace
from .values import BOTTOM, Dec4

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

MAX_SEED = 2 ** 64 - 1

DEFAULT_EPSILON = Dec4.parse("0.0200")
DEFAULT_DELTA = Dec4.parse("0.0050")


@dataclass
class RunSummary:
    """Per-entity judgement counts plus the headline numbers of a run."""

    judgement_counts: Dict[str, Dict[str, int]]
    notification_count: int
    first_violation: Optional[int]
    exit_status: int

    @classmethod
    def from_result(cls, result: RunResult, exit_status: int) -> "RunSummary":
        counts: Dict[str, Dict[str, int]] = {}
        for rec in result.records:
            per = counts.setdefault(rec.entity, {})
            per[rec.judgement] = per.get(rec.judgement, 0) + 1
        first = (min(n.evaluated_at for n in result.notifications)
                 if result.notifications else None)
        return cls(counts, len(result.notifications), first, exit_status)

    def render(self) -> str:
        lines = []
        for entity in sorted(self.judgement_counts):
            per = self.judgement_counts[entity]
            total = sum(per.values())
            parts = " ".join(f"{label}={per[label]}"
                             for label in sorted(per))
            lines.append(f"entity {entity}: cycles={total} {parts}")
        lines.append(f"notifications: {self.notification_count}")
        lines.append("first violation: "
                     + ("none" if self.first_violation is None
                        else f"t={self.first_violation}"))
        lines.append(f"exit status: {self.exit_status}")
        return "\n".join(lines)


# -- trace generators ----------------------------------------------------------

def gen_dry(minutes: int, seed: int,
            ceiling: Optional[Dec4] = None) -> Stream:
    """Readings drawn uniformly below epsilon - delta over [0, minutes]."""
    if minutes < 1:
        raise BadParams(f"minutes must be positive, got {minutes}")
    if not 0 <= seed <= MAX_SEED:
        raise BadParams(f"seed must be a 64-bit unsigned integer: {seed}")
    ceiling = ceiling or (DEFAULT_EPSILON - DEFAULT_DELTA)
    if ceiling.raw <= 0:
        raise BadParams(f"ceiling must be positive, got {ceiling}")
    rng = random.Random(seed)
    values = tuple(Dec4(rng.randrange(0, ceiling.raw))
                   for _ in range(minutes + 1))
    return Stream(Window(0, minutes + 1), values)


def gen_spike(minutes: int, seed: int, spike_at: int,
              spike_value: Dec4) -> Stream:
    """Dry trace with one configured exceedance."""
    base = gen_dry(minutes, seed)
    if not 0 <= spike_at <= minutes:
        raise BadParams(f"spike-at {spike_at} outside [0, {minutes}]")
    if spike_value.raw < 0:
        raise BadParams(f"negative spike value {spike_value}")
    values = list(base.values)
    values[spike_at] = spike_value
    return Stream(base.window, tuple(values))


def gen_gap(minutes: int, seed: int, gap_start: int, gap_end: int) -> Stream:
    """Dry trace with missed readings on [gap_start, gap_end] inclusive."""
    base = gen_dry(minutes, seed)
    if not 0 <= gap_start <= gap_end <= minutes:
        raise BadParams(
            f"gap [{gap_start}, {gap_end}] outside [0, {minutes}]")
    values = list(base.values)
    for t in range(gap_start, gap_end + 1):
        values[t] = BOTTOM
    return Stream(base.window, tuple(values))


# -- commands -------------------------------------------------------------------

def _load(path):
    """``load_scenario``, or None after reporting why the file is unusable."""
    try:
        return load_scenario(path)
    except OSError as exc:
        print(f"{path}: {exc.strerror or 'unreadable'}", file=sys.stderr)
    except MonitorError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
    return None


def cmd_validate(args) -> int:
    loaded = _load(args.scenario)
    if loaded is None:
        return EXIT_VALIDATION
    config, base_dir = loaded
    diagnostics = validate_scenario(config, base_dir)
    for diag in diagnostics:
        print(diag.render(str(args.scenario)), file=sys.stderr)
    if not diagnostics:
        print(f"{args.scenario}: ok")
    return EXIT_VALIDATION if diagnostics else EXIT_OK


def execute_scenario(config, base_dir, out_dir) -> "tuple[RunResult, int]":
    """Build a config, execute it and write the two log files.

    An invalid config raises InvalidScenario before anything is written.
    """
    run = build_scenario(config, base_dir)
    result = run.execute()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record_text = "".join(format_record(r) + "\n" for r in result.records)
    note_text = "".join(format_notification(n) + "\n"
                        for n in result.notifications)
    (out / "records.log").write_text(record_text, encoding="ascii")
    (out / "notifications.log").write_text(note_text, encoding="ascii")
    status = EXIT_RUNTIME if result.errors else EXIT_OK
    return result, status


def cmd_run(args) -> int:
    loaded = _load(args.scenario)
    if loaded is None:
        return EXIT_VALIDATION
    config, base_dir = loaded
    try:
        result, status = execute_scenario(config, base_dir, args.out)
    except InvalidScenario as exc:
        for diag in exc.diagnostics:
            print(diag.render(str(args.scenario)), file=sys.stderr)
        return EXIT_VALIDATION
    except MonitorError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for entity, exc in result.errors:
        print(f"cycle error for {entity}: {exc}", file=sys.stderr)
    print(RunSummary.from_result(result, status).render())
    return status


def tick(text: str) -> int:
    """Minute tick, given either as an integer or as an HH:MM clock time."""
    if ":" in text:
        return parse_clock(text)
    return int(text, 10)


def cmd_gen_trace(args) -> int:
    try:
        if args.kind == "dry":
            stream = gen_dry(args.minutes, args.seed)
        elif args.kind == "spike":
            if args.spike_at is None or args.spike_value is None:
                raise BadParams("spike needs --spike-at and --spike-value")
            stream = gen_spike(args.minutes, args.seed, args.spike_at,
                               Dec4.parse(args.spike_value))
        else:
            if args.gap is None:
                raise BadParams("gap needs --gap A B")
            stream = gen_gap(args.minutes, args.seed, args.gap[0],
                             args.gap[1])
        save_trace(args.out, stream, "b", "decimal")
    except MonitorError as exc:
        print(f"gen-trace failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"wrote {args.out} ({stream.window.length} readings)")
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tagmon",
        description="Stream-based compliance monitoring engine")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("scenario", type=Path)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="execute a scenario and write logs")
    p.add_argument("scenario", type=Path)
    p.add_argument("--out", type=Path, required=True,
                   help="output directory for records.log/notifications.log")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("gen-trace", help="generate a synthetic BAC trace")
    p.add_argument("--kind", choices=("dry", "spike", "gap"), required=True)
    p.add_argument("--minutes", type=int, required=True,
                   help="trace covers ticks 0..minutes inclusive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spike-at", type=tick, default=None, metavar="T",
                   help="minute tick or HH:MM clock time")
    p.add_argument("--spike-value", default=None, metavar="V")
    p.add_argument("--gap", type=tick, nargs=2, default=None,
                   metavar=("A", "B"))
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_gen_trace)

    return top


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
