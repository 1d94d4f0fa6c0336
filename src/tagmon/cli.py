"""Command-line front end: validate scenarios, run them, generate traces.

    tagmon validate <scenario>
    tagmon run <scenario> --out <dir>
    tagmon gen-trace --kind dry|spike|gap --minutes N --seed S
                     [--spike-at T --spike-value V] [--gap A B] --out <file>

A run executes every monitoring cycle in time order over recorded traces and
writes records.log and notifications.log to the output directory, replacing
both or, if writing or moving either fails, neither.  Outputs are
deterministic: rerunning the same scenario and traces reproduces the
files byte for byte.  gen-trace checks every option before it draws a
reading.  ``validate`` and ``run`` print each fault of a scenario, or of a
trace it names, as one stderr line that the fault words itself (``render``).

Exit codes: 0 success, 1 validation failure, 2 runtime error.
"""

from __future__ import annotations

import argparse
import os
import random
import stat
import sys
from pathlib import Path
from typing import Dict

from .errors import BadParams, MonitorError, ScenarioFormatError
from .interventions import RunResult, format_notification
from .monitoring import format_record
from .scenario_file import (
    InvalidScenario,
    build_scenario,
    load_scenario,
    parse_clock,
    validate_scenario,
)
from .streams import Stream, Window, save_trace
from .values import BOTTOM, Dec4, parse_int

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

MAX_SEED = 2 ** 64 - 1
# 1000 days of minutes; a generated trace is built in memory before writing
MAX_MINUTES = 1_440_000

DEFAULT_EPSILON = Dec4.parse("0.0200")
DEFAULT_DELTA = Dec4.parse("0.0050")


def run_summary(result: RunResult, status: int) -> str:
    """Per-entity judgement counts plus the headline numbers of a run."""
    counts: Dict[str, Dict[str, int]] = {}
    for rec in result.records:
        per = counts.setdefault(rec.entity, {})
        per[rec.judgement] = per.get(rec.judgement, 0) + 1
    lines = []
    for entity in sorted(counts):
        per = counts[entity]
        parts = " ".join(f"{label}={per[label]}" for label in sorted(per))
        lines.append(f"entity {entity}: cycles={sum(per.values())} {parts}")
    first = min((n.evaluated_at for n in result.notifications), default=None)
    lines.append(f"notifications: {len(result.notifications)}")
    lines.append("first violation: "
                 + ("none" if first is None else f"t={first}"))
    lines.append(f"exit status: {status}")
    return "\n".join(lines)


# -- trace generators ----------------------------------------------------------

def gen_trace(minutes: int, seed: int, spike=None, gap=None) -> Stream:
    """Readings drawn uniformly below epsilon - delta over [0, minutes],
    with the ``spike`` (tick, value) set or the ``gap`` (first, last) ticks
    missed, inclusive.  Every argument is checked before anything is drawn."""
    if minutes < 1:
        raise BadParams(f"minutes must be positive, got {minutes}")
    if minutes > MAX_MINUTES:
        raise BadParams(
            f"minutes must be at most {MAX_MINUTES}, got {minutes}")
    if not 0 <= seed <= MAX_SEED:
        raise BadParams(f"seed must be a 64-bit unsigned integer: {seed}")
    if spike is not None:
        spike_at, spike_value = spike
        if not 0 <= spike_at <= minutes:
            raise BadParams(f"spike-at {spike_at} outside [0, {minutes}]")
        if spike_value.raw < 0:
            raise BadParams(f"negative spike value {spike_value}")
    if gap is not None:
        first, last = gap
        if not 0 <= first <= last <= minutes:
            raise BadParams(f"gap [{first}, {last}] outside [0, {minutes}]")
    ceiling = (DEFAULT_EPSILON - DEFAULT_DELTA).raw
    rng = random.Random(seed)
    values = [Dec4(rng.randrange(0, ceiling)) for _ in range(minutes + 1)]
    if spike is not None:
        values[spike_at] = spike_value
    if gap is not None:
        values[first:last + 1] = [BOTTOM] * (last + 1 - first)
    return Stream(Window(0, minutes + 1), tuple(values))


# -- commands -------------------------------------------------------------------

def _load(path):
    """``load_scenario``, or None after printing the fault that makes the
    file unusable (an unreadable file's reason is a fault with no line)."""
    try:
        return load_scenario(path)
    except OSError as exc:
        fault = ScenarioFormatError(exc.strerror or "unreadable")
    except ScenarioFormatError as exc:
        fault = exc
    print(fault.render(path), file=sys.stderr)
    return None


def cmd_validate(args) -> int:
    loaded = _load(args.scenario)
    if loaded is None:
        return EXIT_VALIDATION
    faults = validate_scenario(*loaded)
    for fault in faults:
        print(fault.render(args.scenario), file=sys.stderr)
    if not faults:
        print(f"{args.scenario}: ok")
    return EXIT_VALIDATION if faults else EXIT_OK


def _write_logs(out_dir, texts: Dict[str, str]) -> None:
    """Write each named log into ``out_dir``, replacing all or none of them.

    Every text goes to a temporary file in the directory first, and each
    previous log is kept under a hard link to a backup name; the files are
    moved into place only once all are written.  On failure the temporary
    files are removed, each log already moved is put back from its backup
    or, if there was no previous log, removed, and the error is raised.  A
    kill between two moves can still leave a mixed pair: the standard
    library has no atomic swap of two files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pid = os.getpid()
    logs = [(out / name, out / f".{name}.{pid}.tmp",
             out / f".{name}.{pid}.bak") for name in texts]
    kept, moved = set(), set()
    try:
        for (_, temp, _), text in zip(logs, texts.values()):
            temp.write_text(text, encoding="ascii")
        for final, _, backup in logs:
            backup.unlink(missing_ok=True)  # left by a killed run
            try:
                # a directory is never replaced, so it needs no backup
                if not stat.S_ISDIR(os.lstat(final).st_mode):
                    os.link(final, backup, follow_symlinks=False)
                    kept.add(final)
            except FileNotFoundError:
                pass  # no previous log
        for final, temp, _ in logs:
            os.replace(temp, final)
            moved.add(final)
    except BaseException:
        for final, temp, backup in logs:
            temp.unlink(missing_ok=True)
            if final not in moved:
                backup.unlink(missing_ok=True)
            elif final in kept:
                os.replace(backup, final)
            else:
                final.unlink()
        raise
    for _, _, backup in logs:
        backup.unlink(missing_ok=True)


def execute_scenario(config, base_dir, out_dir) -> RunResult:
    """Build a config, execute it and write the two log files.

    An invalid config raises InvalidScenario before anything is written; a
    failed write raises OSError and leaves the previous logs intact.
    """
    run = build_scenario(config, base_dir)
    result = run.execute()
    _write_logs(out_dir, {
        "records.log": "".join(format_record(r) + "\n"
                               for r in result.records),
        "notifications.log": "".join(format_notification(n) + "\n"
                                     for n in result.notifications),
    })
    return result


def cmd_run(args) -> int:
    loaded = _load(args.scenario)
    if loaded is None:
        return EXIT_VALIDATION
    config, base_dir = loaded
    try:
        result = execute_scenario(config, base_dir, args.out)
    except InvalidScenario as exc:
        for fault in exc.faults:
            print(fault.render(args.scenario), file=sys.stderr)
        return EXIT_VALIDATION
    except MonitorError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"run failed: {args.out}: {exc.strerror or 'unwritable'}",
              file=sys.stderr)
        return EXIT_RUNTIME
    for now, entity, exc in result.errors:
        print(f"cycle error for {entity} at t={now}: {exc}", file=sys.stderr)
    status = EXIT_RUNTIME if result.errors else EXIT_OK
    print(run_summary(result, status))
    return status


def integer(text: str) -> int:
    """An integer argument, written as in trace and scenario files: an
    optional ``-`` and ASCII digits.  argparse names this function in its
    message for any other text: ``invalid integer value: '1_0'``."""
    return parse_int(text)


def tick(text: str) -> int:
    """Minute tick, given either as an integer or as an HH:MM clock time."""
    if ":" in text:
        try:
            return parse_clock(text)
        except ScenarioFormatError as exc:
            raise argparse.ArgumentTypeError(exc.message) from None
    return parse_int(text)


def cmd_gen_trace(args) -> int:
    try:
        for option, value, kind in (
                ("--spike-at", args.spike_at, "spike"),
                ("--spike-value", args.spike_value, "spike"),
                ("--gap", args.gap, "gap")):
            if value is not None and args.kind != kind:
                raise BadParams(f"{option} needs --kind {kind}")
        if args.kind == "spike" and (args.spike_at is None
                                     or args.spike_value is None):
            raise BadParams("spike needs --spike-at and --spike-value")
        if args.kind == "gap" and args.gap is None:
            raise BadParams("gap needs --gap A B")
        spike = (None if args.spike_value is None
                 else (args.spike_at, Dec4.parse(args.spike_value)))
        stream = gen_trace(args.minutes, args.seed, spike, args.gap)
        save_trace(args.out, stream, "b", "decimal")
    except MonitorError as exc:
        print(f"gen-trace failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"gen-trace failed: {args.out}: {exc.strerror or 'unwritable'}",
              file=sys.stderr)
        return EXIT_RUNTIME
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
    p.add_argument("--minutes", type=integer, required=True,
                   help="trace covers ticks 0..minutes inclusive")
    p.add_argument("--seed", type=integer, default=0)
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
