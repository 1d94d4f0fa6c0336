"""Benchmark for tagmon: fresh-process runs on seeded fleet workloads.

    python3 perfbench/run.py --workload curfew-fleet --seed 1 --seconds 60 \\
        --trace 0

Run it from the root of a tagmon checkout; it runs the engine in ./src.  It
generates the workload from the seed under ./.perfbench_work, then keeps one
child process at a time busy (a closed loop with one client) for the given
number of seconds.  Every `tagmon run` and `tagmon validate` is checked for
correctness.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it runs `tagmon run` under perfbench/tracer.py and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  perfbench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import tracer
import workloads

HERE = Path(__file__).resolve().parent
HARD_LIMIT_S = 170.0  # every child is killed by then; a run must end by 180 s
SETUPS_PER_REPEAT = 3
SETUP_CODE = "import tagmon.cli; tagmon.cli.build_arg_parser()"
CALIBRATION_LOOPS = 300_000


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop, a gauge of machine speed."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


@dataclass
class Child:
    seconds: float
    exit_code: int
    rss_mib: float


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_bytes"):
        return "bytes"
    if ".us_per_" in name:
        return "us"
    return "count"


def tail(values: List[float]) -> str:
    """Median, and the highest percentile with ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    text = f"median {statistics.median(values):.4f}"
    if n > 20:
        text += f"  p{100 * (n - 10) // n} {ordered[n - 11]:.4f}"
    return text + f"  (n={n})"


class Bench:
    """One workload, generated from a seed, and its checked child runs."""

    def __init__(self, root: Path, workload: str, seed: int,
                 deadline: float):
        self.work = root / ".perfbench_work" / f"{workload}-{seed}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONHASHSEED="0")
        self.deadline = deadline
        self.attempted = self.failed = 0
        self.digest = None
        shutil.rmtree(self.work, ignore_errors=True)
        self.expected = workloads.generate(workload, seed, self.work)
        self.out = self.work / "out"

    def spawn(self, argv: List[str]) -> Child:
        """Run one child to completion; its peak RSS comes from its own
        rusage."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("benchmark time limit reached")
        with open(self.work / "child.log", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, proc.kill)
            killer.daemon = True
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(seconds, proc.returncode, usage.ru_maxrss / 1024)

    def _count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def _logs_ok(self) -> bool:
        """Judgements and notifications equal the generator's, and the log
        bytes equal those of every earlier run of this workload."""
        try:
            records = (self.out / "records.log").read_bytes()
            notes = (self.out / "notifications.log").read_bytes()
            got = []
            for line in records.decode("ascii").splitlines():
                now, entity, attribute, judgement, _ = line.split("|", 4)
                got.append((int(now), entity, attribute, judgement))
        except (OSError, ValueError):
            return False
        if (tuple(got) != self.expected.records
                or tuple(notes.decode("ascii").splitlines())
                != self.expected.notifications):
            return False
        digest = (hashlib.sha256(records).hexdigest(),
                  hashlib.sha256(notes).hexdigest())
        if self.digest is None:
            self.digest = digest
        return digest == self.digest

    def run(self, traced: bool = False, run_id: int = 0):
        """One `tagmon run`; returns the child and, when traced and correct,
        its per-layer metrics."""
        shutil.rmtree(self.out, ignore_errors=True)
        command = ["run", str(self.expected.scenario), "--out", str(self.out)]
        spans = self.work / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans),
                    str(run_id)] + command
        else:
            argv = [sys.executable, "-m", "tagmon"] + command
        child = self.spawn(argv)
        ok = child.exit_code == 0 and self._logs_ok()
        self._count(ok)
        layers = None
        if ok and traced:
            with open(spans, encoding="ascii") as fh:
                layers = tracer.layer_metrics(json.load(fh))
            layers["cli.log_bytes"] = sum(
                (self.out / name).stat().st_size
                for name in ("records.log", "notifications.log"))
        return child, layers

    def validate(self) -> Child:
        child = self.spawn([sys.executable, "-m", "tagmon", "validate",
                            str(self.expected.scenario)])
        said = (self.work / "child.log").read_text("ascii", "replace")
        self._count(child.exit_code == 0 and said.endswith(": ok\n"))
        return child

    def setup(self) -> Child:
        child = self.spawn([sys.executable, "-c", SETUP_CODE])
        self._count(child.exit_code == 0)
        return child


def _repeat(bench: Bench, seconds: float, body) -> None:
    """Call body() until another call would overrun ``seconds`` or the
    benchmark's time limit."""
    start = time.monotonic()
    repeats = 0
    while True:
        body(repeats)
        repeats += 1
        now = time.monotonic()
        per_call = (now - start) / repeats
        if now - start + per_call > seconds or now + per_call > bench.deadline:
            return


def end_to_end(bench: Bench, seconds: float) -> Dict[str, List[float]]:
    samples: Dict[str, List[float]] = defaultdict(list)

    def body(_):
        samples["calibration_ms"].append(calibrate() * 1e3)
        child, _ = bench.run()
        samples["run_s"].append(child.seconds)
        samples["peak_rss_mib"].append(child.rss_mib)
        samples["validate_s"].append(bench.validate().seconds)
        for _ in range(SETUPS_PER_REPEAT):
            samples["setup_s"].append(bench.setup().seconds)

    _repeat(bench, seconds, body)
    return samples


def per_layer(bench: Bench, seconds: float) -> Dict[str, List[float]]:
    samples: Dict[str, List[float]] = defaultdict(list)

    def body(run_id):
        samples["calibration_ms"].append(calibrate() * 1e3)
        child, _ = bench.run()
        samples["trace.untraced_run_s"].append(child.seconds)
        child, layers = bench.run(traced=True, run_id=run_id)
        samples["trace.run_s"].append(child.seconds)
        if layers:
            layers["phase.interpreter_s"] = child.seconds - sum(
                value for name, value in layers.items()
                if name.startswith("phase."))
            for name, value in layers.items():
                samples[name].append(value)

    _repeat(bench, seconds, body)
    return samples


def main(argv=None) -> int:
    started = time.monotonic()
    # Turn SIGTERM into SystemExit so that the running child is killed and
    # reaped, and the work directory removed, on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tagmon" / "__init__.py").is_file():
        print(f"{root}: no tagmon sources under ./src; run from the root of "
              "a tagmon checkout", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    bench = Bench(root, args.workload, args.seed,
                  started + HARD_LIMIT_S)
    generate_s = time.perf_counter() - t0
    try:
        bench.spawn([sys.executable, "-c", SETUP_CODE])  # compiles bytecode
        if args.trace:
            samples = per_layer(bench, args.seconds)
        else:
            samples = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            bench.work.parent.rmdir()

    expected = bench.expected
    print(f"# tagmon perfbench  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}  "
          f"python={platform.python_version()} cores={os.cpu_count()}")
    print(f"# workload: {len(expected.records)} records, "
          f"{expected.ticks} trace ticks, generated in {generate_s:.2f} s")
    metrics: Dict[str, float] = {}
    if args.trace:
        for name, values in sorted(samples.items()):
            metrics[name] = statistics.median(values)
        metrics["machine.calibration_ms"] = metrics.pop("calibration_ms")
        if "trace.run_s" in metrics:
            metrics["trace.overhead_s"] = (metrics["trace.run_s"]
                                           - metrics["trace.untraced_run_s"])
        phases = {name: value for name, value in metrics.items()
                  if name.startswith("phase.")}
        whole = sum(phases.values())
        for name, value in sorted(phases.items(), key=lambda kv: -kv[1]):
            print(f"# {name:<24} {value:9.4f} s  "
                  f"{100 * value / whole if whole else 0:5.1f}%")
        phases.pop("phase.interpreter_s", None)
        if phases:
            print("# dominant phase after start-up: "
                  + max(phases, key=phases.get))
    else:
        for name in ("run_s", "validate_s", "setup_s"):
            print(f"# {name:<24} {tail(samples[name])}  s")
        run_s = statistics.median(samples["run_s"])
        metrics = {
            "run_s": run_s,
            "validate_s": statistics.median(samples["validate_s"]),
            "entity_cycles_per_s": len(expected.records) / run_s,
            "peak_rss_mib": statistics.median(samples["peak_rss_mib"]),
            "setup_s": statistics.median(samples["setup_s"]),
        }
    print(f"# calibration_ms           {tail(samples['calibration_ms'])}")
    print(f"# failed_share             {bench.failed}/{bench.attempted} = "
          f"{bench.failed / max(bench.attempted, 1):.4f}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
