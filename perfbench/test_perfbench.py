"""Self-tests for the benchmark.  From the root of the checkout:

    python3 -m unittest discover -s perfbench -t perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import tagmon.cli  # noqa: E402
import workloads  # noqa: E402
from tagmon.monitoring import Characteristics, observe_family  # noqa: E402
from tagmon.scenarios import (  # noqa: E402
    Sentence,
    compliance_judgement,
    curfew_family,
)
from tagmon.streams import load_trace  # noqa: E402
from tagmon.values import Dec4  # noqa: E402

EPSILON, DELTA = Dec4.parse("0.0200"), Dec4.parse("0.0050")


def _files(directory: Path):
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_files(self):
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as a, \
                    tempfile.TemporaryDirectory() as b, \
                    tempfile.TemporaryDirectory() as c:
                first = workloads.generate(name, 7, a)
                second = workloads.generate(name, 7, b)
                workloads.generate(name, 8, c)
                self.assertEqual(_files(Path(a)), _files(Path(b)), name)
                self.assertNotEqual(_files(Path(a)), _files(Path(c)), name)
                self.assertEqual(first.records, second.records)
                self.assertEqual(first.notifications, second.notifications)

    def _traces(self, directory):
        cache = {}

        def trace(entity):
            if entity not in cache:
                path = Path(directory) / "traces" / f"{entity}.trace"
                cache[entity] = load_trace(path)[2]
            return cache[entity]
        return trace

    def test_alcohol_judgements_agree_with_compliance_judgement(self):
        sentence = Sentence(0, 720, 30, EPSILON, DELTA)
        for seed in (0, 1):
            with tempfile.TemporaryDirectory() as d:
                expected = workloads.generate("alcohol-fleet", seed, d)
                trace = self._traces(d)
                seen = set()
                for now, entity, _, judgement in expected.records:
                    self.assertEqual(
                        compliance_judgement(sentence, trace(entity)),
                        judgement, (seed, entity))
                    seen.add(judgement)
                self.assertEqual(seen, {"green", "amber", "red", "absent"})

    def test_curfew_judgements_agree_with_the_night_rule(self):
        family = curfew_family()
        chi = Characteristics.of(curfew_start=1140, curfew_end=420, nights=7,
                                 status="compliant")
        for seed in (0, 1):
            with tempfile.TemporaryDirectory() as d:
                expected = workloads.generate("curfew-fleet", seed, d)
                trace = self._traces(d)
                seen = set()
                for now, entity, _, judgement in expected.records:
                    wstart = now - 420 - 1440 + 1140
                    got = observe_family(family, entity, chi, trace(entity),
                                         extra_params={"wstart": wstart,
                                                       "wend": wstart + 719})
                    self.assertEqual(got, judgement, (seed, entity, now))
                    seen.add(judgement)
                self.assertEqual(seen,
                                 {"compliant", "violation", "absent-signal"})


class TracerTest(unittest.TestCase):
    def _resolve(self):
        found = []
        for module, attribute, _, _ in tracer.HOOKS:
            owner = sys.modules[module]
            for part in attribute.split("."):
                owner = getattr(owner, part)
            found.append(owner)
        return found

    def test_wrappers_restore_the_original_functions(self):
        originals = self._resolve()
        with self.assertRaises(RuntimeError):
            with tracer.Tracer():
                wrapped = self._resolve()
                for before, during in zip(originals, wrapped):
                    self.assertIsNot(before, during)
                raise RuntimeError("leaves the block early")
        for before, after in zip(originals, self._resolve()):
            self.assertIs(before, after)

    def test_layer_metrics_of_a_traced_run(self):
        with tempfile.TemporaryDirectory() as d:
            expected = workloads.generate("curfew-fleet", 0, d)
            with tracer.Tracer() as traced, \
                    contextlib.redirect_stdout(io.StringIO()):
                status = tagmon.cli.main(["run", str(expected.scenario),
                                          "--out", str(Path(d) / "out")])
            self.assertEqual(status, 0)
        metrics = tracer.layer_metrics(traced.spans)
        entities = workloads.CURFEW_ENTITIES
        self.assertEqual(metrics["streams.load_trace_calls"], 2 * entities)
        self.assertEqual(metrics["scenarios.cycles"], workloads.CURFEW_NIGHTS)
        self.assertEqual(metrics["monitoring.observe_calls"],
                         len(expected.records))
        self.assertEqual(metrics["interventions.notifications"],
                         len(expected.notifications))
        self.assertEqual(metrics["monitoring.undefined_judgements"],
                         sum(r[3] == "absent-signal"
                             for r in expected.records))
        main_span = next(s for s in traced.spans if s[0] == "cli.main")
        phases = sum(v for k, v in metrics.items() if k.startswith("phase."))
        self.assertAlmostEqual(phases, (main_span[2] - main_span[1]) / 1e9)


class CommandTest(unittest.TestCase):
    """The benchmark command against the interface BENCHMARK.json declares."""

    def _run(self, cwd, *extra):
        return subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", "curfew-fleet", "--seed", "990001",
             "--seconds", "1", *extra],
            cwd=cwd, capture_output=True, text=True, timeout=180)

    def test_reports_every_declared_metric_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, declared in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            done = self._run(ROOT, "--trace", trace)
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.splitlines()[-1])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(
                {name: m["unit"] for name, m in result["metrics"].items()},
                {m["name"]: m["unit"] for m in declared})

    def test_fails_without_tagmon_sources(self):
        with tempfile.TemporaryDirectory() as d:
            done = self._run(d)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
