"""The benchmark's seams into tagmon, checked without running the benchmark.

``perfbench/tracer.py`` wraps the engine functions named in its ``HOOKS``
and reads their results, so renaming one of them, or changing what it
returns, breaks the benchmark.  These tests load the tracer from its file
and run it on a shipped scenario.
"""

import importlib
import importlib.util

import pytest

from tagmon.cli import EXIT_OK, main


@pytest.fixture(scope="module")
def tracer(scenarios_dir):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", scenarios_dir.parent / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves(tracer):
    for module, attribute, _, _ in tracer.HOOKS:
        owner = importlib.import_module(module)
        for part in attribute.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attribute)


def test_a_traced_run_writes_the_logs_of_an_untraced_one(
        tracer, scenarios_dir, tmp_path):
    scenario = str(scenarios_dir / "curfew.scenario")
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert main(["run", scenario, "--out", str(plain)]) == EXIT_OK
    with tracer.Tracer() as spans:
        assert main(["run", scenario, "--out", str(traced)]) == EXIT_OK
    for name in ("records.log", "notifications.log"):
        assert (traced / name).read_bytes() == (plain / name).read_bytes()

    names = [span[0] for span in spans.spans]
    for name in ("scenarios.merge_runs", "scenario_file.build",
                 "streams.load_trace"):
        assert names.count(name) == 1, name
    metrics = tracer.layer_metrics(spans.spans)
    assert metrics["scenarios.cycles"] == 7
    assert metrics["monitoring.observe_calls"] == 7
    assert metrics["interventions.notifications"] == 2
