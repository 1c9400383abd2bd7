"""Tests of the benchmark itself: span arithmetic, metric names, seeding, a smoke run."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import run, spans, workloads  # noqa: E402 - needs ROOT on the path
from perfbench.spans import Span, Tracer, covered_ns, self_times  # noqa: E402

from repro.experiments import figure8, network  # noqa: E402


# ---------------------------------------------------------------------- span arithmetic
def test_covered_counts_overlapping_intervals_once():
    assert covered_ns([(10, 40), (30, 60), (70, 80), (75, 78)]) == 60
    assert covered_ns([]) == 0
    assert covered_ns([(5, 5)]) == 0


def test_self_time_of_nested_and_sibling_spans():
    tree = [
        Span("root", None, "workload", 0, 100, agg_ns=5),
        # Overlapping siblings (two workers): the union, 10..60, is covered once.
        Span("a", "root", "dispatch", 10, 40),
        Span("b", "root", "dispatch", 30, 60),
        Span("a1", "a", "engine", 15, 25, agg_ns=4),
        # Sequential siblings under one parent.
        Span("p", None, "runner", 200, 230),
        Span("c", "p", "store.read", 200, 210),
        Span("d", "p", "store.write", 210, 220),
        # A child reaching past its parent is clipped to the parent.
        Span("q", None, "scenarios", 300, 310),
        Span("r", "q", "runner", 305, 320),
    ]
    own = self_times(tree)
    assert own["root"] == 100 - 50 - 5
    assert own["a"] == 30 - 10
    assert own["b"] == 30
    assert own["a1"] == 10 - 4
    assert own["p"] == 30 - 20
    assert own["c"] == own["d"] == 10
    assert own["q"] == 5


def test_tracer_nests_spans_and_attributes_aggregates():
    tracer = Tracer()

    def leaf(value):
        return value + 1

    wrapped_leaf = tracer.aggregate_wrapper("leaf", leaf, extra=lambda result: result)
    # A wrapped call inside an aggregated call is not recorded on its own.
    outer_leaf = tracer.aggregate_wrapper("outer", lambda value: wrapped_leaf(value))

    def inner(value):
        return wrapped_leaf(value) + outer_leaf(value)

    wrapped_inner = tracer.span_wrapper("inner", inner)

    def outer():
        return wrapped_inner(1) + wrapped_inner(2)

    wrapped_outer = tracer.span_wrapper("outer-span", outer)
    assert wrapped_outer() == (2 + 2) + (3 + 3)

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (top,) = by_name["outer-span"]
    assert top.parent_id is None
    assert [span.parent_id for span in by_name["inner"]] == [top.span_id] * 2
    assert tracer.aggregates["leaf"][0] == 2
    assert tracer.aggregates["leaf"][2] == 2 + 3
    assert tracer.aggregates["outer"][0] == 2
    for span in by_name["inner"]:
        assert span.agg_ns > 0
    own = self_times(tracer.spans)
    total_inner = sum(span.end_ns - span.start_ns for span in by_name["inner"])
    assert own[top.span_id] <= top.end_ns - top.start_ns - total_inner


def test_patch_and_restore():
    class Target:
        def method(self):
            return "original"

    original = Target.__dict__["method"]
    tracer = Tracer()
    tracer.patch_span(Target, "method", "t")
    assert Target().method() == "original"
    assert [span.name for span in tracer.spans] == ["t"]
    tracer.restore()
    assert Target.__dict__["method"] is original


# ---------------------------------------------------------------------- metric names
def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [item["name"] for item in declared["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {
        item["name"]: (item["unit"], item["better"]) for item in declared["end_to_end"]
    } == run.END_TO_END_METRICS
    assert {
        item["name"]: (item["unit"], item["better"]) for item in declared["per_layer"]
    } == spans.PER_LAYER_METRICS


# ---------------------------------------------------------------------- seeding
def _planned(workload) -> list[tuple]:
    if isinstance(workload, workloads.NetworkSweep):
        kwargs = workload.kwargs()
        specs = network.network_scenarios(
            seed=kwargs["seed"],
            simulation_blocks=kwargs["simulation_blocks"],
            simulation_runs=kwargs["simulation_runs"],
        )
    else:
        kwargs = workloads.Fig8Cold(workload.seed, workload.scale).kwargs()
        specs = [
            figure8.figure8_scenario(
                alphas=kwargs["alphas"],
                seed=kwargs["seed"],
                simulation_blocks=kwargs["simulation_blocks"],
                simulation_runs=kwargs["simulation_runs"],
            )
        ]
    return [
        (planned.backend, planned.config.seed, planned.config.params, planned.config.num_blocks)
        for spec in specs
        for planned in spec.run_plan()
    ]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_inputs_are_deterministic_in_the_seed(name):
    scale = workloads.SCALES["full"]
    make = workloads.WORKLOADS[name]
    first, again, other = _planned(make(11, scale)), _planned(make(11, scale)), _planned(make(12, scale))
    assert first == again
    assert first != other
    assert {entry[1] for entry in first}.isdisjoint({entry[1] for entry in other})


# ---------------------------------------------------------------------- smoke runs
def _run(*arguments: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *arguments],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_smoke_run_of_every_workload_passes_its_checks():
    completed = _run("--workload", "all", "--seed", "5", "--seconds", "0", "--scale", "smoke")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {
        f"{workload}.{name}": unit
        for workload in run.WORKLOADS
        for name, (unit, _) in run.END_TO_END_METRICS.items()
    }
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_smoke_traced_run_reports_every_layer():
    completed = _run(
        "--workload", "all", "--seed", "5", "--seconds", "0", "--scale", "smoke", "--trace", "1"
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert set(metrics) == {
        f"{workload}.{name}" for workload in run.WORKLOADS for name in spans.PER_LAYER_METRICS
    }
    scale = workloads.SCALES["smoke"]
    fig8_runs = len(workloads.FIG8_ALPHAS) * scale.fig8_runs
    assert metrics["fig8-cold.engine.runs"] == fig8_runs
    assert metrics["fig8-cold.chain.inserts"] == fig8_runs * scale.fig8_blocks
    assert metrics["fig8-cold.store.writes"] == fig8_runs
    assert metrics["fig8-cold.runner.executed_runs"] == fig8_runs
    assert metrics["analysis-warm.runner.cached_runs"] == fig8_runs
    assert metrics["analysis-warm.store.hit_frac"] == 1.0
    for layer in ("chain.inserts", "chain.uncle_selections", "engine.runs", "rng.draws",
                  "network.runs", "network.latency_calls", "dispatch.tasks"):
        assert metrics[f"analysis-warm.{layer}"] == 0, layer
    assert metrics["network-sweep.network.runs"] == workloads.NetworkSweep(5, scale).planned_runs()
    assert metrics["network-sweep.engine.runs"] == 0
    assert metrics["network-sweep.store.writes"] == 0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--workload", "fig8-cold", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
