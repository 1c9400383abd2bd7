"""Spans and per-call aggregates for the benchmark's traced run.

The traced run wraps the public calls into each layer of ``repro`` from the
benchmark's own files; nothing under ``src/`` knows it is being traced.  Two
kinds of record are kept, both in memory:

* a :class:`Span` at each coarse boundary (a driver call, ``run_scenarios``,
  ``execute_runs``, ``resilient_map``, one dispatched task, one simulator run,
  one ``revenue_rates`` call, one store call), with the id of the span that
  was open when it started;
* a ``(calls, ns, extra)`` aggregate per fine-grained layer (block insertion,
  uncle selection, mining draws, strategy decisions, ...), because one span per
  block would cost more than the work it measures.

A span's self time is its duration minus the part of it that its child spans
cover, minus the aggregated calls made while it was the innermost open span.

Pool workers are forked from the traced process, so they inherit the wrappers
and the open span stack: a worker's task span gets the dispatching
``resilient_map`` span as its parent.  Each worker appends its records to a
file in the flush directory when a task ends, and the traced process merges
them with :meth:`Tracer.collect`.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter_ns, process_time_ns
from typing import Any, Callable, Iterable

#: Every per-layer metric the traced run reports, with its unit and the
#: direction in which it improves (mirrored by ``BENCHMARK.json``).
PER_LAYER_METRICS: dict[str, tuple[str, str]] = {
    "chain.insert_s": ("s", "lower"),
    "chain.inserts": ("count", "lower"),
    "chain.uncles_s": ("s", "lower"),
    "chain.uncle_selections": ("count", "lower"),
    "chain.uncles_per_block": ("uncles/call", "higher"),
    "chain.publish_s": ("s", "lower"),
    "chain.settle_s": ("s", "lower"),
    "chain.validate_s": ("s", "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.runs": ("count", "lower"),
    "rng.draw_s": ("s", "lower"),
    "rng.draws": ("count", "lower"),
    "strategy.decide_s": ("s", "lower"),
    "strategy.decisions": ("count", "lower"),
    "network.self_s": ("s", "lower"),
    "network.runs": ("count", "lower"),
    "network.latency_s": ("s", "lower"),
    "network.latency_calls": ("count", "lower"),
    "analysis.points": ("count", "lower"),
    "analysis.point_ms": ("ms", "lower"),
    "analysis.self_s": ("s", "lower"),
    "analysis.pricing_s": ("s", "lower"),
    "markov.enumerate_s": ("s", "lower"),
    "markov.solve_s": ("s", "lower"),
    "store.read_s": ("s", "lower"),
    "store.hit_frac": ("fraction", "higher"),
    "store.write_s": ("s", "lower"),
    "store.writes": ("count", "lower"),
    "store.write_bytes": ("bytes", "lower"),
    "store.lease_s": ("s", "lower"),
    "dispatch.self_s": ("s", "lower"),
    "dispatch.self_cpu_s": ("s", "lower"),
    "dispatch.tasks": ("count", "lower"),
    "dispatch.attempts_per_task": ("attempts/task", "lower"),
    "dispatch.busy_frac": ("fraction", "higher"),
    "runner.self_s": ("s", "lower"),
    "runner.executed_runs": ("count", "lower"),
    "runner.cached_runs": ("count", "higher"),
    "scenarios.self_s": ("s", "lower"),
    "scenarios.cells": ("count", "lower"),
    "experiments.self_s": ("s", "lower"),
    "trace_overhead_frac": ("fraction", "lower"),
}


@dataclass
class Span:
    """One traced call: a name, its interval and the span open when it began."""

    span_id: str
    parent_id: str | None
    name: str
    start_ns: int
    end_ns: int = 0
    #: Time of aggregated calls made while this span was the innermost open one.
    agg_ns: int = 0
    #: The recording process and its CPU time (user + system) over the span.
    pid: int = 0
    cpu_ns: int = 0
    attrs: dict = field(default_factory=dict)


def covered_ns(intervals: Iterable[tuple[int, int]]) -> int:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_cpu_ns(span: Span, spans: Iterable[Span]) -> int:
    """CPU time of ``span``'s process over the span outside its in-process children.

    Wall-clock self time hides work a process does while children in other
    processes cover the interval (a dispatcher polling its workers); this
    does not.
    """
    children = sum(
        child.cpu_ns for child in spans if child.parent_id == span.span_id and child.pid == span.pid
    )
    return max(span.cpu_ns - children, 0)


def self_times(spans: Iterable[Span]) -> dict[str, int]:
    """Self time (ns) of every span, keyed by span id.

    A span's self time is its duration minus the union of its children's
    intervals (clipped to the span; siblings that overlap, as parallel workers
    do, are counted once) minus its aggregated calls, floored at zero.
    """
    spans = list(spans)
    children: dict[str | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    result: dict[str, int] = {}
    for span in spans:
        clipped = [
            (max(child.start_ns, span.start_ns), min(child.end_ns, span.end_ns))
            for child in children.get(span.span_id, ())
        ]
        own = span.end_ns - span.start_ns - covered_ns(clipped) - span.agg_ns
        result[span.span_id] = max(own, 0)
    return result


class Tracer:
    """Collects spans, aggregates and counters; installs and removes wrappers."""

    def __init__(self, flush_dir: Path | None = None) -> None:
        self.flush_dir = flush_dir
        self.spans: list[Span] = []
        #: name -> [calls, ns, extra]; lists are mutated in place because the
        #: wrappers close over them.
        self.aggregates: dict[str, list[int]] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[Span] = []
        self._in_aggregate = False
        self._pid = os.getpid()
        self._inherited_depth = 0
        self._worker = False
        self._serial = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ recording
    def _adopt_fork(self) -> None:
        """Start clean in a forked worker, keeping the inherited span stack."""
        pid = os.getpid()
        if pid == self._pid:
            return
        self._pid = pid
        self._worker = True
        self._inherited_depth = len(self._stack)
        self._reset()

    def _reset(self) -> None:
        self.spans = []
        self.counts = {}
        for aggregate in self.aggregates.values():
            aggregate[0] = aggregate[1] = aggregate[2] = 0

    def open(self, name: str) -> Span:
        """Open a span as a child of the innermost open span."""
        self._adopt_fork()
        self._serial += 1
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(f"{self._pid}-{self._serial}", parent, name, perf_counter_ns(), pid=self._pid)
        span.cpu_ns = process_time_ns()
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        """Close the innermost span (``span``) and keep it."""
        span.end_ns = perf_counter_ns()
        span.cpu_ns = process_time_ns() - span.cpu_ns
        popped = self._stack.pop()
        if popped is not span:  # pragma: no cover - wrappers always nest
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self.spans.append(span)
        if self._worker and len(self._stack) == self._inherited_depth:
            self._flush()

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + value

    def _aggregate(self, name: str) -> list[int]:
        return self.aggregates.setdefault(name, [0, 0, 0])

    # ------------------------------------------------------------------ worker hand-off
    def _flush(self) -> None:
        """Append this worker's records to its flush file and start over."""
        if self.flush_dir is None:
            raise RuntimeError("a forked worker recorded spans but no flush directory is set")
        record = {
            "spans": [asdict(span) for span in self.spans],
            "aggregates": self.aggregates,
            "counts": self.counts,
        }
        path = self.flush_dir / f"worker-{self._pid}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self._reset()

    def collect(self) -> None:
        """Merge every worker's flushed records into this tracer."""
        if self.flush_dir is None:
            return
        for path in sorted(self.flush_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                self.spans.extend(Span(**span) for span in record["spans"])
                for name, (calls, ns, extra) in record["aggregates"].items():
                    aggregate = self._aggregate(name)
                    aggregate[0] += calls
                    aggregate[1] += ns
                    aggregate[2] += extra
                for name, value in record["counts"].items():
                    self.count(name, value)
            path.unlink()

    # ------------------------------------------------------------------ wrappers
    def span_wrapper(
        self,
        name: str,
        function: Callable,
        on_result: Callable[["Tracer", Span, tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """``function`` recorded as one span per call."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(tracer, span, args, kwargs, result)
            return result

        return wrapper

    def aggregate_wrapper(
        self, name: str, function: Callable, extra: Callable[[Any], int] | None = None
    ) -> Callable:
        """``function`` recorded into the ``(calls, ns, extra)`` aggregate ``name``.

        A wrapped call made inside another aggregated call is not recorded on
        its own: its time belongs to the outer call's layer.
        """
        tracer = self
        aggregate = self._aggregate(name)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if tracer._in_aggregate:
                return function(*args, **kwargs)
            tracer._in_aggregate = True
            start = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                tracer._in_aggregate = False
                aggregate[0] += 1
                aggregate[1] += elapsed
                stack = tracer._stack
                if stack:
                    stack[-1].agg_ns += elapsed
            if extra is not None:
                aggregate[2] += extra(result)
            return result

        return wrapper

    def patch_span(self, owner: Any, attribute: str, name: str, on_result=None) -> None:
        """Record every call of ``owner.attribute`` as a span until :meth:`restore`."""
        self._patch(owner, attribute, lambda original: self.span_wrapper(name, original, on_result))

    def patch_aggregate(self, owner: Any, attribute: str, name: str, extra=None) -> None:
        """Aggregate every call of ``owner.attribute`` into ``name`` until :meth:`restore`."""
        self._patch(owner, attribute, lambda original: self.aggregate_wrapper(name, original, extra))

    def _patch(self, owner: Any, attribute: str, make: Callable[[Callable], Callable]) -> None:
        # A class attribute is read from the class itself, so that restoring
        # puts back exactly what was there (not a bound or inherited method).
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------- layer map
def _count_store_reads(tracer: Tracer, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    found = result if isinstance(result, list) else [result]
    tracer.count("store.lookups", len(found))
    tracer.count("store.hits", sum(1 for item in found if item is not None))


def _count_store_write(tracer: Tracer, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("store.writes")
    tracer.count("store.write_bytes", os.path.getsize(result))


def _count_runs(tracer: Tracer, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    from repro.simulation.runner import RunFailure

    results, executed = result
    failed = sum(1 for item in results if isinstance(item, RunFailure))
    tracer.count("runner.executed_runs", len(executed))
    tracer.count("runner.cached_runs", len(results) - len(executed) - failed)


def _count_cells(tracer: Tracer, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("scenarios.cells", sum(len(outcome.cells) for outcome in result))


def _dispatch_shape(tracer: Tracer, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    tasks = len(args[1])
    max_workers = kwargs.get("max_workers")
    policy = kwargs.get("policy")
    serial = (max_workers or 1) == 1 and (policy is None or policy.timeout is None)
    span.attrs["tasks"] = tasks
    span.attrs["workers"] = 1 if serial else max(1, min(max_workers or 1, tasks))


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the benchmark reports on."""
    from repro.analysis import revenue, threshold
    from repro.chain.arrays import ArrayBlockTree
    from repro.chain.fork_choice import LongestChainRule
    from repro.experiments import figure8, network
    from repro.network import latency
    from repro.network import simulator as network_simulator
    from repro.scenarios import engine as scenarios_engine
    from repro.simulation import engine, runner
    from repro.simulation.rng import RandomSource
    from repro.store.store import ResultStore
    from repro.strategies import catalogue

    aggregate = tracer.patch_aggregate
    span = tracer.patch_span

    # repro.chain: per-block calls, plus settlement at the simulators' bindings.
    aggregate(ArrayBlockTree, "add_block_id", "chain.insert")
    aggregate(ArrayBlockTree, "select_uncles", "chain.uncles", extra=len)
    aggregate(ArrayBlockTree, "publish", "chain.publish")
    aggregate(LongestChainRule, "best_tip_id", "chain.settle")
    for module in (engine, network_simulator):
        aggregate(module, "settle_rewards", "chain.settle")
        aggregate(module, "validate_tree", "chain.validate")

    # repro.simulation engine and its random source; repro.strategies.
    span(engine.ChainSimulator, "run", "engine")
    aggregate(RandomSource, "mining_event", "rng.draw")
    aggregate(RandomSource, "honest_mines_on_pool_branch", "rng.draw")
    for strategy in vars(catalogue).values():
        if isinstance(strategy, type) and strategy.__module__ == catalogue.__name__:
            for attribute in ("after_pool_block", "after_honest_block"):
                if attribute in strategy.__dict__:
                    aggregate(strategy, attribute, "strategy.decide")

    # repro.network: the event loop is the run's self time; latency draws.
    span(network_simulator.NetworkSimulator, "run", "network")
    for model in vars(latency).values():
        if isinstance(model, type) and model.__module__ == latency.__name__:
            for attribute in ("sample", "sample_batch"):
                if attribute in model.__dict__:
                    aggregate(model, attribute, "network.latency")

    # repro.analysis + repro.markov, at their bindings in analysis/revenue.py.
    span(revenue.RevenueModel, "revenue_rates", "analysis")
    span(threshold, "profitable_threshold", "analysis.threshold")
    aggregate(revenue, "transition_rewards", "analysis.pricing")
    aggregate(revenue, "selfish_mining_transitions", "markov.enumerate")
    aggregate(revenue, "stationary_distribution", "markov.solve")

    # repro.store.
    span(ResultStore, "load_many", "store.read", _count_store_reads)
    span(ResultStore, "load_result", "store.read", _count_store_reads)
    span(ResultStore, "save_result", "store.write", _count_store_write)
    span(ResultStore, "claim_result", "store.lease")
    span(ResultStore, "release", "store.lease")

    # Dispatch, runner, scenarios and the experiment drivers.
    span(runner, "resilient_map", "dispatch", _dispatch_shape)
    span(runner, "_run_task", "runner.task")
    span(scenarios_engine, "execute_runs", "runner", _count_runs)
    span(scenarios_engine, "run_scenarios", "scenarios", _count_cells)
    span(network, "run_scenarios", "scenarios", _count_cells)
    span(figure8, "run_figure8", "experiments")
    span(network, "run_network", "experiments")


def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Every :data:`PER_LAYER_METRICS` value from one traced workload call."""
    spans = tracer.spans
    own = self_times(spans)

    def self_s(*names: str) -> float:
        return sum(own[span.span_id] for span in spans if span.name in names) / 1e9

    def spans_named(name: str) -> list[Span]:
        return [span for span in spans if span.name == name]

    def calls(name: str) -> int:
        return tracer.aggregates.get(name, [0, 0, 0])[0]

    def busy_s(name: str) -> float:
        return tracer.aggregates.get(name, [0, 0, 0])[1] / 1e9

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    counts = tracer.counts
    points = spans_named("analysis")
    dispatches = [span for span in spans_named("dispatch") if span.attrs.get("tasks")]
    dispatch_ids = {span.span_id for span in dispatches}
    task_spans = [span for span in spans_named("runner.task") if span.parent_id in dispatch_ids]
    tasks = sum(span.attrs["tasks"] for span in dispatches)
    capacity_ns = sum(span.attrs["workers"] * (span.end_ns - span.start_ns) for span in dispatches)
    uncle_selections = calls("chain.uncles")

    return {
        "chain.insert_s": busy_s("chain.insert"),
        "chain.inserts": calls("chain.insert"),
        "chain.uncles_s": busy_s("chain.uncles"),
        "chain.uncle_selections": uncle_selections,
        "chain.uncles_per_block": ratio(
            tracer.aggregates.get("chain.uncles", [0, 0, 0])[2], uncle_selections
        ),
        "chain.publish_s": busy_s("chain.publish"),
        "chain.settle_s": busy_s("chain.settle"),
        "chain.validate_s": busy_s("chain.validate"),
        "engine.self_s": self_s("engine"),
        "engine.runs": len(spans_named("engine")),
        "rng.draw_s": busy_s("rng.draw"),
        "rng.draws": calls("rng.draw"),
        "strategy.decide_s": busy_s("strategy.decide"),
        "strategy.decisions": calls("strategy.decide"),
        "network.self_s": self_s("network"),
        "network.runs": len(spans_named("network")),
        "network.latency_s": busy_s("network.latency"),
        "network.latency_calls": calls("network.latency"),
        "analysis.points": len(points),
        "analysis.point_ms": (
            statistics.median((span.end_ns - span.start_ns) / 1e6 for span in points)
            if points
            else 0.0
        ),
        "analysis.self_s": self_s("analysis", "analysis.threshold"),
        "analysis.pricing_s": busy_s("analysis.pricing"),
        "markov.enumerate_s": busy_s("markov.enumerate"),
        "markov.solve_s": busy_s("markov.solve"),
        "store.read_s": self_s("store.read"),
        "store.hit_frac": ratio(counts.get("store.hits", 0), counts.get("store.lookups", 0)),
        "store.write_s": self_s("store.write"),
        "store.writes": counts.get("store.writes", 0),
        "store.write_bytes": counts.get("store.write_bytes", 0),
        "store.lease_s": self_s("store.lease"),
        "dispatch.self_s": self_s("dispatch"),
        "dispatch.self_cpu_s": sum(self_cpu_ns(span, spans) for span in spans_named("dispatch")) / 1e9,
        "dispatch.tasks": tasks,
        "dispatch.attempts_per_task": ratio(len(task_spans), tasks),
        "dispatch.busy_frac": ratio(
            sum(span.end_ns - span.start_ns for span in task_spans), capacity_ns
        ),
        "runner.self_s": self_s("runner", "runner.task"),
        "runner.executed_runs": counts.get("runner.executed_runs", 0),
        "runner.cached_runs": counts.get("runner.cached_runs", 0),
        "scenarios.self_s": self_s("scenarios"),
        "scenarios.cells": counts.get("scenarios.cells", 0),
        "experiments.self_s": self_s("experiments"),
        "trace_overhead_frac": ratio(traced_wall_s, untraced_wall_s) - 1.0,
    }
