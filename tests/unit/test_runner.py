"""Unit tests for multi-run orchestration."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.errors import SimulationError
from repro.experiments.figure8 import run_figure8
from repro.params import MiningParams
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import (
    SimulatedAlphaSweep,
    SimulatedSweepPoint,
    execute_runs,
    honest_baseline_config,
    run_many,
    run_many_grid,
    run_once,
    sequential_seeds,
)
from repro.store import ResultStore
from repro.utils.resilient import TaskFailure, resilient_map

CONFIG = SimulationConfig(params=MiningParams(alpha=0.3, gamma=0.5), num_blocks=3000, seed=5)


class TestRunOnce:
    def test_chain_backend(self):
        result = run_once(CONFIG, backend="chain")
        assert result.total_blocks == CONFIG.num_blocks

    def test_markov_backend(self):
        result = run_once(CONFIG, backend="markov")
        assert result.total_blocks == CONFIG.num_blocks

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError):
            run_once(CONFIG, backend="quantum")


class TestRunMany:
    def test_aggregates_the_requested_number_of_runs(self):
        aggregate = run_many(CONFIG, 3, backend="markov")
        assert aggregate.num_runs == 3

    def test_reproducible_from_master_seed(self):
        first = run_many(CONFIG, 2, backend="markov")
        second = run_many(CONFIG, 2, backend="markov")
        assert first.pool_absolute_scenario1.mean == pytest.approx(second.pool_absolute_scenario1.mean)

    def test_runs_use_distinct_seeds(self):
        aggregate = run_many(CONFIG, 3, backend="markov")
        seeds = {result.config.seed for result in aggregate.results}
        assert len(seeds) == 3

    def test_zero_runs_rejected(self):
        with pytest.raises(SimulationError):
            run_many(CONFIG, 0)

    def test_parallel_matches_serial(self):
        serial = run_many(CONFIG, 2, backend="markov")
        parallel = run_many(CONFIG, 2, backend="markov", max_workers=2)
        assert serial.relative_pool_revenue == parallel.relative_pool_revenue
        assert [r.config.seed for r in serial.results] == [r.config.seed for r in parallel.results]

    def test_invalid_max_workers_rejected(self):
        for max_workers in (0, -1):
            with pytest.raises(SimulationError):
                run_many(CONFIG, 2, max_workers=max_workers)
            with pytest.raises(SimulationError):
                execute_runs([(CONFIG, "markov")], max_workers=max_workers)

    def test_excess_workers_are_capped_to_runs(self):
        aggregate = run_many(CONFIG, 2, backend="markov", max_workers=16)
        assert aggregate.num_runs == 2

    def test_grid_matches_per_cell_run_many(self):
        cells = [CONFIG.with_seed(5), CONFIG.with_seed(9)]
        grid = run_many_grid(cells, 2, backend="markov")
        for cell, aggregate in zip(cells, grid):
            expected = run_many(cell, 2, backend="markov")
            assert aggregate.relative_pool_revenue == expected.relative_pool_revenue
            assert [r.config.seed for r in aggregate.results] == [
                r.config.seed for r in expected.results
            ]

    def test_grid_parallelises_across_cells_with_single_runs(self):
        # One run per cell: the flat fan-out must still dispatch both cells to the
        # pool and return them in input order, bit-identical to serial.
        cells = [CONFIG.with_seed(5), CONFIG.with_seed(9)]
        serial = run_many_grid(cells, 1, backend="markov")
        parallel = run_many_grid(cells, 1, backend="markov", max_workers=2)
        for serial_cell, parallel_cell in zip(serial, parallel):
            assert serial_cell.relative_pool_revenue == parallel_cell.relative_pool_revenue


def alpha_sweep(alphas) -> SimulatedAlphaSweep:
    """A one-run-per-point Markov sweep over ``alphas`` at ``CONFIG``'s ``gamma``."""
    grid = [MiningParams(alpha=alpha, gamma=CONFIG.params.gamma) for alpha in alphas]
    aggregates = run_many_grid(
        [CONFIG.with_params(params) for params in grid], 1, backend="markov"
    )
    return SimulatedAlphaSweep(
        gamma=CONFIG.params.gamma,
        points=tuple(
            SimulatedSweepPoint(params=params, aggregate=aggregate)
            for params, aggregate in zip(grid, aggregates)
        ),
    )


class TestSweepAndHelpers:
    def test_simulated_alpha_sweep_covers_grid(self):
        sweep = alpha_sweep([0.1, 0.3])
        assert sweep.alphas == [0.1, 0.3]
        assert len(sweep.pool_absolute_scenario1()) == 2
        assert len(sweep.honest_absolute_scenario1()) == 2
        assert sweep.gamma == 0.5

    def test_pool_revenue_increases_along_the_sweep(self):
        values = alpha_sweep([0.1, 0.4]).pool_absolute_scenario1()
        assert values[1] > values[0]

    def test_honest_baseline_config_switches_strategy_only(self):
        baseline = honest_baseline_config(CONFIG)
        assert baseline.strategy_name == "honest"
        assert baseline.params == CONFIG.params
        assert baseline.num_blocks == CONFIG.num_blocks

    def test_strategy_sweep_covers_requested_strategies(self):
        small = SimulationConfig(params=MiningParams(alpha=0.35, gamma=0.5), num_blocks=1200, seed=3)
        honest, selfish = run_many_grid(
            [small.with_strategy("honest"), small.with_strategy("selfish")], 1
        )
        assert honest.stale_fraction.mean == 0.0
        assert selfish.stale_fraction.mean >= 0.0

    def test_sequential_seeds_are_deterministic_and_distinct(self):
        first = sequential_seeds(42, 4)
        second = sequential_seeds(42, 4)
        assert list(first) == list(second)
        assert len(set(first)) == 4


def _store_entries(root) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.json"))
    }


def _nested_run_many(seed: int) -> tuple[float, bool]:
    """A dispatcher task that itself calls ``run_many`` with default workers."""
    aggregate = run_many(CONFIG.with_seed(seed), 2, backend="markov")
    return aggregate.relative_pool_revenue, multiprocessing.current_process().daemon


class TestDefaultWorkers:
    """``max_workers=None`` means every usable CPU, bit-identical to serial."""

    def test_default_matches_serial_figure8_report_and_store(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        kwargs = dict(
            alphas=(0.1, 0.2, 0.3), simulation_runs=2, simulation_blocks=2_000, max_lead=20
        )
        fanned = run_figure8(store=ResultStore(tmp_path / "default"), **kwargs)
        serial = run_figure8(store=ResultStore(tmp_path / "serial"), max_workers=1, **kwargs)
        assert fanned.report() == serial.report()
        entries = _store_entries(tmp_path / "default")
        assert len(entries) == 6
        assert entries == _store_entries(tmp_path / "serial")

    def test_two_usable_cpus_build_in_workers(self, monkeypatch, simulator_builds):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        fanned = run_many(CONFIG, 3, backend="markov")
        assert simulator_builds["builds"] == 0, "the default pool ran the runs in-process"
        serial = run_many(CONFIG, 3, backend="markov", max_workers=1)
        assert simulator_builds["builds"] == 3
        assert fanned.results == serial.results

    def test_one_usable_cpu_runs_in_process(self, monkeypatch, simulator_builds):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        aggregate = run_many(CONFIG, 3, backend="markov")
        assert simulator_builds["builds"] == 3
        assert aggregate.num_runs == 3

    def test_cpu_count_fallback_without_affinity(self, monkeypatch, simulator_builds):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        run_many(CONFIG, 2, backend="markov")
        assert simulator_builds["builds"] == 2

    def test_single_missing_run_opens_no_pool(self, tmp_path, monkeypatch, simulator_builds):
        import repro.utils.resilient as resilient_module

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        store = ResultStore(tmp_path / "cache")
        run_many(CONFIG, 1, backend="markov", store=store, max_workers=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was opened for one missing run")

        monkeypatch.setattr(resilient_module, "_pool_map", no_pool)
        simulator_builds["builds"] = 0
        cached_and_fresh = run_many(CONFIG, 2, backend="markov", store=store)
        assert simulator_builds["builds"] == 1
        serial = run_many(CONFIG, 2, backend="markov", max_workers=1)
        assert cached_and_fresh.results == serial.results

    def test_default_inside_a_dispatcher_worker_runs_serially(self):
        outcomes = resilient_map(_nested_run_many, [5, 9], max_workers=2)
        assert not any(isinstance(outcome, TaskFailure) for outcome in outcomes), outcomes
        assert [daemon for _, daemon in outcomes] == [True, True]
        expected = [
            run_many(CONFIG.with_seed(seed), 2, backend="markov", max_workers=1)
            for seed in (5, 9)
        ]
        assert [revenue for revenue, _ in outcomes] == [
            aggregate.relative_pool_revenue for aggregate in expected
        ]
