"""Micro-benchmarks of the underlying engines.

These do not correspond to a specific paper artifact; they track the cost of the
building blocks every experiment rests on — the stationary solve, one analytical
revenue evaluation, a threshold search, and the two simulator backends — so that
performance regressions show up alongside the reproduction benchmarks.

Benchmarked sizes honour the ``REPRO_BENCH_SCALE`` environment variable (a float
multiplier applied to the block counts, default 1.0) so that CI can run the same
suite as a quick smoke at a fraction of paper scale; ``benchmarks/run_benchmarks.py``
sets it for its ``--smoke`` mode.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.analysis.absolute import Scenario
from repro.analysis.revenue import RevenueModel
from repro.analysis.threshold import profitable_threshold
from repro.chain.fork_choice import LongestChainRule
from repro.chain.rewards import settle_rewards
from repro.chain.validation import validate_tree
from repro.markov.stationary import stationary_distribution
from repro.markov.transitions import build_selfish_mining_chain, compiled_selfish_chain
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule, FlatUncleSchedule
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import ChainSimulator
from repro.simulation.fast import MarkovMonteCarlo

PARAMS = MiningParams(alpha=0.35, gamma=0.5)

#: Scale multiplier for the simulator block counts (CI smoke runs use < 1).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(blocks: int) -> int:
    """``blocks`` scaled by ``REPRO_BENCH_SCALE`` (at least 1000)."""
    return max(1000, int(blocks * BENCH_SCALE))


@pytest.mark.parametrize("max_lead", [60, 200])
def test_stationary_solve_benchmark(benchmark, max_lead):
    chain = build_selfish_mining_chain(PARAMS, max_lead=max_lead)
    if max_lead >= 200:
        result = benchmark.pedantic(stationary_distribution, args=(chain,), rounds=1, iterations=1)
    else:
        result = benchmark(stationary_distribution, chain)
    assert result.total_probability() == pytest.approx(1.0)


def test_lead_class_masses_benchmark(benchmark):
    """The lead-class masses of the compiled ``max_lead=60`` chain at ``PARAMS``.

    The long-run law the revenue path uses.  The ``--check`` control is
    ``test_stationary_solve_benchmark[60]``, the generic SuperLU solve of the
    same chain: this must be at least 3x faster in the same run.
    """
    compiled = compiled_selfish_chain(60)
    masses = benchmark(compiled.lead_class_masses, PARAMS)
    assert masses.sum() == pytest.approx(1.0)


def test_revenue_evaluation_benchmark(benchmark):
    model = RevenueModel(EthereumByzantiumSchedule(), max_lead=60)
    rates = benchmark(model.revenue_rates, PARAMS)
    assert rates.block_rate == pytest.approx(1.0)


def test_generic_chain_solve_benchmark(benchmark):
    """Enumerate the chain from Python objects and solve it, with no pricing at all.

    The ``--check`` control for the compiled revenue path: one full
    ``revenue_rates`` point (solve and pricing) must take at most a third of
    this in the same run.
    """
    result = benchmark(lambda: stationary_distribution(build_selfish_mining_chain(PARAMS, max_lead=60)))
    assert result.total_probability() == pytest.approx(1.0)


def test_threshold_search_benchmark(benchmark):
    model = RevenueModel(FlatUncleSchedule(0.5), max_lead=30)
    result = benchmark.pedantic(
        profitable_threshold,
        args=(0.5,),
        kwargs={"scenario": Scenario.REGULAR_ONLY, "model": model},
        rounds=1,
        iterations=1,
    )
    assert result.alpha_star == pytest.approx(0.163, abs=0.005)


def test_chain_simulator_benchmark(benchmark):
    blocks = scaled(20_000)
    benchmark.extra_info["blocks"] = blocks
    config = SimulationConfig(
        params=PARAMS, schedule=EthereumByzantiumSchedule(), num_blocks=blocks, seed=1
    )
    result = benchmark.pedantic(lambda: ChainSimulator(config).run(), rounds=1, iterations=1)
    assert result.total_blocks == blocks


def test_chain_settlement_benchmark(benchmark):
    """Validate and settle the finished ``test_chain_simulator_benchmark`` tree.

    The ``--check`` control that keeps the end-of-run chain passes vectorised:
    together they must cost at most half of the simulator run that built the
    tree, timed in the same invocation.  A block-by-block walk over the tree
    costs about twice that run.
    """
    blocks = scaled(20_000)
    benchmark.extra_info["blocks"] = blocks
    config = SimulationConfig(
        params=PARAMS, schedule=EthereumByzantiumSchedule(), num_blocks=blocks, seed=1
    )
    simulator = ChainSimulator(config)
    result = simulator.run()
    tree = simulator.tree
    tip_id = LongestChainRule().best_tip_id(tree, published_only=True)

    def validate_and_settle():
        validate_tree(
            tree,
            max_uncles_per_block=config.max_uncles_per_block,
            max_uncle_distance=config.max_uncle_distance,
        )
        return settle_rewards(
            tree, tip_id, config.schedule, skip_heights_below=config.warmup_blocks
        )

    settlement = benchmark.pedantic(validate_and_settle, rounds=5, iterations=1)
    assert settlement.total_blocks == result.total_blocks == blocks


def test_markov_monte_carlo_benchmark(benchmark):
    """The compiled-table Markov backend."""
    blocks = scaled(100_000)
    benchmark.extra_info["blocks"] = blocks
    config = SimulationConfig(
        params=PARAMS, schedule=EthereumByzantiumSchedule(), num_blocks=blocks, seed=1
    )
    result = benchmark.pedantic(lambda: MarkovMonteCarlo(config).run(), rounds=1, iterations=1)
    assert result.total_blocks == blocks


def test_markov_monte_carlo_scalar_benchmark(benchmark):
    """The per-event scalar loop the test-suite keeps as the Markov backend's oracle.

    ``run_benchmarks.py --check`` asserts the table walk beats this loop, so the
    two benchmarks must simulate the same number of blocks.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "unit"))
    from markov_oracle import scalar_markov_run

    blocks = scaled(100_000)
    benchmark.extra_info["blocks"] = blocks
    config = SimulationConfig(
        params=PARAMS, schedule=EthereumByzantiumSchedule(), num_blocks=blocks, seed=1
    )
    result, _ = benchmark.pedantic(lambda: scalar_markov_run(config), rounds=1, iterations=1)
    assert result.total_blocks == blocks
