"""Integration: the two simulator backends agree with each other and with the analysis."""

from __future__ import annotations

import math

import pytest

from repro.analysis.revenue import RevenueModel
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import run_many


class TestBackendsAgree:
    def test_markov_backend_matches_the_analytical_model_at_gamma_zero(self):
        # At gamma = 0 a race never shortens the private branch.  The markov
        # sampler keeps every lead, so it must converge to the lumped model's
        # exact value, not to the 2-D chain capped at Ls <= 60 (0.594435, about
        # eleven standard errors below).
        params = MiningParams(alpha=0.45, gamma=0.0)
        config = SimulationConfig(
            params=params, schedule=EthereumByzantiumSchedule(), num_blocks=200_000, seed=77
        )
        share = run_many(config, 10, backend="markov").relative_pool_revenue
        standard_error = share.std / math.sqrt(share.count)
        expected = RevenueModel().relative_pool_revenue(params)
        assert abs(share.mean - expected) <= 3 * standard_error, (share, expected)

    @pytest.mark.parametrize("alpha", [0.2, 0.4])
    def test_chain_and_markov_backends_produce_matching_revenues(self, alpha):
        config = SimulationConfig(
            params=MiningParams(alpha=alpha, gamma=0.5),
            schedule=EthereumByzantiumSchedule(),
            num_blocks=30_000,
            seed=77,
        )
        chain = run_many(config, 2, backend="chain")
        markov = run_many(config, 2, backend="markov")
        assert chain.pool_absolute_scenario1.mean == pytest.approx(
            markov.pool_absolute_scenario1.mean, abs=0.02
        )
        assert chain.relative_pool_revenue.mean == pytest.approx(
            markov.relative_pool_revenue.mean, abs=0.015
        )
        assert chain.uncle_fraction.mean == pytest.approx(markov.uncle_fraction.mean, abs=0.01)

    def test_honest_pool_matches_fair_share_on_both_backends(self):
        config = SimulationConfig(
            params=MiningParams(alpha=0.3, gamma=0.5),
            schedule=EthereumByzantiumSchedule(),
            num_blocks=20_000,
            seed=5,
            strategy="honest",
        )
        chain = run_many(config, 2, backend="chain")
        assert chain.pool_absolute_scenario1.mean == pytest.approx(0.3, abs=0.02)
        assert chain.stale_fraction.mean == 0.0

    def test_selfish_mining_beats_honest_mining_above_threshold_on_both_backends(self):
        params = MiningParams(alpha=0.4, gamma=0.5)
        config = SimulationConfig(
            params=params, schedule=EthereumByzantiumSchedule(), num_blocks=30_000, seed=9
        )
        for backend in ("chain", "markov"):
            aggregate = run_many(config, 2, backend=backend)
            assert aggregate.pool_absolute_scenario1.mean > params.alpha

    def test_expected_uncle_distance_agrees_across_backends(self):
        config = SimulationConfig(
            params=MiningParams(alpha=0.45, gamma=0.5),
            schedule=EthereumByzantiumSchedule(),
            num_blocks=30_000,
            seed=123,
        )
        chain = run_many(config, 2, backend="chain")
        markov = run_many(config, 2, backend="markov")
        assert chain.expected_honest_uncle_distance.mean == pytest.approx(
            markov.expected_honest_uncle_distance.mean, abs=0.15
        )

    def test_scenario2_revenue_agreement(self):
        config = SimulationConfig(
            params=MiningParams(alpha=0.35, gamma=0.5),
            schedule=EthereumByzantiumSchedule(),
            num_blocks=30_000,
            seed=31,
        )
        chain = run_many(config, 2, backend="chain")
        markov = run_many(config, 2, backend="markov")
        assert chain.pool_absolute_scenario2.mean == pytest.approx(
            markov.pool_absolute_scenario2.mean, abs=0.02
        )
