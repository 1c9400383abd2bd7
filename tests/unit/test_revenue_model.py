"""Unit tests for the analytical revenue engine."""

from __future__ import annotations

import pytest

from repro.analysis.revenue import RevenueModel
from repro.params import MiningParams
from repro.rewards.schedule import BitcoinSchedule, EthereumByzantiumSchedule, FlatUncleSchedule


class TestBasicProperties:
    def test_block_rate_is_one(self, ethereum_model, params_point):
        rates = ethereum_model.revenue_rates(params_point)
        assert rates.block_rate == pytest.approx(1.0, abs=1e-9)

    def test_regular_rate_equals_total_static_reward(self, ethereum_model, params_point):
        # With Ks = 1 every regular block pays exactly one unit of static reward.
        rates = ethereum_model.revenue_rates(params_point)
        assert rates.regular_rate == pytest.approx(rates.split.total_static, abs=1e-12)

    def test_rates_are_non_negative(self, ethereum_model, params_point):
        rates = ethereum_model.revenue_rates(params_point)
        for value in (
            rates.pool.static,
            rates.pool.uncle,
            rates.pool.nephew,
            rates.honest.static,
            rates.honest.uncle,
            rates.honest.nephew,
            rates.regular_rate,
            rates.uncle_rate,
            rates.stale_rate,
        ):
            assert value >= 0.0

    def test_uncle_rate_decomposes_by_miner(self, ethereum_model, params_point):
        rates = ethereum_model.revenue_rates(params_point)
        assert rates.uncle_rate == pytest.approx(rates.pool_uncle_rate + rates.honest_uncle_rate)

    def test_honest_uncle_distance_rates_sum_to_honest_uncle_rate(self, ethereum_model, params_point):
        rates = ethereum_model.revenue_rates(params_point)
        within_window = sum(rates.honest_uncle_distance_rates.values())
        assert within_window == pytest.approx(rates.honest_uncle_rate, abs=1e-9)

    def test_as_dict_round_trips_key_quantities(self, ethereum_model):
        params = MiningParams(alpha=0.3, gamma=0.5)
        rates = ethereum_model.revenue_rates(params)
        data = rates.as_dict()
        assert data["alpha"] == params.alpha
        assert data["pool_static"] == pytest.approx(rates.pool.static)
        assert data["relative_pool_revenue"] == pytest.approx(rates.relative_pool_revenue)


class TestAgainstKnownBehaviour:
    def test_tiny_pool_earns_roughly_its_share(self, ethereum_model):
        rates = ethereum_model.revenue_rates(MiningParams(alpha=0.01, gamma=0.5))
        assert rates.relative_pool_revenue == pytest.approx(0.01, abs=0.005)

    def test_static_rewards_match_eyal_sirer_formula(self, ethereum_model):
        # Remark 4: the static-reward analysis coincides with Eyal-Sirer's.
        params = MiningParams(alpha=0.35, gamma=0.5)
        rates = ethereum_model.revenue_rates(params)
        alpha, gamma = params.alpha, params.gamma
        expected_pool = (
            alpha * (1 - alpha) ** 2 * (4 * alpha + gamma * (1 - 2 * alpha)) - alpha**3
        ) / (2 * alpha**3 - 4 * alpha**2 + 1)
        assert rates.pool.static == pytest.approx(expected_pool, abs=1e-9)

    def test_pool_uncles_all_at_distance_one(self, ethereum_model):
        # Remark 5: the pool's uncles are always referenced at distance 1, so its
        # uncle revenue equals Ku(1) times its uncle creation rate.
        params = MiningParams(alpha=0.3, gamma=0.4)
        rates = ethereum_model.revenue_rates(params)
        assert rates.pool.uncle == pytest.approx(rates.pool_uncle_rate * 7 / 8, abs=1e-9)

    def test_pool_share_at_alpha_045_gamma_0_is_0611358(self):
        # The 2-D chain capped at Ls <= 60 gave 0.594435 here: at gamma = 0 races
        # never shorten the private branch, so that cap cut off races of small lead.
        params = MiningParams(alpha=0.45, gamma=0.0)
        assert RevenueModel().relative_pool_revenue(params) == pytest.approx(0.611358, abs=1e-6)
        assert RevenueModel(max_lead=200).relative_pool_revenue(params) == pytest.approx(0.611358, abs=1e-6)

    def test_bitcoin_schedule_produces_no_uncle_revenue(self, bitcoin_model, params_point):
        rates = bitcoin_model.revenue_rates(params_point)
        assert rates.pool.uncle == 0.0
        assert rates.honest.uncle == 0.0
        assert rates.pool.nephew == 0.0
        assert rates.honest.nephew == 0.0
        assert rates.uncle_rate == 0.0

    def test_uncle_revenue_scales_with_flat_fraction(self):
        params = MiningParams(alpha=0.3, gamma=0.5)
        small = RevenueModel(FlatUncleSchedule(0.25), max_lead=40).revenue_rates(params)
        large = RevenueModel(FlatUncleSchedule(0.75), max_lead=40).revenue_rates(params)
        assert large.pool.uncle == pytest.approx(3 * small.pool.uncle, rel=1e-9)
        assert large.honest.uncle == pytest.approx(3 * small.honest.uncle, rel=1e-9)
        # Static rewards and block classification are schedule-independent.
        assert large.pool.static == pytest.approx(small.pool.static)
        assert large.uncle_rate == pytest.approx(small.uncle_rate)


class TestTruncationAndReuse:
    def test_truncation_insensitivity(self):
        # Truncation error decays roughly like (alpha/beta)**max_lead; at alpha = 0.45
        # the 30-state model is accurate to a few 1e-3 and the 70-state model to
        # better than 1e-6, so the two must agree to the coarser of the two errors.
        params = MiningParams(alpha=0.45, gamma=0.5)
        coarse = RevenueModel(EthereumByzantiumSchedule(), max_lead=30).revenue_rates(params)
        fine = RevenueModel(EthereumByzantiumSchedule(), max_lead=70).revenue_rates(params)
        assert coarse.pool.total == pytest.approx(fine.pool.total, abs=5e-3)
        assert coarse.honest.total == pytest.approx(fine.honest.total, abs=5e-3)
        assert coarse.uncle_rate == pytest.approx(fine.uncle_rate, abs=5e-3)

    def test_truncation_error_decreases_with_depth(self):
        params = MiningParams(alpha=0.45, gamma=0.5)
        reference = RevenueModel(EthereumByzantiumSchedule(), max_lead=90).revenue_rates(params)
        coarse = RevenueModel(EthereumByzantiumSchedule(), max_lead=30).revenue_rates(params)
        fine = RevenueModel(EthereumByzantiumSchedule(), max_lead=60).revenue_rates(params)
        assert abs(fine.pool.total - reference.pool.total) < abs(coarse.pool.total - reference.pool.total)

    @pytest.mark.parametrize(
        "alpha, gamma, bound",
        [
            (0.45, 0.0, 2e-6),
            (0.40, 0.0, 1e-11),
            (0.30, 0.0, 1e-16),
            (0.45, 0.5, 2e-6),
            (0.40, 0.5, 1e-11),
            (0.35, 0.5, 1e-16),
            (0.30, 1.0, 1e-16),
            (0.20, 0.5, 1e-16),
        ],
    )
    def test_default_truncation_error_is_as_documented(self, alpha, gamma, bound):
        # The RevenueModel and profitable_threshold docstrings quote these bounds
        # on |Rs(max_lead=60) - Rs(exact)|.  The lead mass beyond 200 is below
        # (0.45 / 0.55)**200 = 4e-18, so max_lead=200 is exact in double precision.
        params = MiningParams(alpha=alpha, gamma=gamma)
        default = RevenueModel(max_lead=60).revenue_rates(params).relative_pool_revenue
        exact = RevenueModel(max_lead=200).revenue_rates(params).relative_pool_revenue
        assert abs(default - exact) <= bound

    def test_relative_revenue_shortcut(self, ethereum_model):
        params = MiningParams(alpha=0.3, gamma=0.5)
        assert ethereum_model.relative_pool_revenue(params) == pytest.approx(
            ethereum_model.revenue_rates(params).relative_pool_revenue
        )

    def test_describe_mentions_schedule_and_truncation(self, ethereum_model):
        text = ethereum_model.describe()
        assert "EthereumByzantiumSchedule" in text
        assert "max_lead=60" in text
