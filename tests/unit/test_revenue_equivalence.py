"""Pin the compiled revenue path to the per-transition accumulation it replaced.

:meth:`RevenueModel.revenue_rates` prices each (case, uncle distance) group once
and forms every rate as a dot product over the compiled chain.  The oracle below
is the straightforward loop: enumerate every labelled transition at the point,
price each one with :func:`transition_rewards` and accumulate its record weighted
by ``pi(source) * rate``.  The two must agree field by field on a grid that
covers the corners of the parameter space, four schedules and truncations from
the smallest legal one up to the default.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.revenue import RevenueModel, RevenueRates
from repro.analysis.reward_cases import transition_rewards
from repro.errors import StateSpaceError
from repro.markov.state import StateSpace
from repro.markov.stationary import stationary_distribution
from repro.markov.transitions import build_selfish_mining_chain, compiled_selfish_chain, selfish_mining_transitions
from repro.params import MiningParams
from repro.rewards.breakdown import PartyRewards, RevenueSplit
from repro.rewards.schedule import BitcoinSchedule, EthereumByzantiumSchedule, FlatUncleSchedule

ALPHAS = (0.0, 0.01, 0.163, 0.3, 0.45, 0.49)
GAMMAS = (0.0, 0.5, 1.0)
MAX_LEADS = (2, 3, 30, 60)
SCHEDULES = (
    EthereumByzantiumSchedule(),
    FlatUncleSchedule(0.5),
    BitcoinSchedule(),
    FlatUncleSchedule(7 / 8, max_uncle_distance=10**6),
)
RELATIVE_TOLERANCE = 1e-12


def scalar_revenue_rates(schedule, params: MiningParams, max_lead: int, stationary) -> RevenueRates:
    """The per-transition accumulation, one :func:`transition_rewards` call per transition."""
    probabilities = stationary.as_mapping()
    pool = PartyRewards()
    honest = PartyRewards()
    regular_rate = 0.0
    uncle_rate = 0.0
    pool_uncle_rate = 0.0
    honest_uncle_rate = 0.0
    stale_rate = 0.0
    distance_rates: dict[int, float] = {}
    for transition in selfish_mining_transitions(params, StateSpace(max_lead)):
        weight = probabilities.get(transition.source, 0.0) * transition.rate
        if weight == 0.0:
            continue
        record = transition_rewards(transition, params, schedule)
        pool = pool + record.pool.scaled(weight)
        honest = honest + record.honest.scaled(weight)
        regular_rate += weight * record.regular_probability
        uncle_rate += weight * record.uncle_probability
        stale_rate += weight * record.stale_probability
        pool_uncle_rate += weight * record.uncle_probability * record.pool_mined_probability
        honest_mined = 1.0 - record.pool_mined_probability
        honest_uncle_rate += weight * record.uncle_probability * honest_mined
        if record.uncle_distance is not None and record.uncle_probability > 0.0 and honest_mined > 0.0:
            distance = record.uncle_distance
            distance_rates[distance] = distance_rates.get(distance, 0.0) + (
                weight * record.uncle_probability * honest_mined
            )
    return RevenueRates(
        params=params,
        split=RevenueSplit(pool=pool, honest=honest),
        regular_rate=regular_rate,
        uncle_rate=uncle_rate,
        pool_uncle_rate=pool_uncle_rate,
        honest_uncle_rate=honest_uncle_rate,
        honest_uncle_distance_rates=dict(sorted(distance_rates.items())),
        stale_rate=stale_rate,
    )


def rate_fields(rates: RevenueRates) -> dict[str, float]:
    """Every scalar field of a :class:`RevenueRates`."""
    return {
        "pool_static": rates.pool.static,
        "pool_uncle": rates.pool.uncle,
        "pool_nephew": rates.pool.nephew,
        "honest_static": rates.honest.static,
        "honest_uncle": rates.honest.uncle,
        "honest_nephew": rates.honest.nephew,
        "regular_rate": rates.regular_rate,
        "uncle_rate": rates.uncle_rate,
        "pool_uncle_rate": rates.pool_uncle_rate,
        "honest_uncle_rate": rates.honest_uncle_rate,
        "stale_rate": rates.stale_rate,
    }


def assert_rates_agree(compiled: RevenueRates, oracle: RevenueRates) -> None:
    for name, expected in rate_fields(oracle).items():
        actual = rate_fields(compiled)[name]
        assert math.isclose(actual, expected, rel_tol=RELATIVE_TOLERANCE, abs_tol=0.0), (name, actual, expected)
    compiled_distances = compiled.honest_uncle_distance_rates
    oracle_distances = oracle.honest_uncle_distance_rates
    assert list(compiled_distances) == list(oracle_distances)
    for distance, expected in oracle_distances.items():
        assert math.isclose(
            compiled_distances[distance], expected, rel_tol=RELATIVE_TOLERANCE, abs_tol=0.0
        ), (distance, compiled_distances[distance], expected)


@pytest.mark.parametrize("max_lead", MAX_LEADS)
@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_compiled_revenue_matches_scalar_oracle(alpha, gamma, max_lead):
    params = MiningParams(alpha=alpha, gamma=gamma)
    # The oracle weighs by the distribution of the solve under test, so this pins
    # pricing and accumulation; tests/unit/test_selfish_stationary.py pins the solve.
    stationary = RevenueModel(max_lead=max_lead).stationary(params)
    for schedule in SCHEDULES:
        compiled = RevenueModel(schedule, max_lead=max_lead).revenue_rates(params)
        assert_rates_agree(compiled, scalar_revenue_rates(schedule, params, max_lead, stationary))


@pytest.mark.parametrize("max_lead", MAX_LEADS)
def test_compiled_chain_equals_enumerated_chain(max_lead):
    params = MiningParams(alpha=0.3, gamma=0.5)
    compiled = compiled_selfish_chain(max_lead).chain(params)
    enumerated = build_selfish_mining_chain(params, max_lead=max_lead)
    assert compiled.states == enumerated.states
    assert compiled.transitions == enumerated.transitions


def test_supplied_stationary_and_shortcuts_agree_with_the_oracle():
    schedule = FlatUncleSchedule(0.5)
    params = MiningParams(alpha=0.3, gamma=0.5)
    model = RevenueModel(schedule, max_lead=30)
    stationary = model.stationary(params)
    assert stationary.chain.transitions == model.build_chain(params).transitions
    oracle = scalar_revenue_rates(schedule, params, 30, stationary)
    assert_rates_agree(model.revenue_rates(params, stationary=stationary), oracle)
    assert model.relative_pool_revenue(params) == pytest.approx(oracle.relative_pool_revenue, rel=1e-12)


@pytest.mark.parametrize("supplied_lead, model_lead", [(10, 30), (30, 10)])
def test_stationary_from_another_truncation_is_rejected(supplied_lead, model_lead):
    params = MiningParams(alpha=0.3, gamma=0.5)
    stationary = RevenueModel(max_lead=supplied_lead).stationary(params)
    with pytest.raises(StateSpaceError, match="does not belong to this model's truncation"):
        RevenueModel(max_lead=model_lead).revenue_rates(params, stationary=stationary)


def test_stationary_from_a_generic_solve_is_accepted():
    params = MiningParams(alpha=0.3, gamma=0.5)
    stationary = stationary_distribution(build_selfish_mining_chain(params, max_lead=30))
    rates = RevenueModel(max_lead=30).revenue_rates(params, stationary=stationary)
    assert rates.block_rate == pytest.approx(1.0, abs=1e-12)


def test_compiled_chain_is_cached_per_truncation():
    assert compiled_selfish_chain(30) is compiled_selfish_chain(30)
    assert compiled_selfish_chain(30) is not compiled_selfish_chain(31)
