"""Pin the compiled revenue path to the per-transition accumulation it replaced.

:meth:`RevenueModel.revenue_rates` prices each (case, uncle distance) group once
and forms every rate as a dot product over the compiled chain, weighted by the
lead-class masses.  The oracle below is the straightforward loop: enumerate
every labelled transition at the point, price each one with
:func:`transition_rewards` and accumulate its record weighted by
``mass(source) * rate``, with the masses from a scalar recurrence on the lead.
The two must agree field by field on a grid that covers the corners of the
parameter space, four schedules and truncations from the smallest legal one up
to the default.  Where the 2-D chain has converged, the lumped rates also equal
the 2-D chain's (:mod:`two_d_oracle`).
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.revenue import RevenueModel, RevenueRates
from repro.analysis.reward_cases import transition_rewards
from repro.markov.state import State, StateSpace
from repro.markov.transitions import compiled_selfish_chain, selfish_mining_transitions
from repro.params import MiningParams
from repro.rewards.breakdown import PartyRewards, RevenueSplit
from repro.rewards.schedule import BitcoinSchedule, EthereumByzantiumSchedule, FlatUncleSchedule

from two_d_oracle import two_d_revenue_rates

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


def scalar_lead_class_masses(params: MiningParams, max_lead: int) -> dict[State, float]:
    """The lumped law by its cut recurrence, each class on its representative state.

    Mass moves up a lead at rate ``alpha`` and down at rate ``beta``, so the mass
    ``M`` of lead ``l + 1`` is ``M(l) * alpha / beta``; its ``j = 0`` part grows by
    ``alpha`` per lead and the ``j >= 1`` part, on ``(l + 1, 1)``, is the rest.
    """
    alpha, beta = params.alpha, params.beta
    masses = {State(0, 0): 1.0, State(1, 0): alpha, State(1, 1): alpha * beta}
    lead_mass, consensus = alpha * alpha / beta, alpha * alpha
    for lead in range(2, max_lead + 1):
        masses[State(lead, 0)] = consensus
        if lead < max_lead:
            masses[State(lead + 1, 1)] = lead_mass - consensus
        lead_mass, consensus = lead_mass * alpha / beta, consensus * alpha
    total = sum(masses.values())
    return {state: mass / total for state, mass in masses.items()}


def scalar_revenue_rates(schedule, params: MiningParams, max_lead: int, masses: dict[State, float]) -> RevenueRates:
    """The per-transition accumulation, one :func:`transition_rewards` call per transition."""
    probabilities = masses
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


def assert_rates_agree(compiled: RevenueRates, oracle: RevenueRates, *, distance_abs_tol: float = 0.0) -> None:
    for name, expected in rate_fields(oracle).items():
        actual = rate_fields(compiled)[name]
        assert math.isclose(actual, expected, rel_tol=RELATIVE_TOLERANCE, abs_tol=0.0), (name, actual, expected)
    compiled_distances = compiled.honest_uncle_distance_rates
    oracle_distances = oracle.honest_uncle_distance_rates
    assert list(compiled_distances) == list(oracle_distances)
    for distance, expected in oracle_distances.items():
        assert math.isclose(
            compiled_distances[distance], expected, rel_tol=RELATIVE_TOLERANCE, abs_tol=distance_abs_tol
        ), (distance, compiled_distances[distance], expected)


@pytest.mark.parametrize("max_lead", MAX_LEADS)
@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_compiled_revenue_matches_scalar_oracle(alpha, gamma, max_lead):
    params = MiningParams(alpha=alpha, gamma=gamma)
    masses = scalar_lead_class_masses(params, max_lead)
    for schedule in SCHEDULES:
        compiled = RevenueModel(schedule, max_lead=max_lead).revenue_rates(params)
        assert_rates_agree(compiled, scalar_revenue_rates(schedule, params, max_lead, masses))


@pytest.mark.parametrize("max_lead", MAX_LEADS)
@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_lead_class_masses_match_the_scalar_recurrence(alpha, gamma, max_lead):
    params = MiningParams(alpha=alpha, gamma=gamma)
    compiled = compiled_selfish_chain(max_lead)
    expected = scalar_lead_class_masses(params, max_lead)
    for state, mass in zip(compiled.space, compiled.lead_class_masses(params).tolist()):
        assert math.isclose(mass, expected.get(state, 0.0), rel_tol=1e-13, abs_tol=0.0), (state, mass)


@pytest.mark.parametrize("alpha, gamma", [(0.45, 0.5), (0.3, 0.0), (0.163, 0.5), (0.2, 1.0)])
def test_lumped_revenue_matches_the_two_d_chain_where_it_has_converged(alpha, gamma):
    params = MiningParams(alpha=alpha, gamma=gamma)
    for schedule in SCHEDULES:
        lumped = RevenueModel(schedule, max_lead=200).revenue_rates(params)
        # The deepest distances hold rates below 1e-15, whose races reach the
        # truncation, where the two chains differ.
        assert_rates_agree(lumped, two_d_revenue_rates(params, 200, schedule), distance_abs_tol=1e-18)


@pytest.mark.parametrize("max_lead", MAX_LEADS)
def test_compiled_chain_equals_enumerated_chain(max_lead):
    params = MiningParams(alpha=0.3, gamma=0.5)
    compiled = compiled_selfish_chain(max_lead)
    states = compiled.space.states
    enumerated = selfish_mining_transitions(params, StateSpace(max_lead))
    assert [(t.source, t.target, t.kind.value) for t in enumerated] == [
        (states[source], states[target], case)
        for source, target, case in zip(compiled.sources.tolist(), compiled.targets.tolist(), compiled.cases.tolist())
    ]
    assert compiled.rates(params).tolist() == [t.rate for t in enumerated]


def test_shortcut_agrees_with_the_oracle():
    schedule = FlatUncleSchedule(0.5)
    params = MiningParams(alpha=0.3, gamma=0.5)
    oracle = scalar_revenue_rates(schedule, params, 30, scalar_lead_class_masses(params, 30))
    assert RevenueModel(schedule, max_lead=30).relative_pool_revenue(params) == pytest.approx(
        oracle.relative_pool_revenue, rel=1e-12
    )


def test_compiled_chain_is_cached_per_truncation():
    assert compiled_selfish_chain(30) is compiled_selfish_chain(30)
    assert compiled_selfish_chain(30) is not compiled_selfish_chain(31)
