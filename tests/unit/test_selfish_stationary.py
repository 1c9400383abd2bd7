"""Pin the selfish-mining chain's long-run law: the lumped masses and the 2-D oracle.

:meth:`CompiledSelfishChain.lead_class_masses` is the law the revenue analysis
uses: the chain lumped exactly onto the pool's lead, in closed form.  The tests
below prove the lumping on the compiled 2-D generator and check the masses
against the paper's Eq. 2 and against the 2-D chain solved state by state.

That 2-D solve, :func:`two_d_oracle.structured_stationary`, is itself pinned
by three references:

* for small truncations, an exact Gaussian elimination over
  :class:`fractions.Fraction` of the full balance equations of the same chain
  (every float rate is an exact binary fraction);
* at the analysis truncations, the generic SuperLU solve :func:`solve_direct`
  and power iteration;
* the paper's closed forms for ``pi(0,0)``, ``pi(i,0)`` and ``pi(1,1)``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from repro.markov.closed_form import pi_00, pi_11, pi_i0
from repro.markov.state import State
from repro.markov.stationary import solve_direct, stationary_distribution
from repro.markov.transitions import build_selfish_mining_chain, compiled_selfish_chain
from repro.params import MiningParams

from test_revenue_equivalence import ALPHAS, GAMMAS
from two_d_oracle import structured_stationary


def exact_stationary(chain) -> list[Fraction]:
    """Stationary distribution of ``chain`` by Gaussian elimination over fractions.

    The balance equation of state 0 is replaced by the anchor ``pi[0] = 1``; the
    result is normalised to total probability one.
    """
    size = len(chain)
    generator = [[Fraction(0)] * size for _ in range(size)]
    for transition in chain.transitions:
        source, target = chain.index_of(transition.source), chain.index_of(transition.target)
        if source != target:
            rate = Fraction(transition.rate)
            generator[source][target] += rate
            generator[source][source] -= rate
    # Row t of the system is the balance of state t: sum_s pi[s] * Q[s][t] = 0.
    system = [[generator[s][t] for s in range(size)] + [Fraction(0)] for t in range(size)]
    system[0] = [Fraction(1)] + [Fraction(0)] * (size - 1) + [Fraction(1)]
    for column in range(size):
        pivot = next(row for row in range(column, size) if system[row][column] != 0)
        system[column], system[pivot] = system[pivot], system[column]
        for row in range(size):
            factor = system[row][column] / system[column][column]
            if row != column and factor != 0:
                system[row] = [a - factor * b for a, b in zip(system[row], system[column])]
    solution = [system[row][size] / system[row][row] for row in range(size)]
    total = sum(solution)
    return [value / total for value in solution]


@pytest.mark.parametrize("max_lead", [2, 3, 4, 5, 8])
def test_structured_solve_matches_exact_elimination(max_lead):
    compiled = compiled_selfish_chain(max_lead)
    for alpha in ALPHAS:
        for gamma in GAMMAS:
            params = MiningParams(alpha=alpha, gamma=gamma)
            exact = exact_stationary(build_selfish_mining_chain(params, max_lead=max_lead))
            structured = structured_stationary(params, max_lead)
            for state, value, reference in zip(compiled.space, structured.tolist(), exact):
                if reference == 0:
                    assert value == 0.0, (alpha, gamma, state, value)
                else:
                    assert math.isclose(value, reference, rel_tol=1e-13, abs_tol=0.0), (
                        alpha,
                        gamma,
                        state,
                        value,
                        float(reference),
                    )


@pytest.mark.parametrize("max_lead", [30, 60])
def test_structured_solve_matches_superlu(max_lead):
    compiled = compiled_selfish_chain(max_lead)
    for alpha in ALPHAS:
        for gamma in GAMMAS:
            params = MiningParams(alpha=alpha, gamma=gamma)
            structured = structured_stationary(params, max_lead)
            generic = np.asarray(solve_direct(build_selfish_mining_chain(params, max_lead=max_lead)).probabilities)
            assert structured.shape == (len(compiled.space),)
            assert structured.sum() == pytest.approx(1.0, abs=1e-14)
            significant = generic > 1e-12
            np.testing.assert_allclose(
                structured[significant], generic[significant], rtol=1e-12, atol=0.0, err_msg=f"{params}"
            )


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("alpha", [0.01, 0.163, 0.3])
def test_structured_solve_matches_closed_forms(alpha, gamma):
    # The closed forms describe the untruncated chain.  At gamma = 0 races keep
    # growing the private branch, so at alpha = 0.3 the mass beyond max_lead=60
    # still moves pi(0,0) by about 7e-8; beyond 200 it is below double precision.
    compiled = compiled_selfish_chain(200)
    structured = structured_stationary(MiningParams(alpha=alpha, gamma=gamma), 200)
    probability = dict(zip(compiled.space, structured.tolist()))
    assert probability[State(0, 0)] == pytest.approx(pi_00(alpha), rel=1e-12)
    assert probability[State(1, 1)] == pytest.approx(pi_11(alpha), rel=1e-12)
    for i in range(1, 200):
        assert probability[State(i, 0)] == pytest.approx(pi_i0(alpha, i), rel=1e-12), i


def test_power_iteration_cross_checks_the_structured_solve():
    params = MiningParams(alpha=0.3, gamma=0.5)
    power = stationary_distribution(build_selfish_mining_chain(params, max_lead=10), method="power")
    assert power.method.startswith("power_iteration")
    assert power.probabilities == pytest.approx(structured_stationary(params, 10).tolist(), abs=1e-10)


def lead_class(state: State) -> tuple[int, bool]:
    """The lumped class of ``state``: its lead, and whether it has a public fork (``j >= 1``)."""
    return state.lead, state.public >= 1


@pytest.mark.parametrize("max_lead", [8, 30, 60])
def test_the_compiled_generator_lumps_onto_the_lead_classes(max_lead):
    # Away from the Ls = max_lead boundary (where the pool's block self-loops),
    # every member of a class has the same total rate into each class, so the
    # chain of classes is a Markov chain and its law is the lumped law.
    compiled = compiled_selfish_chain(max_lead)
    states = compiled.space.states
    for alpha, gamma in [(0.163, 0.5), (0.3, 0.0), (0.45, 1.0), (0.3, 0.7)]:
        rates = compiled.rates(MiningParams(alpha=alpha, gamma=gamma))
        flows: dict[State, dict[tuple[int, bool], float]] = defaultdict(lambda: defaultdict(float))
        for source, target, rate in zip(compiled.sources.tolist(), compiled.targets.tolist(), rates.tolist()):
            if states[source] != states[target]:
                flows[states[source]][lead_class(states[target])] += rate
        members: dict[tuple[int, bool], list[State]] = defaultdict(list)
        for state in states:
            if state.private < max_lead:
                members[lead_class(state)].append(state)
        assert len(members) == 2 * max_lead - 2
        for cls, group in members.items():
            first = flows[group[0]]
            for state in group[1:]:
                assert set(flows[state]) == set(first), (cls, state)
                for target_class, rate in first.items():
                    assert math.isclose(flows[state][target_class], rate, rel_tol=1e-15), (cls, state, target_class)


def test_lead_class_masses_sum_the_two_d_law_where_it_has_converged():
    compiled = compiled_selfish_chain(200)
    space = compiled.space
    for alpha, gamma in [(0.45, 0.5), (0.3, 0.0), (0.163, 0.5), (0.2, 1.0)]:
        params = MiningParams(alpha=alpha, gamma=gamma)
        sums: dict[tuple[int, bool], float] = defaultdict(float)
        for state, probability in zip(space, structured_stationary(params, 200).tolist()):
            sums[lead_class(state)] += probability
        masses = compiled.lead_class_masses(params)
        assert masses.sum() == pytest.approx(1.0, abs=1e-15)
        represented = [lead_class(state) for state, mass in zip(space, masses.tolist()) if mass > 0.0]
        assert len(set(represented)) == len(represented)
        for state, mass in zip(space, masses.tolist()):
            if mass > 0.0:
                assert math.isclose(mass, sums[lead_class(state)], rel_tol=1e-12, abs_tol=1e-16), (params, state)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_lumped_pi_00_is_equation_2(gamma):
    compiled = compiled_selfish_chain(200)
    for alpha in np.linspace(0.005, 0.45, 90).tolist():
        masses = compiled.lead_class_masses(MiningParams(alpha=alpha, gamma=gamma))
        assert math.isclose(masses[0], pi_00(alpha), rel_tol=1e-13), alpha
        assert math.isclose(masses[compiled.space.index_of(State(1, 1))], pi_11(alpha), rel_tol=1e-13), alpha
        for i in (1, 2, 10, 50):
            assert math.isclose(masses[compiled.space.index_of(State(i, 0))], pi_i0(alpha, i), rel_tol=1e-13), i
