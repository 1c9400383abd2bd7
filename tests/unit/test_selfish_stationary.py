"""Pin the structured stationary solve of the selfish-mining chain.

:meth:`CompiledSelfishChain.stationary` solves the truncated chain by its
structure: closed forms for the special and ``j = 0`` states, a sweep that writes
every other state in the unknowns ``pi(k,1)`` and one small dense solve.  Three
references check it:

* for small truncations, an exact Gaussian elimination over
  :class:`fractions.Fraction` of the full balance equations of the same chain
  (every float rate is an exact binary fraction);
* at the analysis truncations, the generic SuperLU solve :func:`solve_direct`;
* the paper's closed forms for ``pi(0,0)``, ``pi(i,0)`` and ``pi(1,1)``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.markov.closed_form import pi_00, pi_11, pi_i0
from repro.markov.state import State
from repro.markov.stationary import solve_direct
from repro.markov.transitions import compiled_selfish_chain
from repro.params import MiningParams

from test_revenue_equivalence import ALPHAS, GAMMAS


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
            exact = exact_stationary(compiled.chain(params))
            structured = compiled.stationary(params)
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
            structured = compiled.stationary(params)
            generic = np.asarray(solve_direct(compiled.chain(params)).probabilities)
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
    structured = compiled.stationary(MiningParams(alpha=alpha, gamma=gamma))
    probability = dict(zip(compiled.space, structured.tolist()))
    assert probability[State(0, 0)] == pytest.approx(pi_00(alpha), rel=1e-12)
    assert probability[State(1, 1)] == pytest.approx(pi_11(alpha), rel=1e-12)
    for i in range(1, 200):
        assert probability[State(i, 0)] == pytest.approx(pi_i0(alpha, i), rel=1e-12), i
