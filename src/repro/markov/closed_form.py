"""Closed-form stationary distribution of the selfish-mining chain (Eq. 2, Appendix A).

The paper reports the stationary distribution of the 2-dimensional chain in closed
form:

* ``pi_{0,0} = (1 - 2*alpha) / (2*alpha**3 - 4*alpha**2 + 1)``
* ``pi_{i,0} = alpha**i * pi_{0,0}``                              for ``i >= 1``
* ``pi_{1,1} = (alpha - alpha**2) * pi_{0,0}``
* a longer expression for ``pi_{i,j}`` with ``i >= j + 2, j >= 1`` built from the
  multiple-summation helper ``f(x, y, z)`` of Appendix A.

The first three expressions are exact and are verified against the numerical solver by
the test-suite.  The general ``pi_{i,j}`` expression is transcribed verbatim from the
paper; because the published formula leaves the value of ``f(x, y, 0)`` (which appears
in its last sum when ``k = j``) to interpretation, :func:`pi_ij` accepts a
``f_zero_convention`` argument and the test-suite records how well each convention
matches the numerical stationary distribution.  All revenue results in this package
are computed from the chain lumped on the pool's lead
(:meth:`repro.markov.transitions.CompiledSelfishChain.lead_class_masses`).  Its
masses are the first three expressions and, per lead ``l >= 2``, the total
``alpha**l / beta**(l-1)`` of the ``j >= 1`` states in closed form, so it never
needs ``pi_{i,j}`` and this ambiguity does not affect any reproduced figure.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from ..errors import ParameterError
from ..params import MiningParams
from .state import State


@lru_cache(maxsize=None)
def multiple_summation(x: int, y: int, z: int) -> int:
    """The nested-summation counter ``f(x, y, z)`` of Appendix A.

    ``f(x, y, z)`` counts integer tuples ``(s_1, ..., s_z)`` with

    * ``s_z`` ranging from ``y + 2`` to ``x``,
    * ``s_{k}`` ranging from ``y - z + k + 2`` to ``s_{k+1}`` for ``k < z``.

    By definition the value is 0 when ``z < 1`` or ``x < y + 2``.

    Examples (Appendix A):

    >>> multiple_summation(5, 1, 1)   # f(x, y, 1) = x - y - 1
    3
    >>> multiple_summation(5, 1, 2)   # f(x, y, 2) = (x-y-1)(x-y+2)/2
    9
    """
    if z < 1 or x < y + 2:
        return 0

    # Dynamic programme over the nesting levels.  count[upper] is the number of ways
    # to choose s_1..s_level with s_level <= upper.
    def lower_bound(level: int) -> int:
        return y - z + level + 2

    # Level 1: s_1 ranges from lower_bound(1) to its upper limit.
    # counts_for_upper(u) at level 1 = max(0, u - lower_bound(1) + 1).
    max_upper = x
    level_counts = [max(0, upper - lower_bound(1) + 1) for upper in range(0, max_upper + 1)]
    for level in range(2, z + 1):
        prefix = [0] * (max_upper + 1)
        running = 0
        for upper in range(0, max_upper + 1):
            running += level_counts[upper]
            prefix[upper] = running
        new_counts = [0] * (max_upper + 1)
        low = lower_bound(level)
        for upper in range(0, max_upper + 1):
            if upper < low:
                new_counts[upper] = 0
            else:
                new_counts[upper] = prefix[upper] - (prefix[low - 1] if low - 1 >= 0 else 0)
        level_counts = new_counts
    return int(level_counts[x])


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 0.5:
        raise ParameterError(f"the closed forms require 0 < alpha < 0.5, got {alpha}")
    return float(alpha)


def pi_00(alpha: float) -> float:
    """Closed-form stationary probability of state ``(0, 0)``."""
    alpha = _check_alpha(alpha)
    return (1.0 - 2.0 * alpha) / (2.0 * alpha**3 - 4.0 * alpha**2 + 1.0)


def pi_i0(alpha: float, i: int) -> float:
    """Closed-form stationary probability of state ``(i, 0)`` for ``i >= 1``."""
    if i < 1:
        raise ParameterError(f"pi_i0 requires i >= 1, got {i}")
    alpha = _check_alpha(alpha)
    return alpha**i * pi_00(alpha)


def pi_11(alpha: float) -> float:
    """Closed-form stationary probability of state ``(1, 1)``."""
    alpha = _check_alpha(alpha)
    return (alpha - alpha**2) * pi_00(alpha)


def pi_ij(
    alpha: float,
    gamma: float,
    i: int,
    j: int,
    *,
    f_zero_convention: str = "zero",
) -> float:
    """The paper's closed-form expression for ``pi_{i,j}`` with ``i >= j+2, j >= 1``.

    Parameters
    ----------
    alpha, gamma:
        Model parameters.
    i, j:
        State coordinates; must satisfy ``i >= j + 2`` and ``j >= 1``.
    f_zero_convention:
        Value assigned to ``f(x, y, 0)`` inside the final sum: ``"zero"`` follows the
        literal Appendix-A definition, ``"one"`` treats an empty nest of summations as
        the multiplicative identity.
    """
    if j < 1 or i < j + 2:
        raise ParameterError(f"pi_ij requires i >= j + 2 and j >= 1, got (i, j) = ({i}, {j})")
    if f_zero_convention not in {"zero", "one"}:
        raise ParameterError(f"unknown f_zero_convention {f_zero_convention!r}")
    alpha = _check_alpha(alpha)
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma}")
    beta = 1.0 - alpha
    base = pi_00(alpha)

    def f_value(x: int, y: int, z: int) -> float:
        if z == 0 and f_zero_convention == "one":
            return 1.0
        return float(multiple_summation(x, y, z))

    first = alpha**i * beta**j * (1.0 - gamma) ** j * f_value(i, j, j)
    second = (
        alpha ** (i - j)
        * gamma
        * (1.0 - gamma) ** (j - 1)
        * (1.0 / beta ** (i - j - 1) - 1.0)
    )
    third = 0.0
    for k in range(1, j + 1):
        third += alpha ** (i - k) * beta ** (j - k) * f_value(i, j, j - k)
    third *= gamma * (1.0 - gamma) ** (j - 1)
    return (first + second - third) * base


def closed_form_distribution(
    params: MiningParams,
    *,
    max_lead: int = 30,
    f_zero_convention: str = "zero",
) -> Mapping[State, float]:
    """Evaluate the closed-form expressions over a truncated state space.

    This is a convenience used by tests and by EXPERIMENTS.md to compare the published
    formulas with the numerical stationary distribution; the revenue pipeline always
    uses the numerical distribution.
    """
    distribution: dict[State, float] = {}
    alpha, gamma = params.alpha, params.gamma
    distribution[State(0, 0)] = pi_00(alpha)
    distribution[State(1, 1)] = pi_11(alpha)
    for i in range(1, max_lead + 1):
        distribution[State(i, 0)] = pi_i0(alpha, i)
    for i in range(3, max_lead + 1):
        for j in range(1, i - 1):
            distribution[State(i, j)] = pi_ij(
                alpha, gamma, i, j, f_zero_convention=f_zero_convention
            )
    return distribution
