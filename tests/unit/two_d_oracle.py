"""The 2-D selfish-mining chain solved state by state: the oracle of the lumped model.

:class:`~repro.analysis.revenue.RevenueModel` prices the chain on its exact
lumping onto the pool's lead
(:meth:`~repro.markov.transitions.CompiledSelfishChain.lead_class_masses`).  The
code here is the solve it replaced, kept as a cross-check:

* :func:`structured_stationary` — the stationary distribution of the chain
  truncated at ``Ls <= max_lead``, one probability per ``(Ls, Lh)`` state, by the
  chain's structure: closed forms for the special and ``j = 0`` states, a sweep
  that writes every other state in the unknowns ``pi(k,1)`` and one small dense
  solve;
* :func:`two_d_revenue_rates` — the :class:`~repro.analysis.revenue.RevenueRates`
  of that truncated 2-D chain, folded like the library folds the lumped one.

The optimal-strategy MDP truncates the same 2-D chain, so its Algorithm-1 value
equals :func:`two_d_revenue_rates` at the same ``max_lead``, not the lumped
model's.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.analysis.revenue import GroupRecords, RevenueRates, fold_revenue
from repro.markov.state import State
from repro.markov.stationary import _clean_distribution
from repro.markov.transitions import compiled_selfish_chain
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule, RewardSchedule


@functools.lru_cache(maxsize=8)
def _layout(max_lead: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(i, 0)`` rows, the ``j >= 1`` rows in sweep order and the lag matrix."""
    space = compiled_selfish_chain(max_lead).space
    consensus_rows = np.array([space.index_of(State(i, 0)) for i in range(max_lead + 1)], dtype=np.intp)
    swept_rows = np.array(
        [space.index_of(State(i, j)) for j in range(1, max_lead - 1) for i in range(j + 2, max_lead + 1)],
        dtype=np.intp,
    )
    unknowns = max_lead - 2
    lags = np.maximum(np.subtract.outer(np.arange(unknowns), np.arange(unknowns)), 0)
    return consensus_rows, swept_rows, lags


def structured_stationary(params: MiningParams, max_lead: int) -> np.ndarray:
    """Stationary distribution of the chain truncated at ``Ls <= max_lead``, in :class:`StateSpace` order.

    With ``pi(0,0)`` anchored at 1 and ``L = max_lead``:

    * ``pi(i,0) = alpha**i`` and ``pi(1,1) = alpha*beta`` in closed form;
    * every inflow to a ``j >= 2`` state comes from ``(i-1, j)`` at rate
      ``alpha`` or from ``(i, j-1)`` at rate ``beta*(1-gamma)``, so a sweep
      column by column writes each ``j >= 1`` state as a linear combination of
      the ``L - 2`` unknowns ``pi(k,1)``, ``k = 3..L``;
    * only case 7 (rate ``beta*gamma``) flows back, to ``(k,1)`` from the
      states of lead ``k``, so the balance of the ``(k,1)`` states is one dense
      ``(L-2) x (L-2)`` system; its solution gives every state and the whole
      vector is normalised.

    The boundary row ``i = L`` keeps the pool-extension mass as a self-loop, so
    its balance divides by ``1 - alpha``.
    """
    consensus_rows, swept_rows, lags = _layout(max_lead)
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    unknowns = max_lead - 2
    powers = alpha ** np.arange(max_lead + 1.0)
    pi = np.empty(len(compiled_selfish_chain(max_lead).space))
    pi[consensus_rows] = powers
    pi[consensus_rows[-1]] /= beta
    pi[2] = alpha * beta
    if unknowns:
        # Column j of the sweep is `step` applied to column j-1 without its
        # lead-2 state: a geometric run along i (rate alpha) of the inflow from
        # the honest branch.  Row r of `coefficients` writes the state
        # swept_rows[r] in the unknowns; column 1 is the unknowns themselves.
        step = beta * (1.0 - gamma) * np.tril(powers[lags])
        coefficients = np.empty((len(swept_rows), unknowns))
        column = coefficients[:unknowns]
        column[...] = np.eye(unknowns)
        # back_flow[k-3] is the lead-k mass that case 7 returns to (k,1).
        back_flow = np.zeros((unknowns, unknowns))
        back_flow[:-1] += column[1:]
        start = unknowns
        for size in range(unknowns - 1, 0, -1):
            previous, column = column, coefficients[start : start + size]
            np.matmul(step[:size, :size], previous[1:], out=column)
            column[-1] /= beta
            back_flow[: size - 1] += column[1:]
            start += size
        # Balance of (k,1): exit rate 1 (beta at k = L, whose pool block is a
        # self-loop) against case 7, (k-1,1) at rate alpha and (k,0) at rate beta.
        balance = np.eye(unknowns) - beta * gamma * back_flow
        balance[np.arange(1, unknowns), np.arange(unknowns - 1)] -= alpha
        balance[-1, -1] -= alpha
        first = np.linalg.solve(balance, beta * pi[consensus_rows[3:]])
        pi[swept_rows] = coefficients @ first
    assert np.all(np.isfinite(pi)), params
    return _clean_distribution(pi)


def two_d_revenue_rates(
    params: MiningParams, max_lead: int, schedule: RewardSchedule | None = None
) -> RevenueRates:
    """The revenue rates of the 2-D chain truncated at ``Ls <= max_lead``."""
    compiled = compiled_selfish_chain(max_lead)
    schedule = schedule if schedule is not None else EthereumByzantiumSchedule()
    frequencies = structured_stationary(params, max_lead)[compiled.sources] * compiled.rates(params)
    records = GroupRecords(params, schedule).matrix(compiled)
    return fold_revenue(params, frequencies, compiled.groups, records, compiled.group_distances)
