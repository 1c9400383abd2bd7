"""Optimal-strategy MDP: what is the *best* pool policy at a given ``(alpha, gamma)``?

The paper's catalogue answers "how much does *this* policy earn?"; this package
answers the converse by solving the underlying decision process directly and
exporting the argmax as a runnable :class:`~repro.strategies.optimal.OptimalStrategy`.

Map of the subsystem
--------------------

``model.py``
    The decision process itself.  **States** are the paper's truncated ``(Ls, Lh)``
    pairs, reusing :class:`~repro.markov.state.StateSpace` and the stable integer
    codes of :meth:`~repro.markov.state.State.encode` (``(0,0) -> 0``,
    ``(1,0) -> 1``, ``(1,1) -> 2``, then the triangular layout of the lead-two-plus
    states).  **Actions** are per-state pool-event responses
    (:class:`~repro.mdp.model.PoolDecision`): ``WITHHOLD`` keeps the paper's
    transition (Appendix-B cases 2/3/6), ``OVERRIDE`` publishes the private branch
    and resets the race to ``(0, 0)`` — at ``(0, 0)`` that reading *is* honest
    mining, and at the 1-vs-1 tie ``(1, 1)`` it is the only action (the forced
    tie-break win of case 5).  Honest-event responses stay pinned to Algorithm 1,
    which is exactly the regime in which the Appendix-B reward records are valid.
    The model reads the compiled chain's structure
    (:class:`~repro.markov.transitions.CompiledSelfishChain`, whose
    ``override_targets``/``override_groups`` apply the one OVERRIDE rule,
    :func:`~repro.markov.transitions.overridden`) and prices one-step rewards from
    the pricing-group table (:class:`~repro.analysis.revenue.GroupRecords`) into
    one sparse successor row plus expected pool/total reward per
    ``(state, decision)`` pair.

``solver.py``
    The solve.  The objective is the pool's revenue *share*, a ratio of long-run
    averages, so a Dinkelbach loop wraps relative value iteration: each inner RVI
    maximises ``pool - rho * total`` and proposes a greedy policy, each outer step
    evaluates that policy exactly through the package's stationary solver and
    the fold that prices Algorithm 1
    (:func:`~repro.analysis.revenue.fold_revenue`), and raises ``rho`` to the
    evaluated share.  Policies are encoded for export as the
    tuple of state codes whose decision is ``OVERRIDE`` (``override_codes``) —
    the lookup table :class:`~repro.strategies.optimal.OptimalStrategy` consults:
    after mining a block at race view ``(Ls, Lh)`` the strategy decodes the
    *source* state ``(Ls - 1, Lh)``, overrides when its code is in the table, and
    falls back to Algorithm 1's withhold otherwise (in particular beyond the
    solved truncation).

Consumers
---------

* :class:`repro.strategies.optimal.OptimalStrategy` runs the table through the
  chain engine, the compiled-table Monte Carlo (which walks the induced chain by
  applying :func:`~repro.markov.transitions.overridden` at the table's states)
  and the network backend;
* :mod:`repro.experiments.optimal` charts the profitability frontier (optimal vs
  the hand-crafted catalogue) and dumps where the optimal policy diverges from
  Algorithm 1;
* ``benchmarks/bench_mdp.py`` tracks solver cost per truncation level.
"""

from .model import MdpModel, PoolDecision
from .solver import (
    DEFAULT_POLICY_MAX_LEAD,
    MdpSolver,
    OptimalPolicyResult,
    PolicyEvaluation,
    clear_policy_cache,
    solve_optimal_policy,
)

__all__ = [
    "DEFAULT_POLICY_MAX_LEAD",
    "MdpModel",
    "MdpSolver",
    "OptimalPolicyResult",
    "PolicyEvaluation",
    "PoolDecision",
    "clear_policy_cache",
    "solve_optimal_policy",
]
