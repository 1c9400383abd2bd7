"""The action-conditioned transition model behind the optimal-strategy MDP.

The paper's Markov chain (:mod:`repro.markov.transitions`) hard-codes Algorithm 1:
at every state the pool's response to each mining event is fixed.  This module
relaxes exactly the responses that can be relaxed *without leaving the paper's
state space or invalidating its Appendix-B reward records*, turning the chain
into a Markov decision process:

* **Pool-event decision** (:class:`PoolDecision`).  When the pool mines a block it
  either keeps withholding (``WITHHOLD`` — the transition the paper's chain takes,
  cases 2/3/6) or publishes its entire private branch and claims the race
  (``OVERRIDE`` — the race resets to ``(0, 0)`` and the fresh block is a certain
  regular block, the Lemma-1 record).  At ``(0, 0)`` the override reading is
  "publish immediately", i.e. honest mining, so the protocol-following pool is one
  corner of the policy space.
* **Honest-event responses stay pinned** to Algorithm 1 (adopt behind, match the
  tie, override a lead of one, answer deeper leads by revealing one block).  These
  are the responses under which the Appendix-B destiny probabilities (case 2's
  ``alpha + alpha*beta + beta^2*gamma``, the nephew races of cases 7-10) were
  derived; relaxing them would both leave the truncated ``(Ls, Lh)`` state space
  (stubborn-style ties live at ``lead <= 1``, which the space does not encode) and
  silently invalidate the per-transition reward records.

Exactness.  Case 2's destiny decomposition conditions only on *which* party mines
the next block and on the forced tie behaviour, so it is exact under every policy
expressible here; cases 3/6 are certain regular blocks under withholding *and*
under any later override (Lemma 1).  The records of cases 7-10 embed the selfish
continuation of the race (uncle distance, nephew race), so policies that override
from a deep lead are scored slightly conservatively — the honest side is credited
the full selfish-continuation uncle value even though an early override may push
the reference beyond the inclusion window.  The policies the solver actually
extracts (Algorithm 1 above the profitability threshold, honest mining below it)
use no such transition, so their values are exact — the property and integration
suites pin this against :class:`~repro.markov.chain.MarkovChain` and against
Monte-Carlo runs of the extracted strategy.

The model reads the structure of :class:`~repro.markov.transitions.CompiledSelfishChain`
instead of enumerating transitions: the ``WITHHOLD`` row of a state is its row of
the paper's chain, the ``OVERRIDE`` row the same transitions under
:func:`~repro.markov.transitions.overridden`, and every one-step reward comes from
the pricing-group table (:class:`~repro.analysis.revenue.GroupRecords`), so each
Appendix-B record is priced once per group.  The arrays hold one flat row per
``(state, decision)`` pair — the sparse successor distribution and the expected
one-step pool/total reward — so the solver's Bellman sweeps are plain sparse
mat-vecs plus a segmented max.
"""

from __future__ import annotations

import enum

import numpy as np
from scipy import sparse

from ..analysis.revenue import GroupRecords
from ..errors import StateSpaceError
from ..markov.state import State
from ..markov.transitions import compiled_selfish_chain
from ..params import MiningParams
from ..rewards.schedule import RewardSchedule

#: Integer code of the 1-vs-1 tie state ``(1, 1)`` (see ``State.encode``): the one
#: state whose pool-event response is forced (winning the tie is case 5's
#: resolution; withholding the tie-breaking block would leave the state space).
TIE_STATE_CODE = State(1, 1).encode()


class PoolDecision(enum.Enum):
    """What the pool does with a block it just mined (the MDP's action axis)."""

    WITHHOLD = "withhold"
    OVERRIDE = "override"


class MdpModel:
    """Compiled action-conditioned transition tables over the truncated state space.

    Parameters
    ----------
    params:
        The ``(alpha, gamma)`` parameter point.
    schedule:
        Reward schedule the per-transition records are evaluated under.
    max_lead:
        Truncation of the state space (same semantics as the analytical chain:
        the pool-extension transition self-loops at the boundary).
    """

    def __init__(self, params: MiningParams, schedule: RewardSchedule, *, max_lead: int) -> None:
        self.params = params
        self.schedule = schedule
        compiled = compiled_selfish_chain(max_lead)
        self.space = compiled.space
        #: Reward vector of each pricing group, and its uncle distance.
        self.records = GroupRecords(params, schedule).matrix(compiled)
        self.group_distances = compiled.group_distances
        # Every state offers WITHHOLD then OVERRIDE, except the tie (1, 1), whose
        # one action is OVERRIDE: case 5, its only transition, already resolves it.
        tie = self.space.index_of(State(1, 1))
        choices = np.full(len(self.space), 2, dtype=np.int64)
        choices[tie] = 1
        #: ``action_offsets[i]:action_offsets[i+1]`` are the flat actions of state i.
        self.action_offsets = np.concatenate([[0], np.cumsum(choices)])
        #: Whether each flat action is an OVERRIDE.
        self.overrides = np.ones(self.action_offsets[-1], dtype=bool)
        self.overrides[self.action_offsets[:-1][choices == 2]] = False
        # One entry per (action, transition): every state's WITHHOLD copy of its
        # transitions, then the OVERRIDE copy, each in the chain's order.
        withheld = compiled.sources != tie
        first = self.action_offsets[compiled.sources]
        actions = np.concatenate([first[withheld], first + withheld])
        order = np.argsort(actions, kind="stable")

        def both(withhold: np.ndarray, override: np.ndarray) -> np.ndarray:
            return np.concatenate([withhold[withheld], override])[order]

        rates = compiled.rates(params)
        #: Flat action, source and target state, rate and pricing group of every entry.
        self.transition_actions = actions[order]
        self.transition_sources = both(compiled.sources, compiled.sources)
        self.transition_targets = both(compiled.targets, compiled.override_targets)
        self.transition_rates = both(rates, rates)
        self.transition_groups = both(compiled.groups, compiled.override_groups)
        self.transition_matrix = sparse.coo_matrix(
            (self.transition_rates, (self.transition_actions, self.transition_targets)),
            shape=(self.num_actions, len(self.space)),
        ).tocsr()
        # Expected one-step rewards: each action's rate-weighted records, summed in
        # transition order.  Record columns 0-2 are the pool's static, uncle and
        # nephew rewards and 3-5 the honest miners' (REWARD_COMPONENTS).
        pool = self.records[:, 0] + self.records[:, 1] + self.records[:, 2]
        honest = self.records[:, 3] + self.records[:, 4] + self.records[:, 5]
        first_entries = np.searchsorted(self.transition_actions, np.arange(self.num_actions))
        self.pool_rewards = np.add.reduceat(self.transition_rates * pool[self.transition_groups], first_entries)
        self.total_rewards = np.add.reduceat(
            self.transition_rates * (pool + honest)[self.transition_groups], first_entries
        )

    # ------------------------------------------------------------------ accessors
    @property
    def num_states(self) -> int:
        """Number of states in the truncated space."""
        return len(self.space)

    @property
    def num_actions(self) -> int:
        """Number of flat ``(state, decision)`` pairs."""
        return int(self.action_offsets[-1])

    def decision(self, flat: int) -> PoolDecision:
        """The decision of flat action ``flat``."""
        return PoolDecision.OVERRIDE if self.overrides[flat] else PoolDecision.WITHHOLD

    def flat_index(self, state_index: int, decision: PoolDecision) -> int:
        """Flat action index of ``decision`` at the state with dense ``state_index``."""
        start, stop = self.action_offsets[state_index], self.action_offsets[state_index + 1]
        for flat in range(start, stop):
            if self.decision(flat) is decision:
                return int(flat)
        state = self.space.state_at(state_index)
        raise StateSpaceError(f"state {state} offers no {decision.value!r} decision")

    def selfish_policy(self) -> np.ndarray:
        """Flat action indices of Algorithm 1: each state's first action.

        That is WITHHOLD everywhere it is allowed, and the forced OVERRIDE at the tie.
        """
        return self.action_offsets[:-1].copy()

    def honest_policy(self) -> np.ndarray:
        """Flat action indices of protocol-following mining (override everywhere).

        Only the ``(0, 0)`` entry is ever reached — an overriding pool never builds
        a lead — but the table is total so the induced chain is well defined.
        """
        return self.action_offsets[1:] - 1

    def describe(self) -> str:
        """Short human-readable summary of the compiled model."""
        return (
            f"MdpModel(states={self.num_states}, actions={self.num_actions}, "
            f"{self.params.describe()})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return self.describe()
