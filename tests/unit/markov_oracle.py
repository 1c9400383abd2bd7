"""Per-transition oracles of the code that reads the compiled selfish-mining chain.

The library builds the optimal-strategy MDP and the markov sampler from the
arrays of :class:`~repro.markov.transitions.CompiledSelfishChain` and from one
reward vector per pricing group.  The oracles here do the same work the direct
way, one transition at a time, from
:func:`~repro.markov.transitions.transitions_from_state` and
:func:`~repro.analysis.reward_cases.transition_rewards`:

* :func:`decision_transitions` — the transitions of one ``(state, decision)``
  pair of the MDP, the OVERRIDE rule written out on its own;
* :func:`mdp_arrays` — the MDP's successor matrix, action offsets and expected
  one-step rewards, built action by action and priced per transition;
* :func:`scalar_markov_run` — the markov backend's per-event loop: one uniform
  draw and one reward record per sampled transition.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.analysis.reward_cases import transition_rewards
from repro.markov.state import State, StateSpace
from repro.markov.transitions import SelfishTransition, TransitionKind, transitions_from_state
from repro.rewards.breakdown import PartyRewards
from repro.simulation.config import SimulationConfig
from repro.simulation.fast import UNBOUNDED_LEAD
from repro.simulation.metrics import SimulationResult
from repro.simulation.rng import RandomSource

#: Appendix-B cases fired by the pool's own block.
POOL_CASES = (2, 3, 6)


def decision_transitions(state: State, params, override: bool, *, max_lead: int) -> list[SelfishTransition]:
    """The transitions out of ``state`` when the pool withholds or overrides its own block.

    OVERRIDE turns every pool event into a jump to ``(0, 0)`` tagged case 6 (a
    certain regular pool block); honest events are unchanged.
    """
    transitions = list(transitions_from_state(state, params, max_lead=max_lead))
    if not override:
        return transitions
    return [
        SelfishTransition(state, State(0, 0), t.rate, TransitionKind.POOL_EXTENDS_PRIVATE_LEAD)
        if t.kind.case_number in POOL_CASES
        else t
        for t in transitions
    ]


def mdp_arrays(params, schedule, max_lead: int):
    """``(transition_matrix, action_offsets, pool_rewards, total_rewards)`` of the MDP.

    Every state offers WITHHOLD then OVERRIDE, except the tie ``(1, 1)``, which
    only overrides.  Each action's expected rewards are Python sums, in
    transition order, of rate times the transition's own record.
    """
    space = StateSpace(max_lead)
    offsets, rows, cols, probabilities, pool_rewards, total_rewards = [0], [], [], [], [], []
    for state in space:
        for override in (True,) if state == State(1, 1) else (False, True):
            transitions = decision_transitions(state, params, override, max_lead=max_lead)
            records = [transition_rewards(t, params, schedule) for t in transitions]
            for transition in transitions:
                rows.append(len(pool_rewards))
                cols.append(space.index_of(transition.target))
                probabilities.append(transition.rate)
            pool_rewards.append(sum(t.rate * r.pool.total for t, r in zip(transitions, records)))
            total_rewards.append(
                sum(t.rate * (r.pool.total + r.honest.total) for t, r in zip(transitions, records))
            )
        offsets.append(len(pool_rewards))
    matrix = sparse.coo_matrix((probabilities, (rows, cols)), shape=(len(pool_rewards), len(space))).tocsr()
    return matrix, np.asarray(offsets, dtype=np.int64), np.asarray(pool_rewards), np.asarray(total_rewards)


def scalar_markov_run(
    config: SimulationConfig,
    *,
    override_codes: frozenset[int] = frozenset(),
    trace: list[int] | None = None,
) -> tuple[SimulationResult, State]:
    """One markov-backend run accumulated event by event, and its final state.

    The states in ``override_codes`` override their pool events.  An honest
    pool draws one mining decision per block.  ``trace`` receives the code of
    every state the selfish walk enters.
    """
    params, schedule = config.params, config.schedule
    rng = RandomSource(config.seed)
    if config.strategy_name == "honest":
        static = schedule.static_reward
        pool_blocks = sum(1 for _ in range(config.num_blocks) if rng.pool_mines_next(params.alpha))
        honest_blocks = config.num_blocks - pool_blocks
        result = SimulationResult(
            config=config,
            pool_rewards=PartyRewards(static=pool_blocks * static),
            honest_rewards=PartyRewards(static=honest_blocks * static),
            regular_blocks=float(config.num_blocks),
            pool_regular_blocks=float(pool_blocks),
            honest_regular_blocks=float(honest_blocks),
            uncle_blocks=0.0,
            pool_uncle_blocks=0.0,
            honest_uncle_blocks=0.0,
            stale_blocks=0.0,
            total_blocks=float(config.num_blocks),
            num_events=config.num_blocks,
        )
        return result, State(0, 0)

    cache: dict[State, list[SelfishTransition]] = {}
    pool, honest = PartyRewards(), PartyRewards()
    regular = pool_regular = honest_regular = uncle = pool_uncle = honest_uncle = stale = 0.0
    honest_distance: dict[int, float] = {}
    pool_distance: dict[int, float] = {}
    state = State(0, 0)
    for _ in range(config.num_blocks):
        transitions = cache.get(state)
        if transitions is None:
            override = state.encode() in override_codes
            transitions = cache[state] = decision_transitions(state, params, override, max_lead=UNBOUNDED_LEAD)
        draw = rng.uniform()
        cumulative = 0.0
        chosen = transitions[-1]
        for transition in transitions:
            cumulative += transition.rate
            if draw < cumulative:
                chosen = transition
                break
        record = transition_rewards(chosen, params, schedule)
        pool_mined = record.pool_mined_probability
        pool = pool + record.pool
        honest = honest + record.honest
        regular += record.regular_probability
        pool_regular += record.regular_probability * pool_mined
        honest_regular += record.regular_probability * (1.0 - pool_mined)
        uncle += record.uncle_probability
        stale += record.stale_probability
        pool_uncle += record.uncle_probability * pool_mined
        honest_uncle += record.uncle_probability * (1.0 - pool_mined)
        distance = record.uncle_distance
        if distance is not None and record.uncle_probability > 0.0:
            if pool_mined < 1.0:
                value = record.uncle_probability * (1.0 - pool_mined)
                honest_distance[distance] = honest_distance.get(distance, 0.0) + value
            if pool_mined > 0.0:
                value = record.uncle_probability * pool_mined
                pool_distance[distance] = pool_distance.get(distance, 0.0) + value
        state = chosen.target
        if trace is not None:
            trace.append(state.encode())

    result = SimulationResult(
        config=config,
        pool_rewards=pool,
        honest_rewards=honest,
        regular_blocks=regular,
        pool_regular_blocks=pool_regular,
        honest_regular_blocks=honest_regular,
        uncle_blocks=uncle,
        pool_uncle_blocks=pool_uncle,
        honest_uncle_blocks=honest_uncle,
        stale_blocks=stale,
        total_blocks=float(config.num_blocks),
        num_events=config.num_blocks,
        honest_uncle_distance_counts=dict(sorted(honest_distance.items())),
        pool_uncle_distance_counts=dict(sorted(pool_distance.items())),
    )
    return result, state
