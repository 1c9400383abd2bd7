"""Unit tests for the action-conditioned MDP model (:mod:`repro.mdp.model`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import revenue
from repro.errors import StateSpaceError
from repro.markov.state import State
from repro.markov.transitions import TransitionKind, compiled_selfish_chain, overridden
from repro.mdp.model import MdpModel, PoolDecision
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule, FlatUncleSchedule

from markov_oracle import mdp_arrays

PARAMS = MiningParams(alpha=0.3, gamma=0.5)
SCHEDULE = EthereumByzantiumSchedule()
MAX_LEAD = 10


@pytest.fixture(scope="module")
def model() -> MdpModel:
    return MdpModel(PARAMS, SCHEDULE, max_lead=MAX_LEAD)


class TestOverrideRule:
    def test_override_redirects_only_the_pool_events(self):
        for kind in TransitionKind:
            target, redirected = overridden(State(4, 1), kind)
            if kind.case_number in (2, 3, 6):
                assert (target, redirected) == (State(0, 0), TransitionKind.POOL_EXTENDS_PRIVATE_LEAD)
            else:
                assert (target, redirected) == (State(4, 1), kind)

    def test_compiled_override_arrays_apply_the_rule(self):
        compiled = compiled_selfish_chain(MAX_LEAD)
        pool_event = np.isin(compiled.cases, (2, 3, 6))
        case_6 = compiled.groups[compiled.cases == 6][0]
        assert np.all(compiled.override_targets[pool_event] == 0)
        assert np.all(compiled.override_groups[pool_event] == case_6)
        assert np.array_equal(compiled.override_targets[~pool_event], compiled.targets[~pool_event])
        assert np.array_equal(compiled.override_groups[~pool_event], compiled.groups[~pool_event])


class TestParentArrays:
    """The arrays equal, bit for bit, those built action by action (``markov_oracle``)."""

    @pytest.mark.parametrize("schedule", [EthereumByzantiumSchedule(), FlatUncleSchedule(0.5)])
    @pytest.mark.parametrize("max_lead", [3, 10, 30, 60])
    def test_arrays_match_the_per_transition_build(self, schedule, max_lead):
        for alpha in (0.1, 0.163, 0.35, 0.45):
            for gamma in (0.0, 0.5, 1.0):
                params = MiningParams(alpha=alpha, gamma=gamma)
                model = MdpModel(params, schedule, max_lead=max_lead)
                matrix, offsets, pool, total = mdp_arrays(params, schedule, max_lead)
                for name in ("data", "indices", "indptr"):
                    got, want = getattr(model.transition_matrix, name), getattr(matrix, name)
                    assert got.dtype == want.dtype and np.array_equal(got, want), (name, alpha, gamma)
                for got, want in (
                    (model.action_offsets, offsets),
                    (model.pool_rewards, pool),
                    (model.total_rewards, total),
                ):
                    assert got.dtype == want.dtype and np.array_equal(got, want), (alpha, gamma)

    def test_each_pricing_group_is_priced_once(self, monkeypatch):
        calls = []
        pricing = revenue.transition_rewards

        def counted(*args):
            calls.append(args[0])
            return pricing(*args)

        monkeypatch.setattr(revenue, "transition_rewards", counted)
        MdpModel(PARAMS, SCHEDULE, max_lead=60)
        groups = compiled_selfish_chain(60).group_distances.size
        assert groups == 67
        assert len(calls) == groups


class TestCompiledModel:
    def test_action_layout_matches_the_state_space(self, model):
        # Every state has WITHHOLD then OVERRIDE except the single-action tie state.
        assert model.num_actions == 2 * model.num_states - 1
        assert model.action_offsets[0] == 0
        assert model.action_offsets[-1] == model.num_actions
        for index, state in enumerate(model.space):
            start, stop = model.action_offsets[index], model.action_offsets[index + 1]
            decisions = tuple(model.decision(flat) for flat in range(start, stop))
            if state == State(1, 1):
                assert decisions == (PoolDecision.OVERRIDE,)
            else:
                assert decisions == (PoolDecision.WITHHOLD, PoolDecision.OVERRIDE)

    def test_transition_rows_are_distributions(self, model):
        row_sums = model.transition_matrix.sum(axis=1)
        assert row_sums.min() == pytest.approx(1.0)
        assert row_sums.max() == pytest.approx(1.0)

    def test_override_reward_is_the_certain_static_block(self, model):
        index = model.space.index_of(State(5, 1))
        withhold = model.pool_rewards[model.flat_index(index, PoolDecision.WITHHOLD)]
        override = model.pool_rewards[model.flat_index(index, PoolDecision.OVERRIDE)]
        # Pool event: alpha * Ks certain either way; honest events contribute the
        # unchanged case-7/11 records.
        assert override == pytest.approx(withhold)
        assert override >= PARAMS.alpha * SCHEDULE.static_reward

    def test_selfish_policy_picks_withhold_everywhere_but_the_tie(self, model):
        policy = model.selfish_policy()
        for index, flat in enumerate(policy):
            expected = (
                PoolDecision.OVERRIDE
                if model.space.state_at(index) == State(1, 1)
                else PoolDecision.WITHHOLD
            )
            assert model.decision(flat) is expected

    def test_honest_policy_overrides_everywhere(self, model):
        for flat in model.honest_policy():
            assert model.decision(flat) is PoolDecision.OVERRIDE

    def test_flat_index_rejects_missing_decisions(self, model):
        tie_index = model.space.index_of(State(1, 1))
        with pytest.raises(StateSpaceError, match="withhold"):
            model.flat_index(tie_index, PoolDecision.WITHHOLD)
