"""Unit tests for the compiled transition tables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.reward_cases import REWARD_COMPONENTS, transition_rewards
from repro.markov.state import State, decode_state
from repro.markov.transitions import transitions_from_state
from repro.params import MiningParams
from repro.rewards.schedule import BitcoinSchedule, EthereumByzantiumSchedule
from repro.simulation.rng import RandomSource
from repro.simulation.tables import CompiledTransitionTables

from markov_oracle import decision_transitions

PARAMS = MiningParams(alpha=0.35, gamma=0.5)
MAX_LEAD = 10**9

#: Decision tables of the optimal-strategy MDP: Algorithm 1 (no overrides), and
#: overrides at a lead of one, at the tie and at two deeper states.
OVERRIDE_TABLES = [
    frozenset(),
    frozenset(State(*pair).encode() for pair in ((1, 0), (1, 1), (2, 0), (4, 1))),
]


def make_tables(params=PARAMS, schedule=None, override_codes=frozenset()) -> CompiledTransitionTables:
    return CompiledTransitionTables(
        params, schedule or EthereumByzantiumSchedule(), max_lead=MAX_LEAD, override_codes=override_codes
    )


class TestCompilation:
    def test_rows_compile_lazily(self):
        tables = make_tables()
        assert tables.num_states == 0
        tables.row_for(State(0, 0))
        assert tables.num_states == 1
        assert tables.num_transitions == 2  # cases 1 and 2 leave (0,0)
        tables.row_for(State(0, 0))
        assert tables.num_states == 1  # memoised

    @pytest.mark.parametrize("codes", OVERRIDE_TABLES)
    def test_thresholds_are_the_scalar_partial_sums(self, codes):
        tables = make_tables(override_codes=codes)
        for state in (State(0, 0), State(1, 0), State(1, 1), State(2, 0), State(4, 1), State(5, 2)):
            row = tables.row_for(state)
            transitions = decision_transitions(state, PARAMS, state.encode() in codes, max_lead=MAX_LEAD)
            cumulative = 0.0
            expected = []
            for transition in transitions:
                cumulative += transition.rate
                expected.append(cumulative)
            assert list(row[0]) == expected
            assert row[0][-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("codes", OVERRIDE_TABLES)
    def test_reward_matrix_rows_match_transition_rewards(self, codes):
        tables = make_tables(override_codes=codes)
        states = (State(0, 0), State(1, 0), State(1, 1), State(2, 0), State(4, 1), State(9, 3))
        for state in states:
            tables.row_for(state)
        expected = [
            transition
            for state in states
            for transition in decision_transitions(state, PARAMS, state.encode() in codes, max_lead=MAX_LEAD)
        ]
        assert [tables.transition_at(index) for index in range(tables.num_transitions)] == expected
        matrix = tables.reward_matrix()
        assert matrix.shape == (tables.num_transitions, len(REWARD_COMPONENTS))
        schedule = EthereumByzantiumSchedule()
        for index, transition in enumerate(expected):
            record = transition_rewards(transition, PARAMS, schedule)
            assert tuple(matrix[index]) == record.component_vector()


class TestWalk:
    def test_counts_sum_to_steps_and_final_state_is_reachable(self):
        tables = make_tables()
        counts, final_state = tables.walk(State(0, 0), 5_000, RandomSource(3))
        assert sum(counts) == 5_000
        assert final_state.is_valid()

    def test_trace_records_every_target(self):
        tables = make_tables()
        trace: list[int] = []
        _, final_state = tables.walk(State(0, 0), 250, RandomSource(9), trace=trace)
        assert len(trace) == 250
        assert decode_state(trace[-1]) == final_state
        assert all(decode_state(code).is_valid() for code in trace)

    @pytest.mark.parametrize("codes", OVERRIDE_TABLES)
    def test_walk_matches_scalar_sampling(self, codes):
        """The compiled walk visits exactly the transitions the scalar sampler picks."""
        tables = make_tables(override_codes=codes)
        trace: list[int] = []
        counts, _ = tables.walk(State(0, 0), 2_000, RandomSource(7), trace=trace)

        rng = RandomSource(7)
        state = State(0, 0)
        expected_trace = []
        expected_counts: dict[tuple[int, int, int], int] = {}
        for _ in range(2_000):
            transitions = decision_transitions(state, PARAMS, state.encode() in codes, max_lead=MAX_LEAD)
            draw = rng.uniform()
            cumulative = 0.0
            chosen = transitions[-1]
            for transition in transitions:
                cumulative += transition.rate
                if draw < cumulative:
                    chosen = transition
                    break
            key = chosen.encode()
            expected_counts[key] = expected_counts.get(key, 0) + 1
            state = chosen.target
            expected_trace.append(state.encode())
        assert trace == expected_trace
        got_counts = {
            tables.transition_at(index).encode(): count
            for index, count in enumerate(counts)
            if count
        }
        assert got_counts == expected_counts


class TestSettlement:
    def test_settle_matches_manual_accumulation(self):
        tables = make_tables()
        counts, _ = tables.walk(State(0, 0), 3_000, RandomSource(11))
        settlement = tables.settle(counts)
        schedule = EthereumByzantiumSchedule()
        pool_static = sum(
            count * transition_rewards(tables.transition_at(i), PARAMS, schedule).pool.static
            for i, count in enumerate(counts)
        )
        regular = sum(
            count * transition_rewards(tables.transition_at(i), PARAMS, schedule).regular_probability
            for i, count in enumerate(counts)
        )
        assert settlement.pool.static == pytest.approx(pool_static, rel=1e-12)
        assert settlement.regular_blocks == pytest.approx(regular, rel=1e-12)
        total = settlement.regular_blocks + settlement.uncle_blocks + settlement.stale_blocks
        assert total == pytest.approx(3_000, rel=1e-9)

    def test_settle_is_counts_times_matrix_in_transition_order(self):
        tables = make_tables()
        counts, _ = tables.walk(State(0, 0), 3_000, RandomSource(11))
        settlement = tables.settle(counts)
        totals = dict(zip(REWARD_COMPONENTS, (np.asarray(counts, dtype=float) @ tables.reward_matrix()).tolist()))
        assert settlement.pool.nephew == totals["pool_nephew"]
        assert settlement.honest.uncle == totals["honest_uncle"]
        assert settlement.stale_blocks == totals["stale"]
        # The histograms add count * value transition by transition.
        schedule = EthereumByzantiumSchedule()
        honest: dict[int, float] = {}
        for index, count in enumerate(counts):
            record = transition_rewards(tables.transition_at(index), PARAMS, schedule)
            value = record.uncle_probability * (1.0 - record.pool_mined_probability)
            if count and record.uncle_distance is not None and value > 0.0:
                honest[record.uncle_distance] = honest.get(record.uncle_distance, 0.0) + count * value
        assert settlement.honest_uncle_distance_counts == dict(sorted(honest.items()))

    def test_distance_histograms_only_hold_visited_distances(self):
        tables = make_tables()
        counts, _ = tables.walk(State(0, 0), 3_000, RandomSource(2))
        settlement = tables.settle(counts)
        assert all(value > 0.0 for value in settlement.honest_uncle_distance_counts.values())
        assert all(value > 0.0 for value in settlement.pool_uncle_distance_counts.values())
        assert list(settlement.honest_uncle_distance_counts) == sorted(
            settlement.honest_uncle_distance_counts
        )

    def test_bitcoin_schedule_settles_without_uncles(self):
        tables = make_tables(schedule=BitcoinSchedule())
        counts, _ = tables.walk(State(0, 0), 2_000, RandomSource(5))
        settlement = tables.settle(counts)
        assert settlement.pool.uncle == 0.0
        assert settlement.honest.nephew == 0.0
        assert settlement.uncle_blocks == 0.0

    def test_describe_mentions_sizes(self):
        tables = make_tables()
        tables.row_for(State(0, 0))
        description = tables.describe()
        assert "states=1" in description
        assert "transitions=2" in description


class TestEncodingHooks:
    def test_state_codes_round_trip(self):
        for state in (State(0, 0), State(1, 0), State(1, 1), State(2, 0), State(7, 3), State(40, 0)):
            assert decode_state(state.encode()) == state

    def test_invalid_state_has_no_code(self):
        from repro.errors import StateSpaceError

        with pytest.raises(StateSpaceError):
            State(2, 1).encode()
        with pytest.raises(StateSpaceError):
            decode_state(-1)

    def test_transition_encode_triple(self):
        (first, second) = transitions_from_state(State(0, 0), PARAMS, max_lead=MAX_LEAD)
        assert first.encode() == (0, 0, 1)
        assert second.encode() == (0, 1, 2)
