"""Unit tests for the generic :mod:`repro.markov.chain` container."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.errors import StateSpaceError
from repro.markov.chain import MarkovChain, Transition
from repro.markov.transitions import build_selfish_mining_chain
from repro.params import MiningParams


def two_state_chain(p: float = 0.3, q: float = 0.6) -> MarkovChain[str]:
    return MarkovChain(
        ["up", "down"],
        [
            Transition("up", "down", p),
            Transition("up", "up", 1 - p),
            Transition("down", "up", q),
            Transition("down", "down", 1 - q),
        ],
    )


class TestConstruction:
    def test_duplicate_states_rejected(self):
        with pytest.raises(StateSpaceError):
            MarkovChain(["a", "a"], [])

    def test_empty_state_list_rejected(self):
        with pytest.raises(StateSpaceError):
            MarkovChain([], [])

    def test_transition_with_unknown_source_rejected(self):
        with pytest.raises(StateSpaceError):
            MarkovChain(["a"], [Transition("b", "a", 1.0)])

    def test_transition_with_unknown_target_rejected(self):
        with pytest.raises(StateSpaceError):
            MarkovChain(["a"], [Transition("a", "b", 1.0)])

    def test_negative_rate_rejected(self):
        with pytest.raises(StateSpaceError):
            Transition("a", "b", -0.5)

    def test_indexing_round_trip(self):
        chain = two_state_chain()
        assert chain.index_of("up") == 0
        assert chain.state_at(1) == "down"
        assert len(chain) == 2

    def test_unknown_state_lookup_raises(self):
        with pytest.raises(StateSpaceError):
            two_state_chain().index_of("sideways")

    def test_bad_index_raises(self):
        with pytest.raises(StateSpaceError):
            two_state_chain().state_at(5)


class TestMatrices:
    def test_rate_matrix_includes_self_loops(self):
        chain = two_state_chain(p=0.3, q=0.6)
        rates = chain.rate_matrix().toarray()
        assert rates[0, 0] == pytest.approx(0.7)
        assert rates[0, 1] == pytest.approx(0.3)
        assert rates[1, 0] == pytest.approx(0.6)

    def test_parallel_transitions_add_up(self):
        chain = MarkovChain(
            ["a", "b"],
            [Transition("a", "b", 0.2, label="x"), Transition("a", "b", 0.3, label="y"), Transition("b", "b", 1.0)],
        )
        assert chain.rate_matrix().toarray()[0, 1] == pytest.approx(0.5)

    def test_generator_rows_sum_to_zero(self):
        generator = two_state_chain().generator_matrix().toarray()
        assert np.allclose(generator.sum(axis=1), 0.0)

    def test_generator_ignores_self_loops(self):
        chain = two_state_chain(p=0.3, q=0.6)
        generator = chain.generator_matrix().toarray()
        assert generator[0, 0] == pytest.approx(-0.3)
        assert generator[1, 1] == pytest.approx(-0.6)

    def test_transition_probability_rows_sum_to_one(self):
        probabilities = two_state_chain().transition_probability_matrix().toarray()
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_state_without_outgoing_rate_becomes_absorbing(self):
        chain = MarkovChain(["a", "b"], [Transition("a", "b", 1.0)])
        probabilities = chain.transition_probability_matrix().toarray()
        assert probabilities[1, 1] == pytest.approx(1.0)


def lil_generator(chain: MarkovChain) -> sparse.csr_matrix:
    """The generator assembled the old way: rate matrix, LIL ``setdiag``, subtract out-rates."""
    rate = chain.rate_matrix().tolil()
    rate.setdiag(0.0)
    rate = rate.tocsr()
    out_rates = np.asarray(rate.sum(axis=1)).ravel()
    return (rate - sparse.diags(out_rates)).tocsr()


class TestGeneratorAssembly:
    def test_matches_lil_construction_with_self_loops_and_parallel_transitions(self):
        chain = MarkovChain(
            ["a", "b", "c", "d"],
            [
                Transition("a", "a", 0.25),
                Transition("a", "b", 0.125),
                Transition("a", "b", 0.375),
                Transition("a", "c", 0.25),
                Transition("b", "b", 1.0),
                Transition("c", "a", 0.5),
                Transition("c", "a", 0.5),
                Transition("c", "d", 0.75),
                Transition("d", "a", 0.0),
            ],
        )
        assert np.array_equal(chain.generator_matrix().toarray(), lil_generator(chain).toarray())

    def test_matches_lil_construction_on_random_chains(self):
        rng = np.random.default_rng(7)
        states = list(range(12))
        transitions = [
            Transition(int(source), int(target), float(rate))
            for source, target, rate in zip(
                rng.integers(0, 12, size=60), rng.integers(0, 12, size=60), rng.random(60)
            )
        ]
        chain = MarkovChain(states, transitions)
        assert np.allclose(chain.generator_matrix().toarray(), lil_generator(chain).toarray(), rtol=0, atol=1e-15)

    def test_matches_lil_construction_on_the_selfish_mining_chain(self):
        # Diagonals sum the same out-rates in another order, so they may differ in
        # the last bit; the stored pattern is identical.
        chain = build_selfish_mining_chain(MiningParams(alpha=0.3, gamma=0.5), max_lead=20)
        new, old = chain.generator_matrix().toarray(), lil_generator(chain).toarray()
        assert np.array_equal(new != 0.0, old != 0.0)
        assert np.allclose(new, old, rtol=0, atol=1e-15)


class TestValidation:
    def test_unit_exit_rate_check_passes_for_proper_chain(self):
        two_state_chain().validate(expect_unit_exit_rate=True)

    def test_unit_exit_rate_check_fails_for_unbalanced_chain(self):
        chain = MarkovChain(["a", "b"], [Transition("a", "b", 0.4), Transition("b", "a", 1.0)])
        with pytest.raises(StateSpaceError):
            chain.validate(expect_unit_exit_rate=True)

    def test_outgoing_helpers(self):
        chain = two_state_chain(p=0.3)
        outgoing = chain.outgoing("up")
        assert {t.target for t in outgoing} == {"up", "down"}
        assert chain.outgoing_rate("up") == pytest.approx(1.0)

    def test_describe(self):
        assert "states=2" in two_state_chain().describe()
