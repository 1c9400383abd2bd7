"""Unit tests for uncle selection under the protocol rules."""

from __future__ import annotations

import pytest

from repro.chain.arrays import ArrayBlockTree
from repro.chain.block import GENESIS_ID, MinerKind


def linear(tree: ArrayBlockTree, parent: int, length: int, miner=MinerKind.HONEST):
    blocks = []
    for index in range(length):
        block = tree.add_block(parent, miner, created_at=len(tree) + index)
        blocks.append(block)
        parent = block.block_id
    return blocks


def select(tree: ArrayBlockTree, parent_id: int, *, max_distance=6, max_count=2, known=None):
    return tree.select_uncles(
        parent_id, max_distance=max_distance, max_count=max_count, known=known
    )


@pytest.fixture()
def forked_tree():
    """A main chain of length 6 with a stale sibling of block 1 (a classic uncle)."""
    tree = ArrayBlockTree()
    main = linear(tree, GENESIS_ID, 6)
    stale = tree.add_block(GENESIS_ID, MinerKind.POOL)
    return tree, main, stale


class TestEligibility:
    def test_sibling_of_main_chain_block_is_eligible(self, forked_tree):
        tree, main, stale = forked_tree
        assert select(tree, main[0].block_id) == [stale.block_id]

    def test_ancestor_is_not_an_uncle(self, forked_tree):
        # main[0] is a fork child (genesis has two children) but lies on the chain.
        tree, main, stale = forked_tree
        assert main[0].block_id not in select(tree, main[3].block_id)
        assert select(tree, main[3].block_id) == [stale.block_id]

    def test_genesis_is_never_an_uncle(self, forked_tree):
        tree, main, _ = forked_tree
        for block in main:
            assert GENESIS_ID not in select(tree, block.block_id)

    def test_distance_window_enforced(self, forked_tree):
        tree, main, stale = forked_tree
        # New block on main[5] has height 7; the stale block has height 1 => distance 6.
        assert select(tree, main[5].block_id) == [stale.block_id]
        extended = tree.add_block(main[5].block_id, MinerKind.HONEST)
        # Now the distance would be 7: too far.
        assert select(tree, extended.block_id) == []

    def test_uncle_whose_parent_is_off_chain_rejected(self, forked_tree):
        tree, main, stale = forked_tree
        # Children of the stale block are not valid uncles for the main chain:
        # their parent is not part of the chain being extended.
        stale_children = [tree.add_block(stale.block_id, MinerKind.POOL) for _ in range(2)]
        chosen = select(tree, main[3].block_id)
        assert not {child.block_id for child in stale_children} & set(chosen)

    def test_already_referenced_uncle_rejected(self, forked_tree):
        tree, main, stale = forked_tree
        assert select(tree, main[2].block_id) == [stale.block_id]
        nephew = tree.add_block(main[2].block_id, MinerKind.HONEST, uncle_ids=[stale.block_id])
        # Below the nephew the stale block sits at distance 4, inside the window,
        # but is already referenced; the nephew's sibling main[3] is what is left.
        assert select(tree, nephew.block_id) == [main[3].block_id]

    def test_future_block_not_eligible(self, forked_tree):
        tree, main, _ = forked_tree
        late_fork = tree.add_block(main[3].block_id, MinerKind.POOL)
        # From the point of view of a block mined on main[1] the fork at height 5 is
        # in the future (distance would be non-positive).
        assert late_fork.block_id not in select(tree, main[1].block_id)

    def test_custom_distance_window(self, forked_tree):
        tree, main, stale = forked_tree
        assert select(tree, main[3].block_id, max_distance=2) == []
        assert select(tree, main[1].block_id, max_distance=2) == [stale.block_id]

    def test_zero_window_or_cap_selects_nothing(self, forked_tree):
        tree, main, _ = forked_tree
        assert select(tree, main[2].block_id, max_distance=0) == []
        assert select(tree, main[2].block_id, max_count=0) == []


class TestSelection:
    def test_uncles_sorted_oldest_first(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 4)
        young_stale = tree.add_block(main[1].block_id, MinerKind.POOL)
        old_stale = tree.add_block(GENESIS_ID, MinerKind.POOL)
        assert select(tree, main[3].block_id) == [old_stale.block_id, young_stale.block_id]

    def test_per_block_cap_keeps_the_oldest(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 4)
        stales = [tree.add_block(main[index].block_id, MinerKind.POOL) for index in (2, 0, 1)]
        chosen = select(tree, main[3].block_id, max_count=2)
        assert chosen == [stales[1].block_id, stales[2].block_id]

    def test_known_filter_restricts_to_the_local_view(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)
        withheld = tree.add_block(GENESIS_ID, MinerKind.POOL, published=False)
        assert select(tree, main[2].block_id) == [withheld.block_id]
        assert select(tree, main[2].block_id, known=tree.published_ids) == []
        tree.publish(withheld.block_id)
        assert select(tree, main[2].block_id, known=tree.published_ids) == [withheld.block_id]

    def test_first_child_becomes_a_candidate_when_its_parent_forks(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)
        side = linear(tree, GENESIS_ID, 3, MinerKind.POOL)
        # Extending the side branch: the main chain's first block is its uncle.
        assert select(tree, side[-1].block_id) == [main[0].block_id]

    def test_linear_chain_has_no_candidates(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 6)
        for block in main:
            assert select(tree, block.block_id) == []
