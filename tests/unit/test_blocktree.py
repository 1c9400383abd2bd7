"""Unit tests for :class:`repro.chain.arrays.ArrayBlockTree`."""

from __future__ import annotations

import pytest

from repro.chain.arrays import ArrayBlockTree
from repro.chain.block import GENESIS_ID, MinerKind
from repro.errors import ChainStructureError, UnknownBlockError


@pytest.fixture()
def tree() -> ArrayBlockTree:
    return ArrayBlockTree()


def build_linear_chain(tree: ArrayBlockTree, length: int, miner: MinerKind = MinerKind.HONEST):
    """Append ``length`` blocks on top of the genesis block and return them."""
    blocks = []
    parent = GENESIS_ID
    for index in range(length):
        block = tree.add_block(parent, miner, created_at=index)
        blocks.append(block)
        parent = block.block_id
    return blocks


class TestInsertion:
    def test_new_tree_contains_only_genesis(self, tree):
        assert len(tree) == 1
        assert tree.genesis.block_id == GENESIS_ID
        assert tree.block(GENESIS_ID) == tree.genesis

    def test_add_block_assigns_sequential_ids_and_heights(self, tree):
        blocks = build_linear_chain(tree, 3)
        assert [block.block_id for block in blocks] == [1, 2, 3]
        assert [block.height for block in blocks] == [1, 2, 3]
        assert tree.next_block_id == 4

    def test_add_block_returns_the_stored_record(self, tree):
        first = tree.add_block(GENESIS_ID, MinerKind.HONEST)
        fork = tree.add_block(GENESIS_ID, MinerKind.POOL, miner_index=0, created_at=7)
        block = tree.add_block(first.block_id, MinerKind.POOL, miner_index=3, uncle_ids=[2])
        assert tree.block(block.block_id) == block
        assert block.uncle_ids == (fork.block_id,)
        assert block.miner_index == 3
        assert tree.block(fork.block_id).created_at == 7

    def test_add_block_unknown_parent_rejected(self, tree):
        with pytest.raises(UnknownBlockError, match="^'block 99 is not in the tree'$"):
            tree.add_block(99, MinerKind.HONEST)

    def test_add_block_unknown_uncle_rejected(self, tree):
        with pytest.raises(UnknownBlockError, match="^'uncle 55 is not in the tree'$"):
            tree.add_block(GENESIS_ID, MinerKind.HONEST, uncle_ids=[55])

    def test_duplicate_uncle_reference_rejected(self, tree):
        first = tree.add_block(GENESIS_ID, MinerKind.HONEST)
        fork = tree.add_block(GENESIS_ID, MinerKind.POOL)
        with pytest.raises(ChainStructureError, match="^uncle 2 referenced twice by the same block$"):
            tree.add_block(first.block_id, MinerKind.HONEST, uncle_ids=[fork.block_id, fork.block_id])

    def test_parent_as_uncle_rejected(self, tree):
        first = tree.add_block(GENESIS_ID, MinerKind.HONEST)
        with pytest.raises(ChainStructureError, match="own parent as an uncle"):
            tree.add_block(first.block_id, MinerKind.HONEST, uncle_ids=[first.block_id])

    def test_rejected_insertion_leaves_the_tree_unchanged(self, tree):
        first = tree.add_block(GENESIS_ID, MinerKind.HONEST)
        with pytest.raises(UnknownBlockError):
            tree.add_block(first.block_id, MinerKind.HONEST, uncle_ids=[9])
        assert len(tree) == 2
        assert tree.reference_columns()[0].size == 0

    def test_unknown_block_lookup_rejected(self, tree):
        with pytest.raises(UnknownBlockError):
            tree.block(1)

    def test_columns_grow_past_the_initial_capacity(self):
        tree = ArrayBlockTree(capacity=2)
        blocks = build_linear_chain(tree, 40)
        assert tree.height_column().tolist() == list(range(41))
        assert tree.parent_column().tolist() == [-1] + list(range(40))
        assert tree.block(blocks[-1].block_id).height == 40


class TestPublication:
    def test_blocks_published_by_default(self, tree):
        block = tree.add_block(GENESIS_ID, MinerKind.HONEST)
        assert block.block_id in tree.published_ids

    def test_withheld_block_then_published(self, tree):
        block = tree.add_block(GENESIS_ID, MinerKind.POOL, published=False)
        assert tree.unpublished_ids() == [block.block_id]
        assert not tree.published_column()[block.block_id]
        tree.publish(block.block_id)
        assert tree.unpublished_ids() == []
        assert tree.published_column()[block.block_id]

    def test_publish_unknown_block_rejected(self, tree):
        with pytest.raises(UnknownBlockError):
            tree.publish(123)


class TestChainsAndForkPoints:
    def test_main_chain_ids_are_root_first(self, tree):
        blocks = build_linear_chain(tree, 4)
        tree.add_block(blocks[1].block_id, MinerKind.POOL)
        assert tree.main_chain_ids(blocks[-1].block_id) == [GENESIS_ID, 1, 2, 3, 4]
        assert tree.main_chain_ids(5) == [GENESIS_ID, 1, 2, 5]

    def test_fork_point_of_two_branches(self, tree):
        blocks = build_linear_chain(tree, 5)
        fork = tree.add_block(blocks[1].block_id, MinerKind.POOL)
        deeper = tree.add_block(fork.block_id, MinerKind.POOL)
        assert tree.fork_point_id(blocks[4].block_id, deeper.block_id) == blocks[1].block_id
        assert tree.fork_point_id(deeper.block_id, blocks[4].block_id) == blocks[1].block_id
        # One chain contains the other.
        assert tree.fork_point_id(blocks[4].block_id, blocks[2].block_id) == blocks[2].block_id

    def test_fork_point_of_a_block_with_itself(self, tree):
        blocks = build_linear_chain(tree, 2)
        assert tree.fork_point_id(blocks[1].block_id, blocks[1].block_id) == blocks[1].block_id

    def test_fork_point_of_disjoint_branches_is_genesis(self, tree):
        blocks = build_linear_chain(tree, 2)
        other = tree.add_block(GENESIS_ID, MinerKind.POOL)
        assert tree.fork_point_id(blocks[1].block_id, other.block_id) == GENESIS_ID

    def test_fork_point_unknown_block_rejected(self, tree):
        build_linear_chain(tree, 1)
        with pytest.raises(UnknownBlockError):
            tree.fork_point_id(1, 999)


class TestTipsAndHeights:
    def test_tips_of_linear_chain(self, tree):
        blocks = build_linear_chain(tree, 3)
        assert tree.tip_ids() == [blocks[-1].block_id]

    def test_fork_produces_two_tips(self, tree):
        blocks = build_linear_chain(tree, 2)
        fork = tree.add_block(blocks[0].block_id, MinerKind.POOL)
        assert tree.tip_ids() == [blocks[-1].block_id, fork.block_id]

    def test_published_only_tips_ignore_withheld_children(self, tree):
        blocks = build_linear_chain(tree, 2)
        tree.add_block(blocks[-1].block_id, MinerKind.POOL, published=False)
        assert tree.tip_ids(published_only=True) == [blocks[-1].block_id]

    def test_max_height_and_ids_at_height(self, tree):
        blocks = build_linear_chain(tree, 3)
        fork = tree.add_block(blocks[1].block_id, MinerKind.POOL, published=False)
        assert tree.max_height() == 3
        assert tree.max_height(published_only=True) == 3
        assert tree.ids_at_height(3) == [blocks[2].block_id, fork.block_id]
        assert tree.count_at_height(3) == 2
        assert tree.ids_at_height(9) == []

    def test_scalar_accessors(self, tree):
        pool_block = tree.add_block(GENESIS_ID, MinerKind.POOL, created_at=4)
        assert tree.height_of(pool_block.block_id) == 1
        assert tree.parent_id_of(pool_block.block_id) == GENESIS_ID
        assert tree.parent_id_of(GENESIS_ID) == -1
        assert tree.is_pool_block(pool_block.block_id)
        assert tree.created_at_of(pool_block.block_id) == 4


class TestStatistics:
    def test_count_by_miner_excludes_genesis(self, tree):
        build_linear_chain(tree, 2, MinerKind.HONEST)
        tree.add_block(GENESIS_ID, MinerKind.POOL)
        counts = tree.count_by_miner()
        assert counts[MinerKind.HONEST] == 2
        assert counts[MinerKind.POOL] == 1

    def test_describe_reports_counts(self, tree):
        build_linear_chain(tree, 2)
        text = tree.describe()
        assert "blocks=2" in text
