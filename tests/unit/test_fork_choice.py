"""Unit tests for the longest-chain fork choice."""

from __future__ import annotations

import pytest

from repro.chain.arrays import ArrayBlockTree
from repro.chain.block import GENESIS_ID, MinerKind
from repro.chain.fork_choice import LongestChainRule
from repro.errors import ChainStructureError


def linear(tree: ArrayBlockTree, parent: int, length: int, miner=MinerKind.HONEST, published=True):
    blocks = []
    for index in range(length):
        block = tree.add_block(parent, miner, created_at=len(tree) + index, published=published)
        blocks.append(block)
        parent = block.block_id
    return blocks


class TestLongestChainRule:
    def test_single_chain_tip(self):
        tree = ArrayBlockTree()
        blocks = linear(tree, GENESIS_ID, 3)
        assert LongestChainRule().best_tip_id(tree) == blocks[-1].block_id

    def test_longer_branch_wins(self):
        tree = ArrayBlockTree()
        linear(tree, GENESIS_ID, 2)
        long = linear(tree, GENESIS_ID, 3, MinerKind.POOL)
        assert LongestChainRule().best_tip_id(tree) == long[-1].block_id

    def test_best_tip_breaks_ties_by_creation_order(self):
        tree = ArrayBlockTree()
        first = linear(tree, GENESIS_ID, 2)
        linear(tree, GENESIS_ID, 2, MinerKind.POOL)
        assert LongestChainRule().best_tip_id(tree) == first[-1].block_id

    def test_equal_creation_stamps_fall_back_to_the_lowest_id(self):
        tree = ArrayBlockTree()
        first = tree.add_block(GENESIS_ID, MinerKind.HONEST, created_at=5)
        tree.add_block(GENESIS_ID, MinerKind.POOL, created_at=5)
        assert LongestChainRule().best_tip_id(tree) == first.block_id

    def test_published_only_ignores_withheld_branch(self):
        tree = ArrayBlockTree()
        public = linear(tree, GENESIS_ID, 2)
        withheld = linear(tree, GENESIS_ID, 4, MinerKind.POOL, published=False)
        rule = LongestChainRule()
        assert rule.best_tip_id(tree, published_only=True) == public[-1].block_id
        assert rule.best_tip_id(tree, published_only=False) == withheld[-1].block_id

    def test_genesis_only_tree(self):
        assert LongestChainRule().best_tip_id(ArrayBlockTree()) == GENESIS_ID

    def test_no_eligible_tips_raises(self):
        class NoTips(ArrayBlockTree):
            def tip_ids(self, *, published_only=False):
                return []

        with pytest.raises(ChainStructureError, match="^fork choice found no eligible tips$"):
            LongestChainRule().best_tip_id(NoTips())
