"""Unit tests for end-of-run reward settlement."""

from __future__ import annotations

import pytest

from repro.chain.arrays import ArrayBlockTree
from repro.chain.block import GENESIS_ID, MinerKind
from repro.chain.rewards import settle_rewards
from repro.rewards.schedule import BitcoinSchedule, EthereumByzantiumSchedule

SCHEDULE = EthereumByzantiumSchedule()


def linear(tree: ArrayBlockTree, parent: int, length: int, miner=MinerKind.HONEST, uncles_by_index=None):
    blocks = []
    for index in range(length):
        uncle_ids = (uncles_by_index or {}).get(index, [])
        block = tree.add_block(parent, miner, created_at=len(tree) + index, uncle_ids=uncle_ids)
        blocks.append(block)
        parent = block.block_id
    return blocks


class TestStaticSettlement:
    def test_linear_chain_pays_one_static_reward_per_block(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 5)
        settlement = settle_rewards(tree, main[-1].block_id, SCHEDULE)
        assert settlement.regular_blocks == 5
        assert settlement.split.honest.static == pytest.approx(5.0)
        assert settlement.split.pool.total == 0.0
        assert settlement.uncle_blocks == 0
        assert settlement.stale_blocks == 0
        assert settlement.blocks_accounted() == settlement.total_blocks == 5

    def test_static_rewards_split_by_miner_kind(self):
        tree = ArrayBlockTree()
        first = tree.add_block(GENESIS_ID, MinerKind.POOL)
        second = tree.add_block(first.block_id, MinerKind.HONEST)
        settlement = settle_rewards(tree, second.block_id, SCHEDULE)
        assert settlement.split.pool.static == pytest.approx(1.0)
        assert settlement.split.honest.static == pytest.approx(1.0)
        assert settlement.pool_regular_blocks == 1
        assert settlement.honest_regular_blocks == 1

    def test_per_miner_accounting(self):
        tree = ArrayBlockTree()
        first = tree.add_block(GENESIS_ID, MinerKind.HONEST, miner_index=3)
        second = tree.add_block(first.block_id, MinerKind.HONEST, miner_index=7)
        settlement = settle_rewards(tree, second.block_id, SCHEDULE)
        assert settlement.per_miner[(MinerKind.HONEST, 3)].static == pytest.approx(1.0)
        assert settlement.per_miner[(MinerKind.HONEST, 7)].static == pytest.approx(1.0)


class TestUncleSettlement:
    def build_tree_with_uncle(self, distance: int):
        """Main chain where a stale pool block is referenced at the given distance.

        The stale block sits at height 1 (a sibling of the first main-chain block), so
        a nephew at height ``distance + 1`` references it at exactly ``distance``.
        """
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, distance)
        stale = tree.add_block(GENESIS_ID, MinerKind.POOL)  # height 1, sibling of main[0]
        nephew = tree.add_block(main[-1].block_id, MinerKind.HONEST, uncle_ids=[stale.block_id])
        assert nephew.height - stale.height == distance
        return tree, stale, nephew

    @pytest.mark.parametrize("distance", [1, 2, 4, 6])
    def test_uncle_and_nephew_rewards_follow_the_schedule(self, distance):
        tree, stale, nephew = self.build_tree_with_uncle(distance)
        settlement = settle_rewards(tree, nephew.block_id, SCHEDULE)
        assert settlement.uncle_blocks == 1
        assert settlement.pool_uncle_blocks == 1
        assert settlement.split.pool.uncle == pytest.approx(SCHEDULE.uncle_reward(distance))
        assert settlement.split.honest.nephew == pytest.approx(SCHEDULE.nephew_reward(distance))
        assert settlement.pool_uncle_distance_counts == {distance: 1}

    def test_honest_uncle_distance_histogram(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)
        stale = tree.add_block(GENESIS_ID, MinerKind.HONEST)  # honest stale block at height 1
        nephew = tree.add_block(main[-1].block_id, MinerKind.POOL, uncle_ids=[stale.block_id])
        settlement = settle_rewards(tree, nephew.block_id, SCHEDULE)
        assert settlement.honest_uncle_blocks == 1
        assert settlement.honest_uncle_distance_counts == {nephew.height - stale.height: 1}
        assert settlement.split.pool.nephew == pytest.approx(SCHEDULE.nephew_reward(3))

    def test_unreferenced_stale_block_earns_nothing(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)
        tree.add_block(GENESIS_ID, MinerKind.POOL)  # stale, never referenced
        settlement = settle_rewards(tree, main[-1].block_id, SCHEDULE)
        assert settlement.uncle_blocks == 0
        assert settlement.stale_blocks == 1
        assert settlement.split.pool.total == 0.0

    def test_bitcoin_schedule_pays_no_uncle_rewards_even_when_referenced(self):
        tree, stale, nephew = self.build_tree_with_uncle(2)
        settlement = settle_rewards(tree, nephew.block_id, BitcoinSchedule())
        assert settlement.split.pool.uncle == 0.0
        assert settlement.split.honest.nephew == 0.0
        # The block still counts as referenced for classification purposes.
        assert settlement.uncle_blocks == 1


class TestOptions:
    def test_warmup_heights_excluded(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 6)
        settlement = settle_rewards(tree, main[-1].block_id, SCHEDULE, skip_heights_below=3)
        assert settlement.regular_blocks == 4  # heights 3, 4, 5, 6
        assert settlement.split.honest.static == pytest.approx(4.0)

    def test_pool_relative_revenue(self):
        tree = ArrayBlockTree()
        first = tree.add_block(GENESIS_ID, MinerKind.POOL)
        second = tree.add_block(first.block_id, MinerKind.HONEST)
        third = tree.add_block(second.block_id, MinerKind.HONEST)
        settlement = settle_rewards(tree, third.block_id, SCHEDULE)
        assert settlement.pool_relative_revenue == pytest.approx(1 / 3)
