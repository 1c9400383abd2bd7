"""Unit tests for block-tree validation and the settlement error contract.

Every violation test pins the exact exception type and message, and the
precedence cases pin which error wins when one tree holds two violations:
the lower block id first, then (within a block) the uncle-count cap before
the per-slot checks, then slot order.
"""

from __future__ import annotations

import re

import pytest

from repro.chain.arrays import ArrayBlockTree
from repro.chain.block import GENESIS_ID, MinerKind
from repro.chain.rewards import settle_rewards
from repro.chain.validation import validate_tree
from repro.errors import ChainStructureError, ParameterError
from repro.rewards.schedule import EthereumByzantiumSchedule

SCHEDULE = EthereumByzantiumSchedule()


def exactly(message: str) -> str:
    """A ``pytest.raises(match=...)`` pattern matching ``message`` and nothing else."""
    return f"^{re.escape(message)}$"


def linear(tree: ArrayBlockTree, parent: int, length: int, miner=MinerKind.HONEST):
    blocks = []
    for _ in range(length):
        block = tree.add_block(parent, miner)
        blocks.append(block)
        parent = block.block_id
    return blocks


class TestValidTrees:
    def test_empty_tree_is_valid(self):
        validate_tree(ArrayBlockTree())

    def test_linear_chain_is_valid(self):
        tree = ArrayBlockTree()
        linear(tree, GENESIS_ID, 10)
        validate_tree(tree)

    def test_forked_tree_with_proper_uncle_reference_is_valid(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)
        stale = tree.add_block(GENESIS_ID, MinerKind.POOL)
        tree.add_block(main[-1].block_id, MinerKind.HONEST, uncle_ids=[stale.block_id])
        validate_tree(tree)

    def test_uncle_rules_can_be_disabled(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 8)
        stale = tree.add_block(GENESIS_ID, MinerKind.POOL)
        tree.add_block(main[-1].block_id, MinerKind.HONEST, uncle_ids=[stale.block_id])
        # Too-far reference passes once protocol-rule checking is off.
        validate_tree(tree, enforce_uncle_rules=False)

    def test_same_uncle_on_two_branches_is_valid(self):
        # A double reference only violates the rules along one ancestry path.
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)  # 1, 2
        stale = tree.add_block(GENESIS_ID, MinerKind.POOL)  # 3, height 1
        tree.add_block(main[-1].block_id, MinerKind.HONEST, uncle_ids=[stale.block_id])  # 4
        tree.add_block(main[-1].block_id, MinerKind.HONEST, uncle_ids=[stale.block_id])  # 5
        validate_tree(tree)


class TestViolations:
    def test_too_many_uncles_detected(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)  # 1, 2
        stales = [tree.add_block(GENESIS_ID, MinerKind.POOL) for _ in range(3)]  # 3, 4, 5
        tree.add_block(main[-1].block_id, MinerKind.HONEST, uncle_ids=[s.block_id for s in stales])
        with pytest.raises(
            ChainStructureError, match=exactly("block 6 references 3 uncles (protocol maximum is 2)")
        ):
            validate_tree(tree, max_uncles_per_block=2)

    def test_distance_window_violation_detected(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 8)  # 1..8
        stale = tree.add_block(GENESIS_ID, MinerKind.POOL)  # 9, height 1
        tree.add_block(main[-1].block_id, MinerKind.HONEST, uncle_ids=[stale.block_id])  # distance 8
        with pytest.raises(
            ChainStructureError,
            match=exactly("block 10 references uncle 9 at distance 8 (allowed range 1..6)"),
        ):
            validate_tree(tree)

    def test_negative_distance_detected(self):
        tree = ArrayBlockTree()
        linear(tree, GENESIS_ID, 3)  # 1, 2, 3 (height 3)
        fork = tree.add_block(GENESIS_ID, MinerKind.POOL)  # 4, height 1
        tree.add_block(fork.block_id, MinerKind.POOL, uncle_ids=[3])  # 5, height 2
        with pytest.raises(
            ChainStructureError,
            match=exactly("block 5 references uncle 3 at distance -1 (allowed range 1..6)"),
        ):
            validate_tree(tree)

    def test_ancestor_referenced_as_uncle_detected(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)  # 1, 2, 3
        tree.add_block(main[-1].block_id, MinerKind.HONEST, uncle_ids=[main[0].block_id])  # 4
        with pytest.raises(
            ChainStructureError, match=exactly("block 4 references its own ancestor 1 as an uncle")
        ):
            validate_tree(tree)

    def test_uncle_with_off_chain_parent_detected(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)  # 1, 2, 3
        stale = tree.add_block(GENESIS_ID, MinerKind.POOL)  # 4
        stale_child = tree.add_block(stale.block_id, MinerKind.POOL)  # 5
        tree.add_block(main[-1].block_id, MinerKind.HONEST, uncle_ids=[stale_child.block_id])
        with pytest.raises(
            ChainStructureError,
            match=exactly("uncle 5 referenced by block 6 is not a child of the block's ancestry"),
        ):
            validate_tree(tree)

    def test_double_reference_along_ancestry_detected(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)  # 1, 2
        stale = tree.add_block(GENESIS_ID, MinerKind.POOL)  # 3
        first_nephew = tree.add_block(
            main[-1].block_id, MinerKind.HONEST, uncle_ids=[stale.block_id]
        )  # 4
        tree.add_block(first_nephew.block_id, MinerKind.HONEST, uncle_ids=[stale.block_id])  # 5
        with pytest.raises(
            ChainStructureError,
            match=exactly("uncle 3 referenced by block 5 was already referenced by its ancestor 4"),
        ):
            validate_tree(tree)

    def test_double_reference_names_the_nearest_ancestor(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)  # 1, 2
        stale = tree.add_block(GENESIS_ID, MinerKind.POOL)  # 3
        first = tree.add_block(main[-1].block_id, MinerKind.HONEST, uncle_ids=[3])  # 4
        gap = tree.add_block(first.block_id, MinerKind.HONEST)  # 5
        second = tree.add_block(gap.block_id, MinerKind.HONEST, uncle_ids=[stale.block_id])  # 6
        tree.add_block(second.block_id, MinerKind.HONEST, uncle_ids=[stale.block_id])  # 7
        with pytest.raises(
            ChainStructureError,
            match=exactly("uncle 3 referenced by block 6 was already referenced by its ancestor 4"),
        ):
            validate_tree(tree)

    def test_genesis_reference_detected(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)  # 1, 2
        tree.add_block(main[-1].block_id, MinerKind.HONEST, uncle_ids=[GENESIS_ID])  # 3
        with pytest.raises(
            ChainStructureError, match=exactly("block 3 references the genesis block as an uncle")
        ):
            validate_tree(tree)


class TestStructuralChecks:
    """The columns' own consistency, checked before any protocol rule.

    ``add_block`` cannot produce these trees; the cases corrupt the private
    columns directly to exercise the safety checks.
    """

    def corrupted(self, column: str, index: int, value) -> ArrayBlockTree:
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)  # 1, 2, 3
        tree.add_block(main[0].block_id, MinerKind.POOL)  # 4
        getattr(tree, column)[index] = value
        return tree

    @pytest.mark.parametrize(
        "column, index, value, message",
        [
            ("_heights", 0, 1, "malformed genesis block"),
            ("_parents", 2, -1, "non-genesis block 2 has no parent"),
            ("_parents", 2, 3, "block 2 has parent 3, which was not added before it"),
            ("_heights", 3, 7, "block 3 has height 7, expected 3"),
            ("_children", 1, [2], "block 4 missing from the children of its parent 1"),
        ],
    )
    def test_corrupted_columns_detected(self, column, index, value, message):
        tree = self.corrupted(column, index, value)
        with pytest.raises(ChainStructureError, match=exactly(message)):
            validate_tree(tree)

    def test_structure_is_checked_before_the_uncle_rules(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)  # 1, 2, 3
        tree.add_block(main[-1].block_id, MinerKind.HONEST, uncle_ids=[GENESIS_ID])  # 4
        tree._heights[4] = 9
        with pytest.raises(ChainStructureError, match=exactly("block 4 has height 9, expected 4")):
            validate_tree(tree)


class TestViolationPrecedence:
    def test_lower_block_id_wins(self):
        # Block 5's genesis reference fails an earlier check than block 4's
        # ancestor reference, but block 4 comes first.
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)  # 1, 2, 3
        bad = tree.add_block(main[-1].block_id, MinerKind.HONEST, uncle_ids=[1])  # 4
        tree.add_block(bad.block_id, MinerKind.HONEST, uncle_ids=[GENESIS_ID])  # 5
        with pytest.raises(
            ChainStructureError, match=exactly("block 4 references its own ancestor 1 as an uncle")
        ):
            validate_tree(tree)

    def test_uncle_count_cap_precedes_the_per_slot_checks(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)  # 1, 2
        stales = [tree.add_block(GENESIS_ID, MinerKind.POOL) for _ in range(2)]  # 3, 4
        tree.add_block(
            main[-1].block_id,
            MinerKind.HONEST,
            uncle_ids=[GENESIS_ID, stales[0].block_id, stales[1].block_id],
        )  # 5
        with pytest.raises(
            ChainStructureError, match=exactly("block 5 references 3 uncles (protocol maximum is 2)")
        ):
            validate_tree(tree)

    @pytest.mark.parametrize(
        "uncle_ids, message",
        [
            ([9, GENESIS_ID], "block 10 references uncle 9 at distance 8 (allowed range 1..6)"),
            ([GENESIS_ID, 9], "block 10 references the genesis block as an uncle"),
        ],
    )
    def test_slot_order_decides_within_a_block(self, uncle_ids, message):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 8)  # 1..8
        tree.add_block(GENESIS_ID, MinerKind.POOL)  # 9, height 1
        tree.add_block(main[-1].block_id, MinerKind.HONEST, uncle_ids=uncle_ids)  # 10
        with pytest.raises(ChainStructureError, match=exactly(message)):
            validate_tree(tree)


class TestSettlementErrors:
    def test_unknown_tip_rejected(self):
        with pytest.raises(ChainStructureError, match=exactly("settlement tip 42 is not in the tree")):
            settle_rewards(ArrayBlockTree(), 42, SCHEDULE)

    def test_main_chain_block_referenced_as_uncle(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)  # 1, 2
        bad = tree.add_block(main[-1].block_id, MinerKind.HONEST, uncle_ids=[1])  # 3
        with pytest.raises(
            ChainStructureError, match=exactly("main-chain block 1 referenced as an uncle by block 3")
        ):
            settle_rewards(tree, bad.block_id, SCHEDULE)

    def test_uncle_referenced_twice_along_the_main_chain(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)  # 1, 2
        stale = tree.add_block(GENESIS_ID, MinerKind.POOL)  # 3
        first = tree.add_block(main[-1].block_id, MinerKind.HONEST, uncle_ids=[3])  # 4
        second = tree.add_block(first.block_id, MinerKind.HONEST, uncle_ids=[stale.block_id])  # 5
        with pytest.raises(
            ChainStructureError, match=exactly("uncle 3 referenced twice along the main chain")
        ):
            settle_rewards(tree, second.block_id, SCHEDULE)

    @pytest.mark.parametrize(
        "uncle_ids, message",
        [
            ([3, 1], "uncle 3 referenced twice along the main chain"),
            ([1, 3], "main-chain block 1 referenced as an uncle by block 5"),
        ],
    )
    def test_slot_order_decides_within_a_block(self, uncle_ids, message):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)  # 1, 2
        tree.add_block(GENESIS_ID, MinerKind.POOL)  # 3
        first = tree.add_block(main[-1].block_id, MinerKind.HONEST, uncle_ids=[3])  # 4
        second = tree.add_block(first.block_id, MinerKind.HONEST, uncle_ids=uncle_ids)  # 5
        with pytest.raises(ChainStructureError, match=exactly(message)):
            settle_rewards(tree, second.block_id, SCHEDULE)

    def test_earlier_main_chain_block_wins(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)  # 1, 2
        tree.add_block(GENESIS_ID, MinerKind.POOL)  # 3
        first = tree.add_block(main[-1].block_id, MinerKind.HONEST, uncle_ids=[1, 3])  # 4
        second = tree.add_block(first.block_id, MinerKind.HONEST, uncle_ids=[3])  # 5
        with pytest.raises(
            ChainStructureError, match=exactly("main-chain block 1 referenced as an uncle by block 4")
        ):
            settle_rewards(tree, second.block_id, SCHEDULE)

    def build_negative_distance_tree(self) -> tuple[ArrayBlockTree, int]:
        """A main chain whose height-1 block references a height-3 stale block.

        Returns the tree and the main-chain tip; the reference sits at
        distance -2.
        """
        tree = ArrayBlockTree()
        linear(tree, GENESIS_ID, 3)  # 1, 2, 3: the stale branch, 3 at height 3
        nephew = tree.add_block(GENESIS_ID, MinerKind.HONEST, uncle_ids=[3])  # 4, height 1
        main = linear(tree, nephew.block_id, 3)  # 5, 6, 7
        return tree, main[-1].block_id

    @pytest.mark.parametrize("skip", [0, 1])
    def test_negative_distance_at_or_above_the_skip_is_rejected_by_the_schedule(self, skip):
        tree, tip_id = self.build_negative_distance_tree()
        with pytest.raises(
            ParameterError, match=exactly("uncle distance must be non-negative, got -2")
        ):
            settle_rewards(tree, tip_id, SCHEDULE, skip_heights_below=skip)

    def test_negative_distance_below_the_skip_settles(self):
        tree, tip_id = self.build_negative_distance_tree()
        settlement = settle_rewards(tree, tip_id, SCHEDULE, skip_heights_below=2)
        assert settlement.regular_blocks == 3  # heights 2, 3, 4
        assert settlement.uncle_blocks == 0
        assert settlement.blocks_accounted() == settlement.total_blocks

    def test_schedule_error_precedes_a_later_structural_error(self):
        tree, _ = self.build_negative_distance_tree()
        # Block 8 re-references uncle 3 further down the same main chain.
        tip = tree.add_block(7, MinerKind.HONEST, uncle_ids=[3])
        with pytest.raises(ParameterError, match=exactly("uncle distance must be non-negative, got -2")):
            settle_rewards(tree, tip.block_id, SCHEDULE)
