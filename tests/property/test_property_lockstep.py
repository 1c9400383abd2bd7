"""Lockstep property suite: ``ArrayBlockTree`` vs the dict-based reference tree.

Both trees receive identical random add/publish sequences and must stay
indistinguishable through every read API the simulators rely on — the block
records themselves, uncle selection (with and without a local-view filter),
tips and fork points, structural validation and reward settlement (including
warm-up masking and the zero-reward edges).  Ids are allocated sequentially by
both implementations, so the same action script addresses the same blocks on
each side.

The oracle suite at the end attaches arbitrary — often invalid — uncle
references and checks that ``validate_tree`` and ``settle_rewards`` raise the
same exception type and message as the reference walks, or succeed with the
same result.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_tree import ReferenceTree, settle_rewards_walk, validate_walk
from repro.chain.arrays import ArrayBlockTree
from repro.chain.block import GENESIS_ID, MinerKind
from repro.chain.fork_choice import LongestChainRule
from repro.chain.rewards import settle_rewards
from repro.chain.validation import validate_tree
from repro.rewards.schedule import EthereumByzantiumSchedule, FlatUncleSchedule

SCHEDULES = (EthereumByzantiumSchedule(), FlatUncleSchedule(0.5), FlatUncleSchedule(0.0))

# One action is (is_publish, target_choice, miner_selector, reference_uncles,
# published_at_creation).  ``target_choice`` picks the parent (mine) or the
# block to publish, modulo the current tree size.
actions = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=5),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=50,
)


def build_pair(action_list) -> tuple[ArrayBlockTree, ReferenceTree]:
    """Grow both trees through the same action script, asserting as we go."""
    # A tiny initial capacity forces several geometric growths per run.
    array_tree = ArrayBlockTree(capacity=2)
    reference = ReferenceTree()
    for step, (is_publish, choice, miner_sel, reference_uncles, published) in enumerate(
        action_list
    ):
        size = len(reference)
        if is_publish and size > 1:
            block_id = choice % size
            array_tree.publish(block_id)
            reference.publish(block_id)
            continue
        parent_id = choice % size
        kind = MinerKind.POOL if miner_sel % 2 else MinerKind.HONEST
        miner_index = miner_sel // 2
        uncle_ids: list[int] = []
        if reference_uncles:
            uncle_ids = array_tree.select_uncles(parent_id, max_distance=6, max_count=2)
            assert uncle_ids == reference.select_uncles(parent_id, max_distance=6, max_count=2)
        array_id = array_tree.add_block_id(
            parent_id,
            kind,
            miner_index=miner_index,
            created_at=step,
            uncle_ids=uncle_ids,
            published=published,
        )
        reference_id = reference.add_block(
            parent_id,
            kind,
            miner_index=miner_index,
            created_at=step,
            uncle_ids=uncle_ids,
            published=published,
        ).block_id
        assert array_id == reference_id
    return array_tree, reference


class TestLockstepStructure:
    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_blocks_and_publication_identical(self, action_list):
        array_tree, reference = build_pair(action_list)
        assert len(array_tree) == len(reference)
        for block in reference.blocks():
            assert array_tree.block(block.block_id) == block
        assert array_tree.published_ids == reference.published_ids
        assert array_tree.unpublished_ids() == sorted(
            set(range(len(reference))) - reference.published_ids
        )

    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_both_trees_validate_and_agree_on_tips(self, action_list):
        array_tree, reference = build_pair(action_list)
        validate_tree(array_tree)
        validate_walk(reference)
        assert array_tree.tip_ids() == reference.tip_ids()
        assert array_tree.tip_ids(published_only=True) == reference.tip_ids(published_only=True)
        assert array_tree.max_height() == reference.max_height()
        assert LongestChainRule().best_tip_id(array_tree) == reference.best_tip_id()

    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_fork_points_identical_for_every_pair_of_tips(self, action_list):
        array_tree, reference = build_pair(action_list)
        tip_ids = reference.tip_ids()
        for first in tip_ids:
            for second in tip_ids:
                assert array_tree.fork_point_id(first, second) == reference.fork_point_id(
                    first, second
                )


class TestLockstepUncles:
    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_uncle_selection_identical_from_every_parent(self, action_list):
        array_tree, reference = build_pair(action_list)
        published = reference.published_ids
        for parent in range(len(reference)):
            # Pool view (the whole tree) and an honest local view (published only).
            assert array_tree.select_uncles(
                parent, max_distance=6, max_count=2
            ) == reference.select_uncles(parent, max_distance=6, max_count=2)
            assert array_tree.select_uncles(
                parent, max_distance=6, max_count=2, known=published
            ) == reference.select_uncles(parent, max_distance=6, max_count=2, known=published)


class TestLockstepSettlement:
    @settings(max_examples=60, deadline=None)
    @given(action_list=actions, schedule=st.sampled_from(SCHEDULES))
    def test_settlements_bit_identical(self, action_list, schedule):
        array_tree, reference = build_pair(action_list)
        tip_id = reference.best_tip_id(published_only=False)
        top = reference.max_height()
        # skip=0, a mid-chain warm-up mask, and a mask past the whole tree
        # (the zero-reward edge: every settlement field must collapse to zero).
        for skip in (0, top // 2 + 1, top + 1):
            array_settlement = settle_rewards(
                array_tree, tip_id, schedule, skip_heights_below=skip
            )
            reference_settlement = settle_rewards_walk(
                reference, tip_id, schedule, skip_heights_below=skip
            )
            assert array_settlement == reference_settlement
        empty = settle_rewards(array_tree, tip_id, schedule, skip_heights_below=top + 1)
        assert empty.total_blocks == 0
        assert empty.split.total == 0.0
        assert empty.per_miner == {}

    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_settlement_from_genesis_tip(self, action_list):
        # Degenerate tip: settling at genesis makes every block stale.
        array_tree, reference = build_pair(action_list)
        array_settlement = settle_rewards(array_tree, GENESIS_ID, SCHEDULES[0])
        reference_settlement = settle_rewards_walk(reference, GENESIS_ID, SCHEDULES[0])
        assert array_settlement == reference_settlement
        assert array_settlement.regular_blocks == 0
        assert array_settlement.stale_blocks == array_settlement.total_blocks


# One arbitrary-reference action is (parent_back, miner_is_pool, uncle_backs):
# the parent and each uncle are named by how far back from the newest block
# they sit, which keeps the trees deep and the references mostly in (or just
# out of) the inclusion window.
arbitrary_actions = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.booleans(),
        st.lists(st.integers(min_value=0, max_value=9), max_size=3),
    ),
    min_size=1,
    max_size=30,
)


def build_arbitrary_pair(action_list) -> tuple[ArrayBlockTree, ReferenceTree]:
    """Both trees with random uncle ids that ``add_block`` accepts, valid or not."""
    array_tree = ArrayBlockTree(capacity=2)
    reference = ReferenceTree()
    for step, (parent_back, is_pool, uncle_backs) in enumerate(action_list):
        newest = len(reference) - 1
        parent_id = max(newest - parent_back, GENESIS_ID)
        uncle_ids: list[int] = []
        for back in uncle_backs:
            uncle_id = max(newest - back, GENESIS_ID)
            if uncle_id != parent_id and uncle_id not in uncle_ids:
                uncle_ids.append(uncle_id)
        kind = MinerKind.POOL if is_pool else MinerKind.HONEST
        array_tree.add_block(parent_id, kind, created_at=step, uncle_ids=uncle_ids)
        reference.add_block(parent_id, kind, created_at=step, uncle_ids=uncle_ids)
    return array_tree, reference


def outcome(function, *args, **kwargs):
    """``("ok", result)`` or ``(exception type, message)``."""
    try:
        return "ok", function(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is part of the comparison
        return type(exc), str(exc)


class TestOracleErrorContract:
    @settings(max_examples=250, deadline=None)
    @given(
        action_list=arbitrary_actions,
        max_uncles=st.integers(min_value=1, max_value=3),
        enforce=st.booleans(),
    )
    def test_validation_matches_the_walk(self, action_list, max_uncles, enforce):
        array_tree, reference = build_arbitrary_pair(action_list)
        options = {"max_uncles_per_block": max_uncles, "enforce_uncle_rules": enforce}
        assert outcome(validate_tree, array_tree, **options) == outcome(
            validate_walk, reference, **options
        )

    @settings(max_examples=250, deadline=None)
    @given(
        action_list=arbitrary_actions,
        tip_choice=st.integers(min_value=0, max_value=10**6),
        skip=st.integers(min_value=0, max_value=8),
        schedule=st.sampled_from(SCHEDULES),
    )
    def test_settlement_matches_the_walk(self, action_list, tip_choice, skip, schedule):
        array_tree, reference = build_arbitrary_pair(action_list)
        tip_id = tip_choice % len(reference)
        assert outcome(
            settle_rewards, array_tree, tip_id, schedule, skip_heights_below=skip
        ) == outcome(settle_rewards_walk, reference, tip_id, schedule, skip_heights_below=skip)
