"""A minimal dict-based reference block tree: the test-side oracle.

:class:`ReferenceTree` stores one immutable :class:`~repro.chain.block.Block`
per id in a plain dict and answers every question the naive way: uncle
eligibility is decided per candidate by walking ancestors, tips by scanning
every block, fork points by intersecting ancestor sets.  It shares no code
with :class:`~repro.chain.arrays.ArrayBlockTree` beyond the ``Block`` record,
which is what makes it a useful oracle for the lockstep property suite.

:func:`validate_walk` and :func:`settle_rewards_walk` are the block-by-block
validation and settlement walks the library used before its vectorised
paths raised their own errors; their bodies are kept unchanged so the
property suite can check the library's results, exception types, messages
and precedence against them.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.chain.block import Block, GENESIS_ID, MinerKind, make_genesis
from repro.chain.rewards import ChainSettlement
from repro.constants import MAX_UNCLE_DISTANCE, MAX_UNCLES_PER_BLOCK
from repro.errors import ChainStructureError, UnknownBlockError
from repro.rewards.breakdown import PartyRewards, RevenueSplit
from repro.rewards.schedule import RewardSchedule


class ReferenceTree:
    """An append-only dict of blocks with naive, walk-everything queries."""

    def __init__(self) -> None:
        genesis = make_genesis()
        self._blocks: dict[int, Block] = {genesis.block_id: genesis}
        self._children: dict[int, list[int]] = {genesis.block_id: []}
        self._published: set[int] = {genesis.block_id}

    # ------------------------------------------------------------------ access
    @property
    def genesis(self) -> Block:
        return self._blocks[GENESIS_ID]

    @property
    def published_ids(self) -> set[int]:
        return self._published

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._blocks

    def block(self, block_id: int) -> Block:
        try:
            return self._blocks[block_id]
        except KeyError as exc:
            raise UnknownBlockError(f"block {block_id} is not in the tree") from exc

    def blocks(self) -> list[Block]:
        return [self._blocks[block_id] for block_id in sorted(self._blocks)]

    def children(self, block_id: int) -> list[Block]:
        self.block(block_id)
        return [self._blocks[child] for child in self._children[block_id]]

    # ------------------------------------------------------------------ mutation
    def add_block(
        self,
        parent_id: int,
        miner: MinerKind,
        *,
        miner_index: int = 0,
        created_at: int = 0,
        uncle_ids: Iterable[int] = (),
        published: bool = True,
    ) -> Block:
        parent = self.block(parent_id)
        uncle_tuple = tuple(uncle_ids)
        for position, uncle_id in enumerate(uncle_tuple):
            if uncle_id not in self._blocks:
                raise UnknownBlockError(f"uncle {uncle_id} is not in the tree")
            if uncle_id in uncle_tuple[:position]:
                raise ChainStructureError(f"uncle {uncle_id} referenced twice by the same block")
            if uncle_id == parent_id:
                raise ChainStructureError("a block cannot reference its own parent as an uncle")
        block = Block(
            block_id=len(self._blocks),
            parent_id=parent_id,
            height=parent.height + 1,
            miner=miner,
            miner_index=miner_index,
            created_at=created_at,
            uncle_ids=uncle_tuple,
        )
        self._blocks[block.block_id] = block
        self._children[block.block_id] = []
        self._children[parent_id].append(block.block_id)
        if published:
            self._published.add(block.block_id)
        return block

    def publish(self, block_id: int) -> None:
        self.block(block_id)
        self._published.add(block_id)

    # ------------------------------------------------------------------ walks
    def ancestors(self, block_id: int, *, include_self: bool = False) -> Iterator[Block]:
        block = self.block(block_id)
        if include_self:
            yield block
        while block.parent_id is not None:
            block = self.block(block.parent_id)
            yield block

    def chain_to(self, block_id: int) -> list[Block]:
        path = list(self.ancestors(block_id, include_self=True))
        path.reverse()
        return path

    def is_ancestor(self, ancestor_id: int, descendant_id: int) -> bool:
        self.block(ancestor_id)
        return any(
            block.block_id == ancestor_id
            for block in self.ancestors(descendant_id, include_self=True)
        )

    def fork_point_id(self, first_id: int, second_id: int) -> int:
        first_path = {block.block_id for block in self.ancestors(first_id, include_self=True)}
        for block in self.ancestors(second_id, include_self=True):
            if block.block_id in first_path:
                return block.block_id
        return GENESIS_ID

    # ------------------------------------------------------------------ tips
    def tip_ids(self, *, published_only: bool = False) -> list[int]:
        """Leaves; with ``published_only``, published blocks with no published child."""
        tips = []
        for block in self.blocks():
            if published_only and block.block_id not in self._published:
                continue
            children = self._children[block.block_id]
            if published_only:
                children = [child for child in children if child in self._published]
            if not children:
                tips.append(block.block_id)
        return tips

    def best_tip_id(self, *, published_only: bool = True) -> int:
        """Longest-chain tip; ties go to the earliest creation, then the lowest id."""
        return min(
            self.tip_ids(published_only=published_only),
            key=lambda tip: (-self._blocks[tip].height, self._blocks[tip].created_at, tip),
        )

    def max_height(self) -> int:
        return max(block.height for block in self._blocks.values())

    # ------------------------------------------------------------------ uncles
    def is_eligible_uncle(self, uncle_id: int, parent_id: int, *, max_distance: int) -> bool:
        """Protocol rules 1-4 for one candidate and a block mined on ``parent_id``."""
        uncle = self.block(uncle_id)
        parent = self.block(parent_id)
        if uncle.is_genesis:
            return False
        distance = parent.height + 1 - uncle.height
        if distance < 1 or distance > max_distance:
            return False
        if self.is_ancestor(uncle_id, parent_id):
            return False
        if not self.is_ancestor(uncle.parent_id, parent_id):
            return False
        for ancestor in self.ancestors(parent_id, include_self=True):
            if uncle_id in ancestor.uncle_ids:
                return False
            if ancestor.height < uncle.height - 1:
                break
        return True

    def select_uncles(
        self, parent_id: int, *, max_distance: int, max_count: int, known=None
    ) -> list[int]:
        """Every eligible known block, oldest first, capped at ``max_count`` (rule 5)."""
        if max_count <= 0 or max_distance <= 0:
            return []
        eligible = [
            block
            for block in self.blocks()
            if (known is None or block.block_id in known)
            and self.is_eligible_uncle(block.block_id, parent_id, max_distance=max_distance)
        ]
        eligible.sort(key=lambda block: (block.height, block.created_at, block.block_id))
        return [block.block_id for block in eligible[:max_count]]


# ---------------------------------------------------------------------- validation walk
def validate_walk(
    tree,
    *,
    max_uncles_per_block: int = MAX_UNCLES_PER_BLOCK,
    max_uncle_distance: int = MAX_UNCLE_DISTANCE,
    enforce_uncle_rules: bool = True,
) -> None:
    """The block-by-block validation walk."""
    genesis = tree.genesis
    if genesis.block_id != GENESIS_ID or genesis.height != 0 or genesis.parent_id is not None:
        raise ChainStructureError("malformed genesis block")

    for block in tree.blocks():
        if block.is_genesis:
            continue
        if block.parent_id is None:
            raise ChainStructureError(f"non-genesis block {block.block_id} has no parent")
        parent = tree.block(block.parent_id)
        if block.height != parent.height + 1:
            raise ChainStructureError(
                f"block {block.block_id} has height {block.height}, expected {parent.height + 1}"
            )
        if block.block_id not in [child.block_id for child in tree.children(parent.block_id)]:
            raise ChainStructureError(
                f"block {block.block_id} missing from the children of its parent {parent.block_id}"
            )
        if len(block.uncle_ids) > max_uncles_per_block:
            raise ChainStructureError(
                f"block {block.block_id} references {len(block.uncle_ids)} uncles "
                f"(protocol maximum is {max_uncles_per_block})"
            )
        for uncle_id in block.uncle_ids:
            _validate_uncle_reference(
                tree,
                block_id=block.block_id,
                uncle_id=uncle_id,
                max_uncle_distance=max_uncle_distance,
                enforce_uncle_rules=enforce_uncle_rules,
            )


def _validate_uncle_reference(
    tree,
    *,
    block_id: int,
    uncle_id: int,
    max_uncle_distance: int,
    enforce_uncle_rules: bool,
) -> None:
    block = tree.block(block_id)
    uncle = tree.block(uncle_id)
    if uncle_id == block_id:
        raise ChainStructureError(f"block {block_id} references itself as an uncle")
    if uncle_id == block.parent_id:
        raise ChainStructureError(f"block {block_id} references its parent as an uncle")
    if not enforce_uncle_rules:
        return
    if uncle.is_genesis:
        raise ChainStructureError(f"block {block_id} references the genesis block as an uncle")
    distance = block.height - uncle.height
    if distance < 1 or distance > max_uncle_distance:
        raise ChainStructureError(
            f"block {block_id} references uncle {uncle_id} at distance {distance} "
            f"(allowed range 1..{max_uncle_distance})"
        )
    assert block.parent_id is not None  # guaranteed by caller
    if tree.is_ancestor(uncle_id, block.parent_id):
        raise ChainStructureError(
            f"block {block_id} references its own ancestor {uncle_id} as an uncle"
        )
    if uncle.parent_id is None or not tree.is_ancestor(uncle.parent_id, block.parent_id):
        raise ChainStructureError(
            f"uncle {uncle_id} referenced by block {block_id} is not a child of the block's ancestry"
        )
    for ancestor in tree.ancestors(block.parent_id, include_self=True):
        if uncle_id in ancestor.uncle_ids:
            raise ChainStructureError(
                f"uncle {uncle_id} referenced by block {block_id} was already referenced "
                f"by its ancestor {ancestor.block_id}"
            )
        if ancestor.height < uncle.height:
            break


# ---------------------------------------------------------------------- settlement walk
def settle_rewards_walk(
    tree,
    tip_id: int,
    schedule: RewardSchedule,
    *,
    skip_heights_below: int = 0,
) -> ChainSettlement:
    """The block-by-block reference settlement (tip check included)."""
    if tip_id not in tree:
        raise ChainStructureError(f"settlement tip {tip_id} is not in the tree")
    main_chain = tree.chain_to(tip_id)
    main_ids = {block.block_id for block in main_chain}

    # Rewards are accumulated as plain (static, uncle, nephew) float slots — one
    # triple per miner plus one per party — and wrapped in PartyRewards once at the
    # end.  The additions happen in the same order as the previous
    # one-PartyRewards-per-credit implementation, so the totals are bit-identical;
    # this just avoids building tens of thousands of throwaway dataclasses.
    per_miner_slots: dict[tuple[MinerKind, int], list[float]] = {}
    pool_slots = [0.0, 0.0, 0.0]
    honest_slots = [0.0, 0.0, 0.0]

    def credit(block: Block, slot: int, amount: float) -> None:
        key = (block.miner, block.miner_index)
        slots = per_miner_slots.get(key)
        if slots is None:
            slots = per_miner_slots[key] = [0.0, 0.0, 0.0]
        slots[slot] += amount
        if block.miner.is_pool:
            pool_slots[slot] += amount
        else:
            honest_slots[slot] += amount

    referenced: dict[int, int] = {}  # uncle id -> referencing distance
    pool_regular = 0
    honest_regular = 0
    static_reward = schedule.static_reward

    # Pass 1: static rewards and uncle references along the main chain.
    for block in main_chain:
        if block.is_genesis or block.height < skip_heights_below:
            continue
        credit(block, 0, static_reward)
        if block.miner.is_pool:
            pool_regular += 1
        else:
            honest_regular += 1
        for uncle_id in block.uncle_ids:
            uncle = tree.block(uncle_id)
            if uncle.block_id in main_ids:
                raise ChainStructureError(
                    f"main-chain block {uncle_id} referenced as an uncle by block {block.block_id}"
                )
            if uncle_id in referenced:
                raise ChainStructureError(f"uncle {uncle_id} referenced twice along the main chain")
            distance = block.height - uncle.height
            referenced[uncle_id] = distance
            if uncle.height >= skip_heights_below:
                credit(uncle, 1, schedule.uncle_reward(distance))
                credit(block, 2, schedule.nephew_reward(distance))

    # Pass 2: classify every block.
    pool_uncles = 0
    honest_uncles = 0
    stale = 0
    total = 0
    honest_distance_counts: dict[int, int] = {}
    pool_distance_counts: dict[int, int] = {}
    for block in tree.blocks():
        if block.is_genesis or block.height < skip_heights_below:
            continue
        total += 1
        if block.block_id in main_ids:
            continue
        if block.block_id in referenced:
            distance = referenced[block.block_id]
            if block.miner.is_pool:
                pool_uncles += 1
                pool_distance_counts[distance] = pool_distance_counts.get(distance, 0) + 1
            else:
                honest_uncles += 1
                honest_distance_counts[distance] = honest_distance_counts.get(distance, 0) + 1
        else:
            stale += 1

    regular = pool_regular + honest_regular
    pool = PartyRewards(static=pool_slots[0], uncle=pool_slots[1], nephew=pool_slots[2])
    honest = PartyRewards(static=honest_slots[0], uncle=honest_slots[1], nephew=honest_slots[2])
    per_miner = {
        key: PartyRewards(static=slots[0], uncle=slots[1], nephew=slots[2])
        for key, slots in per_miner_slots.items()
    }
    return ChainSettlement(
        split=RevenueSplit(pool=pool, honest=honest),
        per_miner=per_miner,
        regular_blocks=regular,
        pool_regular_blocks=pool_regular,
        honest_regular_blocks=honest_regular,
        uncle_blocks=pool_uncles + honest_uncles,
        pool_uncle_blocks=pool_uncles,
        honest_uncle_blocks=honest_uncles,
        stale_blocks=stale,
        total_blocks=total,
        honest_uncle_distance_counts=dict(sorted(honest_distance_counts.items())),
        pool_uncle_distance_counts=dict(sorted(pool_distance_counts.items())),
    )
