"""End-of-run reward settlement over a finished block tree.

Given the final tree and the winning tip, settlement pays

* the static reward to the miner of every main-chain block,
* for every uncle reference carried by a main-chain block: the distance-dependent
  uncle reward to the uncle's miner and the nephew reward to the referencing block's
  miner.

It also classifies every block (regular / referenced uncle / plain stale) and collects
the per-distance histogram of honest referenced uncles, which is what Table II of the
paper reports.  The result is a :class:`ChainSettlement` that the simulation metrics
convert into the same revenue containers the analytical model produces, so that the
two can be compared number for number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..errors import ChainStructureError
from ..rewards.breakdown import PartyRewards, RevenueSplit
from ..rewards.schedule import RewardSchedule
from .arrays import ArrayBlockTree
from .block import MinerKind


@dataclass(frozen=True)
class ChainSettlement:
    """The outcome of settling one finished block tree."""

    split: RevenueSplit
    per_miner: Mapping[tuple[MinerKind, int], PartyRewards]
    regular_blocks: int
    pool_regular_blocks: int
    honest_regular_blocks: int
    uncle_blocks: int
    pool_uncle_blocks: int
    honest_uncle_blocks: int
    stale_blocks: int
    total_blocks: int
    honest_uncle_distance_counts: Mapping[int, int] = field(default_factory=dict)
    pool_uncle_distance_counts: Mapping[int, int] = field(default_factory=dict)

    @property
    def main_chain_length(self) -> int:
        """Number of non-genesis blocks on the main chain."""
        return self.regular_blocks

    @property
    def pool_relative_revenue(self) -> float:
        """The pool's share of all settled rewards."""
        return self.split.pool_share()

    def blocks_accounted(self) -> int:
        """Regular + uncle + stale; must equal ``total_blocks`` (tests assert this)."""
        return self.regular_blocks + self.uncle_blocks + self.stale_blocks


def settle_rewards(
    tree: ArrayBlockTree,
    tip_id: int,
    schedule: RewardSchedule,
    *,
    skip_heights_below: int = 0,
) -> ChainSettlement:
    """Settle rewards for the chain ending at ``tip_id``.

    Parameters
    ----------
    tree:
        The finished block tree.
    tip_id:
        Identifier of the main-chain tip (normally the longest published tip).
    schedule:
        Reward schedule used for static/uncle/nephew amounts.
    skip_heights_below:
        Blocks at heights below this value are excluded from both rewards and counts.
        The simulator uses it to discard a warm-up prefix so that long-run averages are
        not biased by the empty-tree start.

    The main-chain blocks' uncle references are read in chain order (slot order
    within a block), and the first bad one raises :class:`ChainStructureError`:
    a main-chain block referenced as an uncle, or an uncle referenced twice
    along the main chain.  Every rewarded reference before it has already been
    priced by ``schedule``, so a distance the schedule rejects (a negative one,
    say) raises the schedule's own error first.

    Every sum is computed over columns, bit-exact with crediting block by
    block along the chain: main-chain ids strictly increase towards the tip (a
    parent's id is smaller than its child's), so the tree's flat reference
    columns filtered to the included main blocks are already in chain order;
    and ``np.bincount`` accumulates float weights sequentially in input order,
    so every per-slot float sum is that same sequence of additions.
    """
    if tip_id not in tree:
        raise ChainStructureError(f"settlement tip {tip_id} is not in the tree")
    skip = skip_heights_below
    heights = tree.height_column()
    kinds = tree.kind_column()
    miner_idx = tree.miner_index_column()
    count = len(heights)

    main_ids = np.asarray(tree.main_chain_ids(tip_id), dtype=np.int64)
    is_main = np.zeros(count, dtype=bool)
    is_main[main_ids] = True
    # Included main blocks (non-genesis, above the warm-up skip), chain order.
    m_ids = main_ids[1:]
    if skip > 0:
        m_ids = m_ids[heights[m_ids] >= skip]

    # Settled references: only included main blocks' references count, in
    # chain order with slot order within a block.
    ref_blocks, ref_uncles = tree.reference_columns()
    included_main = np.zeros(count, dtype=bool)
    included_main[m_ids] = True
    ref_mask = included_main[ref_blocks]
    r_blocks = ref_blocks[ref_mask]
    r_uncles = ref_uncles[ref_mask]

    # The first bad reference: its uncle is on the main chain, or an earlier
    # reference already named it.
    first_seen = np.zeros(r_uncles.size, dtype=bool)
    first_seen[np.unique(r_uncles, return_index=True)[1]] = True
    bad = np.flatnonzero(is_main[r_uncles] | ~first_seen)
    settled = int(bad[0]) if bad.size else r_uncles.size

    # Rewarded references: the uncle itself must clear the warm-up skip.  Each
    # distinct distance is priced once, in order of first use, and only among
    # the references before the first bad one — a custom schedule is never
    # probed at a distance block-by-block crediting would not reach.
    distances = heights[r_blocks] - heights[r_uncles]
    if skip > 0:
        pay_mask = heights[r_uncles] >= skip
        pr_blocks = r_blocks[pay_mask]
        pr_uncles = r_uncles[pay_mask]
        pay_distances = distances[pay_mask]
        priced = int(np.count_nonzero(pay_mask[:settled]))
    else:
        pr_blocks = r_blocks
        pr_uncles = r_uncles
        pay_distances = distances
        priced = settled
    values, first_use, table_index = np.unique(
        pay_distances[:priced], return_index=True, return_inverse=True
    )
    uncle_table = np.zeros(values.size, dtype=np.float64)
    nephew_table = np.zeros(values.size, dtype=np.float64)
    for position in np.argsort(first_use).tolist():
        distance = int(values[position])
        uncle_table[position] = schedule.uncle_reward(distance)
        nephew_table[position] = schedule.nephew_reward(distance)
    if settled < r_uncles.size:
        uncle_id = int(r_uncles[settled])
        if is_main[uncle_id]:
            raise ChainStructureError(
                f"main-chain block {uncle_id} referenced as an uncle by block "
                f"{int(r_blocks[settled])}"
            )
        raise ChainStructureError(f"uncle {uncle_id} referenced twice along the main chain")
    uncle_amounts = uncle_table[table_index]
    nephew_amounts = nephew_table[table_index]

    static_reward = schedule.static_reward
    m_kinds = kinds[m_ids]
    static_weights = np.full(m_ids.size, static_reward, dtype=np.float64)
    static_by_party = np.bincount(m_kinds, weights=static_weights, minlength=2)
    uncle_by_party = np.bincount(kinds[pr_uncles], weights=uncle_amounts, minlength=2)
    nephew_by_party = np.bincount(kinds[pr_blocks], weights=nephew_amounts, minlength=2)
    pool_regular = int(np.count_nonzero(m_kinds))
    honest_regular = int(m_ids.size) - pool_regular

    # Per-miner totals via composite (kind, miner_index) codes; +1 absorbs the
    # genesis sentinel index -1 (creditable when skip == 0 pays a genesis uncle).
    stride = int(miner_idx.max()) + 2
    codes = 2 * stride
    static_codes = m_kinds * stride + miner_idx[m_ids] + 1
    uncle_codes = kinds[pr_uncles] * stride + miner_idx[pr_uncles] + 1
    nephew_codes = kinds[pr_blocks] * stride + miner_idx[pr_blocks] + 1
    static_by_code = np.bincount(static_codes, weights=static_weights, minlength=codes)
    uncle_by_code = np.bincount(uncle_codes, weights=uncle_amounts, minlength=codes)
    nephew_by_code = np.bincount(nephew_codes, weights=nephew_amounts, minlength=codes)
    credited = np.union1d(np.union1d(static_codes, uncle_codes), nephew_codes)
    per_miner: dict[tuple[MinerKind, int], PartyRewards] = {}
    for code in credited:
        code = int(code)
        per_miner[
            (MinerKind.POOL if code >= stride else MinerKind.HONEST, code % stride - 1)
        ] = PartyRewards(
            static=float(static_by_code[code]),
            uncle=float(uncle_by_code[code]),
            nephew=float(nephew_by_code[code]),
        )

    # Classification: every non-genesis block above the skip is regular (on the
    # main chain), a referenced uncle, or plain stale.
    included = heights >= skip
    included[0] = False
    total = int(np.count_nonzero(included))
    referenced_flag = np.zeros(count, dtype=bool)
    referenced_flag[r_uncles] = True
    classified_ids = np.nonzero(included & referenced_flag)[0]
    distance_of = np.zeros(count, dtype=np.int64)
    distance_of[r_uncles] = distances
    classified_kinds = kinds[classified_ids]
    classified_distances = distance_of[classified_ids]
    pool_uncles = int(np.count_nonzero(classified_kinds))
    honest_uncles = int(classified_ids.size) - pool_uncles
    stale = total - int(m_ids.size) - pool_uncles - honest_uncles

    pool = PartyRewards(
        static=float(static_by_party[1]),
        uncle=float(uncle_by_party[1]),
        nephew=float(nephew_by_party[1]),
    )
    honest = PartyRewards(
        static=float(static_by_party[0]),
        uncle=float(uncle_by_party[0]),
        nephew=float(nephew_by_party[0]),
    )
    return ChainSettlement(
        split=RevenueSplit(pool=pool, honest=honest),
        per_miner=per_miner,
        regular_blocks=pool_regular + honest_regular,
        pool_regular_blocks=pool_regular,
        honest_regular_blocks=honest_regular,
        uncle_blocks=pool_uncles + honest_uncles,
        pool_uncle_blocks=pool_uncles,
        honest_uncle_blocks=honest_uncles,
        stale_blocks=stale,
        total_blocks=total,
        honest_uncle_distance_counts=_distance_histogram(
            classified_distances[classified_kinds == 0]
        ),
        pool_uncle_distance_counts=_distance_histogram(
            classified_distances[classified_kinds == 1]
        ),
    )


def _distance_histogram(distances: np.ndarray) -> dict[int, int]:
    """``{distance: count}``, ascending by distance."""
    values, counts = np.unique(distances, return_counts=True)
    return {int(value): int(count) for value, count in zip(values, counts)}
