"""Structural and protocol validation of block trees.

:func:`validate_tree` checks the invariants that every other chain component
relies on.  The simulator calls it (optionally) at the end of a run and the
property-based tests call it after every generated operation sequence, so a
violation anywhere in the pipeline surfaces as a precise error message rather
than as a silently wrong revenue number.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ..constants import MAX_UNCLE_DISTANCE, MAX_UNCLES_PER_BLOCK
from ..errors import ChainStructureError
from .arrays import ArrayBlockTree
from .block import GENESIS_ID


def validate_tree(
    tree: ArrayBlockTree,
    *,
    max_uncles_per_block: int = MAX_UNCLES_PER_BLOCK,
    max_uncle_distance: int = MAX_UNCLE_DISTANCE,
    enforce_uncle_rules: bool = True,
) -> None:
    """Check structural and protocol invariants of ``tree``; raise the first violation.

    Structural checks, over the whole tree first (the protocol checks walk the
    parent column, so they only make sense on a sound one):

    * block 0 is the genesis block: no parent, height 0;
    * every other block's parent was added before it, and its height is the
      parent's height plus one;
    * every block is listed among its parent's children.

    Protocol checks, block by block in id order:

    * no block carries more than ``max_uncles_per_block`` references;
    * then, reference by reference in slot order: no block references itself or
      its parent; and (unless ``enforce_uncle_rules`` is off) the uncle is not
      the genesis block, the distance is within ``1..max_uncle_distance``, the
      uncle is not an ancestor, its parent is one, and no ancestor down to the
      uncle's height minus one already referenced it.

    The first violation in that order raises :class:`ChainStructureError`.  All
    checks run as column passes; only the reference that fails first is
    re-examined one check at a time to name its violation.
    """
    parents = tree.parent_column()
    heights = tree.height_column()
    _check_structure(tree, parents, heights)

    ref_blocks, ref_uncles = tree.reference_columns()
    if ref_blocks.size == 0:
        return
    uncle_counts = np.bincount(ref_blocks, minlength=len(parents))
    over_cap = np.flatnonzero(uncle_counts > max_uncles_per_block)
    cap_block = int(over_cap[0]) if over_cap.size else len(parents)

    flagged = _flag_bad_references(
        tree,
        parents,
        heights,
        ref_blocks,
        ref_uncles,
        max_uncle_distance=max_uncle_distance,
        enforce_uncle_rules=enforce_uncle_rules,
    )
    for index in np.flatnonzero(flagged).tolist():
        block_id = int(ref_blocks[index])
        if block_id >= cap_block:
            break
        message = _reference_error(
            tree,
            block_id,
            int(ref_uncles[index]),
            max_uncle_distance=max_uncle_distance,
            enforce_uncle_rules=enforce_uncle_rules,
        )
        if message is not None:
            raise ChainStructureError(message)
    if over_cap.size:
        raise ChainStructureError(
            f"block {cap_block} references {int(uncle_counts[cap_block])} uncles "
            f"(protocol maximum is {max_uncles_per_block})"
        )


def _check_structure(tree: ArrayBlockTree, parents: np.ndarray, heights: np.ndarray) -> None:
    """Raise on the lowest block whose parent, height or children entry is wrong."""
    count = len(parents)
    if count == 0 or parents[0] != -1 or heights[0] != 0:
        raise ChainStructureError("malformed genesis block")
    if count == 1:
        return
    ids = np.arange(1, count)
    own_parents = parents[1:]
    parent_ok = (own_parents >= 0) & (own_parents < ids)
    safe_parents = np.where(parent_ok, own_parents, 0)
    height_ok = heights[1:] == heights[safe_parents] + 1

    # Children lists and parent pointers agree: every block appears in the
    # children list of the parent it points to.
    children_map = tree._children
    entries = len(children_map)
    bucket_sizes = np.fromiter(map(len, children_map.values()), dtype=np.int64, count=entries)
    child_ids = np.fromiter(
        chain.from_iterable(children_map.values()), dtype=np.int64, count=int(bucket_sizes.sum())
    )
    listing_parents = np.repeat(
        np.fromiter(children_map.keys(), dtype=np.int64, count=entries), bucket_sizes
    )
    in_range = (child_ids > 0) & (child_ids < count)
    child_ids = child_ids[in_range]
    listed = np.zeros(count, dtype=bool)
    listed[child_ids[parents[child_ids] == listing_parents[in_range]]] = True

    bad = ~(parent_ok & height_ok & listed[1:])
    if not bad.any():
        return
    block_id = int(np.argmax(bad)) + 1
    parent_id = int(parents[block_id])
    if parent_id < 0:
        raise ChainStructureError(f"non-genesis block {block_id} has no parent")
    if parent_id >= block_id:
        raise ChainStructureError(
            f"block {block_id} has parent {parent_id}, which was not added before it"
        )
    if heights[block_id] != heights[parent_id] + 1:
        raise ChainStructureError(
            f"block {block_id} has height {int(heights[block_id])}, "
            f"expected {int(heights[parent_id]) + 1}"
        )
    raise ChainStructureError(
        f"block {block_id} missing from the children of its parent {parent_id}"
    )


def _flag_bad_references(
    tree: ArrayBlockTree,
    parents: np.ndarray,
    heights: np.ndarray,
    ref_blocks: np.ndarray,
    ref_uncles: np.ndarray,
    *,
    max_uncle_distance: int,
    enforce_uncle_rules: bool,
) -> np.ndarray:
    """Per reference (in reference order): True when any per-slot check fails."""
    bad = (ref_uncles == ref_blocks) | (ref_uncles == parents[ref_blocks])
    if not enforce_uncle_rules:
        return bad
    distances = heights[ref_blocks] - heights[ref_uncles]
    bad |= (ref_uncles == GENESIS_ID) | (distances < 1) | (distances > max_uncle_distance)
    in_window = np.flatnonzero(~bad)
    if in_window.size == 0:
        return bad

    # Ancestry rules for every in-window reference at once: `level` walks the
    # referencing blocks' ancestor chains in lockstep (k-th step = k-th
    # ancestor of the referencing block's parent), guarded against the -1
    # genesis sentinel.  An uncle at distance d must NOT be the (d-1)-th
    # ancestor (it would be on the chain) and its parent MUST be the d-th (a
    # child of the chain).
    blocks = ref_blocks[in_window]
    uncles = ref_uncles[in_window]
    window_distances = distances[in_window]
    level = parents[blocks]
    uncle_parents = parents[uncles]
    on_chain = np.zeros(in_window.size, dtype=bool)
    uncle_parent_on_chain = np.zeros(in_window.size, dtype=bool)
    for step in range(int(window_distances.max())):
        at_uncle_height = window_distances - 1 == step
        on_chain |= at_uncle_height & (level == uncles)
        level = np.where(level >= 0, parents[np.maximum(level, 0)], -1)
        uncle_parent_on_chain |= at_uncle_height & (level == uncle_parents)
    bad[in_window] = on_chain | ~uncle_parent_on_chain

    # Double references along an ancestry path: only an uncle referenced more
    # than once anywhere in the tree can violate this, so walk exactly those
    # few references (each scan is bounded by the inclusion window).
    unique_uncles, reference_counts = np.unique(ref_uncles, return_counts=True)
    if (reference_counts > 1).any():
        duplicated = set(unique_uncles[reference_counts > 1].tolist())
        for index in in_window.tolist():
            if bad[index] or int(ref_uncles[index]) not in duplicated:
                continue
            bad[index] = (
                _earlier_reference(tree, int(ref_blocks[index]), int(ref_uncles[index]))
                is not None
            )
    return bad


def _earlier_reference(tree: ArrayBlockTree, block_id: int, uncle_id: int) -> int | None:
    """The nearest ancestor of ``block_id`` that already references ``uncle_id``.

    Scans from the block's parent down to the uncle's height minus one; ``None``
    when no ancestor in that range references it.
    """
    parents = tree._parents
    heights = tree._heights
    uncle_tuples = tree._uncle_tuples
    uncle_height = heights[uncle_id]
    ancestor = parents[block_id]
    while ancestor >= 0:
        if uncle_id in uncle_tuples[ancestor]:
            return ancestor
        if heights[ancestor] < uncle_height:
            break
        ancestor = parents[ancestor]
    return None


def _reference_error(
    tree: ArrayBlockTree,
    block_id: int,
    uncle_id: int,
    *,
    max_uncle_distance: int,
    enforce_uncle_rules: bool,
) -> str | None:
    """The first per-slot check ``uncle_id`` fails as a reference of ``block_id``."""
    parents = tree._parents
    heights = tree._heights
    parent_id = parents[block_id]
    if uncle_id == block_id:
        return f"block {block_id} references itself as an uncle"
    if uncle_id == parent_id:
        return f"block {block_id} references its parent as an uncle"
    if not enforce_uncle_rules:
        return None
    if uncle_id == GENESIS_ID:
        return f"block {block_id} references the genesis block as an uncle"
    distance = heights[block_id] - heights[uncle_id]
    if distance < 1 or distance > max_uncle_distance:
        return (
            f"block {block_id} references uncle {uncle_id} at distance {distance} "
            f"(allowed range 1..{max_uncle_distance})"
        )
    chain_block = parent_id  # the referencing chain's block at the uncle's height
    for _ in range(distance - 1):
        chain_block = parents[chain_block]
    if chain_block == uncle_id:
        return f"block {block_id} references its own ancestor {uncle_id} as an uncle"
    if parents[chain_block] != parents[uncle_id]:
        return (
            f"uncle {uncle_id} referenced by block {block_id} is not a child of the "
            "block's ancestry"
        )
    ancestor = _earlier_reference(tree, block_id, uncle_id)
    if ancestor is not None:
        return (
            f"uncle {uncle_id} referenced by block {block_id} was already referenced "
            f"by its ancestor {ancestor}"
        )
    return None
