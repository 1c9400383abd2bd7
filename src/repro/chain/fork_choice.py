"""Fork choice: which chain tip wins.

The paper's honest miners use the longest-chain rule (footnote 2 of the paper notes
that although Ethereum describes GHOST, its implementation effectively follows the
longest chain).  Ties between equally long public branches are the whole point of the
``gamma`` parameter; the simulators break those with their ``gamma`` coin while the
race is on, so this rule is only asked for the end-of-run winner, which it picks
deterministically.
"""

from __future__ import annotations

from ..errors import ChainStructureError
from .arrays import ArrayBlockTree


class LongestChainRule:
    """The longest-chain rule: the tip(s) of maximum height win."""

    def best_tip_id(self, tree: ArrayBlockTree, *, published_only: bool = True) -> int:
        """Id of the highest tip, ties broken by earliest creation, then lowest id."""
        tip_ids = tree.tip_ids(published_only=published_only)
        if not tip_ids:
            raise ChainStructureError("fork choice found no eligible tips")
        height_of = tree.height_of
        created_at_of = tree.created_at_of
        best_id = -1
        best_key = None
        for tip in tip_ids:
            key = (-height_of(tip), created_at_of(tip), tip)
            if best_key is None or key < best_key:
                best_key = key
                best_id = tip
        return best_id
