"""Long-run revenue rates of the selfish pool and honest miners (Section IV-E.1).

:class:`RevenueModel` combines the three ingredients of the analysis:

1. the Markov chain's long-run law, lumped on the pool's lead (:mod:`repro.markov`),
2. the per-transition expected rewards (:mod:`repro.analysis.reward_cases`),
3. a reward schedule (:mod:`repro.rewards.schedule`),

and produces :class:`RevenueRates`: time-average reward rates, block-classification
rates (regular / uncle), and the distance profile of honest uncles.  These are the
quantities behind every figure and table of the paper's evaluation.

The computation is a single weighted sum: for every transition ``t`` out of state
``s``, the expected reward record of ``t`` is weighted by ``pi(s) * rate(t)`` — the
long-run frequency of that transition — and accumulated, where ``pi`` is the
chain's law lumped on the lead, one representative state per lead class.
Transitions sharing an Appendix-B case and uncle distance share their record, and
so do cases 7-10 at one distance, so the sum runs over those pricing groups: :class:`GroupRecords`
prices each record once and :func:`fold_revenue` turns the frequencies into
:class:`RevenueRates` with one dot product per rate.  The optimal-strategy MDP
(:mod:`repro.mdp`) and the markov sampler (:mod:`repro.simulation.tables`) price
through the same table, and the MDP's policy evaluation uses the same fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..markov.stationary import stationary_distribution  # noqa: F401 - perfbench/spans.py patches this binding
from ..markov.transitions import CompiledSelfishChain, SelfishTransition, compiled_selfish_chain, pricing_key
from ..markov.transitions import selfish_mining_transitions  # noqa: F401 - perfbench/spans.py patches this binding
from ..params import MiningParams
from ..rewards.breakdown import PartyRewards, RevenueSplit
from ..rewards.schedule import EthereumByzantiumSchedule, RewardSchedule
from .reward_cases import REWARD_COMPONENTS, transition_rewards


@dataclass(frozen=True)
class RevenueRates:
    """Long-run per-unit-time reward and block rates at one ``(alpha, gamma)`` point.

    Attributes
    ----------
    params:
        The parameter point the rates were computed for.
    split:
        Reward rates by party and type; ``split.pool.static`` is the paper's
        ``r_b^s``, ``split.honest.uncle`` is ``r_u^h``, and so on.
    regular_rate:
        Rate at which regular (main-chain) blocks are created, ``r_b^s + r_b^h`` when
        the static reward is 1.
    uncle_rate:
        Rate at which *referenced* uncles are created (pool + honest).
    pool_uncle_rate, honest_uncle_rate:
        The same, broken down by the uncle's miner.
    honest_uncle_distance_rates:
        Rate of honest referenced-uncle creation by referencing distance.
    stale_rate:
        Rate of blocks that end up neither regular nor referenced uncles.
    """

    params: MiningParams
    split: RevenueSplit
    regular_rate: float
    uncle_rate: float
    pool_uncle_rate: float
    honest_uncle_rate: float
    honest_uncle_distance_rates: Mapping[int, float] = field(default_factory=dict)
    stale_rate: float = 0.0

    @property
    def pool(self) -> PartyRewards:
        """Reward rates of the selfish pool (``r_b^s``, ``r_u^s``, ``r_n^s``)."""
        return self.split.pool

    @property
    def honest(self) -> PartyRewards:
        """Reward rates of honest miners (``r_b^h``, ``r_u^h``, ``r_n^h``)."""
        return self.split.honest

    @property
    def relative_pool_revenue(self) -> float:
        """The pool's share ``Rs`` of the total revenue (Section IV-E.1)."""
        return self.split.pool_share()

    @property
    def block_rate(self) -> float:
        """Total block creation rate; equals 1 under the paper's time rescaling."""
        return self.regular_rate + self.uncle_rate + self.stale_rate

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary of the headline rates (handy for tables and CSV dumps)."""
        return {
            "alpha": self.params.alpha,
            "gamma": self.params.gamma,
            "pool_static": self.pool.static,
            "pool_uncle": self.pool.uncle,
            "pool_nephew": self.pool.nephew,
            "honest_static": self.honest.static,
            "honest_uncle": self.honest.uncle,
            "honest_nephew": self.honest.nephew,
            "regular_rate": self.regular_rate,
            "uncle_rate": self.uncle_rate,
            "stale_rate": self.stale_rate,
            "relative_pool_revenue": self.relative_pool_revenue,
        }


class GroupRecords:
    """Appendix-B reward vectors at one ``(params, schedule)``, priced once per pricing group.

    A vector is a transition's
    :meth:`~repro.analysis.reward_cases.TransitionRewards.component_vector`.
    :meth:`matrix` prices one representative of each group of a compiled chain
    with :func:`transition_rewards`; :meth:`vector` serves chains enumerated
    state by state, pricing the first transition of each group
    (:func:`~repro.markov.transitions.pricing_key`) and reading the stored
    vector for every later one.
    """

    def __init__(self, params: MiningParams, schedule: RewardSchedule) -> None:
        self.params = params
        self.schedule = schedule
        self._vectors: dict[tuple[int, int], tuple[float, ...]] = {}

    def matrix(self, compiled: CompiledSelfishChain) -> np.ndarray:
        """``(groups, components)`` matrix whose row ``g`` is the vector of ``compiled``'s group ``g``."""
        return np.array([self._price(transition) for transition in compiled.representatives(self.params)])

    def vector(self, transition: SelfishTransition) -> tuple[float, ...]:
        """The reward vector of ``transition``, in :data:`REWARD_COMPONENTS` order."""
        key = pricing_key(transition.kind, transition.source)
        vector = self._vectors.get(key)
        if vector is None:
            vector = self._vectors[key] = self._price(transition)
        return vector

    def _price(self, transition: SelfishTransition) -> tuple[float, ...]:
        return transition_rewards(transition, self.params, self.schedule).component_vector()


def fold_revenue(
    params: MiningParams,
    frequencies: np.ndarray,
    groups: np.ndarray,
    records: np.ndarray,
    group_distances: np.ndarray,
) -> RevenueRates:
    """The :class:`RevenueRates` of a chain from the long-run frequency of its transitions.

    ``frequencies[k]`` is ``pi(source) * rate`` of transition ``k`` and
    ``groups[k]`` its pricing group; row ``g`` of ``records`` is group ``g``'s
    reward vector (:meth:`GroupRecords.matrix`) and ``group_distances[g]`` its
    uncle distance.  The frequencies are summed per group, so every rate is one
    dot product with a column of ``records``.
    """
    group_weights = np.bincount(groups, weights=frequencies, minlength=len(records))
    totals = dict(zip(REWARD_COMPONENTS, (group_weights @ records).tolist()))
    honest_uncles = group_weights * records[:, REWARD_COMPONENTS.index("honest_uncle_blocks")]
    distance_rates: dict[int, float] = {}
    for distance, rate in zip(group_distances.tolist(), honest_uncles.tolist()):
        if rate > 0.0:
            distance_rates[distance] = distance_rates.get(distance, 0.0) + rate
    return RevenueRates(
        params=params,
        split=RevenueSplit(
            pool=PartyRewards(totals["pool_static"], totals["pool_uncle"], totals["pool_nephew"]),
            honest=PartyRewards(totals["honest_static"], totals["honest_uncle"], totals["honest_nephew"]),
        ),
        regular_rate=totals["regular"],
        uncle_rate=totals["uncle"],
        pool_uncle_rate=totals["pool_uncle_blocks"],
        honest_uncle_rate=totals["honest_uncle_blocks"],
        honest_uncle_distance_rates=dict(sorted(distance_rates.items())),
        stale_rate=totals["stale"],
    )


class RevenueModel:
    """The analytical revenue engine for one reward schedule and truncation level.

    Parameters
    ----------
    schedule:
        Reward schedule (defaults to the Ethereum Byzantium rules).
    max_lead:
        Truncation of the Markov chain: the longest pool lead kept.  The chain is
        priced on its exact lumping onto the lead
        (:meth:`~repro.markov.transitions.CompiledSelfishChain.lead_class_masses`),
        so the only error is the mass beyond the cap, about
        ``(alpha / beta) ** max_lead`` and independent of ``gamma``.  The
        default of 60 moves the pool's share ``Rs`` from its exact value by
        about ``1.2e-6`` at ``alpha = 0.45``, ``5e-12`` at ``0.40`` and below
        ``1e-16`` at ``alpha <= 0.35``.

    The transition structure of each truncation is compiled once per process
    (:func:`~repro.markov.transitions.compiled_selfish_chain`) and shared by every
    model.  A parameter point then costs one gather of the rates, the closed-form
    lead-class masses, one pricing of each group with
    :func:`~repro.analysis.reward_cases.transition_rewards` (67 at
    ``max_lead=60``) and a few dot products.
    """

    #: Default truncation level; see the class docstring.
    DEFAULT_MAX_LEAD = 60

    def __init__(
        self,
        schedule: RewardSchedule | None = None,
        *,
        max_lead: int = DEFAULT_MAX_LEAD,
    ) -> None:
        self.schedule = schedule if schedule is not None else EthereumByzantiumSchedule()
        self.max_lead = int(max_lead)

    # ------------------------------------------------------------------ public API
    def revenue_rates(self, params: MiningParams) -> RevenueRates:
        """Compute the long-run revenue and block rates at ``params``."""
        compiled = compiled_selfish_chain(self.max_lead)
        frequencies = compiled.lead_class_masses(params)[compiled.sources] * compiled.rates(params)
        records = GroupRecords(params, self.schedule).matrix(compiled)
        return fold_revenue(params, frequencies, compiled.groups, records, compiled.group_distances)

    def relative_pool_revenue(self, params: MiningParams) -> float:
        """Convenience wrapper returning only the pool's relative revenue ``Rs``."""
        return self.revenue_rates(params).relative_pool_revenue

    def describe(self) -> str:
        """Short human-readable description of the engine configuration."""
        return f"RevenueModel(schedule={type(self.schedule).__name__}, max_lead={self.max_lead})"

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return self.describe()
