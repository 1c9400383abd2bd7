"""Compiled transition tables for the Markov Monte Carlo backend.

A Monte Carlo run over the selfish-mining chain only ever visits a few dozen
distinct states and transitions, so all per-event work moves to compile time:

* every visited :class:`~repro.markov.state.State` is integer-encoded
  (:meth:`State.encode`) and compiled — once — into a *state row*: the running
  cumulative probabilities of its outgoing transitions (in
  :func:`~repro.markov.transitions.successors` order, summed one rate at a time)
  plus direct references to the successor rows;
* every distinct transition gets one global index and one row of a numpy *reward
  matrix* holding its :data:`~repro.analysis.reward_cases.REWARD_COMPONENTS`
  vector, read from the pricing-group table
  (:class:`~repro.analysis.revenue.GroupRecords`), so each Appendix-B record is
  priced once per group;
* the chain walk then only compares a buffered uniform draw against the cumulative
  thresholds and increments an integer visit count, and a whole run is settled at
  the end as a single ``counts @ reward_matrix`` product.

The thresholds are the partial sums a one-draw-per-event sampler compares
against, so the sampled transition sequence for a given seed is the same as that
of the per-event scalar loop the test-suite keeps as this module's oracle; only
the reward totals are reassociated (count-times-value instead of repeated
addition).  A decision table of the optimal-strategy MDP (``override_codes``)
makes the tables walk the chain that policy induces: the states it lists answer
their pool events with :func:`~repro.markov.transitions.overridden`.

States are compiled lazily as the walk first reaches them, so no truncation level
has to be chosen up front and compilation cost is proportional to the handful of
states a run actually visits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.revenue import GroupRecords
from ..analysis.reward_cases import REWARD_COMPONENTS
from ..markov.state import State, decode_state
from ..markov.transitions import SelfishTransition, case_rates, overridden, successors, uncle_distance
from ..params import MiningParams
from ..rewards.breakdown import PartyRewards
from ..rewards.schedule import RewardSchedule
from .rng import RandomSource

# Positions of the row fields inside the plain-list state rows.  Lists beat a
# dataclass here: the walk unpacks one row per event and list unpacking is the
# cheapest structure CPython offers for that.
_THRESHOLDS, _TARGETS, _BASE, _LAST, _CODE = range(5)

#: Uniform draws fetched from the random source per walk chunk.
WALK_CHUNK = 8192


@dataclass(frozen=True)
class TableSettlement:
    """Accumulated totals of a compiled-table walk (one scalar per component)."""

    pool: PartyRewards
    honest: PartyRewards
    regular_blocks: float
    pool_regular_blocks: float
    honest_regular_blocks: float
    uncle_blocks: float
    pool_uncle_blocks: float
    honest_uncle_blocks: float
    stale_blocks: float
    honest_uncle_distance_counts: dict[int, float]
    pool_uncle_distance_counts: dict[int, float]


class CompiledTransitionTables:
    """Lazily compiled per-state transition and reward tables.

    Parameters
    ----------
    params:
        The ``(alpha, gamma)`` parameter point.
    schedule:
        Reward schedule the per-transition reward vectors are evaluated under.
    max_lead:
        Truncation forwarded to the transition enumeration (the Monte Carlo
        backends use an effectively unbounded value).
    override_codes:
        :meth:`~repro.markov.state.State.encode` codes of the states that answer
        the pool's own block with OVERRIDE, a solved decision table of
        :mod:`repro.mdp`.  Empty (the default) walks the paper's Algorithm-1 chain.
    """

    def __init__(
        self,
        params: MiningParams,
        schedule: RewardSchedule,
        *,
        max_lead: int,
        override_codes: frozenset[int] = frozenset(),
    ) -> None:
        self.params = params
        self.schedule = schedule
        self.max_lead = max_lead
        self.override_codes = override_codes
        self.records = GroupRecords(params, schedule)
        self._rates = case_rates(params)
        self._rows: dict[int, list] = {}
        self._transitions: list[SelfishTransition] = []
        self._component_rows: list[tuple[float, ...]] = []
        # Uncle distance of each transition's block (0 where it has none).
        self._distances: list[int] = []

    # ------------------------------------------------------------------ compilation
    @property
    def num_states(self) -> int:
        """Number of state rows compiled so far."""
        return len(self._rows)

    @property
    def num_transitions(self) -> int:
        """Number of distinct transitions compiled so far."""
        return len(self._transitions)

    def transition_at(self, index: int) -> SelfishTransition:
        """The transition holding global index ``index``."""
        return self._transitions[index]

    def row_for(self, state: State) -> list:
        """Return (compiling on first use) the state row of ``state``."""
        return self._row_for_code(state.encode())

    def _row_for_code(self, code: int) -> list:
        row = self._rows.get(code)
        if row is None:
            row = self._compile(code)
        return row

    def _compile(self, code: int) -> list:
        state = decode_state(code)
        pairs = successors(state, self.max_lead)
        if code in self.override_codes:
            pairs = (overridden(target, kind) for target, kind in pairs)
        transitions = [SelfishTransition(state, target, self._rates[kind.value], kind) for target, kind in pairs]
        thresholds: list[float] = []
        cumulative = 0.0
        for transition in transitions:
            # Partial sums one rate at a time: the thresholds a per-event sampler
            # compares each uniform draw against.
            cumulative += transition.rate
            thresholds.append(cumulative)
        base = len(self._transitions)
        for transition in transitions:
            self._component_rows.append(self.records.vector(transition))
            self._distances.append(uncle_distance(transition.kind, state) or 0)
        self._transitions.extend(transitions)
        row = [
            tuple(thresholds),
            [transition.target.encode() for transition in transitions],
            base,
            len(transitions) - 1,
            code,
        ]
        self._rows[code] = row
        return row

    # ------------------------------------------------------------------ walking
    def walk(
        self,
        start: State,
        num_steps: int,
        rng: RandomSource,
        *,
        trace: list[int] | None = None,
    ) -> tuple[list[int], State]:
        """Sample ``num_steps`` transitions starting from ``start``.

        Returns the per-transition visit counts (indexed by the tables' global
        transition indices) and the final state.  ``trace``, when given, receives
        the encoded target state of every step — the regression tests use it to
        pin the sampled sequence against the scalar backend.
        """
        row = self.row_for(start)
        counts = [0] * len(self._transitions)
        remaining = num_steps
        while remaining > 0:
            chunk = WALK_CHUNK if remaining > WALK_CHUNK else remaining
            for draw in rng.uniform_block(chunk):
                thresholds, targets, base, last, _ = row
                index = 0
                while index < last and draw >= thresholds[index]:
                    index += 1
                counts[base + index] += 1
                successor = targets[index]
                if type(successor) is int:
                    grown_from = len(self._transitions)
                    successor = self._row_for_code(successor)
                    grown = len(self._transitions) - grown_from
                    if grown:
                        counts.extend([0] * grown)
                    targets[index] = successor
                row = successor
                if trace is not None:
                    trace.append(row[_CODE])
            remaining -= chunk
        return counts, decode_state(row[_CODE])

    # ------------------------------------------------------------------ settlement
    def reward_matrix(self) -> np.ndarray:
        """The compiled ``(num_transitions, len(REWARD_COMPONENTS))`` reward matrix."""
        if not self._component_rows:
            return np.empty((0, len(REWARD_COMPONENTS)), dtype=np.float64)
        return np.asarray(self._component_rows, dtype=np.float64)

    def settle(self, counts: list[int]) -> TableSettlement:
        """Fold per-transition visit counts into run totals (``counts @ matrix``).

        The uncle-distance histograms add ``count * value`` per transition in
        transition order, one bin per distance.
        """
        count_vector = np.asarray(counts, dtype=np.float64)
        matrix = self.reward_matrix()
        totals = count_vector @ matrix
        by_name = dict(zip(REWARD_COMPONENTS, totals.tolist()))

        def histogram(component: str) -> dict[int, float]:
            weights = count_vector * matrix[:, REWARD_COMPONENTS.index(component)]
            bins = np.bincount(np.asarray(self._distances, dtype=np.intp), weights=weights)
            return {distance: value for distance, value in enumerate(bins.tolist()) if value > 0.0}

        return TableSettlement(
            pool=PartyRewards(
                static=by_name["pool_static"],
                uncle=by_name["pool_uncle"],
                nephew=by_name["pool_nephew"],
            ),
            honest=PartyRewards(
                static=by_name["honest_static"],
                uncle=by_name["honest_uncle"],
                nephew=by_name["honest_nephew"],
            ),
            regular_blocks=by_name["regular"],
            pool_regular_blocks=by_name["pool_regular"],
            honest_regular_blocks=by_name["honest_regular"],
            uncle_blocks=by_name["uncle"],
            pool_uncle_blocks=by_name["pool_uncle_blocks"],
            honest_uncle_blocks=by_name["honest_uncle_blocks"],
            stale_blocks=by_name["stale"],
            honest_uncle_distance_counts=histogram("honest_uncle_blocks"),
            pool_uncle_distance_counts=histogram("pool_uncle_blocks"),
        )

    def describe(self) -> str:
        """Short human-readable summary of the compiled tables."""
        return (
            f"CompiledTransitionTables(states={self.num_states}, "
            f"transitions={self.num_transitions}, {self.params.describe()})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return self.describe()
