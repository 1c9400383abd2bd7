"""Transition structure of the selfish-mining Markov process (Section IV-C).

Every transition corresponds to the creation of exactly one block — by the pool (rate
``alpha``) or by honest miners (rate ``beta``, split ``beta*gamma`` / ``beta*(1-gamma)``
between the pool-prefix branch and an honest branch whenever the state has competing
public branches).  The transitions are tagged with a :class:`TransitionKind`, one per
case of the paper's Appendix B, which the reward engine uses to attach the expected
static/uncle/nephew rewards.

The complete list, with the paper's case numbers:

==============================  =============================  ==========  =====
Kind                            Transition                      Rate        Case
==============================  =============================  ==========  =====
HONEST_EXTENDS_CONSENSUS        (0,0)   -> (0,0)                beta        1
POOL_HIDES_FIRST_BLOCK          (0,0)   -> (1,0)                alpha       2
POOL_BUILDS_LEAD_OF_TWO         (1,0)   -> (2,0)                alpha       3
HONEST_FORCES_TIE               (1,0)   -> (1,1)                beta        4
TIE_RESOLVED                    (1,1)   -> (0,0)                1           5
POOL_EXTENDS_PRIVATE_LEAD       (i,j)   -> (i+1,j), i>=2        alpha       6
HONEST_ON_PREFIX_LONG_LEAD      (i,j)   -> (i-j,1), i-j>=3,j>=1 beta*gamma  7
HONEST_ON_PREFIX_LEAD_TWO       (i,j)   -> (0,0),   i-j==2,j>=1 beta*gamma  8
HONEST_CLOSES_LEAD_TWO          (2,0)   -> (0,0)                beta        9
HONEST_FORKS_LONG_LEAD          (i,0)   -> (i,1),   i>=3        beta        10
HONEST_ON_HONEST_BRANCH         (i,j)   -> (i,j+1), i-j>=3,j>=1 beta*(1-g)  11
HONEST_ON_HONEST_LEAD_TWO       (i,j)   -> (0,0),   i-j==2,j>=1 beta*(1-g)  12
==============================  =============================  ==========  =====

Truncation: for states with ``Ls == max_lead`` the pool-extension transition (case 6)
would leave the truncated space; it is redirected to a self-loop so that every state
keeps a unit exit rate (the paper makes the same approximation, footnote 3).  The
cap is on the private branch ``Ls``, not on the lead: at ``gamma = 0`` a race never
shortens the pool's branch, so long races with a small lead pile up at the cap and
the error does not decay like ``(alpha / beta) ** max_lead``.  Measured against the
paper's 200, the default 60 moves the pool's share by ``1.5e-2`` at
``(alpha, gamma) = (0.45, 0)``, ``5.5e-4`` at ``(0.40, 0)`` and ``1.9e-6`` at
``(0.45, 0.5)`` (see :class:`~repro.analysis.revenue.RevenueModel`; ROADMAP item 2
removes the error by lumping the chain on the lead).

The structure (targets and kinds) does not depend on ``(alpha, gamma)``; only the
rates do, and :func:`case_rates` is the one place they are written.
:func:`compiled_selfish_chain` compiles the structure once per truncation; the
revenue analysis, the optimal-strategy MDP (through :func:`overridden`, the pool's
one alternative response) and the markov sampler all read it or
:func:`successors` instead of enumerating transitions of their own.  The chain is
solved by its structure (:meth:`CompiledSelfishChain.stationary`).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..errors import SolverError
from ..params import MiningParams
from .chain import MarkovChain, Transition
from .state import ZERO_STATE, State, StateSpace
from .stationary import _clean_distribution


class TransitionKind(enum.Enum):
    """One member per reward case of the paper's Appendix B."""

    HONEST_EXTENDS_CONSENSUS = 1
    POOL_HIDES_FIRST_BLOCK = 2
    POOL_BUILDS_LEAD_OF_TWO = 3
    HONEST_FORCES_TIE = 4
    TIE_RESOLVED = 5
    POOL_EXTENDS_PRIVATE_LEAD = 6
    HONEST_ON_PREFIX_LONG_LEAD = 7
    HONEST_ON_PREFIX_LEAD_TWO = 8
    HONEST_CLOSES_LEAD_TWO = 9
    HONEST_FORKS_LONG_LEAD = 10
    HONEST_ON_HONEST_BRANCH = 11
    HONEST_ON_HONEST_LEAD_TWO = 12

    @property
    def case_number(self) -> int:
        """The Appendix-B case number this kind corresponds to."""
        return self.value


@dataclass(frozen=True)
class SelfishTransition:
    """A labelled transition of the selfish-mining chain."""

    source: State
    target: State
    rate: float
    kind: TransitionKind

    def as_transition(self) -> Transition[State]:
        """Convert to the generic :class:`~repro.markov.chain.Transition`."""
        return Transition(source=self.source, target=self.target, rate=self.rate, label=self.kind.name)

    def encode(self) -> tuple[int, int, int]:
        """Integer triple ``(source_code, target_code, case_number)``.

        Uses :meth:`repro.markov.state.State.encode`, so the triple identifies the
        transition independently of any truncation level.  The compiled-table
        simulator and its regression tests use this as a compact, hashable key.
        """
        return (self.source.encode(), self.target.encode(), self.kind.case_number)


def case_rates(params: MiningParams) -> tuple[float, ...]:
    """Rate of every Appendix-B case at ``params``, indexed by case number (entry 0 unused)."""
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    on_prefix, on_honest = beta * gamma, beta * (1.0 - gamma)
    # Entry 0, then cases 1-12 in order (see the table in the module docstring).
    return (0.0, beta, alpha, alpha, beta, alpha + beta, alpha, on_prefix, on_prefix, beta, beta, on_honest, on_honest)


#: Cases 7-10: an honest block mined against a pool lead, which it cannot win.
HONEST_AGAINST_LEAD = frozenset(
    {
        TransitionKind.HONEST_ON_PREFIX_LONG_LEAD,
        TransitionKind.HONEST_ON_PREFIX_LEAD_TWO,
        TransitionKind.HONEST_CLOSES_LEAD_TWO,
        TransitionKind.HONEST_FORKS_LONG_LEAD,
    }
)


def uncle_distance(kind: TransitionKind, source: State) -> int | None:
    """Referencing distance of the target block of a ``kind`` transition out of ``source``.

    The pool's first withheld block (case 2) and the honest block forcing a tie
    (case 4) can only become uncles at distance 1; an honest block mined against a
    pool lead (cases 7-10) becomes an uncle at the lead's length.  Every other
    target block is regular or never referenced, so it has no distance.
    """
    if kind in (TransitionKind.POOL_HIDES_FIRST_BLOCK, TransitionKind.HONEST_FORCES_TIE):
        return 1
    if kind in HONEST_AGAINST_LEAD:
        return source.lead
    return None


#: Cases 2, 3 and 6: the pool mines a block, the events its OVERRIDE response redirects.
POOL_EVENTS = frozenset(
    {
        TransitionKind.POOL_HIDES_FIRST_BLOCK,
        TransitionKind.POOL_BUILDS_LEAD_OF_TWO,
        TransitionKind.POOL_EXTENDS_PRIVATE_LEAD,
    }
)


def pricing_key(kind: TransitionKind, source: State) -> tuple[int, int]:
    """``(case, uncle distance)`` of the reward record of a ``kind`` transition out of ``source``.

    A transition's Appendix-B record depends on its case and uncle distance only,
    and cases 7-10 (:data:`HONEST_AGAINST_LEAD`) share one record per distance, so
    transitions with equal keys form one pricing group and share their record.
    """
    case = TransitionKind.HONEST_ON_PREFIX_LONG_LEAD.value if kind in HONEST_AGAINST_LEAD else kind.value
    return case, uncle_distance(kind, source) or 0


def overridden(target: State, kind: TransitionKind) -> tuple[State, TransitionKind]:
    """The ``(target, kind)`` of a transition when the pool answers its own block with OVERRIDE.

    The optimal-strategy MDP lets the pool publish its whole private branch as soon
    as it mines a block: a pool event (case 2, 3 or 6) then wins the race and
    returns the chain to ``(0, 0)``, and its block is a certain regular pool block,
    case 6's record (Lemma 1).  At ``(0, 0)`` that is honest mining.  Honest
    events, and the tie resolution of case 5, are unchanged.
    """
    if kind in POOL_EVENTS:
        return ZERO_STATE, TransitionKind.POOL_EXTENDS_PRIVATE_LEAD
    return target, kind


def successors(state: State, max_lead: int) -> Iterator[tuple[State, TransitionKind]]:
    """The ``(target, kind)`` pair of every transition out of ``state``.

    The structure does not depend on ``(alpha, gamma)``; :func:`case_rates` prices it.
    The truncation ``max_lead`` only affects case 6: from a state at the truncation
    boundary the pool-extension transition becomes a self-loop.
    """
    i, j = state.private, state.public

    if state == State(0, 0):
        yield State(0, 0), TransitionKind.HONEST_EXTENDS_CONSENSUS
        yield State(1, 0), TransitionKind.POOL_HIDES_FIRST_BLOCK
        return

    if state == State(1, 0):
        yield State(2, 0), TransitionKind.POOL_BUILDS_LEAD_OF_TWO
        yield State(1, 1), TransitionKind.HONEST_FORCES_TIE
        return

    if state == State(1, 1):
        yield State(0, 0), TransitionKind.TIE_RESOLVED
        return

    if state.lead < 2:
        raise ValueError(f"state {state} is not reachable under the selfish-mining strategy")

    # Pool extends its private branch (case 6); redirected to a self-loop at the
    # truncation boundary so the exit rate stays 1.
    yield (State(i + 1, j) if i + 1 <= max_lead else state), TransitionKind.POOL_EXTENDS_PRIVATE_LEAD

    if j == 0:
        if i == 2:
            # Case 9: honest miners close the gap to one; the pool overrides.
            yield State(0, 0), TransitionKind.HONEST_CLOSES_LEAD_TWO
        else:
            # Case 10: honest miners fork off the consensus tip; the pool answers by
            # publishing its first withheld block.
            yield State(i, 1), TransitionKind.HONEST_FORKS_LONG_LEAD
        return

    # j >= 1: there are two public branches of length j (the pool's published prefix
    # and an honest branch); gamma decides which one the honest block extends.
    if state.lead == 2:
        yield State(0, 0), TransitionKind.HONEST_ON_PREFIX_LEAD_TWO
        yield State(0, 0), TransitionKind.HONEST_ON_HONEST_LEAD_TWO
        return

    yield State(i - j, 1), TransitionKind.HONEST_ON_PREFIX_LONG_LEAD
    yield State(i, j + 1), TransitionKind.HONEST_ON_HONEST_BRANCH


def transitions_from_state(state: State, params: MiningParams, *, max_lead: int) -> Iterator[SelfishTransition]:
    """Yield every outgoing transition of ``state`` under the paper's strategy at ``params``."""
    rates = case_rates(params)
    for target, kind in successors(state, max_lead):
        yield SelfishTransition(state, target, rates[kind.value], kind)


def selfish_mining_transitions(params: MiningParams, space: StateSpace) -> list[SelfishTransition]:
    """Enumerate every transition of the truncated selfish-mining chain."""
    transitions: list[SelfishTransition] = []
    for state in space:
        transitions.extend(transitions_from_state(state, params, max_lead=space.max_lead))
    return transitions


def build_selfish_mining_chain(
    params: MiningParams, *, max_lead: int | None = None, space: StateSpace | None = None
) -> MarkovChain[State]:
    """Build the truncated selfish-mining Markov chain of Section IV-C.

    Parameters
    ----------
    params:
        The ``(alpha, gamma)`` parameter point.
    max_lead:
        Truncation level; ignored when ``space`` is given.  Defaults to the paper's
        200 states.
    space:
        Pre-built state space to reuse (useful when sweeping ``alpha`` with a fixed
        truncation).

    Returns
    -------
    MarkovChain
        A chain whose transition labels carry the Appendix-B case names.
    """
    if space is None:
        space = StateSpace(max_lead) if max_lead is not None else StateSpace()
    labelled = selfish_mining_transitions(params, space)
    chain = MarkovChain(space.states, [t.as_transition() for t in labelled])
    chain.validate(expect_unit_exit_rate=True)
    return chain


class CompiledSelfishChain:
    """The truncated chain's transition structure, compiled once per ``max_lead``.

    Holds, per transition in :func:`selfish_mining_transitions` order, the source
    and target state indices and the Appendix-B case number, and a template
    :class:`MarkovChain` with the targets and labels.  Only the rates depend on
    ``(alpha, gamma)``: :meth:`rates` gathers them from :func:`case_rates` and
    :meth:`chain` fills them into the template, so a parameter point costs a
    vector copy instead of an enumeration.  :meth:`stationary` solves the chain by
    its structure.  Get instances from :func:`compiled_selfish_chain`, which caches
    one per truncation.

    The transitions fall into pricing groups (:func:`pricing_key`), about one per
    lead length: ``groups[k]`` is the group of transition ``k``,
    ``group_distances[g]`` the uncle distance of group ``g`` and
    :meth:`representatives` returns one transition per group.
    ``override_targets`` and ``override_groups`` are the targets and groups of the
    same transitions under the pool's OVERRIDE response (:func:`overridden`); the
    rates do not change.
    """

    def __init__(self, max_lead: int) -> None:
        self.space = StateSpace(max_lead)
        max_lead = self.space.max_lead
        structure = [(state, target, kind) for state in self.space for target, kind in successors(state, max_lead)]
        override = [overridden(target, kind) for _, target, kind in structure]
        self.cases = np.array([kind.value for _, _, kind in structure], dtype=np.intp)
        self._template = MarkovChain(
            self.space.states,
            [Transition(state, target, 0.0, kind.name) for state, target, kind in structure],
        )
        self.sources = self._template.source_indices
        self.targets = self._template.target_indices
        self.override_targets = np.array([self.space.index_of(target) for target, _ in override], dtype=np.intp)
        keys = [pricing_key(kind, state) for state, _, kind in structure]
        heads: dict[tuple[int, int], int] = {}
        for position, key in enumerate(keys):
            heads.setdefault(key, position)
        ordered = sorted(heads)
        group_of = {key: group for group, key in enumerate(ordered)}
        self.groups = np.array([group_of[key] for key in keys], dtype=np.intp)
        self.override_groups = np.array(
            [group_of[pricing_key(kind, state)] for (state, _, _), (_, kind) in zip(structure, override)],
            dtype=np.intp,
        )
        self.group_distances = np.array([distance for _, distance in ordered], dtype=np.intp)
        self._heads = [structure[heads[key]] for key in ordered]
        # Layout of the structured solve: the (i, 0) states for i = 0..max_lead,
        # and the j >= 1 states in sweep order (by j, then i).
        self._consensus_rows = np.array(
            [self.space.index_of(State(i, 0)) for i in range(max_lead + 1)], dtype=np.intp
        )
        self._swept_rows = np.array(
            [self.space.index_of(State(i, j)) for j in range(1, max_lead - 1) for i in range(j + 2, max_lead + 1)],
            dtype=np.intp,
        )
        unknowns = max_lead - 2
        self._lags = np.maximum(np.subtract.outer(np.arange(unknowns), np.arange(unknowns)), 0)
        # Every caller shares the cached instance.
        for array in (
            self.cases,
            self.override_targets,
            self.groups,
            self.override_groups,
            self.group_distances,
            self._consensus_rows,
            self._swept_rows,
            self._lags,
        ):
            array.flags.writeable = False

    def representatives(self, params: MiningParams) -> list[SelfishTransition]:
        """The first transition of every pricing group, rated at ``params``."""
        rates = case_rates(params)
        return [SelfishTransition(state, target, rates[kind.value], kind) for state, target, kind in self._heads]

    def rates(self, params: MiningParams) -> np.ndarray:
        """Rate of every transition at ``params``, in :func:`selfish_mining_transitions` order."""
        return np.array(case_rates(params))[self.cases]

    def chain(self, params: MiningParams) -> MarkovChain[State]:
        """The truncated chain at ``params``; equal to :func:`build_selfish_mining_chain`'s."""
        return self._template.with_rates(self.rates(params))

    def stationary(self, params: MiningParams) -> np.ndarray:
        """Stationary distribution of :meth:`chain` at ``params``, in :class:`StateSpace` order.

        Solved by the chain's structure (Section IV-C, Appendix A) rather than by a
        general factorisation.  With ``pi(0,0)`` anchored at 1 and ``L = max_lead``:

        * ``pi(i,0) = alpha**i`` and ``pi(1,1) = alpha*beta`` in closed form;
        * every inflow to a ``j >= 2`` state comes from ``(i-1, j)`` at rate
          ``alpha`` or from ``(i, j-1)`` at rate ``beta*(1-gamma)``, so a sweep
          column by column writes each ``j >= 1`` state as a linear combination of
          the ``L - 2`` unknowns ``pi(k,1)``, ``k = 3..L``;
        * only case 7 (rate ``beta*gamma``) flows back, to ``(k,1)`` from the
          states of lead ``k``, so the balance of the ``(k,1)`` states is one dense
          ``(L-2) x (L-2)`` system; its solution gives every state and the whole
          vector is normalised.

        The boundary row ``i = L`` keeps the pool-extension mass as a self-loop, so
        its balance divides by ``1 - alpha``.  Raises :class:`SolverError` if the
        dense solve fails or yields a non-finite or significantly negative vector.
        """
        alpha, beta, gamma = params.alpha, params.beta, params.gamma
        unknowns = self.space.max_lead - 2
        powers = alpha ** np.arange(self.space.max_lead + 1.0)
        pi = np.empty(len(self.space))
        pi[self._consensus_rows] = powers
        pi[self._consensus_rows[-1]] /= beta
        pi[2] = alpha * beta
        if unknowns:
            # Column j of the sweep is `step` applied to column j-1 without its
            # lead-2 state: a geometric run along i (rate alpha) of the inflow from
            # the honest branch.  Row r of `coefficients` writes the state
            # _swept_rows[r] in the unknowns; column 1 is the unknowns themselves.
            step = beta * (1.0 - gamma) * np.tril(powers[self._lags])
            coefficients = np.empty((len(self._swept_rows), unknowns))
            column = coefficients[:unknowns]
            column[...] = np.eye(unknowns)
            # back_flow[k-3] is the lead-k mass that case 7 returns to (k,1).
            back_flow = np.zeros((unknowns, unknowns))
            back_flow[:-1] += column[1:]
            start = unknowns
            for size in range(unknowns - 1, 0, -1):
                previous, column = column, coefficients[start : start + size]
                np.matmul(step[:size, :size], previous[1:], out=column)
                column[-1] /= beta
                back_flow[: size - 1] += column[1:]
                start += size
            # Balance of (k,1): exit rate 1 (beta at k = L, whose pool block is a
            # self-loop) against case 7, (k-1,1) at rate alpha and (k,0) at rate beta.
            balance = np.eye(unknowns) - beta * gamma * back_flow
            balance[np.arange(1, unknowns), np.arange(unknowns - 1)] -= alpha
            balance[-1, -1] -= alpha
            try:
                first = np.linalg.solve(balance, beta * pi[self._consensus_rows[3:]])
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"structured stationary solve failed: {exc}") from exc
            pi[self._swept_rows] = coefficients @ first
        if not np.all(np.isfinite(pi)):
            raise SolverError("structured stationary solve produced non-finite values")
        return _clean_distribution(pi)


@functools.lru_cache(maxsize=8)
def compiled_selfish_chain(max_lead: int) -> CompiledSelfishChain:
    """The :class:`CompiledSelfishChain` of ``max_lead``, built on first use and cached."""
    return CompiledSelfishChain(max_lead)
