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
shortens the pool's branch, so long races with a small lead pile up at the cap.
The revenue analysis does not solve this 2-D chain: it lumps it exactly on the lead
(:meth:`CompiledSelfishChain.lead_class_masses`), so ``max_lead`` caps the lead
there and the error is about ``(alpha / beta) ** max_lead``.  The optimal-strategy
MDP keeps the 2-D chain, because its OVERRIDE decision is per ``(Ls, Lh)``; at the
default 60 its Algorithm-1 share is off from the exact lumped value by ``1.7e-2``
at ``(alpha, gamma) = (0.45, 0)``, ``5.5e-4`` at ``(0.40, 0)`` and ``1.9e-6`` at
``(0.45, 0.5)`` (see :data:`~repro.mdp.solver.DEFAULT_POLICY_MAX_LEAD`).

The structure (targets and kinds) does not depend on ``(alpha, gamma)``; only the
rates do, and :func:`case_rates` is the one place they are written.
:func:`compiled_selfish_chain` compiles the structure once per truncation; the
revenue analysis, the optimal-strategy MDP (through :func:`overridden`, the pool's
one alternative response) and the markov sampler all read it or
:func:`successors` instead of enumerating transitions of their own.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..params import MiningParams
from .chain import MarkovChain, Transition
from .state import ZERO_STATE, State, StateSpace


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
    and target state indices and the Appendix-B case number.  Only the rates
    depend on ``(alpha, gamma)``: :meth:`rates` gathers them from
    :func:`case_rates`, so a parameter point costs a vector gather instead of an
    enumeration.  :meth:`lead_class_masses` is the chain's long-run law lumped on
    the lead.  Get instances from :func:`compiled_selfish_chain`, which caches one
    per truncation.

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
        index_of = self.space.index_of
        structure = [(state, target, kind) for state in self.space for target, kind in successors(state, max_lead)]
        override = [overridden(target, kind) for _, target, kind in structure]
        self.cases = np.array([kind.value for _, _, kind in structure], dtype=np.intp)
        self.sources = np.array([index_of(state) for state, _, _ in structure], dtype=np.intp)
        self.targets = np.array([index_of(target) for _, target, _ in structure], dtype=np.intp)
        self.override_targets = np.array([index_of(target) for target, _ in override], dtype=np.intp)
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
        # The representative state of each lead class (see lead_class_masses):
        # (lead, 0) for every lead 0..max_lead, the tie (1, 1), and (lead + 1, 1)
        # for the j >= 1 class of every lead 2..max_lead-1.
        self._consensus_rows = np.array([index_of(State(lead, 0)) for lead in range(max_lead + 1)], dtype=np.intp)
        self._tie_row = index_of(State(1, 1))
        self._race_rows = np.array([index_of(State(lead + 1, 1)) for lead in range(2, max_lead)], dtype=np.intp)
        # Every caller shares the cached instance.
        for array in (
            self.cases,
            self.sources,
            self.targets,
            self.override_targets,
            self.groups,
            self.override_groups,
            self.group_distances,
            self._consensus_rows,
            self._race_rows,
        ):
            array.flags.writeable = False

    def representatives(self, params: MiningParams) -> list[SelfishTransition]:
        """The first transition of every pricing group, rated at ``params``."""
        rates = case_rates(params)
        return [SelfishTransition(state, target, rates[kind.value], kind) for state, target, kind in self._heads]

    def rates(self, params: MiningParams) -> np.ndarray:
        """Rate of every transition at ``params``, in :func:`selfish_mining_transitions` order."""
        return np.array(case_rates(params))[self.cases]

    def lead_class_masses(self, params: MiningParams) -> np.ndarray:
        """Long-run law of the chain lumped on the lead, in :class:`StateSpace` order.

        From every state of lead ``l >= 2`` the pool's block moves to lead ``l+1``
        at rate ``alpha`` and the honest blocks move to lead ``l-1`` at total rate
        ``beta`` (cases 7 and 11 both land on lead ``l-1``), and every transition's
        rate and pricing group depend only on its case and its source's lead and
        ``j = 0`` or not.  So the chain lumps exactly onto the classes ``(0,0)``,
        ``(1,0)``, ``(1,1)`` and, per lead ``l >= 2``, its ``j = 0`` state and its
        ``j >= 1`` states.  Cutting the chain between lead ``l`` and ``l+1``
        (``alpha * M_l = beta * M_{l+1}``) gives their masses in closed form,
        before normalisation:

        * ``pi(0,0) = 1``, ``pi(1,0) = alpha`` and ``pi(1,1) = alpha * beta``;
        * lead ``l >= 2`` holds ``M_l = alpha**l / beta**(l-1)``, of which
          ``pi(l,0) = alpha**l`` (Eq. 2) and the ``j >= 1`` class the rest.

        Each class's mass sits on one representative state, ``(l, 0)`` or
        ``(l+1, 1)``, and every other entry is 0, so ``masses[sources] * rates``
        are the long-run transition frequencies of the untruncated chain, up to
        the leads above ``max_lead`` (and the ``j >= 1`` class of lead
        ``max_lead``, which has no state here).  Those hold a share of about
        ``(alpha / beta) ** max_lead`` of the mass: ``6e-6`` at ``alpha = 0.45``
        and ``max_lead = 60``.
        """
        alpha = params.alpha
        leads = np.arange(self.space.max_lead + 1.0)
        masses = np.zeros(len(self.space))
        masses[self._consensus_rows] = alpha**leads
        masses[self._tie_row] = alpha * params.beta
        races = leads[2:-1]
        # M_l - alpha**l = alpha**l * (beta**(1-l) - 1), with expm1 so that a small
        # alpha keeps its digits.
        masses[self._race_rows] = alpha**races * np.expm1((1.0 - races) * np.log1p(-alpha))
        return masses / masses.sum()


@functools.lru_cache(maxsize=8)
def compiled_selfish_chain(max_lead: int) -> CompiledSelfishChain:
    """The :class:`CompiledSelfishChain` of ``max_lead``, built on first use and cached."""
    return CompiledSelfishChain(max_lead)
