"""Simulation configuration.

:class:`SimulationConfig` gathers every knob of a simulation run: the mining
parameters, the reward schedule, the run length, protocol limits for uncle
referencing, the warm-up prefix dropped from the statistics, and the random seed.
The defaults mirror the paper's evaluation setup (Section V): 1000 equal miners,
100 000 blocks per run, ``gamma = 0.5``.

The network backend adds two optional fields: ``topology`` (an explicit
:class:`~repro.network.topology.Topology` — several pools, per-link latency
overrides) and ``latency`` (a latency model or spec string applied to the derived
single-pool topology when no explicit topology is given).  Both are ignored by the
``chain`` and ``markov`` backends, whose network model is the paper's instantaneous
broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..constants import (
    MAX_UNCLE_DISTANCE,
    MAX_UNCLES_PER_BLOCK,
    PAPER_BLOCKS_PER_RUN,
    PAPER_NUM_MINERS,
)
from ..errors import ParameterError
from ..params import MiningParams
from ..rewards.schedule import EthereumByzantiumSchedule, RewardSchedule
from ..strategies import MiningStrategy, available_strategies, make_strategy

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle guard)
    from ..network.latency import LatencyModel
    from ..network.topology import Topology

@dataclass(frozen=True)
class SimulationConfig:
    """All parameters of one simulation run.

    Attributes
    ----------
    params:
        Hash-power split ``alpha`` and tie-breaking capability ``gamma``.
    schedule:
        Reward schedule used for settlement.
    num_blocks:
        Number of blocks to mine (the total across both parties).
    seed:
        Seed of the run's random source; two runs with equal configuration and seed
        are bit-for-bit identical.
    num_honest_miners:
        Number of individual honest miners (only affects per-miner statistics; the
        aggregate honest behaviour is identical for any value).
    strategy:
        Name of the pool's mining strategy (see :func:`repro.strategies.available_strategies`).
    topology:
        Explicit network topology for the ``network`` backend (``None`` derives the
        paper's single-pool setting from ``params`` and ``strategy``).
    latency:
        Link latency model (or spec string such as ``"exponential:0.2"``) applied
        to the *derived* single-pool topology; ignored when ``topology`` is given
        (the topology carries its own latency configuration).
    max_uncles_per_block, max_uncle_distance:
        Protocol limits applied when composing blocks.
    warmup_blocks:
        Number of leading main-chain heights excluded from the settled statistics, so
        that long-run averages are not biased by the empty-tree start.
    validate_chain:
        When True the finished tree is structurally validated before settlement
        (linear cost; enabled by default because it has caught real strategy bugs).
    """

    params: MiningParams
    schedule: RewardSchedule = field(default_factory=EthereumByzantiumSchedule)
    num_blocks: int = PAPER_BLOCKS_PER_RUN
    seed: int = 0
    num_honest_miners: int = PAPER_NUM_MINERS - 1
    strategy: str = "selfish"
    topology: "Topology | None" = None
    latency: "LatencyModel | str | None" = None
    max_uncles_per_block: int = MAX_UNCLES_PER_BLOCK
    max_uncle_distance: int = MAX_UNCLE_DISTANCE
    warmup_blocks: int = 0
    validate_chain: bool = True

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ParameterError(f"num_blocks must be positive, got {self.num_blocks}")
        if self.num_honest_miners < 1:
            raise ParameterError(f"num_honest_miners must be positive, got {self.num_honest_miners}")
        if self.max_uncles_per_block < 0:
            raise ParameterError("max_uncles_per_block must be non-negative")
        if self.max_uncle_distance < 0:
            raise ParameterError("max_uncle_distance must be non-negative")
        if self.warmup_blocks < 0:
            raise ParameterError("warmup_blocks must be non-negative")
        if self.warmup_blocks >= self.num_blocks:
            raise ParameterError("warmup_blocks must be smaller than num_blocks")
        if self.strategy not in available_strategies():
            raise ParameterError(
                f"unknown mining strategy {self.strategy!r}; "
                f"available: {', '.join(available_strategies())}"
            )
        if self.topology is not None:
            from ..network.topology import Topology

            if not isinstance(self.topology, Topology):
                raise ParameterError(
                    f"topology must be a repro.network.topology.Topology, got {self.topology!r}"
                )
        if self.latency is not None:
            from ..network.latency import make_latency

            object.__setattr__(self, "latency", make_latency(self.latency))

    @property
    def strategy_name(self) -> str:
        """The pool's strategy name (the ``strategy`` field)."""
        return self.strategy

    def make_strategy(self) -> MiningStrategy:
        """Instantiate the pool's mining strategy for this configuration.

        The configuration itself is forwarded to configuration-aware strategy
        factories — the ``"optimal"`` strategy solves its policy for this run's
        ``(params, schedule)`` point (cached per process).
        """
        return make_strategy(self.strategy_name, config=self)

    def with_strategy(self, strategy: str) -> "SimulationConfig":
        """A copy of this configuration running a different mining strategy."""
        return replace(self, strategy=strategy)

    def with_seed(self, seed: int) -> "SimulationConfig":
        """A copy of this configuration with a different seed (used by the runner)."""
        return replace(self, seed=seed)

    def with_params(self, params: MiningParams) -> "SimulationConfig":
        """A copy of this configuration at a different ``(alpha, gamma)`` point."""
        return replace(self, params=params)

    def with_topology(self, topology: "Topology") -> "SimulationConfig":
        """A copy of this configuration running on an explicit network topology."""
        return replace(self, topology=topology)

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = [
            f"SimulationConfig({self.params.describe()}, blocks={self.num_blocks}, "
            f"seed={self.seed}, strategy={self.strategy_name}, "
            f"schedule={type(self.schedule).__name__}"
        ]
        if self.topology is not None:
            parts.append(f", topology={self.topology.describe()}")
        return "".join(parts) + ")"
