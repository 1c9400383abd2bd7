"""The benchmark's workloads: inputs from the seed, the timed call, the checks.

Each workload is one call into a public driver of ``repro``:

``fig8-cold``
    ``run_figure8()`` at the figure's defaults, serial, into an empty
    ``ResultStore``.  Mostly the ``chain`` simulator (tree insertion, uncle
    selection, mining draws), plus the store's write and lease path and the
    analytical curves.
``analysis-warm``
    The same ``run_figure8()`` against a store that set-up filled, so no
    simulation runs, followed by the profitability-threshold search.  Almost
    all analytical solve; exercises the store's read path and bypasses every
    simulator, so an engine change must not move it.
``network-sweep``
    ``run_network()`` at its defaults over two worker processes, no store.
    Mostly the network simulator's event loop and delivery fan-out, through
    the process-pool dispatch path.

Importing this module imports ``repro``; the set-up time the benchmark
reports starts before that import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.analysis import threshold
from repro.analysis.absolute import Scenario
from repro.analysis.revenue import RevenueModel
from repro.analysis.sweep import alpha_grid
from repro.experiments import figure8, network
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule, FlatUncleSchedule
from repro.store import ResultStore
from repro.store.store import SIMULATION_NAMESPACE

#: The paper's profitability threshold for gamma = 0.5 under Ku = 4/8 * Ks.
PAPER_ALPHA_STAR = 0.163
ALPHA_STAR_TOLERANCE = 0.005

#: The Fig. 8 grid ``run_figure8`` uses by default.
FIG8_ALPHAS = tuple(alpha_grid(0.0, 0.45, 0.05))

#: ``crossover_alpha()`` of the Fig. 8 grid (the first swept alpha past 0.163).
FIG8_CROSSOVER = 0.20

#: Largest |simulated - analytical| pool absolute revenue allowed at any alpha
#: of Fig. 8, at 100 000 simulated blocks per alpha.  The spread is largest at
#: alpha = 0.45: over seeds 1-40 its standard deviation was 0.0064 and its
#: largest value 0.021 (every alpha of one seed shares the run seeds, so a
#: seed's deviations lean the same way).  The bound scales with 1/sqrt(blocks)
#: for other sizes.
FIG8_REVENUE_TOLERANCE = 0.04
FIG8_TOLERANCE_BLOCKS = 100_000

#: Zero-latency network point: largest |effective gamma - configured gamma| and
#: |pool revenue - analytical revenue|, at 30 000 simulated blocks.  Over seeds
#: 1-80 the standard deviations were 0.008 and 0.0027 and the largest values
#: 0.020 and 0.007.  Scaled with 1/sqrt(blocks) for other sizes.
NETWORK_GAMMA_TOLERANCE = 0.06
NETWORK_REVENUE_TOLERANCE = 0.02
NETWORK_TOLERANCE_BLOCKS = 30_000

#: Cells of ``run_network()``: one per latency mean and one per two-pool pair.
NETWORK_CELLS = len(network.DEFAULT_LATENCY_MEANS) + len(network.DEFAULT_TWO_POOL_GRID)


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration."""

    fig8_blocks: int
    fig8_runs: int
    network_blocks: int
    network_runs: int
    max_lead: int


SCALES = {
    # The drivers' defaults: what a user of the figure and network drivers waits for.
    "full": Scale(
        fig8_blocks=50_000, fig8_runs=2, network_blocks=10_000, network_runs=3, max_lead=60
    ),
    # Small enough for the benchmark's own tests; same code paths and checks.
    "smoke": Scale(
        fig8_blocks=3_000, fig8_runs=1, network_blocks=1_500, network_runs=1, max_lead=30
    ),
}


@dataclass(frozen=True)
class Check:
    """One correctness check on a workload's output."""

    name: str
    ok: bool
    detail: str


def _scaled(tolerance: float, reference_blocks: int, blocks: int) -> float:
    return tolerance * math.sqrt(reference_blocks / blocks)


class Workload:
    """Inputs from the seed, one timed driver call, and its checks."""

    name = ""

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale

    def sim_blocks(self) -> int:
        """Simulated blocks one call executes."""
        return 0

    def setup(self, workdir: Path) -> None:
        """Build the costly inputs into ``workdir`` (nothing by default)."""

    def load(self, workdir: Path) -> None:
        """Take over what :meth:`setup` left in ``workdir`` (nothing by default)."""

    def prepare(self, workdir: Path, index: int) -> dict[str, Any]:
        """Untimed per-call inputs of call number ``index``."""
        return {}

    def call(self, prepared: dict[str, Any]) -> Any:
        """The timed call into the driver."""
        raise NotImplementedError

    def check(self, prepared: dict[str, Any], output: Any) -> list[Check]:
        """Correctness checks on one call's output."""
        raise NotImplementedError


class Fig8Cold(Workload):
    """``run_figure8()`` at its defaults, serial, into an empty store."""

    name = "fig8-cold"

    def kwargs(self) -> dict[str, Any]:
        """The driver's arguments: its defaults, and the seed."""
        return {
            "alphas": FIG8_ALPHAS,
            "seed": self.seed,
            "simulation_blocks": self.scale.fig8_blocks,
            "simulation_runs": self.scale.fig8_runs,
            "simulation_backend": "chain",
            "max_lead": self.scale.max_lead,
        }

    def planned_runs(self) -> int:
        return len(FIG8_ALPHAS) * self.scale.fig8_runs

    def sim_blocks(self) -> int:
        return self.planned_runs() * self.scale.fig8_blocks

    def prepare(self, workdir: Path, index: int) -> dict[str, Any]:
        """A fresh, empty store for one cold call."""
        return {"store": ResultStore(workdir / f"cold-store-{index}")}

    def call(self, prepared: dict[str, Any]) -> Any:
        return figure8.run_figure8(store=prepared["store"], **self.kwargs())

    def check(self, prepared: dict[str, Any], result: Any) -> list[Check]:
        stored = prepared["store"].count(SIMULATION_NAMESPACE)
        return fig8_checks(result, self.scale) + [
            Check(
                "fig8.all_runs_executed",
                stored == self.planned_runs(),
                f"{stored} of {self.planned_runs()} planned runs in the store",
            )
        ]


def fig8_checks(result: Any, scale: Scale) -> list[Check]:
    """Crossover and simulation-vs-analysis agreement of one Fig. 8 result."""
    crossover = result.crossover_alpha()
    tolerance = _scaled(
        FIG8_REVENUE_TOLERANCE, FIG8_TOLERANCE_BLOCKS, scale.fig8_blocks * scale.fig8_runs
    )
    simulated = result.simulation.pool_absolute_scenario1()
    analytical = [point.pool_absolute for point in result.analysis.points]
    worst = max(abs(sim - ana) for sim, ana in zip(simulated, analytical))
    return [
        Check(
            "fig8.crossover",
            crossover is not None and abs(crossover - FIG8_CROSSOVER) < 1e-9,
            f"crossover_alpha() = {crossover}",
        ),
        Check(
            "fig8.sim_matches_analysis",
            len(simulated) == len(analytical) and worst <= tolerance,
            f"max |simulated - analytical| pool revenue {worst:.4f} (bound {tolerance:.4f})",
        ),
    ]


def _store_snapshot(root: Path) -> dict[str, tuple[int, int]]:
    return {
        str(path.relative_to(root)): (path.stat().st_size, path.stat().st_mtime_ns)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class AnalysisWarm(Workload):
    """Warm ``run_figure8()`` from a filled store, then the threshold search."""

    name = "analysis-warm"

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        self.cold = Fig8Cold(seed, scale)

    def setup(self, workdir: Path) -> None:
        """Fill the store with a cold run and keep its report for the check."""
        result = figure8.run_figure8(store=ResultStore(workdir / "warm-store"), **self.cold.kwargs())
        (workdir / "cold-report.txt").write_text(result.report(), encoding="utf-8")

    def load(self, workdir: Path) -> None:
        """Open the store and the cold report a set-up left in ``workdir``."""
        self.store_root = workdir / "warm-store"
        self.store = ResultStore(self.store_root)
        self.cold_report = (workdir / "cold-report.txt").read_text(encoding="utf-8")

    def prepare(self, workdir: Path, index: int) -> dict[str, Any]:
        return {"snapshot": _store_snapshot(self.store_root)}

    def call(self, prepared: dict[str, Any]) -> Any:
        result = figure8.run_figure8(store=self.store, **self.cold.kwargs())
        model = RevenueModel(FlatUncleSchedule(0.5), max_lead=self.scale.max_lead)
        found = threshold.profitable_threshold(0.5, scenario=Scenario.REGULAR_ONLY, model=model)
        return result, found

    def check(self, prepared: dict[str, Any], output: Any) -> list[Check]:
        result, found = output
        untouched = _store_snapshot(self.store_root) == prepared["snapshot"]
        return fig8_checks(result, self.scale) + [
            Check(
                "warm.all_cached",
                untouched,
                "store unchanged, so no run was executed"
                if untouched
                else "the warm call wrote to the store",
            ),
            Check(
                "warm.report_identical",
                result.report() == self.cold_report,
                "warm report byte-identical to the cold report of set-up",
            ),
            Check(
                "warm.alpha_star",
                abs(found.alpha_star - PAPER_ALPHA_STAR) <= ALPHA_STAR_TOLERANCE,
                f"alpha* = {found.alpha_star:.4f} after {found.evaluations} evaluations",
            ),
        ]


class NetworkSweep(Workload):
    """``run_network()`` at its defaults over two worker processes, no store."""

    name = "network-sweep"

    def kwargs(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "simulation_blocks": self.scale.network_blocks,
            "simulation_runs": self.scale.network_runs,
            "max_lead": self.scale.max_lead,
            "max_workers": 2,
        }

    def planned_runs(self) -> int:
        return NETWORK_CELLS * self.scale.network_runs

    def sim_blocks(self) -> int:
        return self.planned_runs() * self.scale.network_blocks

    def load(self, workdir: Path) -> None:
        """The paper's model at the zero-latency point, the reference of the check."""
        model = RevenueModel(EthereumByzantiumSchedule(), max_lead=self.scale.max_lead)
        self.reference_revenue = model.revenue_rates(
            MiningParams(alpha=network.NETWORK_ALPHA, gamma=network.NETWORK_GAMMA)
        ).relative_pool_revenue

    def call(self, prepared: dict[str, Any]) -> Any:
        return network.run_network(**self.kwargs())

    def check(self, prepared: dict[str, Any], result: Any) -> list[Check]:
        blocks = self.scale.network_blocks * self.scale.network_runs
        gamma_tolerance = _scaled(NETWORK_GAMMA_TOLERANCE, NETWORK_TOLERANCE_BLOCKS, blocks)
        revenue_tolerance = _scaled(NETWORK_REVENUE_TOLERANCE, NETWORK_TOLERANCE_BLOCKS, blocks)
        zero = result.latency_points[0]
        gamma = zero.effective_gamma
        revenue = zero.relative_revenue.mean
        points = list(result.latency_points) + list(result.two_pool_points)
        complete = [len(point.aggregate.results) for point in points]
        return [
            Check(
                "network.zero_latency_gamma",
                zero.mean_delay == 0.0
                and gamma.count > 0
                and abs(gamma.mean - network.NETWORK_GAMMA) <= gamma_tolerance,
                f"effective gamma {gamma.mean:.4f} at zero latency "
                f"(configured {network.NETWORK_GAMMA}, bound {gamma_tolerance:.4f})",
            ),
            Check(
                "network.zero_latency_revenue",
                abs(revenue - self.reference_revenue) <= revenue_tolerance,
                f"pool revenue {revenue:.4f} vs model {self.reference_revenue:.4f} "
                f"(bound {revenue_tolerance:.4f})",
            ),
            Check(
                "network.no_failed_cells",
                len(points) == NETWORK_CELLS
                and all(runs == self.scale.network_runs for runs in complete),
                f"{len(points)} cells, runs per cell {complete}",
            ),
        ]


WORKLOADS = {workload.name: workload for workload in (Fig8Cold, AnalysisWarm, NetworkSweep)}
