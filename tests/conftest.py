"""Shared fixtures for the test-suite.

The fixtures favour small Markov-state truncations and short simulation runs: the
analytical results are insensitive to the truncation far below the defaults (verified
by dedicated tests), and the integration tests use tolerances appropriate for the run
lengths they choose.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.analysis.revenue import RevenueModel
from repro.params import MiningParams
from repro.rewards.schedule import (
    BitcoinSchedule,
    EthereumByzantiumSchedule,
    FlatUncleSchedule,
)

# The test-side oracles in tests/unit (two_d_oracle, markov_oracle) are imported
# by bare name from every test directory.
sys.path.insert(0, str(Path(__file__).with_name("unit")))

#: Parameter points exercised by many tests: a small, a paper-typical and a large pool,
#: at a few different tie-breaking values.
PARAMETER_POINTS = [
    MiningParams(alpha=0.10, gamma=0.5),
    MiningParams(alpha=0.25, gamma=0.0),
    MiningParams(alpha=0.30, gamma=0.5),
    MiningParams(alpha=0.40, gamma=0.8),
    MiningParams(alpha=0.45, gamma=0.3),
]


@pytest.fixture(scope="session")
def ethereum_schedule_fixture() -> EthereumByzantiumSchedule:
    return EthereumByzantiumSchedule()


@pytest.fixture(scope="session")
def flat_half_schedule() -> FlatUncleSchedule:
    return FlatUncleSchedule(0.5)


@pytest.fixture(scope="session")
def bitcoin_schedule() -> BitcoinSchedule:
    return BitcoinSchedule()


@pytest.fixture(scope="session")
def ethereum_model(ethereum_schedule_fixture) -> RevenueModel:
    """A small-truncation Ethereum revenue model shared across tests."""
    return RevenueModel(ethereum_schedule_fixture, max_lead=60)


@pytest.fixture(scope="session")
def flat_half_model(flat_half_schedule) -> RevenueModel:
    """A small-truncation flat-Ku=4/8 revenue model shared across tests."""
    return RevenueModel(flat_half_schedule, max_lead=60)


@pytest.fixture(scope="session")
def bitcoin_model(bitcoin_schedule) -> RevenueModel:
    """The Ethereum engine configured with Bitcoin-style rewards."""
    return RevenueModel(bitcoin_schedule, max_lead=60)


@pytest.fixture(params=PARAMETER_POINTS, ids=lambda p: f"a{p.alpha}-g{p.gamma}")
def params_point(request) -> MiningParams:
    """Parametrised fixture iterating over representative (alpha, gamma) points."""
    return request.param


@pytest.fixture
def simulator_builds(monkeypatch) -> dict[str, int]:
    """Count the simulators this process builds through the runner.

    Pool workers count their own copies, so only in-process (serial) builds
    show up here.
    """
    import repro.simulation.runner as runner_module
    from repro.backends import make_simulator

    counter = {"builds": 0}

    def counting(config, backend):
        counter["builds"] += 1
        return make_simulator(config, backend)

    monkeypatch.setattr(runner_module, "make_simulator", counting)
    return counter
