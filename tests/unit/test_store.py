"""Unit tests for the persistent result store."""

from __future__ import annotations

import json

import pytest

from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule, FlatUncleSchedule
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import run_once
from repro.store import (
    POLICY_NAMESPACE,
    SIMULATION_NAMESPACE,
    ResultStore,
    config_fingerprint,
    fingerprint_payload,
    result_from_payload,
    result_payload,
)

CONFIG = SimulationConfig(params=MiningParams(alpha=0.3, gamma=0.5), num_blocks=600, seed=11)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


class TestRawEntries:
    def test_put_get_round_trip(self, store):
        payload = {"value": 1.25, "list": [1, 2, 3]}
        store.put("things", "a" * 64, payload)
        assert store.get("things", "a" * 64) == payload

    def test_missing_entry_is_none(self, store):
        assert store.get("things", "b" * 64) is None
        assert not store.contains("things", "b" * 64)

    def test_keys_and_count(self, store):
        store.put("things", "a" * 64, {})
        store.put("things", "b" * 64, {})
        assert store.count("things") == 2
        assert sorted(store.keys("things")) == ["a" * 64, "b" * 64]
        assert store.count("other") == 0

    def test_corrupted_json_reads_as_miss_and_is_discarded(self, store):
        key = "c" * 64
        path = store.put("things", key, {"x": 1})
        path.write_text("{not json")
        assert store.get("things", key) is None
        assert not path.exists()

    def test_checksum_mismatch_reads_as_miss(self, store):
        key = "d" * 64
        path = store.put("things", key, {"x": 1})
        envelope = json.loads(path.read_text())
        envelope["payload"]["x"] = 2  # tamper without updating the checksum
        path.write_text(json.dumps(envelope))
        assert store.get("things", key) is None

    def test_key_mismatch_reads_as_miss(self, store):
        key = "e" * 64
        path = store.put("things", key, {"x": 1})
        other = "f" * 64
        target = store._entry_path("things", other)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(path.read_text())  # valid envelope, wrong slot
        assert store.get("things", other) is None


class TestFingerprints:
    def test_fingerprint_is_hex_digest(self):
        key = config_fingerprint(CONFIG, "chain")
        assert len(key) == 64
        int(key, 16)

    def test_fingerprint_differs_across_backends_and_params(self):
        keys = {
            config_fingerprint(CONFIG, "chain"),
            config_fingerprint(CONFIG, "markov"),
            config_fingerprint(CONFIG, "network"),
            config_fingerprint(CONFIG.with_seed(12), "chain"),
            config_fingerprint(CONFIG.with_strategy("honest"), "chain"),
            config_fingerprint(
                CONFIG.with_params(MiningParams(alpha=0.31, gamma=0.5)), "chain"
            ),
        }
        assert len(keys) == 6

    def test_fingerprint_ignores_validate_chain(self):
        from dataclasses import replace

        relaxed = replace(CONFIG, validate_chain=False)
        assert config_fingerprint(relaxed, "chain") == config_fingerprint(CONFIG, "chain")

    def test_schedule_fingerprinted_by_value_not_identity(self):
        first = SimulationConfig(
            params=CONFIG.params, schedule=FlatUncleSchedule(0.5), num_blocks=600, seed=11
        )
        second = SimulationConfig(
            params=CONFIG.params, schedule=FlatUncleSchedule(0.5), num_blocks=600, seed=11
        )
        different = SimulationConfig(
            params=CONFIG.params, schedule=FlatUncleSchedule(0.25), num_blocks=600, seed=11
        )
        assert config_fingerprint(first, "chain") == config_fingerprint(second, "chain")
        assert config_fingerprint(first, "chain") != config_fingerprint(different, "chain")

    def test_network_fingerprint_resolves_the_derived_topology(self):
        """Spelling the derived single-pool topology out explicitly hits the same entry."""
        from repro.network.topology import build_topology

        explicit = CONFIG.with_topology(build_topology(CONFIG))
        assert config_fingerprint(explicit, "network") == config_fingerprint(CONFIG, "network")

    def test_payload_lists_the_documented_components(self):
        payload = fingerprint_payload(CONFIG, "chain")
        for key in ("version", "backend", "alpha", "gamma", "schedule", "seed", "strategy"):
            assert key in payload


class TestResultRoundTrip:
    def test_simulation_result_round_trips_bit_exactly(self, store):
        result = run_once(CONFIG, backend="chain")
        store.save_result(result, "chain")
        loaded = store.load_result(CONFIG, "chain")
        assert loaded == result

    def test_network_result_round_trips_with_miners(self, store):
        result = run_once(CONFIG, backend="network")
        store.save_result(result, "network")
        loaded = store.load_result(CONFIG, "network")
        assert loaded == result
        assert loaded.miners == result.miners
        assert loaded.effective_gamma == result.effective_gamma

    def test_load_returns_none_for_unknown_config(self, store):
        assert store.load_result(CONFIG, "chain") is None

    def test_unknown_payload_kind_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            result_from_payload({"kind": "exotic"}, CONFIG)

    def test_payload_has_no_config(self):
        result = run_once(CONFIG, backend="markov")
        payload = result_payload(result)
        assert "config" not in payload
        assert payload["kind"] == "simulation"

    def test_namespaces_are_disjoint(self, store):
        store.put(SIMULATION_NAMESPACE, "a" * 64, {"x": 1})
        assert store.get(POLICY_NAMESPACE, "a" * 64) is None


class TestPolicyStoreLevel:
    def test_disk_level_round_trip_after_memory_clear(self, store):
        from repro.mdp.solver import clear_policy_cache, solve_optimal_policy

        params = MiningParams(alpha=0.35, gamma=0.5)
        first = solve_optimal_policy(params, max_lead=8, store=store)
        assert store.count(POLICY_NAMESPACE) == 1
        clear_policy_cache()
        second = solve_optimal_policy(params, max_lead=8, store=store)
        assert second == first

    def test_process_wide_store_configuration(self, store):
        from repro.mdp.solver import clear_policy_cache, set_policy_store, solve_optimal_policy

        params = MiningParams(alpha=0.4, gamma=0.5)
        try:
            set_policy_store(store)
            solve_optimal_policy(params, max_lead=8)
            clear_policy_cache()
            again = solve_optimal_policy(params, max_lead=8)
        finally:
            set_policy_store(None)
        fresh = solve_optimal_policy(params, max_lead=8)
        assert again == fresh

    def test_entry_under_the_unversioned_key_is_not_served(self, store):
        from repro.mdp.solver import _policy_payload, _policy_store_key, clear_policy_cache, solve_optimal_policy
        from repro.rewards.schedule import EthereumByzantiumSchedule, schedule_fingerprint
        from repro.store import hash_payload

        params = MiningParams(alpha=0.35, gamma=0.5)
        schedule = EthereumByzantiumSchedule()
        fresh = solve_optimal_policy(params, max_lead=8)
        # The key format before POLICY_VERSION, holding values today's solve would not produce.
        unversioned = hash_payload(
            {"alpha": 0.35, "gamma": 0.5, "max_lead": 8, "schedule": list(schedule_fingerprint(schedule))}
        )
        assert unversioned != _policy_store_key(params, schedule, 8)
        store.put(POLICY_NAMESPACE, unversioned, dict(_policy_payload(fresh), shares=[0.5]))
        clear_policy_cache()
        served = solve_optimal_policy(params, max_lead=8, store=store)
        assert served.shares == fresh.shares != (0.5,)
        assert store.count(POLICY_NAMESPACE) == 2

    def test_corrupted_policy_entry_recomputed(self, store):
        from repro.mdp.solver import clear_policy_cache, solve_optimal_policy

        params = MiningParams(alpha=0.35, gamma=0.5)
        first = solve_optimal_policy(params, max_lead=8, store=store)
        for key in list(store.keys(POLICY_NAMESPACE)):
            store._entry_path(POLICY_NAMESPACE, key).write_text("garbage")
        clear_policy_cache()
        second = solve_optimal_policy(params, max_lead=8, store=store)
        assert second == first
