"""Benchmarks of the result store's read tiers: loose JSON vs pack files.

ROADMAP item 1's complaint is concrete — one JSON file per settled run means a
warm million-cell sweep pays one ``open()`` + parse + checksum per cell.  The
pack tier (:mod:`repro.store.packs`) batches every settled entry of a shard
into one sqlite file, so the same warm read costs one ``SELECT`` per shard
over a cached connection.  These benchmarks measure exactly that trade on the
same synthetic entry set:

* ``loose_read``: ``get_many`` over a store that was never compacted — the
  per-file fallback path, one open per key;
* ``pack_read``: ``get_many`` over the identical entries after ``compact()`` —
  batched SELECTs, warm connections (a warmup round absorbs the per-pack
  ``sqlite3.connect``);
* ``compact``: what one compaction pass itself costs, amortised per entry.

Entry counts honour ``REPRO_BENCH_SCALE`` like the rest of the suite (10 000
entries at full scale — the acceptance bar for the pack tier's speedup — and
never fewer than 5 000: below that the per-shard SELECT's fixed cost is not
amortised over enough rows for the smoke-run ratio to be meaningful).
Throughput is reported through ``extra_info["entries"]`` as entries/s, the
store-tier equivalent of the simulator benchmarks' blocks/s.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile

from repro.store import SIMULATION_NAMESPACE, ResultStore

#: Scale multiplier for the entry counts (CI smoke runs use < 1).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled_entries(entries: int) -> int:
    """``entries`` scaled by ``REPRO_BENCH_SCALE`` (at least 5000)."""
    return max(5000, int(entries * BENCH_SCALE))


def _bench_key(index: int) -> str:
    return hashlib.sha256(f"bench-store-{index}".encode()).hexdigest()


def _bench_payload(index: int) -> dict:
    # Shaped like a small simulation payload: a few nested fields and floats,
    # so the checksum validation hashes a realistic amount of JSON.
    return {
        "kind": "simulation",
        "index": index,
        "rewards": {"static": 123.0 + index, "uncle": 0.875, "nephew": 0.03125},
        "blocks": {"regular": 9000 + index, "uncle": 600, "stale": 40},
        "counts": {str(distance): distance * 0.5 for distance in range(1, 7)},
    }


def _populated_store(root: str, num_entries: int) -> tuple[ResultStore, list[str]]:
    store = ResultStore(root)
    keys = [_bench_key(index) for index in range(num_entries)]
    for index, key in enumerate(keys):
        store.put(SIMULATION_NAMESPACE, key, _bench_payload(index))
    return store, keys


def test_store_loose_read_benchmark(benchmark):
    """Warm batched read over loose entries: one file open + parse per key."""
    num_entries = scaled_entries(10_000)
    benchmark.extra_info["entries"] = num_entries
    root = tempfile.mkdtemp(prefix="bench-store-loose-")
    store, keys = _populated_store(root, num_entries)

    def loose_read():
        found = store.get_many(SIMULATION_NAMESPACE, keys)
        assert len(found) == num_entries
        return found

    try:
        benchmark.pedantic(loose_read, rounds=7, iterations=1, warmup_rounds=1)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_store_pack_read_benchmark(benchmark):
    """The same read after ``compact()``: one SELECT per shard, warm connections."""
    num_entries = scaled_entries(10_000)
    benchmark.extra_info["entries"] = num_entries
    root = tempfile.mkdtemp(prefix="bench-store-pack-")
    store, keys = _populated_store(root, num_entries)
    report = store.compact()
    assert report.packed == num_entries

    def pack_read():
        found = store.get_many(SIMULATION_NAMESPACE, keys)
        assert len(found) == num_entries
        return found

    try:
        benchmark.pedantic(pack_read, rounds=7, iterations=1, warmup_rounds=1)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_store_compact_benchmark(benchmark):
    """One compaction pass over the full loose entry set (single round)."""
    num_entries = scaled_entries(10_000)
    benchmark.extra_info["entries"] = num_entries
    root = tempfile.mkdtemp(prefix="bench-store-compact-")
    store, _keys = _populated_store(root, num_entries)

    def compact():
        report = store.compact()
        assert report.packed == num_entries
        return report

    try:
        benchmark.pedantic(compact, rounds=1, iterations=1)
    finally:
        shutil.rmtree(root, ignore_errors=True)
