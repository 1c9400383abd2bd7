"""The on-disk result store: content-addressed, resumable, corruption-safe.

:class:`ResultStore` is a flat content-addressed cache under one root
directory.  Entries live in per-namespace subdirectories (``simulation/`` for
settled runs, ``policy/`` for solved MDP policies), sharded by the first two
hex digits of their key so that very large sweeps do not melt a single
directory::

    <root>/simulation/ab/abcdef....json
    <root>/policy/12/123456....json

Each file wraps its payload in an envelope carrying the key and a SHA-256
checksum of the payload's canonical JSON.  :meth:`ResultStore.get` treats
*anything* unexpected — unreadable file, invalid JSON, missing envelope
fields, key or checksum mismatch — as a cache miss, so a corrupted or
truncated entry silently falls back to recomputation (the property suite pins
this).  Writes go through a same-directory temporary file followed by
:func:`os.replace`, so a crash mid-write can never leave a half-written file
under a valid key.

The store is deliberately *not* consulted inside process-pool workers: the
runner checks it up front in the parent, dispatches only the missing runs, and
persists the fresh results as they come back.  What *is* supported is several
**processes** sharing one root concurrently (two sweeps pointed at the same
``--cache-dir``):

* writes are atomic and idempotent (the same key always re-derives the same
  bits), so concurrent writers can never corrupt each other — the worst case
  is duplicated work;
* duplicated work itself is prevented by the **lease protocol**: before
  computing a missing entry a process takes a claim file
  (``<key>.claim`` next to the entry, holding pid + host + expiry).  A live
  claim makes other processes wait for the result instead of recomputing it.
  A claim is *stale* — and may be stolen — once it expires, or as soon as its
  holder process is dead (same-host pid probe), so a hard-killed writer blocks
  nobody beyond its lease TTL.  Stealing uses write-then-read-back token
  verification, so two stealers cannot both believe they won;
* :meth:`ResultStore.vacuum` sweeps the debris hard-killed writers leave
  behind: orphaned ``.tmp`` files, stale claims, and invalid (truncated,
  corrupted) entries.

Underneath the loose one-JSON-per-entry layout sits the **pack tier**
(:mod:`repro.store.packs`): :meth:`ResultStore.compact` batches settled
entries into one sqlite pack file per shard, reads consult the pack first and
fall back to loose JSON, and the batched lookups (:meth:`ResultStore.get_many`
/ :meth:`ResultStore.load_many` / :meth:`ResultStore.contains_many`) answer a
warm sweep with one ``SELECT`` per shard instead of one ``open()`` per run.
Compaction changes nothing observable except speed: the pack rows carry the
same checksums, a corrupt row reads as a miss exactly like a corrupt loose
file, and ``vacuum`` sweeps packs too.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from ..errors import StoreLeaseError
from .fingerprint import config_fingerprint, hash_payload
from .packs import CompactReport, NamespaceStats, PackStore
from .serialize import result_from_payload, result_payload

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..simulation.config import SimulationConfig
    from ..simulation.metrics import SimulationResult

#: Namespace of settled simulation runs.
SIMULATION_NAMESPACE = "simulation"

#: Namespace of solved MDP policies.
POLICY_NAMESPACE = "policy"

#: This machine's name, recorded in claim files so staleness checks know when
#: the holder pid can be probed locally.
_HOSTNAME = platform.node() or "unknown-host"


@dataclass(frozen=True)
class Lease:
    """A held claim on one store entry (see :meth:`ResultStore.claim`)."""

    namespace: str
    key: str
    path: Path
    token: str
    expires_at: float


@dataclass(frozen=True)
class VacuumReport:
    """What one :meth:`ResultStore.vacuum` pass removed.

    Every count covers removals *this pass performed* — debris a racing
    process swept first is not claimed here.
    """

    removed_tmp: int
    removed_claims: int
    removed_entries: int
    #: Checksum-failing rows evicted from pack files.
    removed_pack_rows: int = 0
    #: Unreadable pack files deleted outright (their keys read as misses).
    removed_packs: int = 0
    #: Valid loose entries removed because their shard's pack already holds them.
    deduplicated_entries: int = 0

    @property
    def total(self) -> int:
        """Files and pack rows removed altogether."""
        return (
            self.removed_tmp
            + self.removed_claims
            + self.removed_entries
            + self.removed_pack_rows
            + self.removed_packs
            + self.deduplicated_entries
        )


class ResultStore:
    """A content-addressed JSON store rooted at one directory.

    ``lease_ttl`` bounds how long a crashed process can block others via the
    claim protocol: a claim older than this many seconds is stale and may be
    stolen even when the holder cannot be probed (different host).  Set it
    comfortably above the longest expected single run — a healthy-but-slow
    holder whose lease expires gets its work duplicated (harmlessly, writes
    are idempotent), not corrupted.
    """

    def __init__(self, root: str | Path, *, lease_ttl: float = 600.0) -> None:
        if lease_ttl <= 0:
            raise StoreLeaseError(f"lease_ttl must be positive, got {lease_ttl}")
        self.root = Path(root)
        self.lease_ttl = lease_ttl
        self.root.mkdir(parents=True, exist_ok=True)
        self.packs = PackStore(self.root)

    # ------------------------------------------------------------------ raw entries
    def _entry_path(self, namespace: str, key: str) -> Path:
        return self.root / namespace / key[:2] / f"{key}.json"

    def put(self, namespace: str, key: str, payload: dict) -> Path:
        """Persist ``payload`` under ``key``, atomically, and return its path.

        Concurrent-writer-safe: the envelope lands via a same-directory
        temporary file and ``os.replace``, and a concurrent ``vacuum`` that
        sweeps the temporary file out from under the rename is absorbed by
        rewriting through a fresh one.
        """
        path = self._entry_path(namespace, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {"key": key, "checksum": hash_payload(payload), "payload": payload}
        body = json.dumps(envelope, sort_keys=True)
        for attempt in range(3):
            descriptor, temp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(descriptor, "w") as handle:
                    handle.write(body)
                os.replace(temp_name, path)
            except FileNotFoundError:
                # A concurrent vacuum removed the tmp file between write and
                # rename; retry through a fresh one.
                if attempt == 2:
                    raise
                continue
            except BaseException:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise
            return path
        raise OSError(f"could not persist {path}")  # pragma: no cover - loop returns

    def get(self, namespace: str, key: str) -> dict | None:
        """Load the payload stored under ``key``; ``None`` on miss *or* corruption.

        The shard's pack file is consulted first, loose JSON second.  A
        corrupted loose entry (unreadable, malformed JSON, wrong envelope
        shape, key or checksum mismatch) is removed so the slot is clean for
        the rewrite that follows the recomputation; a corrupted pack row just
        reads as a miss (:meth:`vacuum` evicts it).
        """
        packed = self.packs.get(namespace, key)
        if packed is not None:
            return packed
        return self._get_loose(namespace, key)

    def _get_loose(self, namespace: str, key: str) -> dict | None:
        """The loose tier's half of :meth:`get`: validate, discard on damage."""
        path = self._entry_path(namespace, key)
        payload = self._read_valid_entry(path, key)
        if payload is None:
            if path.exists():
                self._discard(path)
            return None
        return payload

    @staticmethod
    def _read_valid_entry(path: Path, key: str) -> dict | None:
        """Read and fully validate one loose envelope; ``None`` on any damage.

        Pure read — never removes anything, so callers that must account for
        their *own* removals (``vacuum``) can unlink explicitly.
        """
        try:
            envelope = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("key") != key
            or "payload" not in envelope
            or envelope.get("checksum") != hash_payload(envelope["payload"])
        ):
            return None
        return envelope["payload"]

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing unlink is best-effort
            pass

    def contains(self, namespace: str, key: str) -> bool:
        """True when a *valid* entry exists under ``key`` (packed or loose)."""
        return self.get(namespace, key) is not None

    def get_many(self, namespace: str, keys: Sequence[str]) -> dict[str, dict]:
        """Batch-load the valid payloads under ``keys``; misses are absent.

        One ``SELECT`` per shard answers the packed keys; only the remainder
        falls back to per-file loose reads, so a mostly-compacted store does
        O(shards) file opens rather than O(keys).
        """
        found = self.packs.get_many(namespace, keys)
        for key in keys:
            if key not in found:
                payload = self._get_loose(namespace, key)
                if payload is not None:
                    found[key] = payload
        return found

    def contains_many(self, namespace: str, keys: Sequence[str]) -> set[str]:
        """The subset of ``keys`` with a valid entry (packed or loose), batched."""
        present = self.packs.contains_many(namespace, keys)
        for key in keys:
            if key not in present and self._get_loose(namespace, key) is not None:
                present.add(key)
        return present

    def keys(self, namespace: str) -> Iterator[str]:
        """Iterate the keys present under ``namespace`` (validity not checked).

        Covers both tiers: loose entry files and pack rows, each key once.
        """
        base = self.root / namespace
        if not base.is_dir():
            return
        seen: set[str] = set()
        for path in sorted(base.glob("*/*.json")):
            seen.add(path.stem)
            yield path.stem
        for shard in sorted(child for child in base.iterdir() if child.is_dir()):
            for key in sorted(self.packs.packed_keys(namespace, shard.name) - seen):
                yield key

    def count(self, namespace: str) -> int:
        """Number of entries (valid or not) under ``namespace``, both tiers."""
        return sum(1 for _ in self.keys(namespace))

    # ------------------------------------------------------------------ leases
    def _claim_path(self, namespace: str, key: str) -> Path:
        return self.root / namespace / key[:2] / f"{key}.claim"

    @staticmethod
    def _read_claim(path: Path) -> dict | None:
        """The claim file's holder record; ``None`` when absent or unreadable."""
        try:
            holder = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return holder if isinstance(holder, dict) else None

    @staticmethod
    def _claim_stale(holder: dict) -> bool:
        """True when the claim may be stolen: expired, or its holder is dead.

        The pid probe only works for same-host holders; cross-host staleness
        falls back to the expiry alone.  A corrupt holder record is stale.
        """
        expires_at = holder.get("expires_at")
        if not isinstance(expires_at, (int, float)) or expires_at <= time.time():
            return True
        if holder.get("host") == _HOSTNAME and isinstance(holder.get("pid"), int):
            try:
                os.kill(holder["pid"], 0)
            except ProcessLookupError:
                return True
            except (PermissionError, OSError):  # pragma: no cover - alive, not ours
                pass
        return False

    def claim(self, namespace: str, key: str) -> Lease | None:
        """Try to take the cross-process claim on ``key``.

        Returns a :class:`Lease` when this process now owns the right to
        compute the entry, or ``None`` when another process holds a live claim
        (wait for the entry, or poll :meth:`lease_state`).  A stale claim —
        expired, dead same-host holder, or unreadable — is stolen atomically:
        the stealer replaces the file and wins only if a read-back still shows
        its own token.  After a successful claim, re-check the entry before
        computing: the previous holder writes the result *before* releasing.
        """
        path = self._claim_path(namespace, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        now = time.time()
        token = f"{_HOSTNAME}:{os.getpid()}:{os.urandom(8).hex()}"
        record = {
            "token": token,
            "pid": os.getpid(),
            "host": _HOSTNAME,
            "acquired_at": now,
            "expires_at": now + self.lease_ttl,
        }
        body = json.dumps(record, sort_keys=True)
        lease = Lease(
            namespace=namespace, key=key, path=path, token=token,
            expires_at=record["expires_at"],
        )
        # The record is written to a private file first and linked into the slot,
        # so the claim appears complete or not at all.  A slot created empty and
        # filled afterwards can be read by a racing claimer as unreadable, hence
        # stale, and stolen while its owner computes too.
        try:
            descriptor, temp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}-claim-", suffix=".tmp"
            )
            with os.fdopen(descriptor, "w") as handle:
                handle.write(body)
        except OSError as error:
            raise StoreLeaseError(f"could not create claim {path}: {error}") from error
        temp = Path(temp_name)
        try:
            os.link(temp, path)
        except FileExistsError:
            holder = self._read_claim(path)
            if holder is not None and not self._claim_stale(holder):
                self._discard(temp)
                return None
            # Steal: atomic replace, then read-back verification so that two
            # simultaneous stealers cannot both believe they won.
            try:
                os.replace(temp, path)
            except OSError as error:
                self._discard(temp)
                raise StoreLeaseError(f"could not steal stale claim {path}: {error}") from error
            current = self._read_claim(path)
            if current is None or current.get("token") != token:
                return None
            return lease
        except OSError as error:
            self._discard(temp)
            raise StoreLeaseError(f"could not create claim {path}: {error}") from error
        self._discard(temp)
        return lease

    def release(self, lease: Lease) -> bool:
        """Drop a held claim; ``False`` when it was already stolen or swept.

        Release *after* persisting the result: any process that subsequently
        wins the claim re-checks the entry first, so compute-then-write-then-
        release guarantees nobody recomputes a settled entry.

        A check-then-unlink here would race a stealer: between reading our
        token back and unlinking, the claim file can be atomically replaced
        with the *stealer's* live claim, and the unlink would drop a claim we
        no longer own.  Instead the claim is renamed aside first — the rename
        atomically decides whose claim we took — and only then inspected: our
        token means release succeeded; anyone else's claim is put back via
        ``os.link`` (which, unlike a rename, cannot stomp a claim created in
        the meantime).
        """
        aside = lease.path.with_name(
            f".{lease.key[:8]}-release-{os.getpid()}-{os.urandom(4).hex()}.tmp"
        )
        try:
            os.rename(lease.path, aside)
        except OSError:  # claim already gone (stolen + released, or vacuumed)
            return False
        current = self._read_claim(aside)
        if current is not None and current.get("token") == lease.token:
            self._discard(aside)
            return True
        # The claim under the slot was not ours — restore it.  link-then-unlink
        # re-creates the name only if the slot is still empty; if a third
        # process claimed it during the aside window, that newer claim stands.
        try:
            os.link(aside, lease.path)
        except OSError:  # pragma: no cover - slot re-claimed in the window
            pass
        self._discard(aside)
        return False

    def lease_state(self, namespace: str, key: str) -> str:
        """``"free"``, ``"held"`` or ``"stale"`` — the claim slot's state.

        One read decides: an ``exists()`` pre-check would misreport a claim
        released between the check and the read as ``"stale"`` when the slot
        is actually free.
        """
        path = self._claim_path(namespace, key)
        try:
            holder = json.loads(path.read_text())
        except FileNotFoundError:
            return "free"
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            # Present but unreadable: stale (stealable), as :meth:`claim` treats it.
            return "stale"
        if not isinstance(holder, dict) or self._claim_stale(holder):
            return "stale"
        return "held"

    # ------------------------------------------------------------------ vacuum
    def vacuum(
        self, namespace: str | None = None, *, tmp_max_age: float = 3600.0
    ) -> VacuumReport:
        """Sweep the debris hard-killed writers leave behind.

        Removes, per namespace (all of them by default):

        * temporary files older than ``tmp_max_age`` seconds (an in-flight
          write holds its tmp file for milliseconds; anything old is an
          orphan from a killed writer);
        * stale claim files (expired or dead-holder — live claims are kept);
        * invalid entries (truncated/corrupted envelopes), via the same
          validation :meth:`get` applies, so the slot is clean to recompute;
        * pack damage: checksum-failing pack rows are evicted and a pack file
          that is not readable sqlite at all is deleted (its keys already read
          as misses either way);
        * loose entries whose shard's pack holds a *valid* row for the same
          key — redundant since :meth:`compact` committed them, so the dedup
          reclaims what an interrupted compaction left behind.

        Several processes may vacuum (or remove entries) concurrently; each
        report counts only the removals *that pass itself performed* — a file
        that vanishes under the sweep was someone else's removal and is not
        claimed.
        """
        if namespace is None:
            namespaces = sorted(
                child.name for child in self.root.iterdir() if child.is_dir()
            )
        else:
            namespaces = [namespace]
        removed_tmp = removed_claims = removed_entries = 0
        removed_pack_rows = removed_packs = deduplicated_entries = 0
        cutoff = time.time() - tmp_max_age
        for name in namespaces:
            base = self.root / name
            if not base.is_dir():
                continue
            for shard in sorted(child for child in base.iterdir() if child.is_dir()):
                for temp_file in sorted(shard.glob(".*.tmp")):
                    try:
                        if temp_file.stat().st_mtime <= cutoff:
                            temp_file.unlink()
                            removed_tmp += 1
                    except OSError:  # pragma: no cover - racing writer finished
                        pass
                for claim_file in sorted(shard.glob("*.claim")):
                    holder = self._read_claim(claim_file)
                    if holder is None or self._claim_stale(holder):
                        try:
                            claim_file.unlink()
                            removed_claims += 1
                        except OSError:  # pragma: no cover - racing release
                            pass
                shard_rows, shard_packs, packed = self.packs.vacuum_shard(
                    name, shard.name
                )
                removed_pack_rows += shard_rows
                removed_packs += shard_packs
                for entry in sorted(shard.glob("*.json")):
                    key = entry.stem
                    if key in packed:
                        # The pack holds a verified row for this key; the loose
                        # copy is an interrupted compaction's leftover.
                        try:
                            entry.unlink()
                            deduplicated_entries += 1
                        except OSError:  # racing remover got there first
                            pass
                        continue
                    if self._read_valid_entry(entry, key) is None:
                        # Invalid (or vanished since the glob): remove it
                        # ourselves and count only a removal we performed — a
                        # FileNotFoundError here means a racing process already
                        # swept it, which is not this pass's removal.
                        try:
                            entry.unlink()
                            removed_entries += 1
                        except OSError:
                            pass
        return VacuumReport(
            removed_tmp=removed_tmp,
            removed_claims=removed_claims,
            removed_entries=removed_entries,
            removed_pack_rows=removed_pack_rows,
            removed_packs=removed_packs,
            deduplicated_entries=deduplicated_entries,
        )

    # ------------------------------------------------------------------ compaction
    def compact(self, namespace: str | None = None) -> CompactReport:
        """Batch settled loose entries into per-shard pack files.

        Bit-exact and crash-safe (see :meth:`PackStore.compact`): loading any
        key after compaction returns the identical payload, and an interrupted
        pass loses nothing — at worst a loose duplicate that the next
        :meth:`vacuum` deduplicates.
        """
        return self.packs.compact(namespace)

    def stats(self, namespace: str | None = None) -> tuple[NamespaceStats, ...]:
        """Per-namespace loose/packed entry and byte accounting."""
        return self.packs.stats(namespace)

    def close(self) -> None:
        """Release cached pack connections (safe to keep using the store after)."""
        self.packs.close()

    # ------------------------------------------------------------------ simulation runs
    def result_key(self, config: "SimulationConfig", backend: str) -> str:
        """The content address of one ``(config, backend)`` run."""
        return config_fingerprint(config, backend)

    def has_result(self, config: "SimulationConfig", backend: str) -> bool:
        """True when the run's settled result is cached (and valid)."""
        return self.contains(SIMULATION_NAMESPACE, self.result_key(config, backend))

    def load_result(self, config: "SimulationConfig", backend: str) -> "SimulationResult | None":
        """The cached result of the run, bit-exact, or ``None``."""
        payload = self.get(SIMULATION_NAMESPACE, self.result_key(config, backend))
        if payload is None:
            return None
        try:
            return result_from_payload(payload, config)
        except (KeyError, TypeError, ValueError):
            # A payload from an incompatible schema: recompute rather than fail.
            self._discard(self._entry_path(SIMULATION_NAMESPACE, self.result_key(config, backend)))
            return None

    def save_result(self, result: "SimulationResult", backend: str) -> Path:
        """Persist one settled run under its configuration's fingerprint."""
        key = self.result_key(result.config, backend)
        return self.put(SIMULATION_NAMESPACE, key, result_payload(result))

    def load_many(
        self, tasks: Sequence[tuple["SimulationConfig", str]]
    ) -> list["SimulationResult | None"]:
        """Batched :meth:`load_result`, aligned with ``tasks``.

        The hot path of a warm sweep: all packed hits come back from one
        ``SELECT`` per shard instead of one file open per run.
        """
        keys = [self.result_key(config, backend) for config, backend in tasks]
        payloads = self.get_many(SIMULATION_NAMESPACE, keys)
        results: list["SimulationResult | None"] = []
        for (config, _backend), key in zip(tasks, keys):
            payload = payloads.get(key)
            if payload is None:
                results.append(None)
                continue
            try:
                results.append(result_from_payload(payload, config))
            except (KeyError, TypeError, ValueError):
                # A payload from an incompatible schema: recompute rather than
                # fail (its loose file, if any, is discarded like load_result's).
                self._discard(self._entry_path(SIMULATION_NAMESPACE, key))
                results.append(None)
        return results

    def has_results(
        self, tasks: Sequence[tuple["SimulationConfig", str]]
    ) -> list[bool]:
        """Batched :meth:`has_result`, aligned with ``tasks``."""
        keys = [self.result_key(config, backend) for config, backend in tasks]
        present = self.contains_many(SIMULATION_NAMESPACE, keys)
        return [key in present for key in keys]

    def claim_result(self, config: "SimulationConfig", backend: str) -> Lease | None:
        """Claim the right to compute one run (see :meth:`claim`)."""
        return self.claim(SIMULATION_NAMESPACE, self.result_key(config, backend))

    def result_lease_state(self, config: "SimulationConfig", backend: str) -> str:
        """The claim slot's state for one run (see :meth:`lease_state`)."""
        return self.lease_state(SIMULATION_NAMESPACE, self.result_key(config, backend))

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"ResultStore(root={str(self.root)!r})"
