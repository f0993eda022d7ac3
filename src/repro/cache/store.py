"""The on-disk content-addressed result store.

Layout: one JSON file per entry, sharded by the first two hex digits of
the key (``cachedir/ab/cdef....json``) so no directory grows unbounded.
Every entry carries a versioned schema, the provenance stamp of the
:class:`~repro.cache.fingerprint.CacheKey` that produced it, and the
payload — all serialised with :func:`~repro.cache.fingerprint.canonical_json`,
so two processes computing the same key write byte-identical files.

Durability and concurrency:

* writes go to a process/thread-unique temp file in the shard directory
  and land via ``os.replace`` — readers never observe a half-written
  entry, and two processes racing the same key both win (identical
  bytes, last rename is a no-op in content terms);
* a corrupt, truncated, wrong-schema or mis-keyed entry — or one whose
  payload the caller's decoder rejects — is *quarantined* (moved under
  ``cachedir/quarantine/``) and reported as a miss, so the caller
  recomputes and overwrites — the cache can only ever serve entries
  that parse, match their address and decode;
* hit/miss/write/invalid totals are plain per-process counts
  (:meth:`ResultStore.counter_snapshot`); the audit journals them in
  its ``audit-cells`` ``sweep-end`` record, and an attached ledger gets
  one ``cache`` record per event.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from .._version import __version__
from ..errors import ReproError
from .fingerprint import CacheKey, canonical_json

__all__ = ["ResultStore", "SCHEMA_VERSION"]

#: Entry schema version: bump when the on-disk shape changes; entries
#: with any other value are invalid (quarantined and recomputed).
SCHEMA_VERSION = 1

#: Shard directory name reserved for quarantined (corrupt) entries.
QUARANTINE_DIR = "quarantine"


class ResultStore:
    """A persistent content-addressed store for cacheable results.

    ``hits`` (entries served), ``misses`` (lookups that found no usable
    entry), ``writes`` (entries written) and ``invalid`` (corrupt or
    stale entries quarantined at lookup time) count this process's
    traffic.  ``ledger`` (a
    :class:`~repro.observability.ledger.LedgerWriter`) gets one ``cache``
    record per event, carrying the entry kind and the content-addressed
    key digest — both deterministic, so cache lines survive the
    determinism strip.
    """

    def __init__(self, root, *, ledger=None):
        self.root = Path(root)
        # duck-typed LedgerWriter (never imported here — the ledger
        # module imports this package's fingerprint layer); every event
        # site pays one ``is None`` test when nothing is attached
        self._ledger = ledger
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.invalid = 0

    def _event(self, event: str, key: CacheKey) -> None:
        if self._ledger is not None:
            self._ledger.cache_event(event, key.kind, key.digest)

    # -- key → path ---------------------------------------------------------

    def path_for(self, key: CacheKey) -> Path:
        digest = key.digest
        return self.root / digest[:2] / f"{digest[2:]}.json"

    # -- counters -----------------------------------------------------------

    def counter_snapshot(self) -> Dict[str, int]:
        """The four live totals, JSON-ready (process-local, not on-disk)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "invalid": self.invalid,
        }

    # -- read path ----------------------------------------------------------

    def lookup(
        self, key: CacheKey, decode: Optional[Callable[[Any], Any]] = None
    ) -> Optional[Any]:
        """Return the payload for ``key`` or ``None`` (a miss).

        With ``decode``, return ``decode(payload)`` instead; a decoder
        that raises ``KeyError``, ``TypeError`` or ``ValueError`` marks
        the entry unusable.  Any unusable entry — unparseable JSON
        (corrupt or truncated mid-write), wrong schema version, digest
        that does not match its address, a payload that does not decode
        — is quarantined and counted ``invalid`` *and* ``miss``: the
        caller's obligation is always the same, recompute.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except (FileNotFoundError, NotADirectoryError):
            self.misses += 1
            self._event("miss", key)
            return None
        except (OSError, UnicodeDecodeError):
            # unreadable bytes are a corrupt entry, not a plain miss
            return self._reject(path, key)
        entry = self._parse_entry(text, key.digest)
        if entry is None:
            return self._reject(path, key)
        value = entry["payload"]
        if decode is not None:
            try:
                value = decode(value)
            except (KeyError, TypeError, ValueError):
                return self._reject(path, key)
        self.hits += 1
        self._event("hit", key)
        return value

    def _reject(self, path: Path, key: CacheKey) -> None:
        """Quarantine an unusable entry; count it ``invalid`` and ``miss``."""
        self._quarantine(path)
        self.invalid += 1
        self.misses += 1
        self._event("invalid", key)
        self._event("miss", key)

    @staticmethod
    def _parse_entry(text: str, expected_digest: str) -> Optional[Dict[str, Any]]:
        try:
            entry = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(entry, dict):
            return None
        if entry.get("schema") != SCHEMA_VERSION:
            return None
        if entry.get("key") != expected_digest:
            return None
        if "payload" not in entry or "provenance" not in entry:
            return None
        return entry

    def _quarantine(self, path: Path) -> None:
        """Move an unusable entry aside; never let it be served again.

        Quarantined files keep their shard prefix in the name so a later
        ``repro cache gc`` (or a human) can still see where they lived.
        """
        target_dir = self.root / QUARANTINE_DIR
        target_dir.mkdir(parents=True, exist_ok=True)
        target = target_dir / f"{path.parent.name}-{path.name}"
        try:
            os.replace(path, target)
        except OSError:
            # racing quarantiners: someone else already moved or removed
            # it — either way the bad entry is out of the read path
            pass

    # -- write path ---------------------------------------------------------

    def store(self, key: CacheKey, payload: Any, *, engine: Any = None) -> None:
        """Write one entry atomically (write-to-temp, rename-into-place)."""
        entry = {
            "schema": SCHEMA_VERSION,
            "key": key.digest,
            "provenance": key.provenance(engine=engine),
            "payload": payload,
        }
        try:
            text = canonical_json(entry) + "\n"
        except TypeError:
            raise ReproError(
                f"cache payload for kind {key.kind!r} is not JSON-serialisable"
            )
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / (
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass
        self.writes += 1
        self._event("write", key)

    # -- maintenance (stats / gc / verify support) --------------------------

    def entries(self) -> Iterator[Tuple[Path, Dict[str, Any]]]:
        """Yield every *valid* entry as ``(path, entry_dict)``, sorted.

        Invalid files encountered during the walk are skipped (not
        quarantined — maintenance walks must stay read-only).
        """
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or shard.name == QUARANTINE_DIR:
                continue
            for path in sorted(shard.glob("*.json")):
                expected = shard.name + path.stem
                try:
                    entry = self._parse_entry(
                        path.read_text(encoding="utf-8"), expected
                    )
                except OSError:
                    continue
                if entry is not None:
                    yield path, entry

    def stats(self) -> Dict[str, Any]:
        """Disk-derived statistics: entry counts per kind, bytes, stale.

        Pure function of the directory contents, so it works across
        processes (entries another command wrote count even though its
        hit/miss counters died with it).
        """
        per_kind: Dict[str, int] = {}
        total = 0
        stale = 0
        total_bytes = 0
        for path, entry in self.entries():
            total += 1
            total_bytes += path.stat().st_size
            provenance = entry.get("provenance", {})
            kind = provenance.get("kind", "?")
            per_kind[kind] = per_kind.get(kind, 0) + 1
            if provenance.get("repro_version") != __version__:
                stale += 1
        quarantined = 0
        quarantine = self.root / QUARANTINE_DIR
        if quarantine.is_dir():
            quarantined = sum(1 for _ in quarantine.iterdir())
        return {
            "dir": str(self.root),
            "schema": SCHEMA_VERSION,
            "entries": total,
            "entries_by_kind": dict(sorted(per_kind.items())),
            "stale_version_entries": stale,
            "quarantined_files": quarantined,
            "total_bytes": total_bytes,
        }

    def gc(self) -> Dict[str, int]:
        """Reclaim everything that can never be served again.

        Kept: valid entries stamped with the current ``repro_version``.
        Removed: quarantined files, stale-version entries (their keys
        embed the old ``code`` component, so no lookup can ever reach
        them), unparseable strays and leftover temp files.
        """
        removed = 0
        kept = 0
        reclaimed = 0
        if not self.root.is_dir():
            return {"removed": 0, "kept": 0, "reclaimed_bytes": 0}
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            in_quarantine = shard.name == QUARANTINE_DIR
            for path in sorted(p for p in shard.iterdir() if p.is_file()):
                drop = True
                if not in_quarantine and path.suffix == ".json":
                    try:
                        entry = self._parse_entry(
                            path.read_text(encoding="utf-8"),
                            shard.name + path.stem,
                        )
                    except OSError:
                        entry = None
                    if (
                        entry is not None
                        and entry["provenance"].get("repro_version")
                        == __version__
                    ):
                        drop = False
                if drop:
                    try:
                        reclaimed += path.stat().st_size
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
                else:
                    kept += 1
            try:
                shard.rmdir()  # only succeeds when the shard emptied out
            except OSError:
                pass
        return {
            "removed": removed,
            "kept": kept,
            "reclaimed_bytes": reclaimed,
        }
