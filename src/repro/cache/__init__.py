"""Content-addressed result cache with provenance stamps.

Every contract-audit cell is a pure function of its contract, its
(m, n) coordinates and the code version — the determinism the
Grohe–Hernich–Schweikardt framework demands of its ST(r, s, t)
computations.  This package makes that purity *servable*: a repeat
audit hits an on-disk store instead of the engines.

Three layers:

* :mod:`~repro.cache.fingerprint` — canonical digests
  (:func:`canonical_json`, :func:`digest_of`) composed into one sha256
  :class:`CacheKey` per computation, code version folded in;
* :mod:`~repro.cache.store` — the sharded atomic :class:`ResultStore`
  (versioned schema, corrupt-entry quarantine, hit/miss/write/invalid
  counters, timestamp-free provenance stamp on every entry);
* :mod:`~repro.cache.recompute` — ``repro cache verify``: recompute
  audit entries from their stamps and diff byte-for-byte.

The one front door is ``python -m repro audit --cache DIR`` (per-check
memoization).  Cache-on and cache-off outputs are byte-identical by
construction, gated in CI and ``tests/test_cache.py``.
"""

from .fingerprint import CacheKey, canonical_json, compose_key, digest_of
from .recompute import recompute_payload, verify_entries
from .store import SCHEMA_VERSION, ResultStore

__all__ = [
    "CacheKey",
    "ResultStore",
    "SCHEMA_VERSION",
    "canonical_json",
    "compose_key",
    "digest_of",
    "recompute_payload",
    "verify_entries",
]
