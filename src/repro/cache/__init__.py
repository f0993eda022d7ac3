"""Content-addressed result cache with provenance stamps.

Every audit check and Monte Carlo trial block in this repo is a pure
function of (machine fingerprint, input, engine tier, budget, code
version) — the determinism the Grohe–Hernich–Schweikardt framework
demands of its ST(r, s, t) computations.  This package makes that
purity *servable*: repeat traffic hits an on-disk store instead of the
engines.

Three layers:

* :mod:`~repro.cache.fingerprint` — canonical digests
  (:func:`machine_fingerprint`, :func:`digest_of`) composed into one
  sha256 :class:`CacheKey` per computation, code version folded in;
* :mod:`~repro.cache.store` — the sharded atomic :class:`ResultStore`
  (versioned schema, corrupt-entry quarantine, hit/miss/write/invalid
  counters, timestamp-free provenance stamp on every entry);
* :mod:`~repro.cache.recompute` — ``repro cache verify``'s registry for
  recomputing entries from their stamps and diffing byte-for-byte.

Front doors routed through it: ``python -m repro audit --cache DIR``
(per-check memoization) and
:func:`repro.algorithms.fingerprint.monte_carlo_fingerprint_trials`
(whole trial blocks).  Cache-on and cache-off outputs are byte-identical
by construction, gated in CI and ``tests/test_cache.py``.
"""

from .fingerprint import (
    CacheKey,
    canonical_json,
    code_fingerprint,
    compose_key,
    digest_of,
    machine_fingerprint,
    normalize_seed,
)
from .recompute import (
    recompute_payload,
    register_recompute,
    supported_kinds,
    verify_entries,
)
from .store import SCHEMA_VERSION, ResultStore

__all__ = [
    "CacheKey",
    "ResultStore",
    "SCHEMA_VERSION",
    "canonical_json",
    "code_fingerprint",
    "compose_key",
    "digest_of",
    "machine_fingerprint",
    "normalize_seed",
    "recompute_payload",
    "register_recompute",
    "supported_kinds",
    "verify_entries",
]
