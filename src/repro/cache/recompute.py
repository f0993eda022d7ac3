"""Recomputing cache entries from their provenance stamps.

``python -m repro cache verify`` spot-checks the store: it samples
entries, reruns the computation each provenance stamp describes, and
diffs the recomputed payload against the stored one *byte-for-byte*
(both sides canonical-JSON-serialised).  That only works for kinds whose
stamps carry enough to reconstruct the inputs — this module is the
registry mapping an entry ``kind`` to its recompute function.

Kinds registered here out of the box:

* ``audit-cell`` — contract name + (m, n) rebuild the sweep cell
  exactly (the cell rng is derived from those coordinates alone);
* ``fingerprint-mc`` — (m, n, kind, k, seed, base, count) rebuild a
  Monte Carlo trial block lane-for-lane.

The benchmark verification kind (``bench-verify``) registers itself
when ``bench_engine`` is importable (its word builders live in
``benchmarks/``, outside the package); elsewhere it is reported as
unverifiable rather than failing the sweep.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional

from ..errors import ReproError
from .fingerprint import canonical_json
from .store import ResultStore

__all__ = [
    "register_recompute",
    "recompute_payload",
    "supported_kinds",
    "verify_entries",
]

_RECOMPUTERS: Dict[str, Callable[[Dict[str, Any]], Any]] = {}


def register_recompute(
    kind: str, fn: Callable[[Dict[str, Any]], Any]
) -> None:
    """Register ``fn(components) -> payload`` as the recomputer for ``kind``."""
    _RECOMPUTERS[kind] = fn


def supported_kinds() -> List[str]:
    _ensure_default_recomputers()
    return sorted(_RECOMPUTERS)


def recompute_payload(provenance: Dict[str, Any]) -> Any:
    """Recompute the payload a provenance stamp describes.

    Raises :class:`~repro.errors.ReproError` when the kind has no
    registered recomputer (callers decide whether that is a skip or a
    failure).
    """
    _ensure_default_recomputers()
    kind = provenance.get("kind")
    fn = _RECOMPUTERS.get(kind)
    if fn is None:
        raise ReproError(f"no recomputer registered for cache kind {kind!r}")
    return fn(provenance.get("components", {}))


def _ensure_default_recomputers() -> None:
    if "audit-cell" not in _RECOMPUTERS:
        register_recompute("audit-cell", _recompute_audit_cell)
    if "fingerprint-mc" not in _RECOMPUTERS:
        register_recompute("fingerprint-mc", _recompute_fingerprint_mc)
    if "bench-verify" not in _RECOMPUTERS:
        try:
            import bench_engine  # noqa: F401  (benchmarks/ on sys.path?)
        except ImportError:
            pass
        else:
            register_recompute("bench-verify", _recompute_bench_verify)


# -- per-kind recomputers ---------------------------------------------------


def _recompute_audit_cell(components: Dict[str, Any]) -> Any:
    from ..observability.audit import CONTRACTS, check_to_payload, run_audit_cell

    specs = {spec.name: spec for spec in CONTRACTS}
    name = components["contract"]
    if name not in specs:
        raise ReproError(f"unknown audit contract {name!r}")
    check = run_audit_cell(specs[name], components["m"], components["n"])
    return check_to_payload(check)


def _recompute_fingerprint_mc(components: Dict[str, Any]) -> Any:
    from ..algorithms.fingerprint import fingerprint_mc_lanes
    from ..parallel import derive_lane_rng

    base = components["base"]
    lanes = list(range(base, base + components["count"]))
    rngs = [derive_lane_rng(components["seed"], lane) for lane in lanes]
    accepted = fingerprint_mc_lanes(
        lanes,
        components["m"],
        components["n"],
        components["kind"],
        components["k"],
        rngs,
    )
    return {"accepted": accepted}


def _recompute_bench_verify(components: Dict[str, Any]) -> Any:
    import bench_engine

    return bench_engine.verify_cell(
        components["name"], components["n"], cache_dir=None
    )


# -- the verify sweep -------------------------------------------------------


def verify_entries(
    store: ResultStore, *, sample: int = 8, seed: Any = 0
) -> Dict[str, Any]:
    """Recompute a deterministic sample of entries and diff byte-for-byte.

    Returns ``{"checked", "ok", "mismatched", "unsupported", "results"}``
    where each result row records the entry's kind, key and verdict.
    The sample is drawn with a seeded rng over the sorted entry list, so
    the same store contents always verify the same entries.
    """
    _ensure_default_recomputers()
    entries = list(store.entries())
    rng = random.Random(f"cache-verify:{seed}")
    if sample < len(entries):
        entries = [entries[i] for i in sorted(rng.sample(range(len(entries)), sample))]
    results = []
    ok = mismatched = unsupported = 0
    for path, entry in entries:
        provenance = entry["provenance"]
        row = {
            "kind": provenance.get("kind"),
            "key": entry["key"],
            "path": str(path),
        }
        try:
            recomputed = recompute_payload(provenance)
        except ReproError as exc:
            unsupported += 1
            row["verdict"] = "unsupported"
            row["detail"] = str(exc)
        else:
            if canonical_json(recomputed) == canonical_json(entry["payload"]):
                ok += 1
                row["verdict"] = "ok"
            else:
                mismatched += 1
                row["verdict"] = "MISMATCH"
                row["recomputed"] = recomputed
                row["stored"] = entry["payload"]
        results.append(row)
    return {
        "checked": len(results),
        "ok": ok,
        "mismatched": mismatched,
        "unsupported": unsupported,
        "results": results,
    }
