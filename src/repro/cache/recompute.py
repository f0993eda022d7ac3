"""Recomputing cache entries from their provenance stamps.

``python -m repro cache verify`` spot-checks the store: it samples
entries, reruns the computation each provenance stamp describes, and
diffs the recomputed payload against the stored one *byte-for-byte*
(both sides canonical-JSON-serialised).  The audit is the only command
that writes the store, so ``audit-cell`` is the one kind recomputed
here: contract name + (m, n) rebuild the sweep cell exactly (the cell
rng is derived from those coordinates alone).  An entry of any other
kind is reported as unsupported rather than failing the sweep.
"""

from __future__ import annotations

import random
from typing import Any, Dict

from ..errors import ReproError
from .fingerprint import canonical_json
from .store import ResultStore

__all__ = [
    "recompute_payload",
    "verify_entries",
]


def recompute_payload(provenance: Dict[str, Any]) -> Any:
    """Recompute the payload a provenance stamp describes.

    Raises :class:`~repro.errors.ReproError` for any kind but
    ``audit-cell`` (callers decide whether that is a skip or a failure).
    """
    from ..observability.audit import (
        AUDIT_CELL_KIND,
        CONTRACTS,
        check_to_payload,
        run_audit_cell,
    )

    kind = provenance.get("kind")
    if kind != AUDIT_CELL_KIND:
        raise ReproError(f"no recomputer for cache kind {kind!r}")
    components = provenance.get("components", {})
    specs = {spec.name: spec for spec in CONTRACTS}
    name = components["contract"]
    if name not in specs:
        raise ReproError(f"unknown audit contract {name!r}")
    check = run_audit_cell(specs[name], components["m"], components["n"])
    return check_to_payload(check)


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
