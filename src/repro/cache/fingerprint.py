"""Canonical digests and cache-key composition.

A cacheable computation is a pure function of a small set of named
inputs plus the code version.  This module serialises those inputs
*canonically* — byte-stable across processes, Python versions and dict
orderings — and composes them into one sha256 cache key.

Canonicalisation rules:

* structured values are serialised with :func:`canonical_json` (sorted
  keys, compact separators, ASCII-only) before hashing, so logically
  equal payloads hash equal regardless of construction order;
* key components are JSON scalars, carried verbatim so they read back
  from the provenance stamp as written (the audit's keys are a contract
  name and two ints);
* the current :data:`repro._version.__version__` is folded into every
  key as the ``code`` component — bumping the version invalidates the
  whole store without any bookkeeping (``repro cache gc`` reclaims the
  stale files).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from .._version import __version__
from ..errors import ReproError

__all__ = [
    "canonical_json",
    "digest_of",
    "CacheKey",
    "compose_key",
]


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, compact separators, ASCII.

    Two structurally equal payloads serialise to identical bytes no
    matter how their dicts were built — the property every byte-for-byte
    comparison in the cache layer rests on.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def digest_of(obj: Any) -> str:
    """sha256 hex digest of the canonical JSON form of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


#: Component values a key may carry (JSON scalars).
_SCALARS = (str, int, bool, type(None))


@dataclass(frozen=True)
class CacheKey:
    """One composed cache key: a kind plus its components.

    ``components`` always includes the ``code`` version component, so a
    key's digest changes whenever the package version does — the entire
    invalidation story in one field.
    """

    kind: str
    components: Tuple[Tuple[str, Any], ...]

    @property
    def digest(self) -> str:
        """The sha256 hex key the store addresses entries by."""
        return digest_of({"kind": self.kind, "components": dict(self.components)})

    def provenance(self, *, engine: Any = None) -> Dict[str, Any]:
        """The timestamp-free provenance stamp written with every entry.

        Records exactly what produced the payload: the key components,
        the package version, and the engine tier — never a wall-clock
        read, so two stamps for the same computation are byte-identical.
        """
        return {
            "kind": self.kind,
            "components": dict(self.components),
            "repro_version": __version__,
            "engine": engine,
        }


def compose_key(kind: str, /, **components: Any) -> CacheKey:
    """Compose a cache key from named JSON-scalar components.

    A ``code`` component is added automatically unless the caller
    overrides it.  Component order never matters (sorted on
    composition); the entry kind is positional-only so a component may
    itself be named ``kind`` without colliding.
    """
    if not kind:
        raise ReproError("cache key kind must be non-empty")
    for name, value in components.items():
        if not isinstance(value, _SCALARS):
            raise ReproError(
                f"cache key component {name}={value!r} is not a JSON scalar"
            )
    canonical: Dict[str, Any] = dict(components)
    canonical.setdefault("code", __version__)
    return CacheKey(kind=kind, components=tuple(sorted(canonical.items())))
