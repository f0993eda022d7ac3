"""Content-addressed sharding: split one batch into verifiable pieces.

A *shard* is a deterministic slice of a sweep — the cells whose index
``i`` satisfies ``i % shards == shard_index``.  This module holds that
partition and the content identities that let a resumed sweep prove it
is the *same* batch:

* :func:`task_fingerprint` — a structural sha256 of one
  :class:`~repro.parallel.batch.BatchTask`.  Deliberately *not* a pickle
  hash: pickling a ``frozenset`` (machine state sets, say) serialises in
  hash order, which varies with ``PYTHONHASHSEED`` across processes.
  The structural walk canonicalises containers, sorts sets, resolves
  callables to ``module:qualname`` and machines to
  :func:`~repro.cache.fingerprint.machine_fingerprint`, so two processes
  that build the same task compute the same digest.  Returns ``None``
  for tasks carrying closures or other unaddressable values — such
  sweeps still run, they just cannot be resumed verifiably;
* :func:`sweep_fingerprint` — the digest of the whole batch (every task
  fingerprint, the normalized seed, the task count, the code version).
  ``run_batch`` journals it in ``sweep-start`` and the resume path
  refuses to merge a ledger whose fingerprint differs;
* :func:`shard_indices` — the strided partition itself.  The audit's
  shard path (:func:`~repro.observability.audit.plan_audit_shards`,
  ``repro audit --shards K --shard-index I``, ``repro shard collect``)
  slices its flattened cell list with it.

The strided partition balances heterogeneous sweeps — consecutive cells
usually grow together (the audit's N-decades), so giving each shard
every K-th cell keeps wall-clock per shard even without cost models.
"""

from __future__ import annotations

import functools
from typing import Any, List, Optional, Sequence

from .._util import normalize_seed
from .._version import __version__
from ..errors import ReproError
from .batch import BatchTask

__all__ = ["task_fingerprint", "sweep_fingerprint", "shard_indices"]


class _Unaddressable(Exception):
    """Raised during the structural walk for values with no stable digest."""


_SCALARS = (str, int, float, bool, type(None))


def _describe(value: Any) -> Any:
    """One value as canonical-JSON-ready structure for fingerprinting.

    The walk must be stable across processes and ``PYTHONHASHSEED``
    values: sets are sorted by their canonical serialisation, callables
    become import paths, machines become content digests.
    """
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [_describe(item) for item in value]
    if isinstance(value, dict):
        return {
            "~dict": sorted(
                ([_describe(k), _describe(v)] for k, v in value.items()),
                key=_sort_key,
            )
        }
    if isinstance(value, (set, frozenset)):
        return {
            "~set": sorted((_describe(item) for item in value), key=_sort_key)
        }
    if isinstance(value, functools.partial):
        return {
            "~partial": [
                _describe(value.func),
                _describe(value.args),
                _describe(dict(value.keywords)),
            ]
        }
    try:
        from ..machines.tm import TuringMachine
    except Exception:  # pragma: no cover - machines always import in-repo
        TuringMachine = ()  # type: ignore[assignment]
    if TuringMachine and isinstance(value, TuringMachine):
        from ..cache.fingerprint import machine_fingerprint

        return {"~machine": machine_fingerprint(value)}
    if callable(value):
        module = getattr(value, "__module__", None)
        qualname = getattr(value, "__qualname__", None)
        if not module or not qualname or "<locals>" in qualname:
            raise _Unaddressable(f"callable {value!r} has no stable import path")
        return {"~fn": f"{module}:{qualname}"}
    raise _Unaddressable(f"{type(value).__name__} value has no stable digest")


def _sort_key(described: Any) -> str:
    from ..cache.fingerprint import canonical_json

    return canonical_json(described)


def task_fingerprint(task: BatchTask) -> Optional[str]:
    """Structural sha256 of one task, or ``None`` when unaddressable."""
    from ..cache.fingerprint import digest_of

    try:
        payload = {
            "fn": _describe(task.fn),
            "args": _describe(task.args),
            "kwargs": _describe(task.kwargs),
            "seeded": task.seeded,
            "inputs": (
                None if task.inputs is None else _describe(task.inputs)
            ),
            "base_index": task.base_index,
        }
    except _Unaddressable:
        return None
    return digest_of(payload)


def sweep_fingerprint(
    tasks: Sequence[BatchTask], *, seed: Any = 0
) -> Optional[str]:
    """The identity of a whole batch: what the resume path verifies.

    A pure function of the task list (order included), the normalized
    seed and the code version — and ``None`` as soon as any single task
    is unaddressable, because a partial fingerprint would let a mutated
    sweep resume from a stale ledger.
    """
    from ..cache.fingerprint import digest_of

    digests: List[str] = []
    for task in tasks:
        digest = task_fingerprint(task)
        if digest is None:
            return None
        digests.append(digest)
    return digest_of(
        {
            "seed": normalize_seed(seed),
            "count": len(digests),
            "tasks": digests,
            "code": __version__,
        }
    )


def shard_indices(total: int, shards: int, shard_index: int) -> range:
    """The strided index slice of shard ``shard_index`` of ``shards``."""
    if shards < 1:
        raise ReproError(f"shards must be >= 1, got {shards}")
    if not 0 <= shard_index < shards:
        raise ReproError(
            f"shard_index must be in [0, {shards}), got {shard_index}"
        )
    return range(shard_index, total, shards)
