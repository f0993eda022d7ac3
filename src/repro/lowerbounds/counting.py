"""Skeleton counting: enumerated reality vs. the Lemma 32 bound.

Lemma 32 bounds the number of *possible* run skeletons of an (r, t)-bounded
list machine by (m+k+3)^{12m(t+1)^{2r+2}+24(t+1)^r} — the crucial fact
being that the bound does not depend on n, the bit-length of the input
values.  For tiny machines the actual skeletons can be enumerated
exhaustively over all inputs; this module does that and reports how the
measured count compares to the bound (always: *absurdly* below it, which
is fine — the lemma only needs the independence from n).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional, Sequence, Tuple, Union

from ..errors import MachineError
from ..listmachine.bounds import lemma32_skeleton_bound_log2
from ..listmachine.nlm import NLM
from ..listmachine.run import run_deterministic, run_with_choices
from ..listmachine.skeleton import Skeleton, skeleton_of_run


@dataclass(frozen=True)
class SkeletonCensus:
    """Enumerated skeleton statistics for one machine."""

    machine_m: int
    machine_k: int
    machine_t: int
    reversal_bound: int
    inputs_enumerated: int
    distinct_skeletons: int
    bound_log2: float

    @property
    def within_bound(self) -> bool:
        import math

        if self.distinct_skeletons == 0:
            return True
        return math.log2(self.distinct_skeletons) <= self.bound_log2

    def to_payload(self) -> Dict[str, object]:
        """The census as a JSON-stable cache payload (all scalar fields)."""
        return {
            "machine_m": self.machine_m,
            "machine_k": self.machine_k,
            "machine_t": self.machine_t,
            "reversal_bound": self.reversal_bound,
            "inputs_enumerated": self.inputs_enumerated,
            "distinct_skeletons": self.distinct_skeletons,
            "bound_log2": self.bound_log2,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "SkeletonCensus":
        return cls(**payload)  # type: ignore[arg-type]


#: Entry kind for one full census in the content-addressed result store.
CENSUS_KIND = "skeleton-census"


def census_key(cache_key: object, alphabet: Sequence[object], r: int, nlm: NLM):
    """The content-addressed key of one exhaustive census.

    NLM transition functions are closures — there is no content
    fingerprint to derive, so the caller supplies ``cache_key``, an
    identity token naming the machine *family* (mirroring the
    ``machine_factory`` requirement of the parallel path).  The token is
    composed with everything else that determines the census: the
    alphabet (by repr, in order), the reversal bound and the machine's
    (m, k, t) shape; the code version rides in automatically.
    """
    from ..cache import compose_key

    return compose_key(
        CENSUS_KIND,
        census=str(cache_key),
        alphabet=[repr(value) for value in alphabet],
        r=r,
        m=nlm.m,
        k=nlm.k,
        t=nlm.t,
    )


def decode_input(
    alphabet: Sequence[object], m: int, index: int
) -> Tuple[object, ...]:
    """The ``index``-th input in ``itertools.product(alphabet, repeat=m)``
    order — mixed-radix decoding, so any subrange of the input space can
    be enumerated without materializing its prefix."""
    base = len(alphabet)
    values = [alphabet[0]] * m
    for slot in range(m - 1, -1, -1):
        index, digit = divmod(index, base)
        values[slot] = alphabet[digit]
    return tuple(values)


def census_range(
    machine_factory: Callable[[], NLM],
    alphabet: Sequence[object],
    start: int,
    stop: int,
) -> FrozenSet[object]:
    """Batch task body: distinct skeletons over inputs ``[start, stop)``.

    Workers rebuild the machine from ``machine_factory`` (NLM transition
    functions are closures and cannot cross a process boundary) and ship
    home only the skeleton set; bracket tokens unpickle to the module
    singletons, so sets from different workers merge exactly.
    """
    nlm = machine_factory()
    skeletons = set()
    for index in range(start, stop):
        run = run_deterministic(nlm, list(decode_input(alphabet, nlm.m, index)))
        skeletons.add(skeleton_of_run(run))
    return frozenset(skeletons)


def enumerate_skeletons(
    nlm: NLM,
    alphabet: Sequence[object],
    *,
    r: int,
    max_inputs: int = 100_000,
    jobs: int = 1,
    machine_factory: Optional[Callable[[], NLM]] = None,
    chunk_size: Union[int, str, None] = None,
    cache=None,
    cache_key: Optional[object] = None,
    ledger=None,
) -> SkeletonCensus:
    """Run a deterministic NLM on *every* input over ``alphabet``.

    Collects the distinct skeletons and compares against Lemma 32.

    ``jobs > 1`` partitions the ``|alphabet|^m`` input space into
    contiguous index ranges and fans them out over worker processes via
    :mod:`repro.parallel`.  Because ``alpha`` is a closure, the parallel
    path needs a picklable ``machine_factory`` (a module-level callable
    or ``functools.partial`` rebuilding the machine); the census is
    identical to the serial one — set union is order-blind.

    ``cache`` (a :class:`~repro.cache.ResultStore`) memoizes the whole
    census; because a closure-built NLM has no content fingerprint, it
    requires ``cache_key``, a caller-supplied identity token for the
    machine family (see :func:`census_key`).  Hits skip the enumeration
    entirely; the store's hit/miss events reach the sweep ledger through
    its attached writer; a stored census that does not decode is
    quarantined and recomputed.  ``ledger`` additionally journals the
    parallel dispatch as a ``skeleton-census`` sweep.
    """
    if not nlm.is_deterministic:
        raise MachineError("exhaustive enumeration expects a deterministic NLM")
    total = len(alphabet) ** nlm.m
    if total > max_inputs:
        raise MachineError(
            f"|alphabet|^m = {total} exceeds max_inputs = {max_inputs}"
        )
    key = None
    if cache is not None:
        if cache_key is None:
            raise MachineError(
                "census caching needs a cache_key identity token (NLM "
                "transition functions are closures and cannot be "
                "content-fingerprinted)"
            )
        key = census_key(cache_key, alphabet, r, nlm)
        census = cache.lookup(key, SkeletonCensus.from_payload)
        if census is not None:
            return census
    skeletons: set = set()
    if jobs == 1 or total == 0:
        for values in itertools.product(alphabet, repeat=nlm.m):
            run = run_deterministic(nlm, list(values))
            skeletons.add(skeleton_of_run(run))
    else:
        if machine_factory is None:
            raise MachineError(
                "parallel enumeration needs a picklable machine_factory "
                "(NLM transition functions are closures and do not pickle)"
            )
        from ..parallel import BatchTask, run_batch

        if chunk_size is None or chunk_size == "auto":
            # same deterministic heuristic as chunk_size="auto" in the
            # adapters: ~4 ranges per worker
            from ..parallel.adapters import auto_chunk_size

            chunk_size = auto_chunk_size(total, jobs)
        alphabet = tuple(alphabet)
        tasks = [
            BatchTask.call(
                census_range,
                machine_factory,
                alphabet,
                start,
                min(start + chunk_size, total),
            )
            for start in range(0, total, chunk_size)
        ]
        for part in run_batch(
            tasks,
            jobs=jobs,
            label="skeleton-census",
            ledger=ledger,
        ).values():
            skeletons |= part
    census = SkeletonCensus(
        machine_m=nlm.m,
        machine_k=nlm.k,
        machine_t=nlm.t,
        reversal_bound=r,
        inputs_enumerated=total,
        distinct_skeletons=len(skeletons),
        bound_log2=lemma32_skeleton_bound_log2(nlm.m, nlm.k, nlm.t, r),
    )
    if key is not None:
        cache.store(key, census.to_payload(), engine="census")
    return census


def skeletons_independent_of_value_length(
    make_machine,
    make_alphabet,
    lengths: Sequence[int],
    *,
    r: int,
) -> Dict[int, int]:
    """The point of Lemma 32: skeleton counts must not grow with n.

    ``make_machine(alphabet)`` builds the machine for a value alphabet;
    ``make_alphabet(n)`` yields the length-n value alphabet.  Returns
    {n: distinct skeleton count}; callers assert the counts are equal
    across n (value *length* cannot leak into skeletons — only positions
    do).
    """
    counts: Dict[int, int] = {}
    for n in lengths:
        alphabet = make_alphabet(n)
        nlm = make_machine(alphabet)
        census = enumerate_skeletons(nlm, sorted(alphabet), r=r)
        counts[n] = census.distinct_skeletons
    return counts
