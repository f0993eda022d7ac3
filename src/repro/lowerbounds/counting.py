"""Skeleton counting: enumerated reality vs. the Lemma 32 bound.

Lemma 32 bounds the number of *possible* run skeletons of an (r, t)-bounded
list machine by (m+k+3)^{12m(t+1)^{2r+2}+24(t+1)^r} — the crucial fact
being that the bound does not depend on n, the bit-length of the input
values.  For tiny machines the actual skeletons can be enumerated
exhaustively over all inputs; this module does that and reports how the
measured count compares to the bound (always: *absurdly* below it, which
is fine — the lemma only needs the independence from n).  The census is
one in-process loop over ``itertools.product(alphabet, repeat=m)``; the
largest one E6 runs enumerates 4^4 = 256 inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Sequence

from ..errors import MachineError
from ..listmachine.bounds import lemma32_skeleton_bound_log2
from ..listmachine.nlm import NLM
from ..listmachine.run import run_deterministic
from ..listmachine.skeleton import skeleton_of_run


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


def enumerate_skeletons(
    nlm: NLM,
    alphabet: Sequence[object],
    *,
    r: int,
    max_inputs: int = 100_000,
) -> SkeletonCensus:
    """Run a deterministic NLM on *every* input over ``alphabet``.

    Collects the distinct skeletons and compares against Lemma 32.
    """
    if not nlm.is_deterministic:
        raise MachineError("exhaustive enumeration expects a deterministic NLM")
    total = len(alphabet) ** nlm.m
    if total > max_inputs:
        raise MachineError(
            f"|alphabet|^m = {total} exceeds max_inputs = {max_inputs}"
        )
    skeletons = set()
    for values in itertools.product(alphabet, repeat=nlm.m):
        run = run_deterministic(nlm, list(values))
        skeletons.add(skeleton_of_run(run))
    return SkeletonCensus(
        machine_m=nlm.m,
        machine_k=nlm.k,
        machine_t=nlm.t,
        reversal_bound=r,
        inputs_enumerated=total,
        distinct_skeletons=len(skeletons),
        bound_log2=lemma32_skeleton_bound_log2(nlm.m, nlm.k, nlm.t, r),
    )


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
