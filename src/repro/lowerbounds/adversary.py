"""Adversarial constructions against restricted streaming algorithms.

Theorem 6 says machines below the Θ(log N) reversal threshold cannot avoid
false positives.  Two executable faces of that statement:

* for *list machines*, the Lemma 21 attack
  (:func:`repro.listmachine.composition.lemma21_attack`) splices runs;
* for the deterministic one-pass *sketch baselines* of
  :mod:`repro.algorithms.onepass`, this module constructs explicit
  collision inputs: unequal multisets with identical XOR-and-sum
  signatures, which the baselines accept with probability 1.

The constructions are deterministic and parametric in the word length, so
experiments can show the baselines failing at every scale while the
fingerprint machine (which re-randomizes per run) keeps its ≤ 1/2 error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from .._util import to_binary
from ..errors import ReproError
from ..problems.encoding import Instance
from ..problems.instances import random_words


def xor_collision_instance(n: int) -> Instance:
    """Unequal multisets with equal XOR: {00…0, 11…1} vs {01…, 10…}.

    For any word length n ≥ 2: {0^n, 1^n} and {0·1^{n-1}, 1·0^{n-1}} have
    the same XOR (1^n) and the same cardinality but are different
    multisets.
    """
    if n < 2:
        raise ReproError("xor collision needs word length >= 2")
    first = ["0" * n, "1" * n]
    second = ["0" + "1" * (n - 1), "1" + "0" * (n - 1)]
    return Instance(tuple(first), tuple(second))


def sum_collision_instance(n: int) -> Instance:
    """Unequal multisets with equal sums: {a, b} vs {a+1, b−1}."""
    if n < 2:
        raise ReproError("sum collision needs word length >= 2")
    a = 0
    b = 3  # fits in 2 bits
    return Instance(
        (to_binary(a, n), to_binary(b, n)),
        (to_binary(a + 1, n), to_binary(b - 1, n)),
    )


def xor_sum_collision_instance(n: int) -> Instance:
    """Unequal multisets with equal XOR *and* equal sum.

    {0, 3} vs {1, 2}: XOR both 3, sum both 3 — scaled into the low bits of
    n-bit words.  Defeats the combined "xor+sum" baseline outright.
    """
    if n < 2:
        raise ReproError("xor+sum collision needs word length >= 2")
    return Instance(
        (to_binary(0, n), to_binary(3, n)),
        (to_binary(1, n), to_binary(2, n)),
    )


def padded_collision_instance(n: int, m: int, rng: random.Random) -> Instance:
    """An m-value instance embedding the xor+sum collision among decoys.

    The first two positions of each half carry the collision; the rest is
    an identical random filler, so the instance is unequal as a multiset
    but invisible to xor/sum/count sketches of any width.
    """
    if m < 2:
        raise ReproError("need m >= 2 to embed the collision")
    core = xor_sum_collision_instance(n)
    filler = random_words(m - 2, n, rng)
    return Instance(
        core.first + tuple(filler),
        core.second + tuple(filler),
    )


@dataclass(frozen=True)
class BaselineFailure:
    """Evidence that a baseline accepted an unequal instance."""

    sketch: str
    instance: Instance
    accepted: bool


def fool_all_baselines(n: int = 16) -> List[BaselineFailure]:
    """Run every one-pass baseline on its collision input; all must accept.

    Returns the failure evidence for each sketch kind; used by tests and
    the E14 separation benchmark.
    """
    from ..algorithms.onepass import one_pass_multiset_test
    from ..problems.definitions import MULTISET_EQUALITY

    cases = [
        ("xor", xor_collision_instance(n)),
        ("sum", sum_collision_instance(n)),
        ("xor+sum", xor_sum_collision_instance(n)),
    ]
    failures = []
    for sketch, instance in cases:
        if MULTISET_EQUALITY(instance):  # pragma: no cover - sanity
            raise ReproError("collision instance is accidentally equal")
        outcome = one_pass_multiset_test(instance, sketch=sketch)
        failures.append(BaselineFailure(sketch, instance, outcome.accepted))
    return failures
