"""Instance generators: random, adversarial, and the CHECK-φ family.

The lower-bound experiments need instances drawn from the exact family of
Lemma 21/22: {0,1}^n is split into m consecutive intervals I_1, …, I_m of
equal size, and an instance is a point of
I_φ(1) × … × I_φ(m) × I_1 × … × I_m, a yes-instance iff
(v_1..v_m) = (v'_φ(1)..v'_φ(m)).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .._util import ceil_log2, to_binary
from ..errors import EncodingError
from .encoding import Instance


#: ``bytes.translate`` table over a Mersenne Twister word's top byte: the
#: byte's bit 6 (the word's bit 30) is the drawn bit.  Bytes with bit 7
#: set are deleted first (``_REJECTED``), so their entries are never read.
_TOP_BYTE_TO_BIT = b"0" * 0x40 + b"1" * 0x40 + bytes(0x80)
_REJECTED = bytes(range(0x80, 0x100))


def random_word(n: int, rng: random.Random) -> str:
    """A uniform word in {0,1}^n, drawn from ``rng`` in bulk.

    The result is the string ``"".join(rng.choice("01") for _ in
    range(n))`` would return, and ``rng`` is left in the same state
    (``tests/test_problems.py`` pins both).  ``choice("01")`` draws one
    32-bit Mersenne Twister word, keeps its top two bits and draws again
    when they read 2 or 3; ``getrandbits(32 * k)`` returns the next k
    words, the first one lowest.  So each round draws one word per bit
    still missing and reads the words' top bytes: a set top bit rejects
    the word, and otherwise bit 30 is the bit.  A round never accepts
    more bits than are missing, so the draws stop on the same word.
    """
    chunks = []
    missing = n
    while missing > 0:
        words = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        bits = words[3::4].translate(_TOP_BYTE_TO_BIT, _REJECTED)
        chunks.append(bits)
        missing -= len(bits)
    return b"".join(chunks).decode("ascii")


def random_words(m: int, n: int, rng: random.Random) -> List[str]:
    """``m`` uniform words in {0,1}^n, drawn from ``rng`` in one bulk draw.

    The result is the list ``[random_word(n, rng) for _ in range(m)]``
    would return, and ``rng`` is left in the same state: ``random_word``
    stops on the Mersenne Twister word that supplies its last bit, so m
    draws of n bits in a row are one draw of m·n bits, cut every n.
    """
    bits = random_word(m * n, rng)
    return [bits[i * n:(i + 1) * n] for i in range(m)]


def random_equal_instance(
    m: int, n: int, rng: random.Random, *, shuffle: bool = True
) -> Instance:
    """A yes-instance of (MULTI)SET-EQUALITY: second half a permutation of
    the first (identical multiset; ``shuffle=False`` keeps the order)."""
    first = random_words(m, n, rng)
    second = list(first)
    if shuffle:
        rng.shuffle(second)
    return Instance(tuple(first), tuple(second))


def random_unequal_instance(
    m: int, n: int, rng: random.Random, *, max_attempts: int = 64
) -> Instance:
    """A no-instance of MULTISET-EQUALITY: halves drawn independently,
    re-drawn until the multisets differ (certain to terminate for n·m ≥ 2)."""
    if m == 0:
        raise EncodingError("no unequal instance exists for m = 0")
    from collections import Counter

    for _ in range(max_attempts):
        first = random_words(m, n, rng)
        second = random_words(m, n, rng)
        if Counter(first) != Counter(second):
            return Instance(tuple(first), tuple(second))
    raise EncodingError(
        f"could not sample an unequal instance (m={m}, n={n}) — n too small?"
    )


def near_miss_instance(m: int, n: int, rng: random.Random) -> Instance:
    """A no-instance differing from a yes-instance in exactly one bit.

    The hardest kind of negative for hashing/fingerprinting schemes: the
    two halves agree except that one value has a single flipped bit.  The
    second half is a permutation of the first, and the flip replaces one
    copy of a value v by a value v' ≠ v, so the multisets always differ.
    """
    if m == 0 or n == 0:
        raise EncodingError("near-miss requires m >= 1 and n >= 1")
    # the draws of random_equal_instance, without building its Instance
    first = random_words(m, n, rng)
    second = list(first)
    rng.shuffle(second)
    j = rng.randrange(m)
    pos = rng.randrange(n)
    flipped = (
        second[j][:pos] + ("1" if second[j][pos] == "0" else "0") + second[j][pos + 1 :]
    )
    second[j] = flipped
    return Instance(tuple(first), tuple(second))


def random_checksort_instance(
    m: int, n: int, rng: random.Random, *, yes: bool
) -> Instance:
    """A CHECK-SORT instance: second half sorted (yes) or perturbed (no)."""
    first = random_words(m, n, rng)
    second = sorted(first)
    if not yes:
        if m < 2:
            raise EncodingError("a no-instance of CHECK-SORT needs m >= 2")
        # swap two distinct adjacent values, or corrupt a bit if all equal
        distinct_pairs = [
            i for i in range(m - 1) if second[i] != second[i + 1]
        ]
        if distinct_pairs:
            i = rng.choice(distinct_pairs)
            second[i], second[i + 1] = second[i + 1], second[i]
        else:
            return near_miss_instance(m, n, rng)
    return Instance(tuple(first), tuple(second))


@dataclass(frozen=True)
class IntervalFamily:
    """The partition of {0,1}^n into m consecutive equal intervals.

    Interval ``I_j`` (0-based j) is [j·2^n/m, (j+1)·2^n/m) as integers; the
    paper's 1-based I_1..I_m correspond to j = 0..m−1.  Requires m | 2^n.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise EncodingError("IntervalFamily requires m >= 1, n >= 1")
        if (2**self.n) % self.m != 0:
            raise EncodingError(
                f"m = {self.m} must divide 2^n = {2 ** self.n}"
            )

    @property
    def interval_size(self) -> int:
        return 2**self.n // self.m

    def interval_of(self, value: str) -> int:
        """0-based index j with value ∈ I_j."""
        if len(value) != self.n:
            raise EncodingError(
                f"value has length {len(value)}, family expects n = {self.n}"
            )
        return int(value, 2) // self.interval_size

    def sample(self, j: int, rng: random.Random) -> str:
        """A uniform element of I_j as an n-bit string."""
        if not 0 <= j < self.m:
            raise EncodingError(f"interval index {j} out of range [0, {self.m})")
        lo = j * self.interval_size
        return to_binary(rng.randrange(lo, lo + self.interval_size), self.n)

    def enumerate_interval(self, j: int) -> List[str]:
        """All elements of I_j (use only for tiny n)."""
        lo = j * self.interval_size
        return [to_binary(v, self.n) for v in range(lo, lo + self.interval_size)]


@dataclass(frozen=True)
class CheckPhiFamily:
    """The full Lemma 21/22 instance family for given m (power of 2) and n.

    Yes-instances are parameterized by a choice u_j ∈ I_j for each j:
    v_i = u_φ(i) and v'_j = u_j, which indeed satisfies v_i = v'_φ(i).
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        from ..lowerbounds.sortedness import phi_permutation

        # construct eagerly so invalid parameters fail at creation time
        phi_permutation(self.m)
        IntervalFamily(self.m, self.n)

    @property
    def phi(self) -> List[int]:
        """The 0-based reverse-binary permutation φ_m."""
        from ..lowerbounds.sortedness import phi_permutation

        return phi_permutation(self.m)

    @property
    def intervals(self) -> IntervalFamily:
        return IntervalFamily(self.m, self.n)

    def instance_from_choices(self, choices: Sequence[str]) -> Instance:
        """The yes-instance determined by u_j = choices[j] ∈ I_j."""
        if len(choices) != self.m:
            raise EncodingError(f"need exactly {self.m} choices")
        fam = self.intervals
        for j, u in enumerate(choices):
            if fam.interval_of(u) != j:
                raise EncodingError(
                    f"choice {u!r} lies in interval {fam.interval_of(u)}, "
                    f"expected {j}"
                )
        phi = self.phi
        first = tuple(choices[phi[i]] for i in range(self.m))
        second = tuple(choices)
        return Instance(first, second)

    def random_yes(self, rng: random.Random) -> Instance:
        """A uniform yes-instance of CHECK-φ."""
        fam = self.intervals
        return self.instance_from_choices(
            [fam.sample(j, rng) for j in range(self.m)]
        )

    def random_no(self, rng: random.Random) -> Instance:
        """A no-instance still inside the promise family I.

        Start from a yes-instance and re-draw one v'_j within its interval
        until it differs from the original — the minimal perturbation the
        lower-bound argument exploits.
        """
        if self.intervals.interval_size < 2:
            raise EncodingError(
                "intervals of size 1 admit no within-promise no-instance"
            )
        fam = self.intervals
        choices = [fam.sample(j, rng) for j in range(self.m)]
        inst = self.instance_from_choices(choices)
        j = rng.randrange(self.m)
        replacement = fam.sample(j, rng)
        while replacement == choices[j]:
            replacement = fam.sample(j, rng)
        second = list(inst.second)
        second[j] = replacement
        return Instance(inst.first, tuple(second))

    def in_promise(self, inst: Instance) -> bool:
        """Is the instance inside I_φ(1)×…×I_φ(m)×I_1×…×I_m?"""
        if inst.m != self.m:
            return False
        fam, phi = self.intervals, self.phi
        try:
            return all(
                fam.interval_of(inst.first[i]) == phi[i] for i in range(self.m)
            ) and all(
                fam.interval_of(inst.second[j]) == j for j in range(self.m)
            )
        except EncodingError:
            return False

    def is_yes(self, inst: Instance) -> bool:
        """Reference decision: (v_1..v_m) = (v'_φ(1)..v'_φ(m))."""
        phi = self.phi
        return all(inst.first[i] == inst.second[phi[i]] for i in range(self.m))
