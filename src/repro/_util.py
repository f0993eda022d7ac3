"""Small shared helpers: integer/bit utilities used across the package.

Everything here is deliberately dependency-free; these helpers implement the
handful of arithmetic idioms the paper uses over and over (binary lengths,
ceil-log, reverse-binary representations).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple


def normalize_seed(seed: object) -> str:
    """Canonical string form of a user-supplied seed.

    The single choke point for every seed that feeds a derived stream:
    the per-block rngs of
    :func:`repro.machines.randomized.estimate_acceptance_probability` and
    :func:`repro.algorithms.fingerprint.derive_lane_rng` both normalize
    through here, so the int ``7`` and the string ``"7"`` draw the same
    streams.
    """
    return str(seed)


def ceil_log2(x: int) -> int:
    """Return ``ceil(log2(x))`` for ``x >= 1`` (and 0 for ``x == 1``).

    The paper's resource bounds use ``log`` with the convention that
    ``log x`` means ``max(1, ceil(log2 x))`` whenever it feeds a size; we
    expose the raw ceiling here and clamp at call sites that need it.
    """
    if x < 1:
        raise ValueError(f"ceil_log2 requires x >= 1, got {x}")
    return (x - 1).bit_length()


def floor_log2(x: int) -> int:
    """Return ``floor(log2(x))`` for ``x >= 1``."""
    if x < 1:
        raise ValueError(f"floor_log2 requires x >= 1, got {x}")
    return x.bit_length() - 1


def is_power_of_two(x: int) -> bool:
    """Return True iff ``x`` is a positive power of two (1 counts)."""
    return x > 0 and (x & (x - 1)) == 0


def bits_needed(x: int) -> int:
    """Number of bits in the binary representation of ``x >= 0`` (≥ 1)."""
    if x < 0:
        raise ValueError(f"bits_needed requires x >= 0, got {x}")
    return max(1, x.bit_length())


def to_binary(value: int, width: int) -> str:
    """Binary representation of ``value`` padded with leading zeros to ``width``.

    Raises ``ValueError`` when the value does not fit.
    """
    if value < 0:
        raise ValueError(f"to_binary requires value >= 0, got {value}")
    text = format(value, "b")
    if len(text) > width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return text.zfill(width)


def from_binary(text: str) -> int:
    """Parse a binary string (possibly with leading zeros) into an int."""
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"not a binary string: {text!r}")
    return int(text, 2)


def reverse_binary(value: int, width: int) -> int:
    """Reverse the ``width``-bit binary representation of ``value``.

    This is the bit-reversal map used in Remark 20 of the paper to build the
    permutation φ with sortedness(φ) ≤ 2·√m − 1.
    """
    return from_binary(to_binary(value, width)[::-1])


def chunks(seq: Sequence, size: int) -> Iterator[Sequence]:
    """Yield consecutive slices of ``seq`` of length ``size`` (last may be short)."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    for start in range(0, len(seq), size):
        yield seq[start : start + size]


def pairwise_disjoint(sets: Iterable[frozenset]) -> bool:
    """Return True iff the given collections are pairwise disjoint."""
    seen: set = set()
    for group in sets:
        for item in group:
            if item in seen:
                return False
            seen.add(item)
    return True


def longest_monotone_subsequence_length(
    values: Sequence[int], *, decreasing: bool = False
) -> int:
    """Length of the longest strictly monotone subsequence (patience sorting).

    Runs in O(n log n). With ``decreasing=True`` the subsequence must be
    strictly decreasing.
    """
    import bisect

    if decreasing:
        values = [-v for v in values]
    tails: List[int] = []
    for v in values:
        idx = bisect.bisect_left(tails, v)
        if idx == len(tails):
            tails.append(v)
        else:
            tails[idx] = v
    return len(tails)


def longest_monotone_subsequence(
    values: Sequence[int], *, decreasing: bool = False
) -> List[int]:
    """An actual longest strictly monotone subsequence (not just its length)."""
    import bisect

    if not values:
        return []
    key = [-v for v in values] if decreasing else list(values)
    tails: List[int] = []  # smallest tail value of an inc. subsequence per length
    tails_idx: List[int] = []
    prev: List[int] = [-1] * len(key)
    for i, v in enumerate(key):
        idx = bisect.bisect_left(tails, v)
        if idx == len(tails):
            tails.append(v)
            tails_idx.append(i)
        else:
            tails[idx] = v
            tails_idx[idx] = i
        prev[i] = tails_idx[idx - 1] if idx > 0 else -1
    out: List[int] = []
    i = tails_idx[-1]
    while i != -1:
        out.append(values[i])
        i = prev[i]
    out.reverse()
    return out


def argsort(values: Sequence) -> List[int]:
    """Indices that would sort ``values`` (stable)."""
    return sorted(range(len(values)), key=values.__getitem__)


def inverse_permutation(perm: Sequence[int]) -> List[int]:
    """Inverse of a 0-based permutation given as a sequence of images."""
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        if not 0 <= p < len(perm):
            raise ValueError(f"not a permutation: image {p} out of range")
        inv[p] = i
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("not a permutation: images are not distinct")
    return inv


def compose_permutations(outer: Sequence[int], inner: Sequence[int]) -> List[int]:
    """Composition ``outer ∘ inner`` of 0-based permutations: i ↦ outer[inner[i]]."""
    if len(outer) != len(inner):
        raise ValueError("permutations must have equal length")
    return [outer[inner[i]] for i in range(len(inner))]


def product(values: Iterable[int], start: int = 1) -> int:
    """Integer product (math.prod exists in 3.8+, kept explicit for clarity)."""
    acc = start
    for v in values:
        acc *= v
    return acc


def lcm_range(n: int) -> int:
    """Least common multiple of 1..n (used for the choice alphabet C_T, Def. 17)."""
    from math import gcd

    if n < 1:
        raise ValueError(f"lcm_range requires n >= 1, got {n}")
    acc = 1
    for i in range(2, n + 1):
        acc = acc * i // gcd(acc, i)
    return acc


def run_length_encode(seq: Sequence) -> List[Tuple[object, int]]:
    """Run-length encode a sequence into (value, count) pairs."""
    out: List[Tuple[object, int]] = []
    for item in seq:
        if out and out[-1][0] == item:
            out[-1] = (item, out[-1][1] + 1)
        else:
            out.append((item, 1))
    return out
