"""Instance encoding: ``v1#…#vm#v'1#…#v'm#`` over the alphabet {0, 1, #}.

The encoder/decoder pair is exact: every instance string the paper's
grammar admits decodes, everything else raises
:class:`repro.errors.EncodingError`, and ``encode ∘ decode`` is the
identity on valid strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import EncodingError

ALPHABET = frozenset("01#")
SEPARATOR = "#"


def _check_values(values: Sequence[str]) -> None:
    """Raise :class:`EncodingError` unless every value is a 0-1 ``str``."""
    for v in values:
        if not isinstance(v, str) or v.strip("01"):
            raise EncodingError(f"value {v!r} is not a 0-1 string")


@dataclass(frozen=True)
class Instance:
    """A decoded instance: the two halves (v_1..v_m) and (v'_1..v'_m)."""

    first: Tuple[str, ...]
    second: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.first) != len(self.second):
            raise EncodingError(
                f"halves differ in length: {len(self.first)} vs {len(self.second)}"
            )
        _check_values(self.first)
        _check_values(self.second)

    @property
    def m(self) -> int:
        """Number of values per half."""
        return len(self.first)

    @property
    def size(self) -> int:
        """N = 2m + Σ(|v_i| + |v'_i|), the paper's input size."""
        return (
            2 * self.m
            + sum(len(v) for v in self.first)
            + sum(len(v) for v in self.second)
        )

    def encode(self) -> str:
        """Serialize back to the {0,1,#} string form."""
        return encode_instance(self.first, self.second)

    def swapped(self) -> "Instance":
        """The instance with the two halves exchanged (used by Theorem 13)."""
        return Instance(self.second, self.first)


def encode_instance(first: Sequence[str], second: Sequence[str]) -> str:
    """Encode two equal-length lists of 0-1 strings as ``v1#…#v'm#``."""
    if len(first) != len(second):
        raise EncodingError(
            f"halves differ in length: {len(first)} vs {len(second)}"
        )
    _check_values(first)
    _check_values(second)
    parts: List[str] = []
    for v in first:
        parts.append(v)
        parts.append(SEPARATOR)
    for v in second:
        parts.append(v)
        parts.append(SEPARATOR)
    return "".join(parts)


def decode_instance(text: str) -> Instance:
    """Parse an instance string; raises EncodingError on malformed input.

    The grammar requires an even number of #-terminated 0-1 strings; the
    empty string encodes the (m = 0) instance.
    """
    if any(ch not in ALPHABET for ch in text):
        bad = next(ch for ch in text if ch not in ALPHABET)
        raise EncodingError(f"illegal character {bad!r} in instance")
    if text and not text.endswith(SEPARATOR):
        raise EncodingError("instance must end with '#'")
    values = text.split(SEPARATOR)[:-1] if text else []
    if len(values) % 2 != 0:
        raise EncodingError(
            f"instance has {len(values)} values; expected an even number"
        )
    m = len(values) // 2
    return Instance(tuple(values[:m]), tuple(values[m:]))


def instance_size(text: str) -> int:
    """N = |text| for a valid instance string (validates as a side effect)."""
    return decode_instance(text).size
