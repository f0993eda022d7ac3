"""List machine definition (Definition 14) and its token alphabet.

Cell contents are strings over A = I ∪ C ∪ A ∪ {⟨, ⟩}; we model them as
tuples of **tokens**:

* :class:`Inp` — an input number; equality/hash use only the *value* (so a
  machine's behaviour cannot depend on where a value came from), but each
  token carries the input *position* it originated from, which is what the
  index strings of Definition 28 read off;
* :class:`Choice` — a nondeterministic choice c ∈ C;
* :class:`StateTok` — a state symbol a ∈ A;
* :data:`LA` / :data:`RA` — the angle brackets ⟨ and ⟩.

The transition function α maps (state, cell-contents-under-heads, choice)
to (new state, movements); a movement is (head_direction ∈ {−1, +1},
move ∈ {True, False}) exactly as in Definition 14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Sequence, Tuple

from ..errors import MachineError


class _Bracket:
    """Angle-bracket singletons ⟨ and ⟩; equality is identity."""

    __slots__ = ("_label",)

    def __init__(self, label: str):
        self._label = label

    def __repr__(self) -> str:
        return self._label


LA = _Bracket("⟨")
RA = _Bracket("⟩")


class Inp:
    """An input-number token.  Equality and hash ignore the position."""

    __slots__ = ("value", "position")

    def __init__(self, value, position: int = -1):
        self.value = value
        self.position = position

    def __eq__(self, other) -> bool:
        return isinstance(other, Inp) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Inp", self.value))

    def __repr__(self) -> str:
        return f"Inp({self.value!r}@{self.position})"


class Choice:
    """A nondeterministic-choice token."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other) -> bool:
        return isinstance(other, Choice) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Choice", self.value))

    def __repr__(self) -> str:
        return f"Choice({self.value!r})"


class StateTok:
    """A state token inside a cell string."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other) -> bool:
        return isinstance(other, StateTok) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("StateTok", self.value))

    def __repr__(self) -> str:
        return f"St({self.value!r})"


Token = object  # any of Inp / Choice / StateTok / _Bracket
Cell = Tuple[Token, ...]
#: A movement: (head_direction, move) per Definition 14.
Movement = Tuple[int, bool]

#: Signature of the transition function α.
TransitionFn = Callable[
    [str, Tuple[Cell, ...], object], Tuple[str, Tuple[Movement, ...]]
]


@dataclass(frozen=True)
class NLM:
    """A nondeterministic list machine (t, m, I, C, A, a0, α, B, B_acc).

    ``alpha`` is a Python callable standing in for the finite transition
    table; it must be a pure function of its arguments.  ``states`` is the
    declared finite state set A (its size k enters every bound).
    """

    t: int
    m: int
    input_alphabet: FrozenSet[object]  # I
    choices: Tuple[object, ...]  # C (ordered for reproducibility)
    states: FrozenSet[str]  # A
    initial_state: str  # a0
    alpha: TransitionFn
    final_states: FrozenSet[str]  # B
    accepting_states: FrozenSet[str]  # B_acc

    def __post_init__(self) -> None:
        if self.t < 1:
            raise MachineError("an NLM needs at least one list")
        if self.m < 0:
            raise MachineError("input length m cannot be negative")
        if not self.choices:
            raise MachineError("the choice set C must be nonempty")
        if len(set(self.choices)) != len(self.choices):
            raise MachineError("choices must be distinct")
        if self.initial_state not in self.states:
            raise MachineError("initial state not in A")
        if not self.final_states <= self.states:
            raise MachineError("B must be a subset of A")
        if not self.accepting_states <= self.final_states:
            raise MachineError("B_acc must be a subset of B")

    @property
    def k(self) -> int:
        """|A|, the state count entering Lemmas 21/31/32."""
        return len(self.states)

    @property
    def is_deterministic(self) -> bool:
        """Definition: an NLM is deterministic iff |C| = 1."""
        return len(self.choices) == 1

    @classmethod
    def from_table(
        cls,
        *,
        t: int,
        m: int,
        input_alphabet,
        choices,
        initial_state: str,
        table,
        final_states,
        accepting_states,
        states=None,
    ) -> "NLM":
        """Build an NLM from an explicit finite transition table.

        ``table`` maps (state, head-cells-tuple, choice) → (new_state,
        movements) — literally the function α of Definition 14, finite and
        inspectable.  Missing entries surface as MachineError at run time
        (a table machine that encounters an unlisted situation is simply
        not total, which Definition 1 forbids).  ``states`` defaults to
        everything mentioned in the table plus the final states.
        """
        table = dict(table)
        if states is None:
            inferred = {initial_state} | set(final_states)
            for (state, _cells, _c), (new_state, _mv) in table.items():
                inferred.add(state)
                inferred.add(new_state)
            states = frozenset(inferred)

        def alpha(state, cells, c):
            key = (state, tuple(cells), c)
            if key not in table:
                raise MachineError(
                    f"transition table has no entry for state {state!r} "
                    f"reading {cells!r} with choice {c!r}"
                )
            return table[key]

        return cls(
            t=t,
            m=m,
            input_alphabet=frozenset(input_alphabet),
            choices=tuple(choices),
            states=frozenset(states),
            initial_state=initial_state,
            alpha=alpha,
            final_states=frozenset(final_states),
            accepting_states=frozenset(accepting_states),
        )

    def validate_transition(
        self, state: str, result: Tuple[str, Tuple[Movement, ...]]
    ) -> Tuple[str, Tuple[Movement, ...]]:
        """Check the value α returned is well-formed (used by the stepper)."""
        new_state, movements = result
        if new_state not in self.states:
            raise MachineError(f"α returned unknown state {new_state!r}")
        if len(movements) != self.t:
            raise MachineError(
                f"α returned {len(movements)} movements for {self.t} lists"
            )
        for hd, mv in movements:
            if hd not in (-1, +1) or not isinstance(mv, bool):
                raise MachineError(f"illegal movement ({hd!r}, {mv!r})")
        if state in self.final_states:
            raise MachineError("α must not be called in a final state")
        return result
