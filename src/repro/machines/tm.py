"""Turing machine definition (Definition 23 of the paper).

A machine is a tuple ``(Q, Σ, Δ, q0, F, F_acc)`` with t + u one-sided
infinite tapes; the transition relation is

    Δ ⊆ (Q \\ F) × Σ^{t+u} × Q × Σ^{t+u} × {L, N, R}^{t+u}.

Machines are *normalized*: in each step at most one head moves (the paper
assumes this w.l.o.g.; the constructor enforces it so rev-counting is
unambiguous).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Tuple

from ..errors import MachineError
from ..extmem.tape import BLANK

# Head movements.
L, N, R = "L", "N", "R"
_MOVES = frozenset({L, N, R})


@dataclass(frozen=True)
class Transition:
    """One transition: (state, read-symbols) → (state, write-symbols, moves)."""

    state: str
    read: Tuple[str, ...]
    new_state: str
    write: Tuple[str, ...]
    moves: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not (len(self.read) == len(self.write) == len(self.moves)):
            raise MachineError(
                "read/write/moves must all have one entry per tape"
            )
        for mv in self.moves:
            if mv not in _MOVES:
                raise MachineError(f"illegal move {mv!r}; use L, N or R")


@dataclass(frozen=True)
class TuringMachine:
    """An NTM with ``external_tapes`` external and ``internal_tapes`` internal tapes.

    Tape 1 (index 0) is the input tape.  ``final_states`` must be sinks
    (no outgoing transitions — enforced); ``accepting_states`` ⊆ final.
    """

    name: str
    states: FrozenSet[str]
    alphabet: FrozenSet[str]
    transitions: Tuple[Transition, ...]
    initial_state: str
    final_states: FrozenSet[str]
    accepting_states: FrozenSet[str]
    external_tapes: int
    internal_tapes: int

    def __post_init__(self) -> None:
        if self.external_tapes < 1:
            raise MachineError("need at least the input tape")
        if self.internal_tapes < 0:
            raise MachineError("internal tape count cannot be negative")
        if self.initial_state not in self.states:
            raise MachineError(f"unknown initial state {self.initial_state!r}")
        if not self.final_states <= self.states:
            raise MachineError("final states must be states")
        if not self.accepting_states <= self.final_states:
            raise MachineError("accepting states must be final states")
        if BLANK not in self.alphabet:
            raise MachineError(f"alphabet must contain the blank {BLANK!r}")
        tapes = self.tape_count
        for tr in self.transitions:
            if tr.state in self.final_states:
                raise MachineError(
                    f"final state {tr.state!r} has an outgoing transition"
                )
            if tr.state not in self.states or tr.new_state not in self.states:
                raise MachineError(f"transition uses unknown state: {tr}")
            if len(tr.read) != tapes:
                raise MachineError(
                    f"transition arity {len(tr.read)} != tape count {tapes}"
                )
            for sym in tr.read + tr.write:
                if sym not in self.alphabet:
                    raise MachineError(f"transition uses unknown symbol {sym!r}")
            if sum(1 for mv in tr.moves if mv != N) > 1:
                raise MachineError(
                    "machine not normalized: more than one head moves in a step"
                )

    @property
    def tape_count(self) -> int:
        return self.external_tapes + self.internal_tapes

    @property
    def is_deterministic(self) -> bool:
        """At most one transition per (state, read-tuple)."""
        seen = set()
        for tr in self.transitions:
            key = (tr.state, tr.read)
            if key in seen:
                return False
            seen.add(key)
        return True

    def transition_index(self) -> Dict[Tuple[str, Tuple[str, ...]], List[Transition]]:
        """Transitions grouped by (state, read-tuple), in declaration order.

        Computed once and cached on the instance: both engines look the
        group up on every single step, and the machine is immutable, so
        rebuilding the dict per step was pure waste.  Callers must not
        mutate the returned dict or its lists.
        """
        cached = self.__dict__.get("_transition_index")
        if cached is None:
            cached = {}
            for tr in self.transitions:
                cached.setdefault((tr.state, tr.read), []).append(tr)
            object.__setattr__(self, "_transition_index", cached)
        return cached

    def max_branching(self) -> int:
        """b = max |Next_T(γ)| over reachable situations (upper-bounded by
        the largest transition group) — the b of Definition 17."""
        groups = self.transition_index()
        return max((len(g) for g in groups.values()), default=1)
