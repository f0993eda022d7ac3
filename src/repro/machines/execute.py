"""Execution engines: deterministic runs, run enumeration, probabilities.

Three semantics, all per the paper:

* **deterministic** — follow the unique applicable transition;
* **nondeterministic** — enumerate all runs (Definition 23's runs);
* **randomized** — each step picks uniformly among |Next_T(γ)| successor
  configurations; Pr(run) is the product of the step probabilities and the
  acceptance probability is the sum over accepting runs.  Computed exactly
  (as a :class:`fractions.Fraction`) by memoized recursion over
  configurations — valid because every run of a bounded machine is finite,
  hence the configuration graph reachable from the start is a DAG (a cycle
  would yield an infinite run; we detect and reject that).

Also here: the **choice-sequence view** of Definition 17 — the alphabet
``C_T = {1, …, lcm(1..b)}`` and the run ``ρ_T(w, c)`` determined by a
choice sequence c, with Lemma 18's probability identity validated in tests.

This module is the **reference engine**: it materializes full
configuration histories and recomputes statistics from them, which keeps
it small and obviously faithful to the definitions.  The streaming
twin in :mod:`repro.machines.fast_engine` produces bit-identical results
(same :class:`Run.final`, :class:`RunStatistics` and exact ``Fraction``
probabilities — enforced by differential tests) in O(1) extra memory per
step; hot paths route through it, while this engine stays the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .._util import lcm_range
from ..errors import MachineError, StepBudgetExceeded
from .config import (
    Configuration,
    apply_transition,
    initial_configuration,
)
from .tm import L, N, R, Transition, TuringMachine

DEFAULT_STEP_LIMIT = 100_000


@dataclass(frozen=True)
class RunStatistics:
    """Per-run resource usage: rev(ρ, i) and space(ρ, i) per tape."""

    reversals_per_tape: Tuple[int, ...]
    space_per_tape: Tuple[int, ...]
    length: int

    def external_scans(self, external_tapes: int) -> int:
        """1 + Σ_{i ≤ t} rev(ρ, i): the paper's bounded quantity."""
        return 1 + sum(self.reversals_per_tape[:external_tapes])

    def internal_space(self, external_tapes: int) -> int:
        """Σ_{i > t} space(ρ, i)."""
        return sum(self.space_per_tape[external_tapes:])

    def is_bounded(self, machine: TuringMachine, r: int, s: int) -> bool:
        """Definition 1's conditions (2) and (3) for this run."""
        t = machine.external_tapes
        return self.external_scans(t) <= r and self.internal_space(t) <= s


@dataclass(frozen=True)
class Run:
    """A finite run: the configuration sequence plus statistics."""

    configurations: Tuple[Configuration, ...]
    statistics: RunStatistics

    @property
    def final(self) -> Configuration:
        return self.configurations[-1]

    def accepts(self, machine: TuringMachine) -> bool:
        return self.final.is_accepting(machine)


class _Engine:
    """Shared machinery: indexed successor lookup and statistics tracking."""

    def __init__(self, machine: TuringMachine):
        self.machine = machine
        self.index = machine.transition_index()

    def applicable(self, config: Configuration) -> List[Transition]:
        if config.is_final(self.machine):
            return []
        return self.index.get((config.state, config.read_tuple()), [])

    def statistics(self, configs: Sequence[Configuration]) -> RunStatistics:
        tapes = self.machine.tape_count
        reversals = [0] * tapes
        space = [1] * tapes  # the head's start cell counts as used
        directions = [0] * tapes  # 0 = no move yet
        for prev, curr in zip(configs, configs[1:]):
            for i in range(tapes):
                delta = curr.positions[i] - prev.positions[i]
                if delta == 0:
                    continue
                if directions[i] != 0 and delta != directions[i]:
                    reversals[i] += 1
                directions[i] = delta
        for cfg in configs:
            for i in range(tapes):
                used = max(cfg.positions[i] + 1, len(cfg.tapes[i]))
                if used > space[i]:
                    space[i] = used
        return RunStatistics(
            reversals_per_tape=tuple(reversals),
            space_per_tape=tuple(space),
            length=len(configs),
        )


def run_deterministic(
    machine: TuringMachine,
    word: str,
    *,
    step_limit: int = DEFAULT_STEP_LIMIT,
    probe=None,
) -> Run:
    """Execute a deterministic machine to its final configuration.

    ``probe`` (an :class:`~repro.observability.trace.EngineProbe`) gets the
    same run-span callbacks as the streaming engine, so differential
    tests can compare the two engines *under observation* too.
    """
    if not machine.is_deterministic:
        raise MachineError(f"{machine.name} is not deterministic")
    engine = _Engine(machine)
    configs = [initial_configuration(machine, word)]
    if probe is not None:
        probe.on_run_start(machine, word)
    while not configs[-1].is_final(machine):
        if len(configs) > step_limit:
            raise StepBudgetExceeded(step_limit)
        options = engine.applicable(configs[-1])
        if not options:
            raise MachineError(
                f"{machine.name} is stuck in state {configs[-1].state!r} "
                f"reading {configs[-1].read_tuple()}"
            )
        configs.append(apply_transition(configs[-1], options[0]))
    run = Run(tuple(configs), engine.statistics(configs))
    if probe is not None:
        probe.on_run_end(run.statistics)
    return run


def enumerate_runs(
    machine: TuringMachine,
    word: str,
    *,
    step_limit: int = DEFAULT_STEP_LIMIT,
    max_runs: int = 100_000,
) -> Iterator[Run]:
    """Yield every run of the machine on ``word`` (DFS over choices).

    The DFS stack holds ``(parent_node, configuration, depth)`` spine nodes
    rather than full path copies — pushing a branch is O(1) instead of the
    O(depth) list copy of the naive formulation; the path is reconstructed
    by walking the parent links only when a run is actually yielded.
    """
    engine = _Engine(machine)
    start = initial_configuration(machine, word)
    # node = (parent_node | None, configuration, depth); depth counts configs
    stack: List[Tuple[Optional[tuple], Configuration, int]] = [(None, start, 1)]
    produced = 0
    while stack:
        node = stack.pop()
        _, tip, depth = node
        if tip.is_final(machine):
            produced += 1
            if produced > max_runs:
                raise StepBudgetExceeded(max_runs)
            path: List[Configuration] = []
            walk: Optional[tuple] = node
            while walk is not None:
                path.append(walk[1])
                walk = walk[0]
            path.reverse()
            yield Run(tuple(path), engine.statistics(path))
            continue
        if depth > step_limit:
            raise StepBudgetExceeded(step_limit)
        options = engine.applicable(tip)
        if not options:
            raise MachineError(
                f"{machine.name} is stuck (every run must reach a final state)"
            )
        for tr in reversed(options):
            stack.append((node, apply_transition(tip, tr), depth + 1))


def acceptance_probability(
    machine: TuringMachine,
    word: str,
    *,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> Fraction:
    """Exact Pr(T accepts w) under the uniform-successor semantics.

    Memoized over configurations; a configuration reachable from itself
    would mean an infinite run, violating Definition 1(1) — detected via
    the recursion stack and reported as a MachineError.

    Reference implementation: recursion depth tracks run depth, so it can
    hit Python's recursion limit on runs deeper than
    ``sys.getrecursionlimit()``.  Use
    :func:`repro.machines.fast_engine.acceptance_probability` (the default
    export of :mod:`repro.machines`) for an iterative, explicit-stack DP
    with identical exact results.
    """
    engine = _Engine(machine)
    memo: Dict[Configuration, Fraction] = {}
    on_stack: set = set()

    def prob(config: Configuration, depth: int) -> Fraction:
        if config in memo:
            return memo[config]
        if config in on_stack:
            raise MachineError(
                f"{machine.name} has a configuration cycle (infinite run)"
            )
        if depth > step_limit:
            raise StepBudgetExceeded(step_limit)
        if config.is_final(machine):
            result = Fraction(1 if config.is_accepting(machine) else 0)
        else:
            options = engine.applicable(config)
            if not options:
                raise MachineError(
                    f"{machine.name} is stuck in state {config.state!r}"
                )
            on_stack.add(config)
            total = Fraction(0)
            for tr in options:
                total += prob(apply_transition(config, tr), depth + 1)
            on_stack.discard(config)
            result = total / len(options)
        memo[config] = result
        return result

    return prob(initial_configuration(machine, word), 0)


def choice_alphabet(machine: TuringMachine) -> Tuple[int, ...]:
    """C_T = {1, …, lcm(1..b)} with b the maximal branching (Definition 17)."""
    b = machine.max_branching()
    return tuple(range(1, lcm_range(max(1, b)) + 1))


def run_with_choices(
    machine: TuringMachine,
    word: str,
    choices: Sequence[int],
    *,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> Run:
    """ρ_T(w, c): the run determined by the choice sequence c (Definition 17).

    In step i the machine takes successor number ``c_i mod |Next_T(γ_i)|``.
    The sequence must be long enough to drive the run to a final state.
    """
    engine = _Engine(machine)
    configs = [initial_configuration(machine, word)]
    step = 0
    while not configs[-1].is_final(machine):
        if step >= len(choices):
            raise MachineError(
                f"choice sequence of length {len(choices)} exhausted after "
                f"{step} steps without reaching a final state"
            )
        if len(configs) > step_limit:
            raise StepBudgetExceeded(step_limit)
        options = engine.applicable(configs[-1])
        if not options:
            raise MachineError(f"{machine.name} is stuck")
        pick = choices[step] % len(options)
        configs.append(apply_transition(configs[-1], options[pick]))
        step += 1
    return Run(tuple(configs), engine.statistics(configs))


def lemma3_run_length_bound(
    input_size: int, r: int, s: int, t: int, constant: int = 2
) -> int:
    """Lemma 3: every run has length ≤ N · 2^{c·r·(t+s)}.

    ``constant`` is the O(·) constant; experiments fit the smallest c that
    covers the machines in the library.
    """
    return max(1, input_size) * 2 ** (constant * r * (t + s))
