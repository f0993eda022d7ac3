"""Streaming execution engine: O(1)-per-step simulation with incremental
statistics.

The reference engine in :mod:`repro.machines.execute` materializes a full
:class:`~repro.machines.config.Configuration` history per run and recovers
``rev(ρ, i)`` / ``space(ρ, i)`` by re-scanning it, copying every tape
string on every step.  That is the right shape for an oracle but it makes
each step O(tape length) and each run O(length²) — the dominant cost in
every experiment that drives the simulator.

This module is the production twin.  A mutable :class:`StepState` keeps
``list``-backed tape buffers and updates head position, the space
high-water mark and the reversal count **incrementally per step**, so

* :func:`run_deterministic` / :func:`run_with_choices` retain only the
  current state plus the running :class:`~repro.machines.execute.RunStatistics`
  (a caller that needs the full configuration history — the Lemma 16
  block trace, a renderer — runs the reference engine);
* :func:`acceptance_probability` runs the exact-``Fraction`` DP over the
  configuration DAG with an **explicit stack** (no ``RecursionError`` on
  runs deeper than ``sys.getrecursionlimit()``) and interns configurations
  so equal configurations reached along different branches share one
  object in the memo.

Differential tests (``tests/test_fast_engine.py``,
``tests/test_cross_engine.py``) assert bit-identical ``Run.final``,
``RunStatistics`` and acceptance probabilities against the reference
engine on the machine library and on randomly generated machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import MachineError, StepBudgetExceeded
from ..extmem.tape import BLANK
from .config import Configuration, apply_transition, initial_configuration
from .execute import DEFAULT_STEP_LIMIT, RunStatistics
from .tm import L, R, TuringMachine


@dataclass(frozen=True)
class FastRun:
    """A completed streaming run: final configuration plus statistics.

    The configuration history is *not* retained — that is the point; the
    reference engine's :class:`~repro.machines.execute.Run` keeps it.
    """

    final: Configuration
    statistics: RunStatistics

    def accepts(self, machine: TuringMachine) -> bool:
        return self.final.is_accepting(machine)


class StepState:
    """Mutable per-run state with incremental resource accounting.

    Tapes are ``list``-backed character buffers holding the *written
    prefix* (blanks beyond are implicit, mirroring
    :class:`~repro.machines.config.Configuration`); per tape we track head
    position, last move direction (0 = no move yet), reversal count and
    the space high-water mark ``max(position + 1, written length)`` — the
    exact quantities the reference engine's post-hoc ``statistics()`` scan
    recovers, which the streaming loop updates in place in O(1) per step.
    """

    __slots__ = (
        "state",
        "positions",
        "buffers",
        "directions",
        "reversals",
        "space",
        "steps",
        "tape_ids",
    )

    def __init__(self, machine: TuringMachine, word: str, tracker=None):
        start = initial_configuration(machine, word)  # validates the word
        tapes = machine.tape_count
        self.state = start.state
        self.positions: List[int] = [0] * tapes
        self.buffers: List[List[str]] = [list(t) for t in start.tapes]
        self.directions: List[int] = [0] * tapes
        self.reversals: List[int] = [0] * tapes
        self.space: List[int] = [
            max(1, len(buf)) for buf in self.buffers
        ]  # the head's start cell counts as used
        self.steps = 0
        self.tape_ids: Optional[List[int]] = None
        if tracker is not None:
            self.tape_ids = [
                tracker.register_tape(f"{machine.name}:tape{i + 1}")
                for i in range(machine.external_tapes)
            ]

    # -- queries -----------------------------------------------------------

    def read_tuple(self) -> Tuple[str, ...]:
        return tuple(
            buf[pos] if pos < len(buf) else BLANK
            for buf, pos in zip(self.buffers, self.positions)
        )

    def snapshot(self) -> Configuration:
        """The current state as an immutable Configuration (O(tape) copy)."""
        return Configuration(
            state=self.state,
            positions=tuple(self.positions),
            tapes=tuple("".join(buf) for buf in self.buffers),
        )

    def statistics(self) -> RunStatistics:
        return RunStatistics(
            reversals_per_tape=tuple(self.reversals),
            space_per_tape=tuple(self.space),
            length=self.steps + 1,
        )


def _step_guard_limit(choices: Optional[Sequence[int]], step_limit: int) -> int:
    """The step count at which the next step *must* fail a control check.

    Folding the choice-exhaustion and step-budget thresholds into one
    number lets the hot loops test a single ``steps >= limit`` per step;
    :func:`_raise_step_violation` then diagnoses the precise failure.
    """
    return step_limit if choices is None else min(step_limit, len(choices))


def _raise_step_violation(
    machine: TuringMachine,
    state: str,
    reads: Tuple[str, ...],
    choices: Optional[Sequence[int]],
    steps: int,
    step_limit: int,
    options,
) -> None:
    """Diagnose and raise the stuck/choice-exhausted/step-limit condition.

    The streaming loop's control-flow errors, in the reference engine's
    priority order: choice exhaustion, then the step budget, then
    stuckness.
    """
    if choices is not None and steps >= len(choices):
        raise MachineError(
            f"choice sequence of length {len(choices)} exhausted after "
            f"{steps} steps without reaching a final state"
        )
    if steps + 1 > step_limit:
        raise StepBudgetExceeded(step_limit)
    if not options:
        if choices is not None:
            raise MachineError(f"{machine.name} is stuck")
        raise MachineError(
            f"{machine.name} is stuck in state {state!r} reading {reads}"
        )
    raise AssertionError(
        "step guard invoked without a violated condition"
    )  # pragma: no cover


#: compiled step record: (new_state, changed-cell writes, moving tape, delta).
#: ``changes`` lists only the tapes whose write symbol differs from the read
#: symbol — writing the symbol already under the head is a no-op, the case
#: the reference engine's ``_write_at`` also short-circuits.  Normalization
#: guarantees at most one moving tape; ``mover`` is -1 when nobody moves.
_StepRec = Tuple[str, Tuple[Tuple[int, str], ...], int, int]


def _compiled_index(
    machine: TuringMachine,
) -> Dict[Tuple[str, Tuple[str, ...]], List[_StepRec]]:
    """Per-(state, read-tuple) step records, compiled once per machine.

    The per-step dispatch then touches only the cells a transition actually
    changes, instead of re-deriving writes/moves from the Transition tuple
    on every step.  Cached on the (immutable) machine instance.
    """
    cached = machine.__dict__.get("_compiled_steps")
    if cached is None:
        cached = {}
        for key, group in machine.transition_index().items():
            recs = []
            for tr in group:
                changes = tuple(
                    (i, sym)
                    for i, (rd, sym) in enumerate(zip(tr.read, tr.write))
                    if sym != rd
                )
                mover, delta = -1, 0
                for i, mv in enumerate(tr.moves):
                    if mv == R:
                        mover, delta = i, 1
                        break
                    if mv == L:
                        mover, delta = i, -1
                        break
                recs.append((tr.new_state, changes, mover, delta))
            cached[key] = recs
        object.__setattr__(machine, "_compiled_steps", cached)
    return cached


def _run_streaming(
    machine: TuringMachine,
    word: str,
    choices: Optional[Sequence[int]],
    step_limit: int,
    probe=None,
    tracker=None,
) -> FastRun:
    """The O(1)-per-step hot loop behind both run functions.

    Works directly on the :class:`StepState` buffers through local
    bindings; the read tuple is maintained incrementally — only cells a
    step writes or a head moves onto are touched.  ``probe`` (an
    :class:`~repro.observability.trace.EngineProbe`) sees the run start
    and end, never a step, so it costs the loop nothing.
    ``tracker`` (a :class:`~repro.extmem.tracker.ResourceTracker`)
    registers the external tapes and is charged per reversal, internal
    growth and step, in stream order.
    """
    compiled = _compiled_index(machine)
    st = StepState(machine, word, tracker)
    state = st.state
    positions, buffers = st.positions, st.buffers
    directions, reversals, space = st.directions, st.reversals, st.space
    tape_ids = st.tape_ids
    ext = machine.external_tapes
    reads = list(st.read_tuple())
    final_states = machine.final_states
    guard = _step_guard_limit(choices, step_limit)
    if probe is not None:
        probe.on_run_start(machine, word)
    steps = 0
    while state not in final_states:
        recs = compiled.get((state, tuple(reads)))
        if steps >= guard or not recs:
            _raise_step_violation(
                machine, state, tuple(reads), choices, steps, step_limit, recs
            )
        if choices is None:
            new_state, changes, mover, delta = recs[0]
        else:
            new_state, changes, mover, delta = recs[choices[steps] % len(recs)]
        for i, sym in changes:
            pos = positions[i]
            buf = buffers[i]
            if pos < len(buf):
                buf[pos] = sym
            else:
                # sym differs from the BLANK that was read, so it is
                # non-blank: the written prefix grows to cover the head
                while len(buf) < pos:
                    buf.append(BLANK)
                buf.append(sym)
                if pos + 1 > space[i]:
                    if tracker is not None and i >= ext:
                        tracker.charge_internal(pos + 1 - space[i])
                    space[i] = pos + 1
            reads[i] = sym
        if mover >= 0:
            pos = positions[mover] + delta
            if delta > 0:
                if directions[mover] == -1:
                    if tracker is not None and mover < ext:
                        tracker.charge_reversal(tape_ids[mover])
                    reversals[mover] += 1
                directions[mover] = 1
                if pos + 1 > space[mover]:
                    if tracker is not None and mover >= ext:
                        tracker.charge_internal(pos + 1 - space[mover])
                    space[mover] = pos + 1
            else:
                if pos < 0:
                    raise MachineError(
                        f"head {mover + 1} fell off the left end in state "
                        f"{state!r}"
                    )
                if directions[mover] == 1:
                    if tracker is not None and mover < ext:
                        tracker.charge_reversal(tape_ids[mover])
                    reversals[mover] += 1
                directions[mover] = -1
            positions[mover] = pos
            buf = buffers[mover]
            reads[mover] = buf[pos] if pos < len(buf) else BLANK
        state = new_state
        steps += 1
        if tracker is not None:
            tracker.charge_step()
    st.state = state
    st.steps = steps
    result = FastRun(st.snapshot(), st.statistics())
    if probe is not None:
        probe.on_run_end(result.statistics)
    return result


def run_deterministic(
    machine: TuringMachine,
    word: str,
    *,
    step_limit: int = DEFAULT_STEP_LIMIT,
    probe=None,
    tracker=None,
) -> FastRun:
    """Execute a deterministic machine in streaming mode.

    Returns a :class:`FastRun` (final configuration + statistics only).
    ``probe`` (an :class:`~repro.observability.trace.EngineProbe`,
    default ``None``) observes the run as one span; ``tracker`` (a
    :class:`~repro.extmem.tracker.ResourceTracker`) registers the
    external tapes and enforces any attached budget live.
    """
    if not machine.is_deterministic:
        raise MachineError(f"{machine.name} is not deterministic")
    return _run_streaming(machine, word, None, step_limit, probe, tracker)


def run_with_choices(
    machine: TuringMachine,
    word: str,
    choices: Sequence[int],
    *,
    step_limit: int = DEFAULT_STEP_LIMIT,
    probe=None,
    tracker=None,
) -> FastRun:
    """ρ_T(w, c) in streaming mode (Definition 17 semantics).

    Step ``i`` takes successor number ``c_i mod |Next_T(γ_i)|``; the
    sequence must drive the run to a final state.
    """
    return _run_streaming(machine, word, choices, step_limit, probe, tracker)


def acceptance_probability(
    machine: TuringMachine,
    word: str,
    *,
    step_limit: int = DEFAULT_STEP_LIMIT,
    probe=None,
) -> Fraction:
    """Exact Pr(T accepts w): iterative DP over the configuration DAG.

    Same memoized computation as the reference engine — identical
    ``Fraction`` results, identical cycle/stuck/step-budget errors — but
    with an explicit frame stack, so runs deeper than
    ``sys.getrecursionlimit()`` are fine.  Configurations are interned:
    equal configurations reached along different branches collapse to one
    object, shrinking the memo's working set.

    With a ``probe`` attached, every frame the DP opens becomes a span
    (``branch:<state>``, carrying its depth) nested along the exploration
    path, and the final configuration-DAG size — interned and memoized
    configurations, memo hits, frames opened — is added to the probe's
    ``dag_stats``, which ``repro trace`` prints for a randomized machine.
    """
    index = machine.transition_index()
    final_states = machine.final_states
    accepting_states = machine.accepting_states
    intern: Dict[Configuration, Configuration] = {}
    memo: Dict[Configuration, Fraction] = {}
    on_stack: Set[Configuration] = set()
    memo_hits = 0
    frames_opened = 0

    def resolve(config: Configuration, depth: int) -> Optional[Fraction]:
        """Return Pr(config) if it is immediate; otherwise open a frame."""
        nonlocal memo_hits, frames_opened
        if config in memo:
            memo_hits += 1
            return memo[config]
        if config in on_stack:
            raise MachineError(
                f"{machine.name} has a configuration cycle (infinite run)"
            )
        if depth > step_limit:
            raise StepBudgetExceeded(step_limit)
        if config.state in final_states:
            result = Fraction(1 if config.state in accepting_states else 0)
            memo[config] = result
            return result
        options = index.get((config.state, config.read_tuple()), [])
        if not options:
            raise MachineError(
                f"{machine.name} is stuck in state {config.state!r}"
            )
        on_stack.add(config)
        span = (
            probe.on_branch_enter(depth, len(options), config.state)
            if probe is not None
            else None
        )
        # frame: [config, options, next_child, partial_sum, depth, span]
        stack.append([config, options, 0, Fraction(0), depth, span])
        frames_opened += 1
        return None

    def report_dag() -> None:
        if probe is not None:
            probe.on_dag_stats(
                interned=len(intern),
                memoized=len(memo),
                memo_hits=memo_hits,
                frames=frames_opened,
            )

    start = initial_configuration(machine, word)
    root = intern.setdefault(start, start)
    stack: List[list] = []
    immediate = resolve(root, 0)
    if immediate is not None:
        report_dag()
        return immediate
    result = Fraction(0)
    while stack:
        frame = stack[-1]
        config, options, child, total, depth, span = frame
        if child < len(options):
            frame[2] = child + 1
            succ = apply_transition(config, options[child])
            succ = intern.setdefault(succ, succ)
            value = resolve(succ, depth + 1)
            if value is not None:
                frame[3] = total + value
            continue
        stack.pop()
        on_stack.discard(config)
        result = total / len(options)
        memo[config] = result
        if span is not None:
            probe.on_branch_exit(span, probability=str(result))
        if stack:
            stack[-1][3] += result
    report_dag()
    return result
