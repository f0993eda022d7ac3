"""The block-trace view of the simulation lemma (Lemma 16).

The proof of Lemma 16 turns a Turing machine run into a list machine run by
cutting each external tape into *blocks*: a list-machine step corresponds
to the maximal stretch of TM steps during which no external head turns or
leaves its current block.  On such an event, the event tape's block
structure is updated and every other tape's block is *split behind its
head* — that is where the "(t+1)-fold growth per reversal" of Lemma 30(a)
comes from.

:func:`block_trace` replays a deterministic TM run and produces the induced
trace: the list of events, the evolving block partitions, and summary
counts.  The checks performed by tests/experiments:

* acceptance is trivially preserved (same run);
* the number of events between reversals matches the list-length budget of
  Lemma 30(a): total blocks ≤ (t+1)^i · m after the i-th reversal;
* blocks always partition the used tape region (no gaps/overlaps);
* the number of list-machine steps ≤ the Lemma 31(a) run-length bound with
  the Lemma 16 state-count estimate.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import MachineError
from ..machines.execute import Run, run_deterministic
from ..machines.tm import TuringMachine


@dataclass(frozen=True)
class BlockEvent:
    """One list-machine step boundary in the TM run."""

    tm_step: int  # index into the TM run's configuration sequence
    tape: int  # 0-based external tape that triggered the event
    kind: str  # "cross" (left its block) or "turn" (direction change)
    state: str  # TM state at the event


@dataclass
class BlockPartition:
    """Block boundaries of one tape: sorted cut positions.

    Cells 0..∞; a cut at position c separates cell c−1 from cell c.  The
    block of position p is [prev_cut, next_cut).
    """

    cuts: List[int] = field(default_factory=list)

    def block_of(self, position: int) -> Tuple[int, Optional[int]]:
        """(lo, hi) with lo ≤ position < hi (hi None = unbounded)."""
        idx = bisect_right(self.cuts, position)
        lo = self.cuts[idx - 1] if idx > 0 else 0
        hi = self.cuts[idx] if idx < len(self.cuts) else None
        return lo, hi

    def split_at(self, position: int) -> None:
        """Introduce a cut at ``position`` (no-op if present or at 0)."""
        if position <= 0:
            return
        idx = bisect_right(self.cuts, position - 1)
        if idx < len(self.cuts) and self.cuts[idx] == position:
            return
        insort(self.cuts, position)

    @property
    def block_count(self) -> int:
        return len(self.cuts) + 1


@dataclass(frozen=True)
class BlockTrace:
    """The induced list-machine trace of a deterministic TM run."""

    run: Run
    events: Tuple[BlockEvent, ...]
    final_partitions: Tuple[Tuple[int, ...], ...]  # cuts per external tape
    blocks_after_reversal: Tuple[int, ...]  # total blocks after i-th reversal
    #: chronological block snapshots (tape, lo, hi, content) taken whenever
    #: a head *departs* a block — the executable version of the cell
    #: contents the Lemma 16 machine writes so blocks can be reconstructed
    snapshot_events: Tuple[Tuple[int, int, int, str], ...] = ()

    @property
    def list_machine_steps(self) -> int:
        """Each event boundary is one step of the simulating NLM."""
        return len(self.events) + 1

    def total_blocks(self) -> int:
        return sum(len(cuts) + 1 for cuts in self.final_partitions)


def _input_blocks(machine: TuringMachine, word: str) -> List[int]:
    """Initial cuts of tape 1: one block per '#'-terminated input segment.

    Mirrors the proof: the input v_1#…v_m# is split into m blocks.  For
    inputs without '#', the whole tape is one block.
    """
    cuts = []
    for i, ch in enumerate(word):
        if ch == "#" and i + 1 < len(word):
            cuts.append(i + 1)
    return cuts


def block_trace(
    machine: TuringMachine,
    word: str,
    *,
    step_limit: int = 100_000,
) -> BlockTrace:
    """Replay a deterministic run and extract the induced block trace."""
    # the block analysis needs the full configuration history, which the
    # reference engine keeps
    run = run_deterministic(machine, word, step_limit=step_limit)
    t = machine.external_tapes
    partitions = [BlockPartition() for _ in range(t)]
    for cut in _input_blocks(machine, word):
        partitions[0].split_at(cut)

    directions = [+1] * t
    events: List[BlockEvent] = []
    reversal_count = 0
    blocks_after: List[int] = [sum(p.block_count for p in partitions)]
    snapshot_events: List[Tuple[int, int, int, str]] = []

    configs = run.configurations
    for step in range(1, len(configs)):
        prev, curr = configs[step - 1], configs[step]
        event_tape: Optional[int] = None
        kind = ""
        departed: Optional[Tuple[int, Optional[int]]] = None
        for i in range(t):
            delta = curr.positions[i] - prev.positions[i]
            if delta == 0:
                continue
            if delta != directions[i]:
                event_tape, kind = i, "turn"
                reversal_count += 1
                directions[i] = delta
                break
            lo, hi = partitions[i].block_of(prev.positions[i])
            new_pos = curr.positions[i]
            if new_pos < lo or (hi is not None and new_pos >= hi):
                event_tape, kind = i, "cross"
                departed = (lo, hi)
                break
        if event_tape is None:
            continue
        def snap(tape_idx: int, lo: int, hi: Optional[int]) -> None:
            """Persist a region's content — the y-write of the construction."""
            if hi is not None and hi <= lo:
                return
            content = curr.tapes[tape_idx]
            hi_eff = len(content) if hi is None else hi
            if hi_eff > lo:
                snapshot_events.append(
                    (tape_idx, lo, hi_eff, content[lo:hi_eff])
                )

        if kind == "cross" and departed is not None:
            # the head leaves a block: record its content, exactly the
            # information the simulating NLM's freshly written cell holds
            lo, hi = departed
            snap(event_tape, lo, hi)
        events.append(
            BlockEvent(tm_step=step, tape=event_tape, kind=kind, state=curr.state)
        )
        # Update block structure per the Lemma 16 construction.  Every
        # split also persists the part that no longer holds the head — in
        # the paper that information rides in the y-string written on
        # every list at every event.
        if kind == "turn":
            # the turning tape's block splits at the turning point
            pivot = prev.positions[event_tape]
            cut = pivot + 1 if directions[event_tape] == -1 else pivot
            old_block = partitions[event_tape].block_of(pivot)
            new_block = partitions[event_tape].block_of(
                curr.positions[event_tape]
            )
            if old_block != new_block:
                # the turning step also crossed a block boundary ("treated
                # similarly", as the proof says): persist the departed block
                snap(event_tape, old_block[0], old_block[1])
            else:
                lo, hi = new_block
                if directions[event_tape] == -1:
                    snap(event_tape, cut, hi)  # region ahead of the old walk
                else:
                    snap(event_tape, lo, cut)
            partitions[event_tape].split_at(cut)
            blocks_after.append(sum(p.block_count for p in partitions))
        # every *other* tape's block splits behind its head
        for j in range(t):
            if j == event_tape:
                continue
            pos = curr.positions[j]
            lo, hi = partitions[j].block_of(pos)
            if directions[j] == +1:
                partitions[j].split_at(pos)  # cut just before the head
                snap(j, lo, min(pos, hi) if hi is not None else pos)
            else:
                partitions[j].split_at(pos + 1)  # cut just behind (right of) it
                snap(j, pos + 1, hi)

    return BlockTrace(
        run=run,
        events=tuple(events),
        final_partitions=tuple(tuple(p.cuts) for p in partitions),
        blocks_after_reversal=tuple(blocks_after),
        snapshot_events=tuple(snapshot_events),
    )


def verify_block_reconstruction(
    trace: BlockTrace, machine: TuringMachine, word: str
) -> bool:
    """The reconstructibility invariant of Lemma 16, checked end to end.

    The simulating list machine never stores whole tapes; it reconstructs
    a block from the cell written when the head last left it.  Executable
    form: initial content, overlaid with the departure snapshots in
    chronological order, overlaid with the block currently under each
    head, must reproduce the final tape contents exactly.
    """
    from ..extmem.tape import BLANK

    t = machine.external_tapes
    final = trace.run.final
    for i in range(t):
        actual = final.tapes[i]
        rebuilt = list((word if i == 0 else "").ljust(len(actual), BLANK))
        if len(rebuilt) < len(actual):  # pragma: no cover - ljust covers it
            rebuilt.extend(BLANK * (len(actual) - len(rebuilt)))
        for tape_idx, lo, hi, content in trace.snapshot_events:
            if tape_idx != i:
                continue
            hi = min(hi, len(actual))
            for pos in range(lo, hi):
                offset = pos - lo
                if offset < len(content):
                    rebuilt[pos] = content[offset]
        # the block currently under the head is live, not reconstructed
        cuts = list(trace.final_partitions[i])
        partition = BlockPartition(cuts)
        lo, hi = partition.block_of(final.positions[i])
        hi_eff = len(actual) if hi is None else min(hi, len(actual))
        for pos in range(lo, hi_eff):
            rebuilt[pos] = actual[pos]
        if "".join(rebuilt)[: len(actual)] != actual:
            return False
    return True


def blocks_respect_lemma30(
    trace: BlockTrace, machine: TuringMachine, input_segments: "int | None" = None
) -> bool:
    """Check total blocks after the i-th reversal ≤ (t+1)^i · (initial blocks).

    This is the list-length bound of Lemma 30(a) transported to the block
    view: the base is the initial block count (the input's m segments plus
    one block per auxiliary tape); each reversal may multiply it by at most
    (t+1).  ``input_segments`` optionally overrides the base's tape-1 part.
    """
    t = machine.external_tapes
    if input_segments is not None:
        base = max(1, input_segments) + (t - 1)
    else:
        base = trace.blocks_after_reversal[0]
    base = max(base, trace.blocks_after_reversal[0])
    for i, blocks in enumerate(trace.blocks_after_reversal):
        if blocks > (t + 1) ** i * base:
            return False
    return True
