"""An executable Lemma 16 machine: a deterministic TM run *as* a list machine.

:func:`repro.listmachine.simulate_tm.block_trace` derives the event
structure of the simulation; this module goes further and maintains the
**lists themselves**: cells correspond to tape blocks, heads move and
cells split/merge exactly as the construction in Appendix C prescribes:

* one list-machine step per maximal TM stretch with no external head turn
  or block crossing;
* on a *crossing*, the departed block's cell is overwritten with the
  information that reconstructs it (we persist the reconstructed content
  itself — a function of the paper's y-string, see note below) and the
  list head moves to the adjacent cell;
* on a *turn*, the current cell splits at the head and the direction
  flips;
* on every event, each *other* list's current cell splits behind its
  head — this is where the (t+1)-per-reversal growth of Lemma 30 comes
  from.

Representation note: the paper's machine stores the string
``y = a⟨x₁⟩…⟨x_t⟩⟨c⟩`` and proves the block content reconstructible from
it by replaying T (the ``tape_config`` functions).  Executing that replay
lazily every time a cell is revisited is equivalent to memoizing its
result once at write time; we persist the memoized form (the content),
which is a deterministic function of y.  The machine's *state* stays
small, as Lemma 16 requires: TM state, internal tapes, head positions,
and current block boundaries.

The checkable claims: acceptance equals the TM's; the list-step count and
the per-list reversal counts match :func:`block_trace`; cells partition
each tape; every cell's stored content agrees with the actual TM tape at
all times (for non-current cells); Lemma 30's list-length budget holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import MachineError
from ..extmem.tape import BLANK
from ..machines.config import (
    Configuration,
    apply_transition,
)
from ..machines.execute import _Engine, DEFAULT_STEP_LIMIT
from ..machines.tm import TuringMachine


@dataclass
class BlockCell:
    """One list cell: a tape block [lo, hi) and its persisted content.

    ``hi=None`` means unbounded (the rightmost block).  ``content`` is
    meaningful only while the cell is *not* under the head (the live block
    lives on the TM tape); it is refreshed whenever the head departs.
    """

    lo: int
    hi: Optional[int]
    content: str

    def covers(self, position: int) -> bool:
        return self.lo <= position and (self.hi is None or position < self.hi)


@dataclass(frozen=True)
class SimulationStep:
    """One list-machine step: the event that ended it plus head data."""

    kind: str  # "cross" | "turn" | "halt"
    tape: Optional[int]
    tm_steps: int
    state_after: str


@dataclass
class SimulationResult:
    accepted: bool
    steps: Tuple[SimulationStep, ...]
    final_lists: Tuple[Tuple[BlockCell, ...], ...]
    reversals_per_list: Tuple[int, ...]
    tm_run_length: int

    @property
    def list_machine_steps(self) -> int:
        return len(self.steps)

    def max_total_list_length(self) -> int:
        return sum(len(lst) for lst in self.final_lists)


class SimulatingListMachine:
    """Executes a deterministic TM while maintaining Lemma 16's lists."""

    def __init__(self, machine: TuringMachine, *, step_limit: int = DEFAULT_STEP_LIMIT):
        if not machine.is_deterministic:
            raise MachineError("the executable simulation covers deterministic TMs")
        self.machine = machine
        self.engine = _Engine(machine)
        self.step_limit = step_limit

    # -- helpers -------------------------------------------------------------

    def _initial_lists(self, word: str) -> List[List[BlockCell]]:
        t = self.machine.external_tapes
        lists: List[List[BlockCell]] = []
        # tape 1: one block per '#'-terminated input segment (as in the
        # proof); the final block is unbounded
        cuts = [
            i + 1 for i, ch in enumerate(word) if ch == "#" and i + 1 < len(word)
        ]
        cells: List[BlockCell] = []
        lo = 0
        for cut in cuts:
            cells.append(BlockCell(lo, cut, word[lo:cut]))
            lo = cut
        cells.append(BlockCell(lo, None, word[lo:]))
        lists.append(cells)
        for _ in range(t - 1):
            lists.append([BlockCell(0, None, "")])
        return lists

    @staticmethod
    def _cell_index(cells: List[BlockCell], position: int) -> int:
        for idx, cell in enumerate(cells):
            if cell.covers(position):
                return idx
        raise MachineError(f"no cell covers position {position}")

    @staticmethod
    def _region(config: Configuration, tape: int, lo: int, hi: Optional[int]) -> str:
        content = config.tapes[tape]
        hi_eff = len(content) if hi is None else min(hi, len(content))
        return content[lo:hi_eff]

    # -- the simulation ---------------------------------------------------------

    def run(self, word: str) -> SimulationResult:
        machine = self.machine
        t = machine.external_tapes
        lists = self._initial_lists(word)
        head_cell = [0] * t  # index of the cell under each list head
        directions = [+1] * t
        reversals = [0] * t
        steps: List[SimulationStep] = []

        config = Configuration(
            state=machine.initial_state,
            positions=(0,) * machine.tape_count,
            tapes=(word,) + ("",) * (machine.tape_count - 1),
        )
        tm_steps_total = 0

        while not config.is_final(machine):
            # one list-machine step: advance the TM until an event
            stretch = 0
            event_kind, event_tape = "halt", None
            while True:
                if config.is_final(machine):
                    break
                options = self.engine.applicable(config)
                if not options:
                    raise MachineError(
                        f"{machine.name} is stuck in state {config.state!r}"
                    )
                nxt = apply_transition(config, options[0])
                tm_steps_total += 1
                if tm_steps_total > self.step_limit:
                    raise MachineError("simulation exceeded the step limit")
                # detect an event caused by this TM step
                ev = None
                for i in range(t):
                    delta = nxt.positions[i] - config.positions[i]
                    if delta == 0:
                        continue
                    if delta != directions[i]:
                        ev = ("turn", i)
                        break
                    cell = lists[i][head_cell[i]]
                    if not cell.covers(nxt.positions[i]):
                        ev = ("cross", i)
                        break
                config = nxt
                stretch += 1
                if ev is not None:
                    event_kind, event_tape = ev
                    break

            if event_kind == "halt":
                steps.append(
                    SimulationStep("halt", None, stretch, config.state)
                )
                break

            i0 = event_tape
            assert i0 is not None
            if event_kind == "turn":
                reversals[i0] += 1
                directions[i0] = -directions[i0]
                cell = lists[i0][head_cell[i0]]
                pos = config.positions[i0]
                if not cell.covers(pos):
                    # the turning step also left the cell (the head stood
                    # on its edge): persist and relocate, as for a cross
                    cell.content = self._region(config, i0, cell.lo, cell.hi)
                    head_cell[i0] = self._cell_index(lists[i0], pos)
                # split the current block at the turning point so the part
                # already behind the (new) direction becomes its own cell
                split_at = pos + 1 if directions[i0] == -1 else pos
                self._split(lists, head_cell, config, i0, split_at)
            else:  # cross
                cell = lists[i0][head_cell[i0]]
                # persist the departed block's content (the y-write)
                cell.content = self._region(config, i0, cell.lo, cell.hi)
                new_pos = config.positions[i0]
                head_cell[i0] = self._cell_index(lists[i0], new_pos)

            # every other list's current cell splits behind its head
            for j in range(t):
                if j == i0:
                    continue
                pos = config.positions[j]
                split_at = pos if directions[j] == +1 else pos + 1
                self._split(lists, head_cell, config, j, split_at)

            steps.append(
                SimulationStep(event_kind, i0, stretch, config.state)
            )

        accepted = config.is_accepting(machine)
        # final refresh: persist the blocks currently under the heads
        for i in range(t):
            cell = lists[i][head_cell[i]]
            cell.content = self._region(config, i, cell.lo, cell.hi)
        return SimulationResult(
            accepted=accepted,
            steps=tuple(steps),
            final_lists=tuple(tuple(lst) for lst in lists),
            reversals_per_list=tuple(reversals),
            tm_run_length=tm_steps_total + 1,
        )

    def _split(
        self,
        lists: List[List[BlockCell]],
        head_cell: List[int],
        config: Configuration,
        tape: int,
        split_at: int,
    ) -> None:
        """Split tape ``tape``'s current cell at ``split_at`` (if interior).

        Both parts receive their content from the live tape (the cell was
        current, so the persisted content may be stale); the head stays on
        the part containing its position.
        """
        idx = head_cell[tape]
        cell = lists[tape][idx]
        if split_at <= cell.lo or (cell.hi is not None and split_at >= cell.hi):
            return
        left = BlockCell(
            cell.lo, split_at, self._region(config, tape, cell.lo, split_at)
        )
        right = BlockCell(
            split_at, cell.hi, self._region(config, tape, split_at, cell.hi)
        )
        lists[tape][idx : idx + 1] = [left, right]
        pos = config.positions[tape]
        head_cell[tape] = idx if left.covers(pos) else idx + 1


def verify_cells_partition(result: SimulationResult) -> bool:
    """Cells of each list tile [0, ∞) in order without gaps or overlaps."""
    for lst in result.final_lists:
        expected_lo = 0
        for idx, cell in enumerate(lst):
            if cell.lo != expected_lo:
                return False
            if cell.hi is None:
                if idx != len(lst) - 1:
                    return False
                break
            if cell.hi <= cell.lo:
                return False
            expected_lo = cell.hi
        else:
            return False  # last cell must be unbounded
    return True


def verify_cell_contents(
    result: SimulationResult, machine: TuringMachine, word: str
) -> bool:
    """Every persisted cell content matches the TM's actual final tape."""
    from ..machines.fast_engine import run_deterministic

    run = run_deterministic(machine, word)
    final = run.final
    for i, lst in enumerate(result.final_lists):
        tape = final.tapes[i]
        for cell in lst:
            hi = len(tape) if cell.hi is None else min(cell.hi, len(tape))
            # compare position-wise with implicit blanks beyond either the
            # stored content or the written tape prefix
            for pos in range(cell.lo, hi):
                offset = pos - cell.lo
                stored = (
                    cell.content[offset]
                    if offset < len(cell.content)
                    else BLANK
                )
                if stored != tape[pos]:
                    return False
            # stored content reaching beyond the written prefix must be blank
            span = hi - cell.lo
            if any(ch != BLANK for ch in cell.content[max(0, span) :]):
                return False
    return True
