"""Record-level external tape.

The paper's algorithms manipulate #-delimited strings; simulating them one
symbol at a time is faithful but too slow for realistic N.  A
:class:`RecordTape` stores one *record* (an arbitrary Python object —
typically a string ``v_i`` or a tuple) per cell and performs the **identical
reversal accounting**: any change of head direction charges one reversal to
the shared tracker.  One record-level scan corresponds to one symbol-level
scan, so every O(·) claim about scans/reversals transfers verbatim.

Random access is deliberately absent: the only primitives are read, write,
single-cell moves, and end-seeking operations charged exactly as a walk of
single-cell moves would be, so an algorithm *cannot* cheat the cost model.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional

from ..errors import ReproError
from .tracker import ResourceTracker


class RecordTape:
    """A one-sided infinite tape of records with a single read/write head."""

    def __init__(
        self,
        records: Iterable[Any] = (),
        *,
        tracker: Optional[ResourceTracker] = None,
        name: str = "tape",
    ):
        self.tracker = tracker or ResourceTracker()
        self.tape_id = self.tracker.register_tape(name)
        self.name = name
        self._cells: List[Any] = list(records)
        self._head = 0
        self._direction = +1

    # -- geometry ----------------------------------------------------------

    @property
    def head(self) -> int:
        return self._head

    @property
    def direction(self) -> int:
        return self._direction

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def at_end(self) -> bool:
        """Is the head past the last written record?"""
        return self._head >= len(self._cells)

    @property
    def at_start(self) -> bool:
        return self._head == 0

    # -- primitive access ----------------------------------------------------

    def read(self) -> Any:
        """Record under the head, or ``None`` past the written suffix."""
        if self._head < len(self._cells):
            return self._cells[self._head]
        return None

    def write(self, record: Any) -> None:
        """Write ``record`` at the head (extends the tape when at the end)."""
        if record is None:
            raise ReproError("None is the blank sentinel; cannot write it")
        if self._head < len(self._cells):
            self._cells[self._head] = record
        elif self._head == len(self._cells):
            self._cells.append(record)
        else:  # the head stepped past the end (step_read or move(+1))
            raise ReproError("head beyond end+1")

    def _turn(self, direction: int) -> None:
        """Face ``direction``: charge the reversal first, then flip, so a
        denied charge leaves the direction unchanged."""
        self.tracker.charge_reversal(self.tape_id)
        self._direction = direction

    def move(self, direction: int) -> None:
        """Move one cell; flipping direction charges one reversal.

        Left-wall semantics are explicit: a ``move(-1)`` at cell 0 that
        flips the direction charges the reversal and *bounces* (the head
        stays at cell 0, now facing left) — matching Definition 24(c)'s
        "don't fall off" rule.  A *second* consecutive ``move(-1)`` at cell
        0 is a programming error (the head is already facing left, so no
        reversal would ever be charged and a loop on ``move(-1)`` would
        spin forever with no accounting): it raises :class:`ReproError`
        instead of silently doing nothing.
        """
        if direction not in (+1, -1):
            raise ReproError(f"direction must be +1 or -1, got {direction}")
        if direction == -1 and self._head == 0 and self._direction == -1:
            raise ReproError(
                "head is at cell 0 already facing left; another move(-1) "
                "would spin without charges — rewind() or move(+1) instead"
            )
        if direction != self._direction:
            self._turn(direction)
        if direction == -1 and self._head == 0:
            return  # the charged bounce: direction flipped, head stays put
        self._head += direction

    # -- derived operations ---------------------------------------------------
    #
    # The fast path: these are written out instead of looping over
    # ``move``, but each charges and emits exactly what the per-cell walk
    # would, in the same order.  A reversal is charged (``_turn``) only
    # when the head must face the other way, always *before* the head
    # moves, so a denied charge leaves head and direction unchanged.
    # Generators re-read the head and direction on every record, so a
    # caller that moves the head mid-scan or breaks early sees the
    # per-cell walk's state.

    def step_write(self, record: Any) -> None:
        """Write then move right — the inner loop of every producing scan."""
        if record is None:
            raise ReproError("None is the blank sentinel; cannot write it")
        cells = self._cells
        head = self._head
        size = len(cells)
        if head == size:
            cells.append(record)
        elif head < size:
            cells[head] = record
        else:
            raise ReproError("head beyond end+1")
        if self._direction != 1:
            self._turn(1)
        self._head = head + 1

    def step_read(self) -> Any:
        """Read then move right — the inner loop of every consuming scan.

        Past the end this reads ``None`` and still moves the head right.
        """
        if self._direction != 1:
            self._turn(1)
        head = self._head
        self._head = head + 1
        cells = self._cells
        return cells[head] if head < len(cells) else None

    def seek_start(self) -> None:
        """Move to cell 0 (costs at most one reversal)."""
        if self._head > 0:
            if self._direction != -1:
                self._turn(-1)
            self._head = 0

    def seek_end(self) -> None:
        """Move right past the last record (costs at most one reversal)."""
        if self._head < len(self._cells):
            if self._direction != 1:
                self._turn(1)
            self._head = len(self._cells)

    def rewind(self) -> None:
        """Position at cell 0 facing right, ready for a forward scan.

        Costs up to two reversals (left walk + the flip back to +1), which
        is exactly what "random access by rewinding" costs in the model.
        """
        self.seek_start()
        if self._direction == -1:
            # Flip direction explicitly so the subsequent scan is forward.
            self._turn(+1)

    def scan(self) -> Iterator[Any]:
        """Yield records left-to-right from the current head to the end.

        The head passes each record before it is yielded, so breaking out
        after k records leaves the head k cells further right.
        """
        cells = self._cells
        while self._head < len(cells):
            if self._direction != 1:
                self._turn(1)
            head = self._head
            self._head = head + 1
            yield cells[head]

    def scan_backward(self) -> Iterator[Any]:
        """Yield records right-to-left from the current head to the start."""
        cells = self._cells
        while True:
            head = self._head
            if head < len(cells) and cells[head] is not None:
                yield cells[head]
            if self._head == 0:
                break
            if self._direction != -1:
                self._turn(-1)
            self._head -= 1

    def write_all(self, records: Iterable[Any]) -> None:
        """Append every record in order (single forward scan)."""
        for record in records:
            self.step_write(record)

    def wipe(self) -> None:
        """Erase all records.  Requires the head to be at cell 0.

        In the tape model, erasing is overwriting with blanks during the
        next forward pass — free in reversals.  Requiring ``at_start``
        keeps the accounting honest: callers must have paid for the rewind.
        """
        if self._head != 0:
            raise ReproError("wipe() requires the head at cell 0 (rewind first)")
        self._cells.clear()

    # -- inspection (free: for assertions and tests, not for algorithms) ------

    def snapshot(self) -> List[Any]:
        """Copy of the tape contents.  Tests only — does not move the head."""
        return list(self._cells)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RecordTape({self.name!r}, head={self._head}, "
            f"dir={self._direction:+d}, len={len(self._cells)})"
        )


def fresh_tapes(
    count: int, tracker: ResourceTracker, *, prefix: str = "t"
) -> List[RecordTape]:
    """Create ``count`` empty record tapes registered on ``tracker``."""
    return [
        RecordTape(tracker=tracker, name=f"{prefix}{i + 1}") for i in range(count)
    ]
