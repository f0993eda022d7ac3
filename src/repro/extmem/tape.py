"""Symbol-level one-sided-infinite tape with reversal accounting.

This is the tape object used when algorithms are expressed close to the
Turing-machine metal (one symbol per cell).  Cells are numbered from 0 here
(the paper numbers from 1; nothing depends on the offset).  The head starts
at cell 0 moving right; each change of head direction charges one reversal
to the owning :class:`~repro.extmem.tracker.ResourceTracker`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from ..errors import ReproError
from .tracker import ResourceTracker

#: The blank symbol (the paper's ␣).  Any hashable could be used; tapes only
#: compare against it.
BLANK = "␣"


class SymbolTape:
    """A one-sided infinite tape of single symbols with a read/write head.

    The tape grows on demand to the right; the head cannot move left of
    cell 0 (mirroring Definition 24(c)'s "don't fall off" rule: a left move
    at the left end is a no-op that still counts the direction change).
    """

    __slots__ = (
        "tracker",
        "tape_id",
        "name",
        "_cells",
        "_head",
        "_direction",
        "_max_used",
    )

    def __init__(
        self,
        contents: Iterable[str] = (),
        *,
        tracker: Optional[ResourceTracker] = None,
        name: str = "tape",
    ):
        self.tracker = tracker or ResourceTracker()
        self.tape_id = self.tracker.register_tape(name)
        self.name = name
        self._cells: List[str] = list(contents)
        self._head = 0
        self._direction = +1
        self._max_used = len(self._cells)

    # -- geometry ----------------------------------------------------------

    @property
    def head(self) -> int:
        """Current head position (0-based)."""
        return self._head

    @property
    def direction(self) -> int:
        """Current head direction: +1 (right) or −1 (left)."""
        return self._direction

    @property
    def reversals(self) -> int:
        """Reversals charged to this tape so far (O(1) counter read)."""
        return self.tracker.reversals_on(self.tape_id)

    def __len__(self) -> int:
        """Number of allocated cells (the used prefix of the infinite tape)."""
        return len(self._cells)

    @property
    def space_used(self) -> int:
        """Highest cell index ever touched plus one (the paper's space(ρ, i))."""
        return self._max_used

    # -- access ------------------------------------------------------------

    def read(self) -> str:
        """Symbol under the head (BLANK beyond the written prefix)."""
        if self._head < len(self._cells):
            return self._cells[self._head]
        return BLANK

    def write(self, symbol: str) -> None:
        """Write ``symbol`` at the head, extending the tape with blanks."""
        while self._head >= len(self._cells):
            self._cells.append(BLANK)
        self._cells[self._head] = symbol
        if self._head + 1 > self._max_used:
            self._max_used = self._head + 1

    def _turn(self, direction: int) -> None:
        """Face ``direction``: charge the reversal first, then flip, so a
        denied charge leaves the direction unchanged."""
        self.tracker.charge_reversal(self.tape_id)
        self._direction = direction

    def move(self, direction: int) -> None:
        """Move the head one cell; charge a reversal if direction flips.

        ``direction`` must be +1 or −1.  A left move at cell 0 keeps the
        head in place (but the direction change, if any, is still charged —
        matching the list-machine convention in Definition 24(c)).
        """
        if direction not in (+1, -1):
            raise ReproError(f"direction must be +1 or -1, got {direction}")
        if direction != self._direction:
            self._turn(direction)
        if direction == -1 and self._head == 0:
            return
        self._head += direction
        if self._head + 1 > self._max_used:
            self._max_used = self._head + 1

    def stay(self) -> None:
        """Explicit no-move (the N move of the TM); charges nothing."""

    # -- convenience -------------------------------------------------------

    def seek_start(self) -> None:
        """Move the head to cell 0 (at most one reversal).

        Charged exactly as a walk of ``move(-1)`` steps: one reversal if
        the head must turn left, none at cell 0.  Moving left never raises
        ``space_used``.
        """
        if self._head > 0:
            if self._direction != -1:
                self._turn(-1)
            self._head = 0

    def scan_right(self) -> Iterator[str]:
        """Yield symbols moving right until the written prefix is exhausted.

        Each symbol is yielded *before* the head moves past it, as with
        ``read()`` then ``move(+1)``: breaking out after k symbols leaves
        the head k - 1 cells further right.
        """
        cells = self._cells
        while self._head < len(cells):
            yield cells[self._head]
            if self._direction != 1:
                self._turn(1)
            self._head += 1
            if self._head + 1 > self._max_used:
                self._max_used = self._head + 1

    def contents(self) -> str:
        """The written prefix as a string (for assertions/debugging)."""
        return "".join(self._cells)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = self.contents()
        if len(shown) > 40:
            shown = shown[:37] + "..."
        return (
            f"SymbolTape({self.name!r}, head={self._head}, "
            f"dir={self._direction:+d}, {shown!r})"
        )
