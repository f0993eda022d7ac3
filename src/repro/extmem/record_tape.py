"""Record-level external tape.

The paper's algorithms manipulate #-delimited strings; simulating them one
symbol at a time is faithful but too slow for realistic N.  A
:class:`RecordTape` stores one *record* (an arbitrary Python object —
typically a string ``v_i`` or a tuple) per cell and performs the **identical
reversal accounting**: any change of head direction charges one reversal to
the shared tracker.  One record-level scan corresponds to one symbol-level
scan, so every O(·) claim about scans/reversals transfers verbatim.

Random access is deliberately absent: the only primitives are read, write,
single-cell moves, a turn in place, and end-seeking operations charged
exactly as a walk of single-cell moves would be, so an algorithm *cannot*
cheat the cost model.  ``transduce`` at the end of the module is any
one-source scan, moved tape to tape a whole scan at a time and charged as
the per-record scan is: it feeds each record, in order, through a
generator the caller passes (the query layers' copies, filters and
dedups).  ``sorted_ahead`` is the tape merge sort's gate: the records
from a head on, stably sorted, when their keys are of one totally ordered
builtin kind, which the sort reads with ``read_all`` and writes with one
``write_all`` while it charges its rounds' turns with ``turn``.
"""

from __future__ import annotations

from itertools import chain
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

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
        cells: List[Any] = list(records)
        # a None cell would read as the blank past the end: refused, as
        # every write refuses it, before the tape is charged for
        if _first_blank(cells) < len(cells):
            raise ReproError(
                "None is the blank sentinel; a tape cannot hold it"
            )
        self.tracker = tracker or ResourceTracker()
        self.tape_id = self.tracker.register_tape(name)
        self.name = name
        self._cells = cells
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

    def turn(self) -> None:
        """Face the other way where the head stands: one reversal."""
        self._turn(-self._direction)

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
            if head < len(cells):
                yield cells[head]
            if self._head == 0:
                break
            if self._direction != -1:
                self._turn(-1)
            self._head -= 1

    def read_all(self) -> List[Any]:
        """Read every record from the head on, moving right, as a
        ``scan()`` run to the end does: the turn (if any) is charged
        before the head moves, and only when there is a record to read."""
        cells = self._cells
        records = cells[self._head:]
        if records:
            if self._direction != 1:
                self._turn(1)
            self._head = len(cells)
        return records

    def write_all(self, records: Iterable[Any]) -> None:
        """Write every record in order from the head, moving right.

        One slice assignment does what a ``step_write`` per record does,
        with its checks: the first record is written before the turn (if
        any) is charged, and a ``None`` in the list raises once the
        records before it are written.  When every record is true there
        is no ``None``; otherwise it is looked for as ``list.index`` looks,
        identity first, then ``==``.
        """
        records = list(records)
        blank = _first_blank(records)
        if blank:
            cells = self._cells
            head = self._head
            if head > len(cells):
                raise ReproError("head beyond end+1")
            if self._direction != 1:
                cells[head:head + 1] = records[:1]
                self._turn(1)
            cells[head:head + blank] = records[:blank]
            self._head = head + blank
        if blank < len(records):
            raise ReproError("None is the blank sentinel; cannot write it")

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


# -- run operations -----------------------------------------------------------
#
# ``transduce`` is one whole scan, tape to tape, whose records pass, in
# order, through a generator the caller supplies.  Definition 1 charges
# a head only when it turns, so a scan costs the same whether its
# records move one at a time or together.  It charges the turns of the
# per-record scan its docstring shows, in the same order and before any
# head moves, and leaves every cell, head and direction where that scan
# leaves them, also when a charge is denied or a record is refused
# partway.  No tape holds a ``None`` (the constructor and every write
# refuse one).


def _index(records: List[Any], item: Any, start: int, stop: int) -> int:
    """Index of the first ``item`` in ``records[start:stop]``, else ``stop``."""
    try:
        return records.index(item, start, stop)
    except ValueError:
        return stop


def _first_blank(records: List[Any]) -> int:
    """Index of the first ``None`` in ``records``, else their length."""
    if all(records):  # None is false, so none is there to look for
        return len(records)
    return _index(records, None, 0, len(records))


def _distinct(*tapes: RecordTape) -> None:
    if len({id(tape) for tape in tapes}) < len(tapes):
        raise ReproError("run operations move records between distinct tapes")


def transduce(
    source: RecordTape,
    targets: Sequence[RecordTape],
    transducer: Callable[[Iterator[Any]], Iterable[Tuple[int, Any]]],
) -> None:
    """Feed the records from ``source``'s head on through ``transducer``
    and write each ``(i, record)`` it yields onto ``targets[i]``.

    The per-record scan::

        for i, record in transducer(source.scan()):
            targets[i].step_write(record)

    ``transducer`` is a generator function over an iterator of records:
    it sees each record once, in order, and touches no tape.  When the
    source and every target face right and no target's head is past one
    beyond its end, nothing in that scan can be charged and a target can
    refuse only a ``None``.  The records are then read off a list, and
    each target's outputs are written with one ``write_all``: every
    output yielded before the transducer finished, stopped reading,
    raised, or yielded a ``None`` or a bad index, with the source head
    one past the last record it read, as the scan leaves them.  Any
    other tape state runs the scan as written, which charges its turns.
    """
    _distinct(source, *targets)
    if source._direction != 1 or any(
        target._direction != 1 or target._head > len(target._cells)
        for target in targets
    ):
        for i, record in transducer(source.scan()):
            targets[i].step_write(record)
        return
    head = source._head
    records = source._cells[head:]
    unread = iter(records)
    outputs: List[List[Any]] = [[] for _ in targets]
    try:
        for i, record in transducer(unread):
            written = outputs[i]  # a bad index raises before a None does
            if record is None:
                raise ReproError("None is the blank sentinel; cannot write it")
            written.append(record)
    finally:
        source._head = head + len(records) - unread.__length_hint__()
        for target, written in zip(targets, outputs):
            target.write_all(written)


# -- the tape merge sort's gate ------------------------------------------------


def sorted_ahead(
    tape: RecordTape, key: Optional[Callable[[Any], Any]] = None
) -> Optional[List[Any]]:
    """The records from ``tape``'s head on, stably sorted by ``key``
    (``None``: the records themselves), if the keys are all exactly
    ``str``, all exactly ``int``, or all tuples whose items are, across
    every key, all exactly ``str`` or all exactly ``int``; else ``None``,
    also when ``key`` raises.  Under such keys ``<``, ``<=`` and ``==``
    agree on a total order, so the per-record merge sort (``key(a) <=
    key(b)``, ties to the left) writes this stable sort.

    Calls ``key`` once per record, moves no head and charges nothing.
    """
    records = tape._cells[tape._head:]
    if key is None:
        return sorted(records) if _one_ordered_kind(records) else None
    try:
        keys = list(map(key, records))
    except Exception:  # noqa: BLE001 - the per-record sort meets it again
        return None
    if _one_ordered_kind(keys):
        return [records[i] for i in sorted(range(len(keys)), key=keys.__getitem__)]
    return None


def _one_ordered_kind(keys: List[Any]) -> bool:
    """Are ``keys`` all of one of the kinds :func:`sorted_ahead` admits?"""
    kinds = set(map(type, keys))
    if kinds == {tuple}:
        kinds = set(map(type, chain.from_iterable(keys)))
    return kinds <= {str} or kinds <= {int}
