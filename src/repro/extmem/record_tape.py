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
The run operations at the end of the module move records from tape to tape
a whole scan at a time, charged as the per-record scan is: ``transduce``
is any one-source scan that feeds each record, in order, through a
generator the caller passes (the query layers' copies, filters and
dedups), and the other four are a merge sort's phases, which hand no
record to the caller.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate, chain, zip_longest
from operator import is_not
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
# Each function below is one whole scan, tape to tape.  Definition 1
# charges a head only when it turns, so a scan costs the same whether
# its records move one at a time or together.  Each function charges the
# turns of the per-record scan its docstring shows, in the same order
# and before any head moves, and leaves every cell, head and direction
# where that scan leaves them, also when a charge is denied or a record
# is refused partway.
#
# ``transduce`` is any one-source scan whose records pass, in order,
# through a generator the caller supplies.  The other four are the
# phases of a tape merge sort, which keeps sorted runs on its tapes,
# each closed by a separator record the caller passes in (``sep``): each
# moves every run of a round in one call and hands no record to its
# caller.  A turn can only come at the first record a tape reads or
# writes, so each phase puts the source heads where the per-record phase
# has them at each target's first write, and writes through
# ``write_all``; after those writes every head faces right and the rest
# is bulk work.  No tape holds a ``None`` (the constructor and every
# write refuse one), so a phase reads its sources to their ends.
# Records are told from ``sep`` as ``list.index`` tells them: identity
# first, then ``==``.


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


def _scanned(tape: RecordTape) -> List[Any]:
    """The records from the head on, after the turn ``scan`` would charge
    at the first of them."""
    records = tape._cells[tape._head:]
    if records and tape._direction != 1:
        tape._turn(1)
    return records


def _skip(records: List[Any], sep: Any, at: int) -> int:
    """The first index from ``at`` on that holds a record, not ``sep``."""
    while records[at] is sep:
        at += 1
    return at


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


def seed_runs(source: RecordTape, target: RecordTape, sep: Any) -> None:
    """Write each record from ``source``'s head on as a one-record run.

    The per-record phase::

        for record in source.scan():
            if record is sep:
                raise ReproError("input tape already contains run separators")
            target.step_write(record)
            target.step_write(sep)
    """
    _distinct(source, target)
    head = source._head
    records = _scanned(source)
    if not records:
        return
    stop = _index(records, sep, 0, len(records))
    runs = [sep] * (2 * stop)
    runs[::2] = records[:stop]
    source._head = head + 1  # the first record is read, then written
    target.write_all(runs)
    source._head = head + min(stop + 1, len(records))
    if stop < len(records):
        raise ReproError("input tape already contains run separators")


def deal_runs(
    source: RecordTape, left: RecordTape, right: RecordTape, sep: Any
) -> int:
    """Deal the runs from ``source``'s head on alternately onto ``left``
    and ``right``; returns the number of runs dealt.

    The per-record phase drops empty runs and closes an unclosed last
    one::

        targets, runs, in_run = (left, right), 0, False
        for record in source.scan():
            if record is sep:
                if in_run:
                    targets[runs % 2].step_write(sep)
                    runs, in_run = runs + 1, False
                continue
            in_run = True
            targets[runs % 2].step_write(record)
        if in_run:
            targets[runs % 2].step_write(sep)
            runs += 1
    """
    _distinct(source, left, right)
    head = source._head
    records = _scanned(source)
    runs = []  # each closed by its separator
    start = 0
    try:
        while True:
            end = records.index(sep, start) + 1
            if end - start > 1:
                runs.append(records[start:end])
            start = end
    except ValueError:
        if start < len(records):  # the end of the tape closes the last run
            runs.append(records[start:] + [sep])
    at = 0
    for target, run in zip((left, right), runs):  # a first write may turn
        at = _skip(records, sep, at)
        source._head = head + at + 1
        target.write_all(run)
        at += len(run)
    left.write_all(list(chain.from_iterable(runs[2::2])))
    right.write_all(list(chain.from_iterable(runs[3::2])))
    source._head = head + len(records)
    return len(runs)


def merge_runs(
    left: RecordTape,
    right: RecordTape,
    target: RecordTape,
    sep: Any,
    key: Optional[Callable[[Any], Any]] = None,
) -> None:
    """Merge the runs from ``left``'s and ``right``'s heads on, pair by
    pair, onto ``target`` under ``key`` (``None``: the records' order).

    The per-record phase reads each source to its end (where
    ``step_read`` reads ``None``), pairs the runs in order, an empty run
    or a missing one with any other, and closes each merged pair::

        a, b = left.step_read(), right.step_read()
        while a is not None or b is not None:
            a_live = a is not None and a is not sep
            b_live = b is not None and b is not sep
            while a_live or b_live:
                if a_live and (not b_live or key(a) <= key(b)):
                    target.step_write(a)
                    a = left.step_read()
                    a_live = a is not None and a is not sep
                else:
                    target.step_write(b)
                    b = right.step_read()
                    b_live = b is not None and b is not sep
            target.step_write(sep)
            if a is sep:
                a = left.step_read()
            if b is sep:
                b = right.step_read()

    Every ``key`` call and comparison is made before the first charge,
    so a ``key`` that raises leaves the tapes as they were.
    """
    _distinct(left, right, target)
    a_runs, a_read = _runs(left, sep)
    b_runs, b_read = _runs(right, sep)
    merged: List[Any] = []
    for a, b in zip_longest(a_runs, b_runs, fillvalue=[]):
        merged += _merge(a, b, key)
        merged.append(sep)
    a_head, b_head = left._head, right._head
    if left._direction != 1:
        left._turn(1)
    left._head = a_head + 1
    if right._direction != 1:
        right._turn(1)
    right._head = b_head + 1
    target.write_all(merged)
    left._head = a_head + a_read + 1
    right._head = b_head + b_read + 1


def _runs(tape: RecordTape, sep: Any) -> Tuple[List[List[Any]], int]:
    """The runs a merge reads from ``tape``'s head on, and the number of
    records it reads."""
    records = tape._cells[tape._head:]
    runs = []
    start = 0
    try:
        while True:
            end = records.index(sep, start)
            runs.append(records[start:end])
            start = end + 1
    except ValueError:
        if start < len(records):  # an unclosed last run
            runs.append(records[start:])
    return runs, len(records)


def _merge(
    a: List[Any], b: List[Any], key: Optional[Callable[[Any], Any]]
) -> List[Any]:
    """``a`` and ``b`` merged as the per-record loop merges them."""
    both = a + b
    if not a or not b:
        return both
    a_keys = a if key is None else list(map(key, a))
    b_keys = b if key is None else list(map(key, b))
    if (len(a) < 2 or a_keys == sorted(a_keys)) and (
        len(b) < 2 or b_keys == sorted(b_keys)
    ):
        # sorted runs, as a merge sort keeps them: a stable sort of the
        # two merges them, ties keeping a first
        both.sort(key=key)
        return both
    return _merge_blocks(a_keys, b_keys, both)


def _merge_blocks(
    a_keys: List[Any], b_keys: List[Any], both: List[Any]
) -> List[Any]:
    """How the per-record loop merges runs that are not sorted: it takes
    a record and the smaller ones after it as one block, so it sorts
    ``both`` stably by each record's running maximum key within its own
    run, the first run first on ties."""
    keys = [*accumulate(a_keys, max), *accumulate(b_keys, max)]
    return [both[i] for i in sorted(range(len(both)), key=keys.__getitem__)]


def strip_separators(source: RecordTape, target: RecordTape, sep: Any) -> None:
    """Copy the records from ``source``'s head on to ``target``, leaving
    out the separators.

    The per-record phase::

        for record in source.scan():
            if record is not sep:
                target.step_write(record)
    """
    _distinct(source, target)
    head = source._head
    records = _scanned(source)
    kept = list(filter(partial(is_not, sep), records))
    if kept:
        source._head = head + _skip(records, sep, 0) + 1
        target.write_all(kept)
    source._head = head + len(records)
