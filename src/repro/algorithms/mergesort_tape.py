"""Tape merge sort: O(log N) head reversals on three external tapes.

Corollary 7 of the paper rests on the fact that sorting can be done with
O(log N) head reversals (Chen & Yap [7, Lemma 7]).  This module implements
the classic balanced three-tape merge sort on :class:`RecordTape`:

* runs on tape A are delimited by a RUN-SEPARATOR sentinel, so the machine
  never needs run-length counters — the only internal state is O(1)
  records (the two merge candidates) plus O(1) flags;
* each round distributes runs alternately onto tapes B and C (one forward
  scan of each tape) and merges pairs of runs back onto A (one forward
  scan of each) — a constant number of reversals per round;
* run count halves per round ⇒ ⌈log2 m⌉ + 1 rounds ⇒ O(log N) reversals.

Chen–Yap achieve two tapes and O(1) *cells*; we use three tapes and O(1)
*records* — record-level internal memory, as discussed in DESIGN.md.  For
the SHORT problem variants (records of O(log m) bits) this is the paper's
ST(O(log N), O(log N), 3) bound on the nose.

The machine is the per-record merge above, :func:`per_record_merge_sort`,
which holds two candidate records and compares them one pair at a time.
Definition 1 charges it only for its head turns, and those depend on the
number m of records alone: 4 + 12⌈log₂ m⌉ reversals for m ≥ 1.  So when
every key is of one totally ordered builtin kind, where its output is the
stable sort of its input, :func:`tape_merge_sort` writes that sort with
one ``write_all`` and charges the same turns in the same order; the
scans, bits, tapes and events are the machine's exactly.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from .._util import ceil_log2
from ..errors import ReproError
from ..extmem import RecordTape, ResourceTracker
from ..extmem.record_tape import sorted_ahead, transduce


class _RunSeparator:
    """Sentinel delimiting sorted runs on a tape."""

    _instance: "Optional[_RunSeparator]" = None

    def __new__(cls) -> "_RunSeparator":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<RUN_SEP>"


RUN_SEP = _RunSeparator()


def tape_merge_sort(
    input_tape: RecordTape,
    tracker: ResourceTracker,
    *,
    key: Optional[Callable[[Any], Any]] = None,
) -> RecordTape:
    """Sort the records of ``input_tape`` with O(log N) reversals.

    Returns a fresh tape (registered on ``tracker``) holding the records in
    ascending ``key`` order; the input tape is consumed (left positioned at
    its end).  The caller can bound the whole computation by attaching a
    :class:`ResourceBudget` to ``tracker``.

    This is :func:`per_record_merge_sort`, with the same output or
    exception and the same events in the same order under any budget and
    sink.  When :func:`~repro.extmem.record_tape.sorted_ahead` admits the
    keys (decided before any charge), the records are moved once and the
    machine's turns charged one at a time.  For m ≥ 1 records from the
    input's head, after ``sort-a``, ``sort-b`` and ``sort-c`` register:
    the input's turn to face right, if it faces left; ``sort-a`` left
    then right; in each of the ⌈log₂ m⌉ merge rounds, ``sort-a``,
    ``sort-b`` and ``sort-c`` left then right, twice; and once ``sorted``
    registers, ``sort-b`` left then right.  m = 0 turns nothing.  ``key``
    must depend on the record alone: this path calls it once per record.
    """
    ordered = sorted_ahead(input_tape, key)
    # the gate admits no separator when the records are their own keys
    if ordered is None or (
        key is not None and any(record is RUN_SEP for record in ordered)
    ):
        return per_record_merge_sort(input_tape, tracker, key=key)
    work = [
        RecordTape(tracker=tracker, name=name)
        for name in ("sort-a", "sort-b", "sort-c")
    ]
    if ordered:
        input_tape.read_all()
        _rewind_turns(work[0])
        for _ in range(2 * ceil_log2(len(ordered))):
            _rewind_turns(*work)
    output = RecordTape(tracker=tracker, name="sorted")
    if ordered:
        _rewind_turns(work[1])
    output.write_all(ordered)
    return output


def _rewind_turns(*tapes: RecordTape) -> None:
    """Charge each tape's rewind from past cell 0, in order: left, then
    right."""
    for tape in tapes:
        tape.turn()
        tape.turn()


def per_record_merge_sort(
    input_tape: RecordTape,
    tracker: ResourceTracker,
    *,
    key: Optional[Callable[[Any], Any]] = None,
) -> RecordTape:
    """The tape merge sort as the machine runs it, one ``step_read`` or
    ``step_write`` per record: the definition of :func:`tape_merge_sort`."""
    key = key or (lambda record: record)
    work_a = RecordTape(tracker=tracker, name="sort-a")
    work_left = RecordTape(tracker=tracker, name="sort-b")
    work_right = RecordTape(tracker=tracker, name="sort-c")

    # Round 0: every record becomes a singleton run on tape A.
    for record in input_tape.scan():
        if record is RUN_SEP:
            raise ReproError("input tape already contains run separators")
        work_a.step_write(record)
        work_a.step_write(RUN_SEP)

    while True:
        work_a.rewind()
        work_left.rewind()
        work_left.wipe()
        work_right.rewind()
        work_right.wipe()
        runs = _distribute(work_a, work_left, work_right)
        if runs <= 1:
            break
        work_a.rewind()
        work_a.wipe()
        work_left.rewind()
        work_right.rewind()
        _merge_round(work_left, work_right, work_a, key)

    # strip separators into the output tape (one scan)
    output = RecordTape(tracker=tracker, name="sorted")
    work_left.rewind()
    for record in work_left.scan():
        if record is not RUN_SEP:
            output.step_write(record)
    return output


def _distribute(source: RecordTape, left: RecordTape, right: RecordTape) -> int:
    """Deal the runs on ``source`` alternately onto ``left`` and
    ``right``; return how many were dealt."""
    targets = (left, right)
    runs = 0
    in_run = False
    for record in source.scan():
        if record is RUN_SEP:
            if in_run:
                targets[runs % 2].step_write(RUN_SEP)
                runs += 1
                in_run = False
            continue
        in_run = True
        targets[runs % 2].step_write(record)
    if in_run:
        targets[runs % 2].step_write(RUN_SEP)
        runs += 1
    return runs


def _merge_round(
    left: RecordTape,
    right: RecordTape,
    target: RecordTape,
    key: Callable[[Any], Any],
) -> None:
    """Merge the runs of ``left`` and ``right`` pair by pair onto
    ``target``: stable, ties to the left."""
    a = left.step_read()
    b = right.step_read()
    while a is not None or b is not None:
        a_live = a is not None and a is not RUN_SEP
        b_live = b is not None and b is not RUN_SEP
        while a_live or b_live:
            if a_live and (not b_live or key(a) <= key(b)):
                target.step_write(a)
                a = left.step_read()
                a_live = a is not None and a is not RUN_SEP
            else:
                target.step_write(b)
                b = right.step_read()
                b_live = b is not None and b is not RUN_SEP
        target.step_write(RUN_SEP)
        if a is RUN_SEP:
            a = left.step_read()
        if b is RUN_SEP:
            b = right.step_read()


def _unique(records):
    """Each record unequal to the one before it: on a sorted tape, one
    copy of each (a transducer for ``transduce``)."""
    previous = None
    for record in records:
        if record != previous:
            yield 0, record
        previous = record


def sorted_unique(tape: RecordTape, tracker: ResourceTracker) -> RecordTape:
    """Sort all of ``tape`` and keep one copy of each record, on a fresh
    tape named ``dedup``: the set semantics of the streaming query
    layers, one merge sort and one scan."""
    tape.rewind()
    ordered = tape_merge_sort(tape, tracker)
    unique = RecordTape(tracker=tracker, name="dedup")
    ordered.rewind()
    transduce(ordered, (unique,), _unique)
    return unique


def mergesort_scan_budget(m: int, slack: int = 20) -> int:
    """An explicit O(log N) scan budget :func:`tape_merge_sort` satisfies.

    The sort charges exactly 12 reversals in each of its ⌈log2 m⌉ merge
    rounds (``sort-a``, ``sort-b`` and ``sort-c`` rewound twice, at two
    reversals a rewind) and 4 more for m ≥ 1 (the first rewind of
    ``sort-a`` and the last of ``sort-b``), plus one when the input faces
    left.  The budget allows 14 per round over ⌈log2 m⌉ + 1 rounds, and
    ``slack`` covers the caller's own scans, such as the rewind of the
    sorted tape.  Same shape as
    :func:`~repro.algorithms.checksort.checksort_reversal_budget`, minus
    that solver's comparison scan.
    """
    rounds = max(1, ceil_log2(max(2, m))) + 1
    return 14 * rounds + slack


def sort_instance_strings(
    values: List[str],
    *,
    tracker: Optional[ResourceTracker] = None,
) -> Tuple[List[str], ResourceTracker]:
    """Sort 0-1 strings lexicographically on tapes; return (sorted, tracker)."""
    tracker = tracker or ResourceTracker()
    tape = RecordTape(values, tracker=tracker, name="input")
    out = tape_merge_sort(tape, tracker)
    out.rewind()
    return list(out.scan()), tracker
