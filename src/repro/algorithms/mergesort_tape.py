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

The machine is still the per-record merge above: it holds two candidate
records and compares them one pair at a time.  Only the runtime moves a
whole phase per call — seeding, each round's deal and merge, and the
final strip are the run operations of :mod:`repro.extmem.record_tape`,
which charge every turn the per-record phase charges, in the same order.
Definition 1 charges a head only when it turns, so the scans, bits and
tapes are the per-record machine's exactly; the algorithm code never
holds a run.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..extmem import RecordTape, ResourceTracker
from ..extmem.record_tape import (
    deal_runs,
    merge_runs,
    seed_runs,
    strip_separators,
    transduce,
)


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
    """
    work_a = RecordTape(tracker=tracker, name="sort-a")
    work_left = RecordTape(tracker=tracker, name="sort-b")
    work_right = RecordTape(tracker=tracker, name="sort-c")

    # Round 0: every record becomes a singleton run on tape A.
    seed_runs(input_tape, work_a, RUN_SEP)

    while True:
        work_a.rewind()
        work_left.rewind()
        work_left.wipe()
        work_right.rewind()
        work_right.wipe()
        runs = deal_runs(work_a, work_left, work_right, RUN_SEP)
        if runs <= 1:
            break
        work_a.rewind()
        work_a.wipe()
        work_left.rewind()
        work_right.rewind()
        merge_runs(work_left, work_right, work_a, RUN_SEP, key)

    # strip separators into the output tape (one scan)
    output = RecordTape(tracker=tracker, name="sorted")
    work_left.rewind()
    strip_separators(work_left, output, RUN_SEP)
    return output


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

    Each round costs at most 12 reversals (three rewinds before the
    distribute, three before the merge, at two reversals each) and there
    are ⌈log2 m⌉ + 1 rounds; 14 per round plus ``slack`` covers the
    singleton-run setup scan and the final separator-stripping scan.  Same
    shape as :func:`~repro.algorithms.checksort.checksort_reversal_budget`,
    minus that solver's comparison scan.
    """
    from .._util import ceil_log2

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
