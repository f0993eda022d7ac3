"""Deterministic CHECK-SORT in ST(O(log N), ·, O(1))  (Corollary 7 / 10).

The solver follows the proof of Corollary 10: sort the first half onto an
auxiliary tape (O(log N) reversals via tape merge sort), then compare the
sorted sequence with the second half in one parallel scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..extmem import RecordTape, ResourceBudget, ResourceReport, ResourceTracker
from ..problems.definitions import InstanceLike, as_instance
from .mergesort_tape import tape_merge_sort


@dataclass(frozen=True)
class DeterministicResult:
    """Answer plus the resources the tape machine consumed."""

    accepted: bool
    report: ResourceReport


def check_sort_deterministic(
    instance: InstanceLike,
    *,
    budget: Optional[ResourceBudget] = None,
    sink=None,
) -> DeterministicResult:
    """Decide CHECK-SORT on tapes: sort first half, compare with second.

    ``sink`` (any :class:`~repro.observability.sinks.EventSink`) receives
    the accounting event stream, with phase marks ``sort`` / ``compare``.
    """
    inst = as_instance(instance)
    tracker = ResourceTracker(budget)
    if sink is not None:
        tracker.attach_sink(sink)

    first_tape = RecordTape(list(inst.first), tracker=tracker, name="first")
    second_tape = RecordTape(list(inst.second), tracker=tracker, name="second")

    tracker.mark_phase("sort")
    sorted_tape = tape_merge_sort(first_tape, tracker)
    sorted_tape.rewind()

    tracker.mark_phase("compare")
    accepted = True
    for expected in sorted_tape.scan():
        actual = second_tape.step_read()
        if actual != expected:
            accepted = False
            break
    if accepted and not second_tape.at_end:
        accepted = False  # second half longer than the first
    return DeterministicResult(accepted=accepted, report=tracker.report())


def checksort_reversal_budget(m: int, slack: int = 40) -> int:
    """An explicit O(log N) scan budget the solver provably satisfies.

    The sort charges exactly 12 reversals in each of its ⌈log2 m⌉ merge
    rounds (six rewinds at two reversals each) and 4 more for m ≥ 1; the
    rewind of the sorted tape adds 2, and the comparison scan reads the
    second half forward with no turn.  So a run uses 7 + 12⌈log2 m⌉
    scans for m ≥ 1 (1 for m = 0); the budget allows 14 per round over
    ⌈log2 m⌉ + 1 rounds, plus ``slack``.
    """
    from .._util import ceil_log2

    rounds = max(1, ceil_log2(max(2, m))) + 1
    return 14 * rounds + slack
