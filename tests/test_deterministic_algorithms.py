"""Tests for tape merge sort, CHECK-SORT, SET/MULTISET-EQUALITY solvers."""

import random
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro._util import ceil_log2
from repro.algorithms import (
    check_sort_deterministic,
    multiset_equality_deterministic,
    set_equality_deterministic,
    sort_instance_strings,
    tape_merge_sort,
)
from repro.algorithms.checksort import checksort_reversal_budget
from repro.algorithms.mergesort_tape import RUN_SEP
from repro.errors import ReproError
from repro.extmem import RecordTape, ResourceBudget, ResourceTracker
from repro.extmem.record_tape import merge_runs
from repro.observability.sinks import RingBufferSink
from repro.problems import (
    CHECK_SORT,
    MULTISET_EQUALITY,
    SET_EQUALITY,
    encode_instance,
    random_checksort_instance,
    random_equal_instance,
    random_unequal_instance,
)

bit_words = st.lists(st.text(alphabet="01", min_size=1, max_size=8), max_size=24)


class TestTapeMergeSort:
    def test_sorts_basic(self):
        out, _ = sort_instance_strings(["10", "01", "11", "00"])
        assert out == ["00", "01", "10", "11"]

    def test_empty_and_singleton(self):
        assert sort_instance_strings([])[0] == []
        assert sort_instance_strings(["1"])[0] == ["1"]

    def test_duplicates_preserved(self):
        out, _ = sort_instance_strings(["1", "0", "1", "0"])
        assert out == ["0", "0", "1", "1"]

    def test_rejects_separator_in_input(self):
        tracker = ResourceTracker()
        tape = RecordTape([RUN_SEP], tracker=tracker)
        with pytest.raises(ReproError):
            tape_merge_sort(tape, tracker)

    @given(bit_words)
    @settings(max_examples=60, deadline=None)
    def test_matches_sorted(self, words):
        out, _ = sort_instance_strings(words)
        assert out == sorted(words)

    @given(st.lists(st.integers(min_value=0, max_value=99), max_size=24))
    def test_arbitrary_records_with_key(self, values):
        tracker = ResourceTracker()
        tape = RecordTape(values, tracker=tracker)
        out = tape_merge_sort(tape, tracker, key=lambda v: -v)
        out.rewind()
        assert list(out.scan()) == sorted(values, reverse=True)

    def test_reversals_logarithmic(self):
        """Reversals grow like log m: the heart of Corollary 7."""
        counts = {}
        rng = random.Random(0)
        for m in (16, 64, 256, 1024):
            words = ["".join(rng.choice("01") for _ in range(12)) for _ in range(m)]
            _, tracker = sort_instance_strings(words)
            counts[m] = tracker.reversals
        # doubling log m (16 → 256) should roughly double the reversals;
        # certainly not quadruple them (which linear growth would)
        assert counts[256] <= 2.5 * counts[16]
        assert counts[1024] <= counts[16] * ceil_log2(1024) / 2
        # and an absolute O(log m) envelope with an explicit constant
        for m, rev in counts.items():
            assert rev <= 14 * (ceil_log2(m) + 2)

    def test_respects_scan_budget(self):
        m = 64
        rng = random.Random(1)
        words = ["".join(rng.choice("01") for _ in range(8)) for _ in range(m)]
        budget = ResourceBudget(max_scans=checksort_reversal_budget(m))
        tracker = ResourceTracker(budget)
        tape = RecordTape(words, tracker=tracker)
        out = tape_merge_sort(tape, tracker)
        out.rewind()
        assert list(out.scan()) == sorted(words)

    def test_presorted_input_still_terminates(self):
        out, _ = sort_instance_strings([format(i, "08b") for i in range(100)])
        assert out == [format(i, "08b") for i in range(100)]


# -- the per-record tape merge sort, the reference for the run operations ----
#
# This is tape_merge_sort as it was before its phases became the run
# operations of repro.extmem.record_tape: one step_read/step_write per
# record.  The run operations must charge, emit and leave on the tapes
# exactly what it does.


def _reference_distribute(source, left, right):
    targets = (left, right)
    run_index = 0
    in_run = False
    for record in source.scan():
        if record is RUN_SEP:
            if in_run:
                targets[run_index % 2].step_write(RUN_SEP)
                run_index += 1
                in_run = False
            continue
        in_run = True
        targets[run_index % 2].step_write(record)
    if in_run:
        targets[run_index % 2].step_write(RUN_SEP)
        run_index += 1
    return run_index


def _reference_merge_round(left, right, target, key):
    a = left.step_read()
    b = right.step_read()
    while a is not None or b is not None:
        a_live = a is not None and a is not RUN_SEP
        b_live = b is not None and b is not RUN_SEP
        while a_live or b_live:
            take_left = a_live and (not b_live or key(a) <= key(b))
            if take_left:
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


def reference_tape_merge_sort(input_tape, tracker, *, key=None):
    key = key or (lambda record: record)
    work_a = RecordTape(tracker=tracker, name="sort-a")
    work_left = RecordTape(tracker=tracker, name="sort-b")
    work_right = RecordTape(tracker=tracker, name="sort-c")
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
        runs = _reference_distribute(work_a, work_left, work_right)
        if runs <= 1:
            break
        work_a.rewind()
        work_a.wipe()
        work_left.rewind()
        work_right.rewind()
        _reference_merge_round(work_left, work_right, work_a, key)
    output = RecordTape(tracker=tracker, name="sorted")
    work_left.rewind()
    for record in work_left.scan():
        if record is not RUN_SEP:
            output.step_write(record)
    return output


def _observed_sort(sort, records, key, max_scans, at, facing_left):
    """Everything one sort leaves to see: its output tape (or the type of
    the error it raised), the input head and direction, the report and
    every event.  The input head starts at ``at``, facing left if asked
    (one charged turn), before ``max_scans`` is enforced.  A blank
    (``None``) record never reaches the sort: the input tape refuses it,
    with no event, and that refusal is the outcome."""
    tracker = ResourceTracker()
    sink = RingBufferSink()
    tracker.attach_sink(sink)
    try:
        tape = RecordTape(records, tracker=tracker, name="input")
    except ReproError:
        return ReproError, None, None, tracker.report(), sink.events()
    for _ in range(at + facing_left):
        tape.move(+1)
    if facing_left:
        tape.move(-1)
    tracker.budget = ResourceBudget(max_scans=max_scans)
    try:
        out = sort(tape, tracker, key=key)
        outcome = (out.snapshot(), out.head, out.direction)
    except Exception as exc:  # noqa: BLE001 - the type is what we compare
        outcome = type(exc)
    return outcome, tape.head, tape.direction, tracker.report(), sink.events()


#: Records with few distinct keys, so a sort under ``itemgetter(0)`` sees
#: many ties between records it can tell apart by their tag.
KEYED = st.tuples(st.integers(0, 3), st.integers(0, 99))
_TIED = [(1, 5), (0, 7), (1, 2), (0, 3), (1, 9), (0, 1)]


class TestRunOperationsMatchPerRecordSort:
    @given(
        records=st.lists(KEYED, max_size=40),
        key=st.sampled_from([itemgetter(0), None]),
        max_scans=st.one_of(st.none(), st.integers(1, 100)),
        at=st.integers(0, 45),
        facing_left=st.booleans(),
    )
    @example(records=[], key=None, max_scans=None, at=0, facing_left=False)
    @example(records=[(2, 0)], key=None, max_scans=None, at=0, facing_left=False)
    @example(
        records=sorted(_TIED), key=itemgetter(0), max_scans=None, at=0,
        facing_left=False,
    )
    @example(
        records=sorted(_TIED, reverse=True), key=itemgetter(0), max_scans=None,
        at=0, facing_left=False,
    )
    @example(records=_TIED, key=itemgetter(0), max_scans=None, at=2, facing_left=True)
    @example(records=_TIED, key=itemgetter(0), max_scans=9, at=0, facing_left=True)
    @settings(max_examples=100, deadline=None)
    def test_same_tapes_report_and_events(
        self, records, key, max_scans, at, facing_left
    ):
        """Stable, ties to the left: the reference keeps tied records in
        input order, and so must the run operations."""
        at = min(at, len(records))
        args = (records, key, max_scans, at, facing_left)
        assert _observed_sort(tape_merge_sort, *args) == _observed_sort(
            reference_tape_merge_sort, *args
        )

    @given(
        left=st.lists(st.lists(KEYED, max_size=5), max_size=4),
        right=st.lists(st.lists(KEYED, max_size=5), max_size=4),
        key=st.sampled_from([itemgetter(0), None]),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_on_runs_a_sort_never_makes(self, left, right, key):
        """Unsorted and empty runs: the per-record merge takes a record
        and the smaller ones after it as one block, ties to the left."""

        def observed(merge):
            tracker = ResourceTracker()
            sink = RingBufferSink()
            tracker.attach_sink(sink)
            tapes = [
                RecordTape(
                    [r for run in runs for r in (*run, RUN_SEP)], tracker=tracker
                )
                for runs in (left, right, [])
            ]
            merge(*tapes)
            return [(t.snapshot(), t.head, t.direction) for t in tapes], sink.events()

        assert observed(
            lambda a, b, out: merge_runs(a, b, out, RUN_SEP, key)
        ) == observed(
            lambda a, b, out: _reference_merge_round(a, b, out, key or (lambda r: r))
        )

    @pytest.mark.parametrize(
        "records", [[(1, 0), None, (0, 1)], [(1, 0), (0, 1), RUN_SEP, (2, 2)]]
    )
    def test_blank_or_separator_in_input_raises_at_the_same_event(self, records):
        args = (records, itemgetter(0), None, 0, False)
        observed = _observed_sort(tape_merge_sort, *args)
        assert observed[0] is ReproError
        assert observed == _observed_sort(reference_tape_merge_sort, *args)


class TestCheckSort:
    def test_yes_and_no(self):
        rng = random.Random(2)
        for _ in range(10):
            yes = random_checksort_instance(12, 6, rng, yes=True)
            no = random_checksort_instance(12, 6, rng, yes=False)
            assert check_sort_deterministic(yes).accepted
            assert not check_sort_deterministic(no).accepted

    def test_wrong_multiset_rejected(self):
        inst = encode_instance(["0", "1"], ["0", "0"])
        assert not check_sort_deterministic(inst).accepted

    def test_empty_instance(self):
        assert check_sort_deterministic("").accepted

    @given(bit_words)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, words):
        inst = encode_instance(words, sorted(words))
        assert check_sort_deterministic(inst).accepted == CHECK_SORT(inst)
        assert check_sort_deterministic(inst).accepted

    def test_reversal_budget_holds(self):
        rng = random.Random(3)
        inst = random_checksort_instance(128, 8, rng, yes=True)
        result = check_sort_deterministic(inst)
        assert result.report.scans <= checksort_reversal_budget(128)


class TestEqualitySolvers:
    def test_multiset_solver(self):
        rng = random.Random(4)
        for _ in range(10):
            yes = random_equal_instance(10, 6, rng)
            no = random_unequal_instance(10, 6, rng)
            assert multiset_equality_deterministic(yes).accepted
            assert not multiset_equality_deterministic(no).accepted

    def test_set_solver_ignores_multiplicity(self):
        inst = encode_instance(["0", "0", "1"], ["1", "1", "0"])
        assert set_equality_deterministic(inst).accepted
        assert not multiset_equality_deterministic(inst).accepted

    @given(bit_words, bit_words)
    @settings(max_examples=60, deadline=None)
    def test_both_match_reference(self, first, second):
        k = min(len(first), len(second))
        inst = encode_instance(first[:k], second[:k])
        assert multiset_equality_deterministic(inst).accepted == MULTISET_EQUALITY(
            inst
        )
        assert set_equality_deterministic(inst).accepted == SET_EQUALITY(inst)

    def test_empty(self):
        assert multiset_equality_deterministic("").accepted
        assert set_equality_deterministic("").accepted

    def test_logarithmic_scans(self):
        rng = random.Random(5)
        for m in (16, 256):
            inst = random_equal_instance(m, 8, rng)
            result = multiset_equality_deterministic(inst)
            assert result.report.scans <= 2 * checksort_reversal_budget(m)
