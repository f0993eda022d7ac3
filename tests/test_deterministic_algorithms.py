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
from repro.algorithms.mergesort_tape import (
    RUN_SEP,
    per_record_merge_sort,
)
from repro.errors import ReproError, ReversalBudgetExceeded, TapeBudgetExceeded
from repro.extmem import RecordTape, ResourceBudget, ResourceTracker
from repro.extmem.record_tape import sorted_ahead
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


# -- every sort path against the per-record sort ------------------------------
#
# per_record_merge_sort is the tape merge sort as the machine runs it, one
# step_read/step_write per record.  tape_merge_sort moves the records once
# when every key is of one totally ordered builtin kind and runs that sort
# otherwise; on either path it must leave, charge and emit exactly what
# the per-record sort does.


def _observed_sort(sort, records, key, max_scans, at, facing_left, max_tapes=None):
    """Everything one sort leaves to see: its output tape (or the type of
    the error it raised), the input head and direction, the report and
    every event.  The input head starts at ``at``, facing left if asked
    (one charged turn), before ``max_scans`` and ``max_tapes`` are
    enforced.  A blank (``None``) record never reaches the sort: the
    input tape refuses it, with no event, and that refusal is the
    outcome."""
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
    tracker.budget = ResourceBudget(max_scans=max_scans, max_tapes=max_tapes)
    try:
        out = sort(tape, tracker, key=key)
        outcome = (out.snapshot(), out.head, out.direction)
    except Exception as exc:  # noqa: BLE001 - the type is what we compare
        outcome = type(exc)
    return outcome, tape.head, tape.direction, tracker.report(), sink.events()


def _same_as_per_record_sort(
    records, key=None, max_scans=None, at=0, facing_left=False, max_tapes=None
):
    """Assert both sorts are observed alike; return the outcome."""
    args = (records, key, max_scans, at, facing_left, max_tapes)
    observed = _observed_sort(tape_merge_sort, *args)
    assert observed == _observed_sort(per_record_merge_sort, *args)
    return observed[0]


class _Backwards(str):
    """A ``str`` whose ``<=`` is reversed while its ``<`` is not."""

    def __le__(self, other):
        return str.__ge__(self, other)


def _raises_on(k):
    """A key on ``(position, value)`` records that raises on the k-th."""

    def key(record):
        if record[0] == k:
            raise ValueError(f"record {k}")
        return record[1]

    return key


NAN = float("nan")

#: Records whose keys the gate refuses, each with its key.
OUTSIDE_THE_GATE = st.one_of(
    st.tuples(st.lists(st.floats(-2, 2) | st.just(NAN), max_size=12), st.none()),
    st.tuples(
        st.lists(st.frozensets(st.integers(0, 3), max_size=3), max_size=12),
        st.none(),
    ),
    st.tuples(
        st.lists(st.integers(0, 3) | st.text("ab", max_size=2), max_size=12),
        st.none(),
    ),
    st.tuples(st.lists(st.booleans() | st.integers(0, 1), max_size=12), st.none()),
    st.tuples(
        st.lists(st.text("ab", max_size=2).map(_Backwards), max_size=12),
        st.none(),
    ),
    st.tuples(
        st.lists(st.integers(0, 3) | st.just(RUN_SEP), max_size=12),
        st.sampled_from([None, str]),
    ),
    st.builds(
        lambda values, k: (list(enumerate(values)), _raises_on(k)),
        st.lists(st.integers(0, 3), max_size=12),
        st.integers(0, 12),
    ),
)

#: The key kinds the gate admits, each drawn with many ties.
GATED_KINDS = {
    "str": st.text("ab", max_size=2),
    "str tuples": st.lists(st.text("ab", max_size=1), max_size=3).map(tuple),
    "int": st.integers(-3, 3),
    "int tuples": st.lists(st.integers(0, 2), max_size=3).map(tuple),
}
KEYS_OF_ONE_KIND = st.sampled_from(sorted(GATED_KINDS)).flatmap(
    lambda kind: st.lists(GATED_KINDS[kind], max_size=24)
)
_TIED = [(1, 5), (0, 7), (1, 2), (0, 3), (1, 9), (0, 1)]


class TestSortMatchesPerRecordSort:
    @given(
        case=OUTSIDE_THE_GATE,
        max_scans=st.one_of(st.none(), st.integers(1, 60)),
        facing_left=st.booleans(),
    )
    @example(case=([3, RUN_SEP, 1], str), max_scans=None, facing_left=False)
    @example(case=([(0, 2), (1, 1), (2, 0)], _raises_on(2)), max_scans=None,
             facing_left=True)
    @settings(max_examples=100, deadline=None)
    def test_keys_outside_the_gate(self, case, max_scans, facing_left):
        """Floats (NaN), sets, mixed kinds, ``bool``, a ``str`` subclass,
        a separator in the input and a raising key: the per-record sort."""
        records, key = case
        _same_as_per_record_sort(records, key, max_scans, 0, facing_left)

    @pytest.mark.parametrize(
        "records, expected",
        [
            # not total orders, where the merge's <= and sorted()'s < part
            ([frozenset({2}), frozenset({1})], [frozenset({1}), frozenset({2})]),
            ([NAN, 1.0, 0.5], [0.5, 1.0, NAN]),
            ([_Backwards("a"), _Backwards("b")], ["b", "a"]),
        ],
        ids=["frozensets", "nan", "str_subclass"],
    )
    def test_a_partial_order_sorts_as_the_merge_compares(self, records, expected):
        outcome = _same_as_per_record_sort(records)
        assert outcome[0] == expected

    @given(
        keys=KEYS_OF_ONE_KIND,
        own_keys=st.booleans(),
        max_scans=st.one_of(st.none(), st.integers(1, 80)),
        at=st.integers(0, 26),
        facing_left=st.booleans(),
    )
    @example(keys=[], own_keys=True, max_scans=None, at=0, facing_left=False)
    @example(keys=[("a", "b"), ("a",), (), ("a",)], own_keys=False,
             max_scans=None, at=1, facing_left=True)
    @example(keys=[2, 2, 1, 1, 0, 0], own_keys=False, max_scans=9, at=0,
             facing_left=True)
    @settings(max_examples=100, deadline=None)
    def test_keys_inside_the_gate(self, keys, own_keys, max_scans, at, facing_left):
        """Stable, ties to the left: tied records keep their input order."""
        if own_keys:
            records, key = keys, None
        else:
            records, key = list(enumerate(keys)), itemgetter(1)
        at = min(at, len(records))
        assert sorted_ahead(RecordTape(records[at:]), key) is not None
        outcome = _same_as_per_record_sort(records, key, max_scans, at, facing_left)
        if max_scans is None:
            assert outcome[0] == sorted(records[at:], key=key)

    def test_ties_keep_input_order(self):
        outcome = _same_as_per_record_sort(_TIED, itemgetter(0))
        assert outcome[0] == [
            (0, 7), (0, 3), (0, 1), (1, 5), (1, 2), (1, 9)
        ]

    @pytest.mark.parametrize("facing_left", [False, True])
    @pytest.mark.parametrize("m", range(10))
    def test_every_budget(self, m, facing_left):
        """Every scan budget up to one past what the sort uses, and a tape
        budget refusing each of the sort's four registrations."""
        records = [(i * 5 % 3, i) for i in range(m)]
        key = itemgetter(0)
        free = _same_as_per_record_sort(records, key, None, 0, facing_left)
        used = _observed_sort(tape_merge_sort, records, key, None, 0, facing_left)[3]
        for max_scans in range(1, used.scans + 2):
            outcome = _same_as_per_record_sort(records, key, max_scans, 0, facing_left)
            if m and max_scans < used.scans:  # m = 0 charges nothing
                assert outcome is ReversalBudgetExceeded
            else:
                assert outcome == free
        for max_tapes in range(1, 5):  # the input is the first tape
            outcome = _same_as_per_record_sort(
                records, key, None, 0, facing_left, max_tapes
            )
            assert outcome is TapeBudgetExceeded

    @pytest.mark.parametrize("m", [*range(10), 16, 17, 33, 64])
    def test_turns_are_four_plus_twelve_per_round(self, m):
        tracker = ResourceTracker()
        tape = RecordTape([format(i * 7 % m, "b") for i in range(m)], tracker=tracker)
        tape_merge_sort(tape, tracker)
        assert tracker.reversals == (4 + 12 * ceil_log2(m) if m else 0)
        if m == 64:  # the per-tape split repro trace mergesort --n 64 prints
            assert tracker.report().reversals_per_tape == {
                1: 0, 2: 26, 3: 26, 4: 24, 5: 0
            }

    @pytest.mark.parametrize(
        "records", [[(1, 0), None, (0, 1)], [(1, 0), (0, 1), RUN_SEP, (2, 2)]]
    )
    def test_blank_or_separator_in_input_raises_at_the_same_event(self, records):
        assert _same_as_per_record_sort(records, itemgetter(0)) is ReproError


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
