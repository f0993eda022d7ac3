"""Unit and property tests for the external-memory runtime (repro.extmem)."""

from itertools import islice

import pytest
from hypothesis import given, strategies as st

from repro.errors import (
    ReproError,
    ReversalBudgetExceeded,
    SpaceBudgetExceeded,
    TapeBudgetExceeded,
)
from repro.extmem import (
    BLANK,
    InternalMemory,
    RecordTape,
    ResourceBudget,
    ResourceTracker,
    SymbolTape,
)
from repro.extmem.memory import bit_cost
from repro.extmem.record_tape import fresh_tapes, transduce
from tests.settings_profiles import STANDARD_SETTINGS

#: A random charge script: tapes, reversals, allocations, full frees.
CHARGE_OPS = st.lists(
    st.one_of(
        st.just(("tape",)),
        st.just(("rev",)),
        st.integers(min_value=1, max_value=16).map(lambda b: ("alloc", b)),
        st.just(("free",)),
    ),
    max_size=40,
)


def _replay(tracker, script):
    """Run a charge script on ``tracker`` (no enforcement expected to fire)."""
    tape_ids = []
    allocated = 0
    for op in script:
        if op[0] == "tape":
            tape_ids.append(tracker.register_tape())
        elif op[0] == "rev":
            if tape_ids:
                tracker.charge_reversal(tape_ids[-1])
        elif op[0] == "alloc":
            tracker.charge_internal(op[1])
            allocated += op[1]
        elif op[0] == "free" and allocated:
            tracker.charge_internal(-allocated)
            allocated = 0


class TestTracker:
    def test_scans_is_one_plus_reversals(self):
        tr = ResourceTracker()
        tid = tr.register_tape()
        assert tr.scans == 1
        tr.charge_reversal(tid)
        tr.charge_reversal(tid)
        assert tr.reversals == 2
        assert tr.scans == 3

    def test_unknown_tape_rejected(self):
        tr = ResourceTracker()
        with pytest.raises(ValueError):
            tr.charge_reversal(99)

    def test_scan_budget_enforced(self):
        tr = ResourceTracker(ResourceBudget(max_scans=2))
        tid = tr.register_tape()
        tr.charge_reversal(tid)  # scans = 2, ok
        with pytest.raises(ReversalBudgetExceeded):
            tr.charge_reversal(tid)

    def test_space_budget_enforced(self):
        tr = ResourceTracker(ResourceBudget(max_internal_bits=10))
        tr.charge_internal(10)
        with pytest.raises(SpaceBudgetExceeded):
            tr.charge_internal(1)

    def test_space_peak_not_current(self):
        tr = ResourceTracker()
        tr.charge_internal(10)
        tr.charge_internal(-10)
        tr.charge_internal(5)
        assert tr.peak_internal_bits == 10
        assert tr.current_internal_bits == 5

    def test_negative_space_rejected(self):
        tr = ResourceTracker()
        with pytest.raises(ValueError):
            tr.charge_internal(-1)

    def test_tape_budget_enforced(self):
        tr = ResourceTracker(ResourceBudget(max_tapes=1))
        tr.register_tape()
        with pytest.raises(TapeBudgetExceeded):
            tr.register_tape()

    def test_report_snapshot(self):
        tr = ResourceTracker()
        tid = tr.register_tape()
        tr.charge_reversal(tid)
        tr.charge_internal(7)
        tr.charge_step(3)
        rep = tr.report()
        assert rep.reversals == 1
        assert rep.scans == 2
        assert rep.peak_internal_bits == 7
        assert rep.tapes_used == 1
        assert rep.steps == 3
        assert rep.reversals_per_tape == {tid: 1}

    def test_report_within(self):
        tr = ResourceTracker()
        tid = tr.register_tape()
        tr.charge_reversal(tid)
        rep = tr.report()
        assert rep.within(ResourceBudget(max_scans=2))
        assert not rep.within(ResourceBudget(max_scans=1))
        assert rep.within(ResourceBudget())

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ResourceBudget(max_scans=-1)


class TestTrackerAtomicity:
    """A caught *BudgetExceeded leaves the tracker exactly as before the
    offending charge — bit-identical to a budget-free twin that performed
    the same successful charges (the check-then-commit contract)."""

    def test_reversal_denial_leaves_state_unchanged(self):
        enforced = ResourceTracker(ResourceBudget(max_scans=3))
        twin = ResourceTracker()
        tid_e = enforced.register_tape()
        tid_t = twin.register_tape()
        for _ in range(2):  # scans -> 3, exactly at budget
            enforced.charge_reversal(tid_e)
            twin.charge_reversal(tid_t)
        with pytest.raises(ReversalBudgetExceeded):
            enforced.charge_reversal(tid_e)
        assert enforced.report() == twin.report()
        assert enforced.scans == 3  # not overstated by the denied charge
        assert enforced.report().within(ResourceBudget(max_scans=3))

    def test_space_denial_leaves_state_unchanged(self):
        enforced = ResourceTracker(ResourceBudget(max_internal_bits=10))
        twin = ResourceTracker()
        for tr in (enforced, twin):
            tr.charge_internal(7)
            tr.charge_internal(-2)
        with pytest.raises(SpaceBudgetExceeded):
            enforced.charge_internal(6)  # 5 + 6 = 11 > 10
        assert enforced.report() == twin.report()
        assert enforced.current_internal_bits == 5
        assert enforced.peak_internal_bits == 7

    def test_negative_space_denial_leaves_state_unchanged(self):
        tr = ResourceTracker()
        tr.charge_internal(3)
        with pytest.raises(ValueError):
            tr.charge_internal(-4)
        assert tr.current_internal_bits == 3
        assert tr.peak_internal_bits == 3

    def test_tape_denial_leaves_state_unchanged(self):
        enforced = ResourceTracker(ResourceBudget(max_tapes=1))
        twin = ResourceTracker()
        enforced.register_tape()
        twin.register_tape()
        with pytest.raises(TapeBudgetExceeded):
            enforced.register_tape()
        assert enforced.report() == twin.report()
        assert enforced.tapes_used == 1
        # the denied registration must not leave a phantom reversal slot
        with pytest.raises(ValueError):
            enforced.charge_reversal(2)

    def test_denied_charge_can_be_retried_after_budget_lift(self):
        tr = ResourceTracker(ResourceBudget(max_internal_bits=4))
        tr.charge_internal(4)
        with pytest.raises(SpaceBudgetExceeded):
            tr.charge_internal(1)
        tr.charge_internal(-4)  # free, then the same charge fits
        tr.charge_internal(4)
        assert tr.peak_internal_bits == 4

    @STANDARD_SETTINGS
    @given(
        CHARGE_OPS,
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=4),
    )
    def test_enforced_tracker_always_matches_budget_free_twin(
        self, script, max_scans, max_bits, max_tapes
    ):
        """Replay a random charge script under enforcement: at every step
        the enforced tracker's state equals the twin that only performed
        the successful charges."""
        budget = ResourceBudget(
            max_scans=max_scans,
            max_internal_bits=max_bits,
            max_tapes=max_tapes,
        )
        enforced = ResourceTracker(budget)
        twin = ResourceTracker()
        tape_ids = []
        allocated = 0
        for op in script:
            try:
                if op[0] == "tape":
                    enforced.register_tape()
                    twin.register_tape()
                    tape_ids.append(len(tape_ids) + 1)
                elif op[0] == "rev":
                    if not tape_ids:
                        continue
                    enforced.charge_reversal(tape_ids[-1])
                    twin.charge_reversal(tape_ids[-1])
                elif op[0] == "alloc":
                    enforced.charge_internal(op[1])
                    twin.charge_internal(op[1])
                    allocated += op[1]
                elif op[0] == "free" and allocated:
                    enforced.charge_internal(-allocated)
                    twin.charge_internal(-allocated)
                    allocated = 0
            except (
                ReversalBudgetExceeded,
                SpaceBudgetExceeded,
                TapeBudgetExceeded,
            ):
                pass  # denied: the twin never attempted this charge
            assert enforced.report() == twin.report()
            assert enforced.report().within(budget)

    @STANDARD_SETTINGS
    @given(
        CHARGE_OPS,
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=4),
    )
    def test_within_agrees_with_live_enforcement(
        self, script, max_scans, max_bits, max_tapes
    ):
        """``ResourceReport.within(budget)`` ⟺ the same run completes under
        an enforcing tracker: a run that finishes under enforcement yields
        a report that is ``within``, and a budget-free run whose report is
        ``within`` replays under enforcement without a denial."""
        budget = ResourceBudget(
            max_scans=max_scans,
            max_internal_bits=max_bits,
            max_tapes=max_tapes,
        )
        free = ResourceTracker()
        _replay(free, script)
        report = free.report()

        enforced = ResourceTracker(budget)
        try:
            _replay(enforced, script)
            completed = True
        except (
            ReversalBudgetExceeded,
            SpaceBudgetExceeded,
            TapeBudgetExceeded,
        ):
            completed = False
        assert completed == report.within(budget)
        if completed:
            assert enforced.report() == report


class TestInternalMemory:
    def test_bit_cost_int(self):
        assert bit_cost(0) == 1
        assert bit_cost(1) == 1
        assert bit_cost(255) == 8
        assert bit_cost(True) == 1

    def test_bit_cost_str_and_tuple(self):
        assert bit_cost("ab") == 16
        assert bit_cost((3, "a")) == 2 + 8
        assert bit_cost(None) == 0

    def test_bit_cost_rejects_unknown(self):
        with pytest.raises(ReproError):
            bit_cost(object())

    def test_store_load_free(self):
        mem = InternalMemory()
        mem["x"] = 255
        assert mem["x"] == 255
        assert mem.used_bits == 8
        mem["x"] = 1  # re-store frees the old charge
        assert mem.used_bits == 1
        mem.free("x")
        assert mem.used_bits == 0
        assert mem.peak_bits == 8

    def test_missing_register(self):
        mem = InternalMemory()
        with pytest.raises(ReproError):
            mem.load("nope")
        with pytest.raises(KeyError):
            del mem["nope"]

    def test_dict_protocol(self):
        mem = InternalMemory()
        mem["a"] = 1
        mem["b"] = 2
        assert "a" in mem and "c" not in mem
        assert sorted(mem) == ["a", "b"]
        assert len(mem) == 2
        del mem["a"]
        assert len(mem) == 1

    def test_clear(self):
        mem = InternalMemory()
        mem["a"], mem["b"] = 10, 20
        mem.clear()
        assert len(mem) == 0 and mem.used_bits == 0

    def test_budget_enforced_through_memory(self):
        tr = ResourceTracker(ResourceBudget(max_internal_bits=8))
        mem = InternalMemory(tr)
        mem["x"] = 255  # 8 bits, exactly at budget
        with pytest.raises(SpaceBudgetExceeded):
            mem["y"] = 1

    def test_failed_store_keeps_memory_and_tracker_consistent(self):
        tr = ResourceTracker(ResourceBudget(max_internal_bits=8))
        mem = InternalMemory(tr)
        mem["x"] = 255
        with pytest.raises(SpaceBudgetExceeded):
            mem["y"] = 1
        # the failed store must be invisible in *both* views
        assert "y" not in mem
        assert mem.used_bits == 8
        assert tr.current_internal_bits == 8
        assert mem.used_bits == tr.current_internal_bits

    def test_failed_restore_keeps_old_value_and_charge(self):
        tr = ResourceTracker(ResourceBudget(max_internal_bits=8))
        mem = InternalMemory(tr)
        mem["x"] = 3  # 2 bits
        with pytest.raises(SpaceBudgetExceeded):
            mem["x"] = 2**10  # would need 11 bits total
        assert mem["x"] == 3
        assert mem.used_bits == 2
        assert tr.current_internal_bits == 2


class TestSymbolTape:
    def test_initial_state(self):
        t = SymbolTape("abc")
        assert t.head == 0
        assert t.direction == +1
        assert t.read() == "a"
        assert len(t) == 3

    def test_read_past_end_is_blank(self):
        t = SymbolTape("")
        assert t.read() == BLANK

    def test_write_extends(self):
        t = SymbolTape()
        t.write("x")
        t.move(+1)
        t.move(+1)
        t.write("y")
        assert t.contents() == "x" + BLANK + "y"

    def test_reversal_counting(self):
        t = SymbolTape("abcd")
        t.move(+1)
        t.move(+1)
        assert t.reversals == 0
        t.move(-1)
        assert t.reversals == 1
        t.move(+1)
        assert t.reversals == 2

    def test_left_wall(self):
        t = SymbolTape("ab")
        t.move(-1)  # flips direction (1 reversal) but stays at 0
        assert t.head == 0
        assert t.reversals == 1

    def test_move_validation(self):
        t = SymbolTape("a")
        with pytest.raises(ReproError):
            t.move(0)

    def test_seek_start_costs_at_most_one_reversal(self):
        t = SymbolTape("abcdef")
        for _ in range(5):
            t.move(+1)
        t.seek_start()
        assert t.head == 0
        assert t.reversals == 1

    def test_scan_right(self):
        t = SymbolTape("abc")
        assert "".join(t.scan_right()) == "abc"
        assert t.head == 3

    def test_space_used_tracks_touched_cells(self):
        t = SymbolTape()
        assert t.space_used == 0
        t.write("a")
        t.move(+1)
        assert t.space_used == 2

    def test_seek_and_scan_pin_the_per_cell_accounting(self):
        t = SymbolTape("abcdef")
        assert list(islice(t.scan_right(), 3)) == ["a", "b", "c"]
        assert (t.head, t.reversals, t.space_used) == (2, 0, 6)
        t.seek_start()  # one reversal; moving left never grows space
        assert (t.head, t.direction, t.reversals, t.space_used) == (0, -1, 1, 6)
        t.seek_start()  # already at cell 0: free
        assert t.reversals == 1
        assert t.contents() == "".join(t.scan_right())
        # the walk ends one cell past the prefix, which it has touched
        assert (t.head, t.direction, t.reversals, t.space_used) == (6, 1, 2, 7)

    @STANDARD_SETTINGS
    @given(
        st.text(alphabet="ab", max_size=6),
        st.lists(
            st.tuples(
                st.sampled_from(["seek", "scan", "left", "right", "write"]),
                st.integers(min_value=0, max_value=8),
            ),
            max_size=20,
        ),
    )
    def test_seek_and_scan_match_per_cell_walk(self, contents, ops):
        fast, walk = SymbolTape(contents), SymbolTape(contents)
        for op, k in ops:
            if op == "seek":
                fast.seek_start()
                while walk.head > 0:
                    walk.move(-1)
            elif op == "scan":
                expected = []
                while k and walk.head < len(walk):
                    expected.append(walk.read())
                    if len(expected) == k:
                        break  # the generator is suspended at this yield
                    walk.move(+1)
                assert list(islice(fast.scan_right(), k)) == expected
            elif op == "write":
                fast.write("c")
                walk.write("c")
            else:
                for tape in (fast, walk):
                    tape.move(-1 if op == "left" else +1)
            assert (fast.head, fast.direction, fast.reversals, fast.space_used) == (
                walk.head, walk.direction, walk.reversals, walk.space_used,
            )
            assert fast.contents() == walk.contents()


class TestRecordTape:
    def test_read_write_step(self):
        t = RecordTape()
        t.step_write("v1")
        t.step_write("v2")
        assert t.snapshot() == ["v1", "v2"]
        t.rewind()
        assert t.step_read() == "v1"
        assert t.step_read() == "v2"
        assert t.read() is None

    def test_cannot_write_none(self):
        t = RecordTape()
        with pytest.raises(ReproError):
            t.write(None)

    @pytest.mark.parametrize(
        "records", [["b", None, "a"], [None], ["", 0, (), None]]
    )
    def test_a_tape_cannot_hold_a_blank_cell(self, records):
        # a None cell would read as the blank: a merge would take it for
        # the end of its run and drop the records after it
        tr = ResourceTracker(ResourceBudget(max_tapes=2))
        RecordTape(["x"], tracker=tr)
        with pytest.raises(ReproError, match="blank sentinel"):
            RecordTape(records, tracker=tr, name="bad")
        assert tr.tapes_used == 1
        assert RecordTape(["", 0, ()], tracker=tr).snapshot() == ["", 0, ()]
        assert tr.tapes_used == 2

    def test_rewind_cost(self):
        tr = ResourceTracker()
        t = RecordTape(["a", "b", "c"], tracker=tr)
        list(t.scan())  # forward scan, no reversal
        assert tr.reversals == 0
        t.rewind()  # walk left (1) then face right (1)
        assert tr.reversals == 2
        list(t.scan())
        assert tr.reversals == 2

    def test_rewind_at_start_facing_right_is_free(self):
        tr = ResourceTracker()
        t = RecordTape(["a"], tracker=tr)
        t.rewind()
        assert tr.reversals == 0

    def test_scan_backward(self):
        t = RecordTape(["a", "b", "c"])
        t.seek_end()
        t.move(-1)  # onto "c"
        assert list(t.scan_backward()) == ["c", "b", "a"]

    def test_write_all(self):
        t = RecordTape()
        t.write_all(["x", "y"])
        assert t.snapshot() == ["x", "y"]
        assert t.at_end

    @pytest.mark.parametrize(
        "targets", [(0,), (1, 1)], ids=["source_as_target", "one_target_twice"]
    )
    def test_transduce_needs_distinct_tapes(self, targets):
        tr = ResourceTracker()
        pool = [RecordTape(["a", "|"], tracker=tr), RecordTape(tracker=tr)]
        with pytest.raises(ReproError, match="distinct tapes"):
            transduce(pool[0], [pool[i] for i in targets], iter)
        assert [t.snapshot() for t in pool] == [["a", "|"], []]
        assert tr.reversals == 0

    def test_shared_tracker_over_multiple_tapes(self):
        tr = ResourceTracker()
        a, b = fresh_tapes(2, tr)
        a.write_all([1, 2])
        b.write_all([3])
        a.rewind()
        b.rewind()
        rep = tr.report()
        assert rep.tapes_used == 2
        assert rep.reversals == 4  # two rewinds, two reversals each

    def test_left_wall(self):
        t = RecordTape(["a"])
        t.move(-1)
        assert t.head == 0

    def test_left_wall_bounce_charges_once_then_raises(self):
        tr = ResourceTracker()
        t = RecordTape(["a"], tracker=tr)
        t.move(-1)  # the bounce: direction flip charged, head stays
        assert t.head == 0 and t.direction == -1
        assert tr.reversals == 1
        with pytest.raises(ReproError):
            t.move(-1)  # a second left move at the wall would spin forever
        assert tr.reversals == 1  # and it charges nothing
        t.move(+1)  # recovering with a right move works (one reversal)
        assert t.head == 1 and tr.reversals == 2

    def test_seek_scan_rewind_accounting_unchanged_by_bounce_guard(self):
        # the exact accounting the seed pinned for the derived operations
        tr = ResourceTracker()
        t = RecordTape(["a", "b", "c"], tracker=tr)
        t.seek_end()
        assert tr.reversals == 0
        t.seek_start()
        assert tr.reversals == 1
        t.rewind()  # at start facing left: just the flip back to +1
        assert tr.reversals == 2
        t.seek_end()
        t.move(-1)  # onto "c"
        assert list(t.scan_backward()) == ["c", "b", "a"]
        assert tr.reversals == 3  # one reversal for the whole backward scan
        t.rewind()
        assert tr.reversals == 4  # only the flip: head already at cell 0

    def test_move_validation(self):
        t = RecordTape()
        with pytest.raises(ReproError):
            t.move(2)

    @given(st.lists(st.text(alphabet="01", min_size=1), max_size=30))
    def test_roundtrip_any_records(self, records):
        t = RecordTape()
        t.write_all(records)
        t.rewind()
        assert list(t.scan()) == records

    @given(st.lists(st.integers(), min_size=1, max_size=20))
    def test_forward_scan_never_reverses(self, records):
        tr = ResourceTracker()
        t = RecordTape(records, tracker=tr)
        list(t.scan())
        assert tr.reversals == 0
        assert tr.scans == 1
