"""Stateful model test of the external-memory runtime (repro.extmem).

A Hypothesis ``RuleBasedStateMachine`` drives one :class:`ResourceTracker`
(under a random :class:`ResourceBudget`, with a :class:`RingBufferSink`
that a rule detaches and re-attaches, so the sink-free path every
unobserved run takes is checked too, and that another rule replaces with
a fresh :class:`TallySink`), one to three :class:`RecordTape` objects and
an :class:`InternalMemory` through random programs of primitive
operations.  One rule is a register loop, which commits through
``has_headroom``/``commit_peak`` whenever they allow it: with no sink or
with the tally attached.  One rule is the run operation ``transduce``: a
one-source scan through a transducer drawn from a small set (identity, a
filter, the query layers' dedup, a two-target router, and ones that stop
reading, raise, or yield ``None`` partway), on distinct tapes.  One rule
turns a tape in place, and one reads a tape to its end with
``read_all``.
Every operation also runs on :class:`Model`, a pure reference written in
the one-cell-at-a-time style of the paper's tape model: derived operations
(seeks, scans, bulk reads and writes) are loops over single ``move``
steps, the run operation is its per-record scan written with the model's
``step_read`` and ``step_write``, and every charge is check-then-commit.
After each rule the test compares the full event stream, every head and
direction, every tape's contents, the tracker's ``report()`` and the
memory registers; each rule also compares its return value and the type
of any exception it raised.  While the tally is attached, its count, its
denials and its last event must equal those of the model's events since
it was attached, so a loop the tally took whole is checked against the
model's stores one at a time.

The model is the oracle for the tapes' fast paths: however the runtime
implements a seek, a scan or a run operation, it must charge and emit
exactly what this per-cell walk does, in the same order.  A few explicit
programs at the end drive the machine through turns denied partway
through a bulk write or a ``transduce``, and through transducers that
stop partway on ``transduce``'s bulk path, which random programs reach
only now and then.
"""

from contextlib import nullcontext
from itertools import islice

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.algorithms.mergesort_tape import _unique
from repro.errors import (
    ReproError,
    ReversalBudgetExceeded,
    SpaceBudgetExceeded,
    TapeBudgetExceeded,
)
from repro.extmem import InternalMemory, RecordTape, ResourceBudget, ResourceTracker
from repro.extmem.memory import bit_cost
from repro.extmem.record_tape import transduce
from repro.extmem.tracker import ResourceReport
from repro.observability.sinks import RingBufferSink, TallySink
from tests.settings_profiles import STATE_MACHINE_SETTINGS

MAX_TAPES = 3
REGISTERS = ("a", "b", "c")
LOOP_REGISTERS = ("x", "y")


RECORDS = st.one_of(st.integers(-50, 50), st.text(alphabet="xy", max_size=3))
SCALARS = st.one_of(
    st.integers(-(2**40), 2**40), st.booleans(), st.text(alphabet="ab", max_size=4)
)
VALUES = st.one_of(
    SCALARS, st.tuples(SCALARS, SCALARS), st.just(None), st.just(1.5)
)


# -- transducers for ``transduce``: each sees the records once, in order --


def identity(records):
    for record in records:
        yield 0, record


def odd_length(records):
    """A filter."""
    for record in records:
        if len(str(record)) % 2:
            yield 0, record


def by_type(records):
    """A two-target router: strings to target 1, the rest to target 0
    (a bad index when there is one target)."""
    for record in records:
        yield (1 if isinstance(record, str) else 0), record


def stop_after(k):
    def transducer(records):
        for record in islice(records, k):
            yield 0, record

    transducer.__name__ = f"stop_after({k})"
    return transducer


def raise_at(k):
    def transducer(records):
        for index, record in enumerate(records):
            if index == k:
                raise ValueError(f"record {k}")
            yield 0, record

    transducer.__name__ = f"raise_at({k})"
    return transducer


def none_at(k):
    def transducer(records):
        for index, record in enumerate(records):
            yield 0, None if index == k else record

    transducer.__name__ = f"none_at({k})"
    return transducer


TRANSDUCERS = st.one_of(
    st.sampled_from([identity, odd_length, _unique, by_type]),
    st.builds(stop_after, st.integers(0, 6)),
    st.builds(raise_at, st.integers(0, 6)),
    st.builds(none_at, st.integers(0, 6)),
)


class Model:
    """Pure reference: cells, heads, directions and (r, s, t) counters."""

    def __init__(self, budget):
        self.budget = budget
        self.tapes = []  # [cells, head, direction, tape_id, name]
        self.reversals = {}
        self.names = {}
        self.current = self.peak = self.count = 0
        self.registers = {}  # name -> (value, cost)
        self.seq = 0
        # events are numbered and recorded only while a sink is attached,
        # under that sink's name; the tally's list restarts with each one
        self.sink = "ring"
        self.events = {"ring": [], "tally": []}

    def emit(self, kind, tape_id=None, delta=0, label=None):
        if self.sink is None:
            return
        self.seq += 1
        name = self.names.get(tape_id) if tape_id else None
        scans = 1 + sum(self.reversals.values())
        self.events[self.sink].append((self.seq, kind, tape_id, name, delta,
                                       scans, self.current, self.peak,
                                       self.count, 0, label))

    def register(self, name):
        limit = self.budget.max_tapes
        if limit is not None and self.count + 1 > limit:
            self.emit("denied", delta=1, label="tape")
            raise TapeBudgetExceeded(self.count + 1, limit)
        self.count += 1
        self.reversals[self.count] = 0
        self.names[self.count] = name
        self.emit("tape", tape_id=self.count, delta=1, label=name)
        return self.count

    def add_tape(self, records, name):
        """A tape holding ``records``: one with a blank cell is refused
        before it is registered."""
        if any(record is None for record in records):
            raise ReproError("blank cell")
        tid = self.register(name)
        self.tapes.append([list(records), 0, +1, tid, name])
        return tid

    def charge_reversal(self, tid):
        limit = self.budget.max_scans
        if limit is not None and 2 + sum(self.reversals.values()) > limit:
            self.emit("denied", tape_id=tid, delta=1, label="reversal")
            raise ReversalBudgetExceeded(0, limit)
        self.reversals[tid] += 1
        self.emit("reversal", tape_id=tid, delta=1)

    def charge_internal(self, delta):
        new, limit = self.current + delta, self.budget.max_internal_bits
        if new > self.peak and limit is not None and new > limit:
            self.emit("denied", delta=delta, label="internal")
            raise SpaceBudgetExceeded(new, limit)
        self.current, self.peak = new, max(self.peak, new)
        self.emit("internal", delta=delta)

    # -- tapes: every derived operation is a loop of single moves ----------

    def move(self, i, d):
        tape = self.tapes[i]
        if d not in (1, -1) or (d == -1 and tape[1] == 0 and tape[2] == -1):
            raise ReproError("bad move")
        if d != tape[2]:
            self.charge_reversal(tape[3])
            tape[2] = d
        if not (d == -1 and tape[1] == 0):
            tape[1] += d

    def read(self, i):
        cells, head = self.tapes[i][0], self.tapes[i][1]
        return cells[head] if head < len(cells) else None

    def write(self, i, record):
        cells, head = self.tapes[i][0], self.tapes[i][1]
        if record is None or head > len(cells):
            raise ReproError("bad write")
        cells[head:head + 1] = [record]

    def turn(self, i):
        tape = self.tapes[i]
        self.charge_reversal(tape[3])
        tape[2] = -tape[2]

    def step_read(self, i):
        record = self.read(i)
        self.move(i, +1)
        return record

    def step_write(self, i, record):
        self.write(i, record)
        self.move(i, +1)

    def seek_start(self, i):
        while self.tapes[i][1] > 0:
            self.move(i, -1)

    def seek_end(self, i):
        while self.tapes[i][1] < len(self.tapes[i][0]):
            self.move(i, +1)

    def rewind(self, i):
        self.seek_start(i)
        if self.tapes[i][2] == -1:
            self.charge_reversal(self.tapes[i][3])
            self.tapes[i][2] = +1

    def scan(self, i, k):
        out = []
        while len(out) < k and self.tapes[i][1] < len(self.tapes[i][0]):
            out.append(self.step_read(i))
        return out

    def scan_backward(self, i, k):
        out = []
        while k:
            record = self.read(i)
            if record is not None:
                out.append(record)
                if len(out) == k:
                    break
            if self.tapes[i][1] == 0:
                break
            self.move(i, -1)
        return out

    def wipe(self, i):
        if self.tapes[i][1] != 0:
            raise ReproError("wipe needs head 0")
        self.tapes[i][0].clear()

    # -- the run operation: its per-record scan ----------------------------

    def scanned(self, i):
        """The records ``scan`` yields, read one ``step_read`` at a time."""
        while self.tapes[i][1] < len(self.tapes[i][0]):
            yield self.step_read(i)

    def transduce(self, i, targets, transducer):
        for t, record in transducer(self.scanned(i)):
            self.step_write(targets[t], record)

    # -- internal memory ---------------------------------------------------

    def cost(self, value):
        if value is None:
            return 0
        if isinstance(value, (bool, int)):
            return max(1, int(value).bit_length())
        if isinstance(value, str):
            return 8 * len(value)
        if isinstance(value, tuple):
            return sum(self.cost(v) for v in value)
        raise ReproError("no cost")

    def store(self, name, value):
        cost = self.cost(value)
        self.charge_internal(cost - self.registers.get(name, (None, 0))[1])
        self.registers[name] = (value, cost)

    def free(self, name):
        if name in self.registers:
            self.charge_internal(-self.registers.pop(name)[1])


def _event_tuple(event):
    return (
        event.seq, event.kind, event.tape_id, event.tape_name, event.delta,
        event.scans, event.current_internal_bits, event.peak_internal_bits,
        event.tapes_used, event.steps, event.label,
    )


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - the type is what we compare
        return None, type(exc)


class ExtmemMachine(RuleBasedStateMachine):
    @initialize(
        max_scans=st.one_of(st.none(), st.integers(1, 12)),
        max_bits=st.one_of(st.none(), st.integers(0, 96)),
        max_tapes=st.one_of(st.none(), st.integers(1, MAX_TAPES)),
        records=st.lists(st.one_of(RECORDS, st.just(None)), max_size=6),
        sink=st.sampled_from(["ring", "tally", None]),
    )
    def setup(self, max_scans, max_bits, max_tapes, records, sink):
        budget = ResourceBudget(max_scans, max_bits, max_tapes)
        self.model = Model(budget)
        self.tracker = ResourceTracker(budget)
        self.sink = RingBufferSink()
        self.tracker.attach_sink(self.sink)
        self.tally = None
        if sink == "tally":
            self.attach_tally()
        elif sink is None:
            self.toggle_sink()
        self.memory = InternalMemory(self.tracker)
        self.tapes = []
        self.add_tape(records)

    def same(self, real, model, *args):
        """Run one operation on both sides; results and error types agree."""
        assert _outcome(real, *args) == _outcome(model, *args)

    def on_tape(self, index, real, model, *args):
        """Run ``real(tape, *args)`` against ``model(i, *args)``."""
        i = index % len(self.tapes)
        assert _outcome(real, self.tapes[i], *args) == _outcome(model, i, *args)

    def on_tapes(self, order, count, real, model, *args):
        """Run ``real`` on ``count`` distinct tapes, picked in ``order``,
        against ``model`` on their indices."""
        picked = [i for i in order if i < len(self.tapes)][:count]
        tapes = [self.tapes[i] for i in picked]
        assert _outcome(real, *tapes, *args) == _outcome(model, *picked, *args)

    # -- rules ---------------------------------------------------------------

    @precondition(lambda self: len(self.tapes) < MAX_TAPES)
    @rule(records=st.lists(RECORDS, max_size=6))
    def add_tape(self, records):
        name = f"t{len(self.tapes) + 1}"
        tape, error = _outcome(
            lambda: RecordTape(records, tracker=self.tracker, name=name)
        )
        tid, model_error = _outcome(self.model.add_tape, records, name)
        assert error == model_error
        if tape is not None:
            assert tape.tape_id == tid
            self.tapes.append(tape)

    @precondition(lambda self: self.tapes)
    @rule(index=st.integers(0, MAX_TAPES - 1))
    def read(self, index):
        self.on_tape(index, RecordTape.read, self.model.read)

    @precondition(lambda self: self.tapes)
    @rule(index=st.integers(0, MAX_TAPES - 1), record=st.one_of(RECORDS, st.none()))
    def write(self, index, record):
        self.on_tape(index, RecordTape.write, self.model.write, record)

    @precondition(lambda self: self.tapes)
    @rule(index=st.integers(0, MAX_TAPES - 1))
    def step_read(self, index):
        self.on_tape(index, RecordTape.step_read, self.model.step_read)

    @precondition(lambda self: self.tapes)
    @rule(index=st.integers(0, MAX_TAPES - 1), record=st.one_of(RECORDS, st.none()))
    def step_write(self, index, record):
        self.on_tape(index, RecordTape.step_write, self.model.step_write, record)

    @precondition(lambda self: self.tapes)
    @rule(
        index=st.integers(0, MAX_TAPES - 1),
        direction=st.sampled_from([1, 1, -1, -1, -1, 0, 2]),
    )
    def move(self, index, direction):
        self.on_tape(index, RecordTape.move, self.model.move, direction)

    @precondition(lambda self: self.tapes)
    @rule(index=st.integers(0, MAX_TAPES - 1))
    def turn(self, index):
        self.on_tape(index, RecordTape.turn, self.model.turn)

    @precondition(lambda self: self.tapes)
    @rule(
        index=st.integers(0, MAX_TAPES - 1),
        op=st.sampled_from(["seek_start", "seek_end", "rewind", "wipe"]),
    )
    def reposition(self, index, op):
        self.on_tape(index, getattr(RecordTape, op), getattr(self.model, op))

    @precondition(lambda self: self.tapes)
    @rule(index=st.integers(0, MAX_TAPES - 1), k=st.integers(0, 8))
    def partial_scan(self, index, k):
        self.on_tape(
            index, lambda tape, k: list(islice(tape.scan(), k)), self.model.scan, k
        )

    @precondition(lambda self: self.tapes)
    @rule(index=st.integers(0, MAX_TAPES - 1))
    def read_all(self, index):
        self.on_tape(
            index, RecordTape.read_all, lambda i: list(self.model.scanned(i))
        )

    @precondition(lambda self: self.tapes)
    @rule(index=st.integers(0, MAX_TAPES - 1), k=st.integers(0, 8))
    def partial_scan_backward(self, index, k):
        self.on_tape(
            index,
            lambda tape, k: list(islice(tape.scan_backward(), k)),
            self.model.scan_backward,
            k,
        )

    @precondition(lambda self: self.tapes)
    @rule(
        index=st.integers(0, MAX_TAPES - 1),
        records=st.lists(st.one_of(RECORDS, RECORDS, st.none()), max_size=6),
    )
    def write_all(self, index, records):
        def model_write_all(i, records):
            for record in records:
                self.model.step_write(i, record)

        self.on_tape(index, RecordTape.write_all, model_write_all, records)

    @precondition(lambda self: len(self.tapes) >= 2)
    @rule(
        order=st.permutations(range(MAX_TAPES)),
        transducer=TRANSDUCERS,
        fanout=st.integers(1, 2),
    )
    def transduce(self, order, transducer, fanout):
        """One source and ``fanout`` targets (as many as there are)."""
        self.on_tapes(
            order,
            1 + min(fanout, len(self.tapes) - 1),
            lambda source, *targets: transduce(source, targets, transducer),
            lambda i, *targets: self.model.transduce(i, targets, transducer),
        )

    @rule(name=st.sampled_from(REGISTERS), value=VALUES)
    def store(self, name, value):
        self.same(self.memory.store, self.model.store, name, value)

    @rule(name=st.sampled_from(REGISTERS + LOOP_REGISTERS))
    def free(self, name):
        self.same(self.memory.free, self.model.free, name)

    @rule(
        stores=st.lists(
            st.tuples(st.sampled_from(LOOP_REGISTERS), SCALARS),
            min_size=1,
            max_size=6,
        ),
        free_after=st.booleans(),
    )
    def loop(self, stores, free_after):
        """A register loop: one commit when the headroom test allows it,
        store by store otherwise.  The model always stores one by one.
        Like the fingerprint helpers, the loop may free its registers."""

        def run(stores):
            widest, costs, final = {}, {}, {}
            total = peak = 0
            for name, value in stores:
                cost = bit_cost(value)
                widest[name] = max(widest.get(name, 0), cost)
                delta = cost - costs.get(name, 0)  # the last one is kept
                total += delta
                costs[name] = cost
                final[name] = value
                peak = max(peak, total)
            if self.memory.has_headroom(widest):
                self.memory.commit_peak(final, peak, len(stores), delta)
            else:
                for name, value in stores:
                    self.memory.store(name, value)

        def model(stores):
            for name, value in stores:
                self.model.store(name, value)

        self.same(run, model, stores)
        if free_after:
            for name in LOOP_REGISTERS:
                self.free(name)

    @rule()
    def toggle_sink(self):
        """Detach whichever sink is attached, or re-attach the ring."""
        if self.tracker.sink is None:
            self.tracker.attach_sink(self.sink)
            self.model.sink = "ring"
        else:
            self.tracker.detach_sink()
            self.model.sink = None

    @rule()
    def attach_tally(self):
        """Attach a fresh tally in place of whatever is attached."""
        self.tally = TallySink()
        self.tracker.attach_sink(self.tally)
        self.model.sink = "tally"
        self.model.events["tally"] = []

    # -- the comparison after every rule -------------------------------------

    @invariant()
    def agrees_with_model(self):
        if not hasattr(self, "model"):
            return
        model = self.model
        assert [_event_tuple(e) for e in self.sink.events()] == model.events["ring"]
        assert self.sink.dropped == 0
        if self.tally is not None:
            tallied = model.events["tally"]
            assert self.tally.events == len(tallied)
            assert self.tally.denied == sum(e[1] == "denied" for e in tallied)
            last = self.tally.last
            assert (_event_tuple(last) if last else None) == (
                tallied[-1] if tallied else None
            )
        for tape, (cells, head, direction, _, _) in zip(self.tapes, model.tapes):
            assert (tape.head, tape.direction) == (head, direction)
            assert tape.snapshot() == cells
        reversals = sum(model.reversals.values())
        assert self.tracker.report() == ResourceReport(
            reversals=reversals,
            scans=1 + reversals,
            peak_internal_bits=model.peak,
            tapes_used=model.count,
            reversals_per_tape=dict(model.reversals),
            steps=0,
        )
        assert self.tracker.current_internal_bits == model.current
        assert self.memory.used_bits == model.current
        assert {name: self.memory[name] for name in self.memory} == {
            name: value for name, (value, _) in model.registers.items()
        }


TestExtmemModel = ExtmemMachine.TestCase
TestExtmemModel.settings = STATE_MACHINE_SETTINGS


#: Programs the random ones reach only now and then: a turn denied
#: partway through a bulk write or ``transduce``, after another tape
#: has turned or been written.  Each is (setup arguments, rule steps).
DENIED_PARTWAY = {
    "write_all": (
        dict(max_scans=2, records=[]),
        [("move", dict(index=0, direction=-1)),
         ("write_all", dict(index=0, records=[0, "x"]))],
    ),
    # the scan as written: the source's turn is allowed, the target's,
    # after its first write, denied
    "transduce": (
        dict(max_scans=4, records=[1, 2, 3]),
        [("add_tape", dict(records=[])),
         ("move", dict(index=0, direction=1)),
         ("move", dict(index=0, direction=-1)),
         ("move", dict(index=1, direction=-1)),
         ("transduce", dict(order=[0, 1, 2], transducer=identity, fanout=1))],
    ),
    # the source faces right but the target does not, so this is the
    # scan as written too: the source head stops one past record 1
    "transduce_target": (
        dict(max_scans=2, records=[1, 2, 3]),
        [("add_tape", dict(records=[])),
         ("move", dict(index=1, direction=-1)),
         ("transduce", dict(order=[0, 1, 2], transducer=identity, fanout=1))],
    ),
}


@pytest.mark.parametrize("name", sorted(DENIED_PARTWAY))
def test_turn_denied_partway(name):
    setup, steps = DENIED_PARTWAY[name]
    machine = ExtmemMachine()
    machine.setup(max_bits=None, max_tapes=None, sink="ring", **setup)
    for rule, args in steps:
        getattr(machine, rule)(**args)
        machine.agrees_with_model()
    assert machine.sink.events()[-1].kind == "denied"


#: ``transduce``'s bulk path (every tape faces right) stopped partway:
#: (transducer, the target's records, the source head, the error raised).
BULK_STOPS = {
    "raise": (raise_at(2), [1, 2], 3, ValueError),
    "early_stop": (stop_after(2), [1, 2], 2, None),
    "none_output": (none_at(2), [1, 2], 3, ReproError),
}


@pytest.mark.parametrize("name", sorted(BULK_STOPS))
def test_transduce_bulk_path_stops_partway(name):
    transducer, written, head, error = BULK_STOPS[name]
    machine = ExtmemMachine()
    machine.setup(
        max_scans=1, max_bits=None, max_tapes=None, records=[1, 2, 3, 4],
        sink="ring",
    )
    machine.add_tape([9, 8])
    machine.tapes[1].step_write(7)  # the scan overwrites the 8
    machine.model.step_write(1, 7)
    source, target = machine.tapes
    with pytest.raises(error) if error else nullcontext():
        transduce(source, (target,), transducer)
    assert (source.head, target.snapshot()) == (head, [7, *written])
    with pytest.raises(error) if error else nullcontext():
        machine.model.transduce(0, (1,), transducer)
    machine.agrees_with_model()
