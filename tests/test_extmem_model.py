"""Stateful model test of the external-memory runtime (repro.extmem).

A Hypothesis ``RuleBasedStateMachine`` drives one :class:`ResourceTracker`
(under a random :class:`ResourceBudget`, with a :class:`RingBufferSink`
that a rule detaches and re-attaches, so the sink-free path every
unobserved run takes is checked too, and that another rule replaces with
a fresh :class:`TallySink`), one to three :class:`RecordTape` objects and
an :class:`InternalMemory` through random programs of primitive
operations.  One rule is a register loop, which commits through
``has_headroom``/``commit_peak`` whenever they allow it: with no sink or
with the tally attached.
Every operation also runs on :class:`Model`, a pure reference written in
the one-cell-at-a-time style of the paper's tape model: derived operations
(seeks, scans, bulk writes) are loops over single ``move`` steps, and every
charge is check-then-commit.  After each rule the test compares the full
event stream, every head and direction, every tape's contents, the
tracker's ``report()`` and the memory registers; each rule also compares
its return value and the type of any exception it raised.  While the
tally is attached, its count, its denials and its last event must equal
those of the model's events since it was attached, so a loop the tally
took whole is checked against the model's stores one at a time.

The model is the oracle for the tapes' fast paths: however the runtime
implements a seek or a scan, it must charge and emit exactly what this
per-cell walk does, in the same order.
"""

from itertools import islice

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import (
    ReproError,
    ReversalBudgetExceeded,
    SpaceBudgetExceeded,
    TapeBudgetExceeded,
)
from repro.extmem import InternalMemory, RecordTape, ResourceBudget, ResourceTracker
from repro.extmem.memory import bit_cost
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

    # -- rules ---------------------------------------------------------------

    @precondition(lambda self: len(self.tapes) < MAX_TAPES)
    @rule(records=st.lists(RECORDS, max_size=6))
    def add_tape(self, records):
        name = f"t{len(self.tapes) + 1}"
        tape, error = _outcome(
            lambda: RecordTape(records, tracker=self.tracker, name=name)
        )
        tid, model_error = _outcome(self.model.register, name)
        assert error == model_error
        if tape is not None:
            assert tape.tape_id == tid
            self.tapes.append(tape)
            self.model.tapes.append([list(records), 0, +1, tid, name])

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
