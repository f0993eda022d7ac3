"""Tests for repro.observability: events, sinks, spans, contract audit."""

import io
import json
import random
from pathlib import Path

import pytest

from repro.errors import (
    ReversalBudgetExceeded,
    SpaceBudgetExceeded,
    TapeBudgetExceeded,
)
from repro.extmem import (
    InternalMemory,
    RecordTape,
    ResourceBudget,
    ResourceTracker,
)
from repro.observability import (
    KIND_DENIED,
    KIND_INTERNAL,
    KIND_PHASE,
    KIND_REVERSAL,
    KIND_STEP,
    KIND_TAPE,
    SETUP_PHASE,
    EngineProbe,
    JsonlFileSink,
    ResourceEvent,
    RingBufferSink,
    TallySink,
    replay_jsonl,
)
from repro.observability import audit as audit_module
from repro.observability.audit import (
    CONTRACTS,
    ContractSpec,
    run_contract_audit,
    write_audit_json,
)


def _tracked_run(sink):
    """A tiny scripted run: one tape, two phases, a few charges."""
    tracker = ResourceTracker()
    tracker.attach_sink(sink)
    tape = RecordTape(["a", "b"], tracker=tracker, name="input")
    tracker.mark_phase("forward")
    list(tape.scan())
    tracker.mark_phase("backward")
    tape.move(-1)
    tracker.charge_internal(5)
    tracker.charge_internal(-5)
    tracker.charge_step(3)
    return tracker


class TestEventStream:
    def test_sequence_numbers_are_monotone_and_dense(self):
        sink = RingBufferSink()
        _tracked_run(sink)
        seqs = [e.seq for e in sink.events()]
        assert seqs == list(range(1, len(seqs) + 1))

    def test_events_carry_tape_attribution(self):
        sink = RingBufferSink()
        _tracked_run(sink)
        (tape_event,) = [e for e in sink if e.kind == KIND_TAPE]
        assert tape_event.tape_id == 1
        assert tape_event.label == "input"
        (reversal,) = [e for e in sink if e.kind == KIND_REVERSAL]
        assert reversal.tape_name == "input"
        assert reversal.scans == 2

    def test_no_sink_means_no_events_and_identical_accounting(self):
        sink = RingBufferSink()
        observed = _tracked_run(sink)
        silent = _tracked_run(TallySink())
        assert observed.report() == silent.report()

    def test_detach_sink_stops_the_stream(self):
        sink = RingBufferSink()
        tracker = ResourceTracker()
        tracker.attach_sink(sink)
        tid = tracker.register_tape("t")
        tracker.detach_sink()
        tracker.charge_reversal(tid)
        assert len(sink) == 1  # only the registration was observed
        assert tracker.reversals == 1  # accounting continued regardless

    def test_denied_event_shows_prechange_totals(self):
        sink = RingBufferSink()
        tracker = ResourceTracker(ResourceBudget(max_internal_bits=4))
        tracker.attach_sink(sink)
        tracker.charge_internal(4)
        with pytest.raises(SpaceBudgetExceeded):
            tracker.charge_internal(2)
        denied = [e for e in sink if e.kind == KIND_DENIED]
        assert len(denied) == 1
        assert denied[0].current_internal_bits == 4  # unchanged by denial
        assert denied[0].delta == 2


class TestSinks:
    def test_ring_buffer_caps_and_counts_drops(self):
        sink = RingBufferSink(capacity=3)
        tracker = ResourceTracker()
        tracker.attach_sink(sink)
        for _ in range(5):
            tracker.charge_step()
        assert len(sink) == 3
        assert sink.dropped == 2
        assert [e.seq for e in sink.events()] == [3, 4, 5]
        assert sink.events()[-1].steps == 5  # suffix totals stay exact

    def test_ring_buffer_rejects_silly_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_tally_counts_the_whole_stream_and_keeps_the_last_event(self):
        ring, tally = RingBufferSink(), TallySink()
        _every_kind_run(ring)
        _every_kind_run(tally)
        events = ring.events()
        assert tally.events == len(events)
        assert tally.denied == 3
        assert tally.last == events[-1]

    def test_jsonl_roundtrip(self):
        stream = io.StringIO()
        with JsonlFileSink(stream) as sink:
            _tracked_run(sink)
        lines = stream.getvalue().splitlines()
        assert len(lines) == sink.emitted
        events = list(replay_jsonl(lines))
        assert events[0].kind == KIND_TAPE
        assert events[0].tape_name == "input"
        kinds = {e.kind for e in events}
        assert KIND_PHASE in kinds and KIND_REVERSAL in kinds
        # every line is valid standalone JSON
        for line in lines:
            json.loads(line)

    def test_jsonl_file_sink_writes_to_path(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlFileSink(str(path)) as sink:
            _tracked_run(sink)
        events = list(replay_jsonl(path.read_text().splitlines()))
        assert events and events[-1].seq == len(events)

    def test_replay_skips_span_and_ledger_lines_losslessly(self):
        """Satellite: one JSONL file can interleave all three schemas —
        tracker events, probe spans and sweep-ledger records — and the
        event layer replays exactly."""
        from repro.observability.ledger import LedgerWriter

        stream = io.StringIO()
        with JsonlFileSink(stream) as sink:
            _tracked_run(sink)
        event_lines = stream.getvalue().splitlines()
        ledger_stream = io.StringIO()
        with LedgerWriter(ledger_stream) as ledger:
            ledger.sweep_start("mixed", tasks=1)
            ledger.record_outcome("mixed", index=0, ok=True)
            ledger.sweep_end("mixed")
        ledger_lines = ledger_stream.getvalue().splitlines()
        span_line = json.dumps({"kind": "span", "name": "x", "id": 1})
        # interleave: span, ledger record, then events, then the rest
        mixed = [span_line, ledger_lines[0]] + event_lines + ledger_lines[1:]

        replayed = list(replay_jsonl(mixed))
        reference = RingBufferSink()
        _tracked_run(reference)
        assert replayed == reference.events()
        # a non-dict JSON line is skipped, never a crash
        assert not list(replay_jsonl(["[1, 2, 3]"]))


def _every_kind_run(sink):
    """A fixed run whose stream holds every event kind, denials included."""
    tracker = ResourceTracker(
        ResourceBudget(max_scans=3, max_internal_bits=8, max_tapes=2)
    )
    tracker.attach_sink(sink)
    mem = InternalMemory(tracker)
    a = RecordTape(["x", "y", "z"], tracker=tracker, name="a")
    tracker.mark_phase("load")
    mem["v"] = 5
    list(a.scan())
    a.seek_start()
    tracker.mark_phase("work")
    b = RecordTape(tracker=tracker, name="b")
    b.write_all(["p", "q"])
    a.rewind()
    with pytest.raises(ReversalBudgetExceeded):
        b.seek_start()
    with pytest.raises(SpaceBudgetExceeded):
        mem["w"] = 255
    with pytest.raises(TapeBudgetExceeded):
        RecordTape(tracker=tracker)
    tracker.charge_step(4)
    mem.free("v")
    return tracker


# -- the event-stream fold, the reference for the probe's phase spans --------
#
# This is RunProfile.from_events as it was before the probe's phase spans
# became the one phase derivation: it slices a complete event stream at
# its phase marks and counts each slice's events, where the probe works
# from the running totals every event carries.  Both must give the same
# numbers.

#: What the fold gives for each phase, besides its name: the phase
#: span's args.
PHASE_ARGS = (
    "reversals",
    "reversals_per_tape",
    "steps",
    "entry_internal_bits",
    "exit_internal_bits",
    "peak_internal_bits",
    "denied",
)


def reference_run_profile(events):
    """Per phase, in order: a dict of its ``name`` and :data:`PHASE_ARGS`."""
    phases = []
    current = None
    last = None
    for event in events:
        if current is None or event.kind == KIND_PHASE:
            bits = last.current_internal_bits if last is not None else 0
            current = dict(
                name=event.label if event.kind == KIND_PHASE else SETUP_PHASE,
                reversals=0,
                reversals_per_tape={},
                steps=0,
                entry_internal_bits=bits,
                exit_internal_bits=bits,
                peak_internal_bits=bits,
                denied=0,
            )
            phases.append(current)
            if event.kind == KIND_PHASE:
                last = event
                continue
        current["exit_internal_bits"] = event.current_internal_bits
        if event.current_internal_bits > current["peak_internal_bits"]:
            current["peak_internal_bits"] = event.current_internal_bits
        if event.kind == KIND_REVERSAL:
            current["reversals"] += 1
            tape = event.tape_name or f"tape-{event.tape_id}"
            per_tape = current["reversals_per_tape"]
            per_tape[tape] = per_tape.get(tape, 0) + 1
        elif event.kind == KIND_STEP:
            current["steps"] += event.delta
        elif event.kind == KIND_DENIED:
            current["denied"] += 1
        last = event
    return phases


def phase_spans(probe):
    """The probe's phase spans, shaped as :func:`reference_run_profile`."""
    return [
        dict(name=span.name, **{key: span.args[key] for key in PHASE_ARGS})
        for span in probe.tracer.spans()
        if span.category == "phase"
    ]


def _probed(run):
    """Run ``run(sink)`` under an ``EngineProbe`` that forwards every
    event to a ring buffer; returns the finished probe, the complete
    event stream and what ``run`` returned."""
    ring = RingBufferSink()
    probe = EngineProbe(sink=ring)
    result = run(probe)
    probe.finish()
    assert ring.dropped == 0
    return probe, ring.events(), result


class TestResourceEventContract:
    """``ResourceEvent`` is an immutable ``NamedTuple``; the stream it
    carries is unchanged from when it was a frozen dataclass."""

    def _event(self):
        return ResourceEvent(7, KIND_REVERSAL, 1, "input", 1, 2, 0, 0, 1, 0)

    def test_assignment_raises(self):
        event = self._event()
        with pytest.raises(AttributeError):
            event.scans = 99
        with pytest.raises(AttributeError):
            event.label = "x"
        assert event.scans == 2

    def test_field_order_and_label_default(self):
        assert ResourceEvent._fields == (
            "seq", "kind", "tape_id", "tape_name", "delta", "scans",
            "current_internal_bits", "peak_internal_bits", "tapes_used",
            "steps", "label",
        )
        assert ResourceEvent._field_defaults == {"label": None}
        assert self._event().label is None

    def test_compares_equal_to_a_plain_tuple(self):
        event = self._event()
        assert event == (7, KIND_REVERSAL, 1, "input", 1, 2, 0, 0, 1, 0, None)
        assert event == ResourceEvent(*tuple(event))

    def test_jsonl_roundtrip_is_exact(self):
        sink = RingBufferSink()
        _every_kind_run(sink)
        events = sink.events()
        assert {e.kind for e in events} == {
            KIND_TAPE, KIND_PHASE, KIND_REVERSAL, KIND_DENIED, KIND_INTERNAL,
            KIND_STEP,
        }
        assert all(type(e) is ResourceEvent for e in events)
        lines = [json.dumps(e.to_json_dict()) for e in events]
        replayed = list(replay_jsonl(lines))
        assert replayed == events
        assert all(type(e) is ResourceEvent for e in replayed)

    def test_run_profile_unchanged_on_a_fixed_stream(self):
        # the per-phase values RunProfile.from_events gave on this stream
        # while ResourceEvent was a frozen dataclass: the reference fold
        # still gives them, and so do the probe's phase spans
        probe, events, _ = _probed(_every_kind_run)
        expected = [
            ("(setup)", 0, {}, 0, 0, 0, 0, 0),
            ("load", 1, {"a": 1}, 0, 0, 3, 3, 0),
            ("work", 1, {"a": 1}, 4, 3, 0, 3, 3),
        ]
        for phases in (reference_run_profile(events), phase_spans(probe)):
            assert [
                (p["name"],) + tuple(p[key] for key in PHASE_ARGS)
                for p in phases
            ] == expected


class TestRunProfile:
    """The probe's phase spans against the reference fold of the same
    complete event stream."""

    def test_phases_slice_the_run(self):
        probe, events, tracker = _probed(_tracked_run)
        phases = phase_spans(probe)
        assert phases == reference_run_profile(events)
        assert [p["name"] for p in phases] == ["(setup)", "forward", "backward"]
        _, forward, backward = phases
        assert forward["reversals"] == 0
        assert backward["reversals"] == 1
        assert backward["reversals_per_tape"] == {"input": 1}
        assert backward["steps"] == 3
        # five bits stored, then freed: the peak stays, the exit is back at 0
        assert backward["peak_internal_bits"] == 5
        assert backward["entry_internal_bits"] == backward["exit_internal_bits"] == 0
        assert 1 + sum(p["reversals"] for p in phases) == tracker.scans

    def test_fingerprint_phases_match_the_paper_structure(self):
        from repro.algorithms.fingerprint import multiset_equality_fingerprint
        from repro.problems.encoding import Instance

        words = ("0110", "1010", "0001")
        inst = Instance(words, tuple(reversed(words)))
        probe, events, result = _probed(
            lambda sink: multiset_equality_fingerprint(
                inst, random.Random(0), sink=sink
            )
        )
        assert result.accepted
        phases = phase_spans(probe)
        assert phases == reference_run_profile(events)
        assert [p["name"] for p in phases] == [
            "(setup)", "scan1", "params", "scan2",
        ]
        # all the run's reversal happens in scan2 (the single backward walk)
        by_name = {p["name"]: p for p in phases}
        assert by_name["scan1"]["reversals"] == 0
        assert by_name["scan2"]["reversals_per_tape"] == {"input": 1}
        assert 1 + sum(p["reversals"] for p in phases) == result.report.scans == 2
        assert (
            max(p["peak_internal_bits"] for p in phases)
            == result.report.peak_internal_bits
        )
        assert sum(p["denied"] for p in phases) == 0

    def test_mergesort_counts_reversals_on_every_tape(self):
        from repro.algorithms.mergesort_tape import sort_instance_strings
        from repro.problems import random_words

        words = random_words(16, 6, random.Random(3))

        def run(sink):
            tracker = ResourceTracker()
            tracker.attach_sink(sink)
            ordered, tracker = sort_instance_strings(words, tracker=tracker)
            assert ordered == sorted(words)
            return tracker

        probe, events, tracker = _probed(run)
        (phase,) = phase_spans(probe)
        assert [phase] == reference_run_profile(events)
        per_tape = phase["reversals_per_tape"]
        assert set(per_tape) == {"sort-a", "sort-b", "sort-c", "sorted"}
        assert list(per_tape) == sorted(per_tape)
        assert sum(per_tape.values()) == phase["reversals"] == tracker.reversals

    def test_a_tape_without_a_name_is_keyed_by_its_id(self):
        def run(sink):
            tracker = ResourceTracker()
            tracker.attach_sink(sink)
            tape = tracker.register_tape()
            tracker.charge_reversal(tape)

        probe, events, _ = _probed(run)
        assert phase_spans(probe) == reference_run_profile(events)
        assert phase_spans(probe)[0]["reversals_per_tape"] == {"tape-1": 1}

    def test_empty_stream(self):
        probe, events, _ = _probed(lambda sink: None)
        assert events == [] == reference_run_profile(events)
        assert probe.tracer.spans() == []


def _audit_one_cell(runner):
    """Audit a test runner as a one-contract, one-cell sweep."""
    spec = ContractSpec(runner.__name__, "a test runner", runner)
    (outcome,) = run_contract_audit(contracts=[spec], sweep=[(4, 4)]).contracts
    (check,) = outcome.checks
    return check


class TestContractAudit:
    def test_quick_audit_all_within_envelopes(self):
        run = run_contract_audit(quick=True, sweep=[(4, 8), (16, 8)])
        assert run.ok
        assert len(run.contracts) == len(CONTRACTS)
        for contract in run.contracts:
            for check in contract.checks:
                assert check.within, (contract.name, check.m)
                assert check.event_stream_consistent, contract.name
                assert check.denied == 0

    def test_audit_detects_a_broken_envelope(self):
        # shrink one claim below reality: the harness must flag it
        def overtight(m, n, rng, sink):
            tracker = ResourceTracker()
            tracker.attach_sink(sink)
            tape = RecordTape(list(range(m)), tracker=tracker, name="t")
            tape.rewind()  # costs nothing at start... but then:
            tape.seek_end()
            tape.seek_start()  # one real reversal
            return tracker.report(), ResourceBudget(max_scans=1)

        spec = ContractSpec("overtight", "claims 1 scan, uses 2", overtight)
        run = run_contract_audit(contracts=[spec], sweep=[(4, 4)])
        assert not run.ok
        assert not run.contracts[0].checks[0].within

    def test_audit_json_artifact_shape(self, tmp_path):
        run = run_contract_audit(quick=True, sweep=[(4, 8)])
        path = tmp_path / "audit.json"
        write_audit_json(run, str(path))
        data = json.loads(path.read_text())
        assert data["ok"] is True
        assert {c["name"] for c in data["contracts"]} == {
            s.name for s in CONTRACTS
        }
        check = data["contracts"][0]["checks"][0]
        assert set(check["measured"]) == {
            "scans",
            "reversals",
            "peak_internal_bits",
            "tapes_used",
        }
        assert set(check["claimed"]) == {
            "max_scans",
            "max_internal_bits",
            "max_tapes",
        }

    def test_audit_is_deterministic(self):
        one = run_contract_audit(quick=True, sweep=[(4, 8)])
        two = run_contract_audit(quick=True, sweep=[(4, 8)])
        assert one.to_json_dict() == two.to_json_dict()

    def test_audit_counts_a_denial_anywhere_in_the_stream(self):
        # the denial is the first of 2 + 2**16 events: more than a
        # 65,536-event suffix of the stream would hold
        def denied_early(m, n, rng, sink):
            tracker = ResourceTracker(ResourceBudget(max_tapes=0))
            tracker.attach_sink(sink)
            with pytest.raises(TapeBudgetExceeded):
                tracker.register_tape("t")
            for _ in range((1 << 16) + 1):
                tracker.charge_step()
            return tracker.report(), ResourceBudget()

        check = _audit_one_cell(denied_early)
        assert check.events == (1 << 16) + 2
        assert check.denied == 1
        assert check.within and check.event_stream_consistent
        assert not check.ok

    def test_audit_flags_charges_made_after_the_sink_is_detached(self):
        def detached(m, n, rng, sink):
            tracker = ResourceTracker()
            tracker.attach_sink(sink)
            tape = tracker.register_tape("t")
            tracker.detach_sink()
            tracker.charge_reversal(tape)  # counted, never emitted
            return tracker.report(), ResourceBudget()

        check = _audit_one_cell(detached)
        assert check.events == 1
        assert check.event_stream_consistent is False
        assert not check.ok

    def test_a_run_that_emits_nothing_is_consistent(self):
        # an empty stream reads as (scans, bits, tapes) = (1, 0, 0)
        def silent(m, n, rng, sink):
            return ResourceTracker().report(), ResourceBudget()

        check = _audit_one_cell(silent)
        assert (check.events, check.denied) == (0, 0)
        report = check.report
        assert (
            report.scans, report.peak_internal_bits, report.tapes_used
        ) == (1, 0, 0)
        assert check.event_stream_consistent is True
        assert check.ok

    def test_per_event_delivery_writes_the_same_fingerprint_cells(
        self, monkeypatch
    ):
        """A counter with no ``emit_loop`` is not a tally, so every helper
        loop stores and emits one event at a time; the fingerprint cells
        must still be the ones checked in."""

        class Counter:
            def __init__(self):
                self.events = self.denied = 0
                self.last = None

            def emit(self, event):
                self.events += 1
                self.denied += event.kind == KIND_DENIED
                self.last = event

        monkeypatch.setattr(audit_module, "TallySink", Counter)
        spec = next(spec for spec in CONTRACTS if spec.name == "fingerprint")
        (outcome,) = run_contract_audit(contracts=[spec]).contracts
        artifact = Path(__file__).resolve().parent.parent / "AUDIT_contracts.json"
        (expected,) = [
            contract
            for contract in json.loads(artifact.read_text())["contracts"]
            if contract["name"] == "fingerprint"
        ]
        assert outcome.to_json_dict() == expected

    def test_summary_renders_a_contract_without_a_scan_claim(self):
        def tapes_only(m, n, rng, sink):
            tracker = ResourceTracker()
            tracker.attach_sink(sink)
            RecordTape(list(range(m)), tracker=tracker, name="t")
            return tracker.report(), ResourceBudget(max_tapes=1)

        spec = ContractSpec("tapes-only", "claims one tape only", tapes_only)
        run = run_contract_audit(contracts=[spec], sweep=[(4, 4), (16, 4)])
        assert run.ok
        (line,) = run.summary_lines()
        assert "tapes-only" in line
        assert line.endswith("max scan-headroom used: n/a")


class TestCliAudit:
    def test_main_audit_quick(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "AUDIT_contracts.json"
        code = main(["audit", "--quick", "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["mode"] == "quick"
        assert data["ok"] is True
        captured = capsys.readouterr().out
        assert "ALL WITHIN CLAIMED ENVELOPES" in captured


class TestOneProcess:
    def test_serial_paths_load_no_process_machinery(self):
        """The audit and the Monte Carlo trials run in this process: a
        fresh interpreter that runs both has imported neither
        ``multiprocessing`` nor ``concurrent.futures``."""
        import os
        import subprocess
        import sys

        import repro

        script = "\n".join([
            "import sys",
            "from repro.__main__ import main",
            "from repro.observability.audit import run_contract_audit",
            "assert run_contract_audit(quick=True).ok",
            "assert main(['trace', 'coin-flip', '--n', '4',"
            " '--trials', '64']) == 0",
            "print(sorted({'multiprocessing', 'concurrent.futures'}"
            " & set(sys.modules)))",
        ])
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        )
        assert done.stdout.splitlines()[-1] == "[]"


class TestMemoryEventConsistency:
    def test_memory_and_tracker_agree_under_observation(self):
        sink = TallySink()
        tracker = ResourceTracker(ResourceBudget(max_internal_bits=16))
        tracker.attach_sink(sink)
        mem = InternalMemory(tracker)
        mem["a"] = 255  # 8 bits
        with pytest.raises(SpaceBudgetExceeded):
            mem["b"] = 2**15  # 16 more bits: denied
        mem["c"] = 7  # 3 bits: still fits
        assert mem.used_bits == tracker.current_internal_bits == 11
        assert sink.denied == 1
        assert sink.last.peak_internal_bits == tracker.peak_internal_bits


class TestTracer:
    def test_nesting_follows_call_order(self):
        from repro.observability import Tracer

        tracer = Tracer()
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        tracer.end(inner, cost=3)
        tracer.end(outer)
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.args["cost"] == 3
        assert outer.duration_us >= inner.duration_us

    def test_double_end_raises(self):
        from repro.observability import Tracer

        tracer = Tracer()
        span = tracer.begin("s")
        tracer.end(span)
        with pytest.raises(ValueError):
            tracer.end(span)

    def test_capacity_drops_are_counted(self):
        from repro.observability import Tracer

        tracer = Tracer(capacity=2)
        spans = [tracer.begin(f"s{i}") for i in range(5)]
        for span in reversed(spans):
            if span.end_us is None:
                tracer.end(span)
        assert len(tracer) == 2
        assert tracer.dropped == 3
        assert any("3 spans dropped" in l for l in tracer.render_timeline())

    def test_timeline_prints_count_tables_last(self):
        from repro.observability import Tracer

        tracer = Tracer()
        tracer.end(tracer.begin("p"), per={"a": 2, "b": 1}, n=3)
        tracer.end(tracer.begin("q"), per={}, n=0)
        p_line, q_line = tracer.render_timeline()
        assert p_line.endswith("  n=3 [a:2, b:1]")
        assert q_line.endswith("  n=0")

    def test_chrome_trace_export_shape(self):
        from repro.observability import Tracer

        tracer = Tracer()
        with tracer.span("work", "engine", n=4):
            tracer.begin("open-child")  # left open deliberately
        doc = tracer.to_chrome_trace(process_name="test")
        events = doc["traceEvents"]
        assert events[0]["ph"] == "M"
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"work", "open-child"}
        for e in xs:
            assert e["dur"] > 0 and "pid" in e and "tid" in e
        (child,) = [e for e in xs if e["name"] == "open-child"]
        assert child["args"]["unfinished"] is True
        json.dumps(doc)  # serializable

    def test_write_chrome_trace_file(self, tmp_path):
        from repro.observability import Tracer

        tracer = Tracer()
        with tracer.span("w"):
            pass
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        assert json.loads(path.read_text())["traceEvents"]


class TestEngineProbe:
    def test_fingerprint_spans_cover_every_phase_exactly(self, tmp_path):
        """A probed Theorem 8(a) run yields Chrome-trace JSON with one
        finished span per ``mark_phase`` phase, each carrying the phase's
        numbers, reversals per tape included."""
        from repro.algorithms.fingerprint import multiset_equality_fingerprint
        from repro.problems.encoding import Instance

        words = ("0110", "1010", "0001")
        inst = Instance(words, tuple(reversed(words)))
        probe, events, result = _probed(
            lambda sink: multiset_equality_fingerprint(
                inst, random.Random(0), sink=sink
            )
        )
        assert result.accepted
        spans = [s for s in probe.tracer.spans() if s.category == "phase"]
        assert all(span.finished for span in spans)

        path = tmp_path / "fingerprint-trace.json"
        probe.tracer.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        chrome = {
            e["name"]: {key: e["args"][key] for key in PHASE_ARGS}
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        }
        assert chrome == {
            phase.pop("name"): phase for phase in reference_run_profile(events)
        }

    def test_probe_observes_both_engines_identically(self):
        from repro.machines import equality_machine
        from repro.machines import execute, fast_engine

        machine = equality_machine()
        word = "0101#0101"
        probes = []
        for engine in (execute, fast_engine):
            probe = EngineProbe()
            result = engine.run_deterministic(machine, word, probe=probe)
            probe.finish()
            probes.append((probe, result))
        (p_ref, r_ref), (p_fast, r_fast) = probes
        (ref_run,) = p_ref.tracer.spans()
        (fast_run,) = p_fast.tracer.spans()
        assert ref_run.name == fast_run.name == f"run:{machine.name}"
        assert ref_run.args == fast_run.args
        assert ref_run.args["steps"] == r_fast.statistics.length - 1
        assert r_ref.statistics == r_fast.statistics

    def test_branch_spans_carry_their_depth(self):
        from fractions import Fraction

        from repro.machines import guess_bit_machine
        from repro.machines.fast_engine import acceptance_probability

        probe = EngineProbe()
        p = acceptance_probability(guess_bit_machine(), "0110", probe=probe)
        assert p == Fraction(1, 2)
        spans = probe.tracer.spans()
        assert spans and all(s.category == "branch" for s in spans)
        assert all(s.finished for s in spans)
        depth = {s.span_id: s.args["depth"] for s in spans}
        for span in spans:
            expected = 0 if span.parent_id is None else depth[span.parent_id] + 1
            assert span.args["depth"] == expected
        assert probe.dag_stats["frames"] == len(spans)

    def test_close_exports_both_layers_into_one_jsonl(self, tmp_path):
        from repro.observability import EngineProbe

        path = tmp_path / "combined.jsonl"
        file_sink = JsonlFileSink(str(path))
        probe = EngineProbe(sink=file_sink)
        _tracked_run(probe)
        probe.close()  # finish + export spans + close the wrapped sink
        lines = path.read_text().splitlines()
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "span" in kinds and "phase" in kinds
        # the resource-event layer replays losslessly despite the span
        # lines: a second identical scripted run must produce equal events
        reference = RingBufferSink()
        _tracked_run(reference)
        assert list(replay_jsonl(lines)) == reference.events()

    def test_dag_stats_reach_the_probe(self):
        from repro.machines.fast_engine import acceptance_probability
        from repro.machines.library import coin_flip_machine

        probe = EngineProbe()
        acceptance_probability(coin_flip_machine(), "01", probe=probe)
        assert probe.dag_stats == {
            "interned": 3, "memoized": 3, "memo_hits": 0, "frames": 1,
        }
        # a second DP under the same probe adds to the sums
        acceptance_probability(coin_flip_machine(), "01", probe=probe)
        assert probe.dag_stats["interned"] == 6
        assert probe.dag_stats["frames"] == 2


class TestSharedStepGuard:
    """Satellite: both engines share stuck/step-limit/choice-exhausted
    control flow — pinned by differential tests on the failure paths."""

    def _stuck_machine(self):
        from repro.machines import MachineBuilder, R

        b = MachineBuilder("stuck").start("q").accept("a")
        b.on("q", ("0",), "q", ("0",), (R,))
        return b.build()

    def test_stuck_machine_same_error_both_engines(self):
        from repro.errors import MachineError
        from repro.machines import execute, fast_engine

        machine = self._stuck_machine()
        messages = []
        for engine in (execute, fast_engine):
            with pytest.raises(MachineError) as exc:
                engine.run_deterministic(machine, "00")
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert "stuck" in messages[0]

    def test_step_budget_same_error_both_engines(self):
        from repro.errors import StepBudgetExceeded
        from repro.extmem.tape import BLANK
        from repro.machines import MachineBuilder, R
        from repro.machines import execute, fast_engine

        b = MachineBuilder("long").start("q").accept("a")
        b.on("q", (BLANK,), "q", ("0",), (R,))
        machine = b.build()
        messages = []
        for engine in (execute, fast_engine):
            with pytest.raises(StepBudgetExceeded) as exc:
                engine.run_deterministic(machine, "", step_limit=50)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_choice_exhaustion_diagnosed_before_stuckness(self):
        from repro.errors import MachineError
        from repro.machines import coin_flip_machine
        from repro.machines.fast_engine import run_with_choices

        with pytest.raises(MachineError) as exc:
            run_with_choices(coin_flip_machine(), "0", choices="")
        assert "exhausted" in str(exc.value)


class TestSinkCloseSemantics:
    """Satellite: JsonlFileSink close semantics + lossless replay."""

    def test_close_flushes_but_does_not_close_caller_stream(self):
        stream = io.StringIO()
        sink = JsonlFileSink(stream)
        _tracked_run(sink)
        sink.close()
        assert not stream.closed  # caller owns it
        assert stream.getvalue().count("\n") == sink.emitted
        sink.close()  # idempotent on caller-owned streams

    def test_close_closes_owned_path_handle(self, tmp_path):
        path = tmp_path / "owned.jsonl"
        sink = JsonlFileSink(str(path))
        _tracked_run(sink)
        sink.close()
        assert sink._stream.closed
        assert path.read_text().count("\n") == sink.emitted

    def test_replay_roundtrips_denied_and_phase_events_losslessly(self):
        def scripted(sink):
            tracker = ResourceTracker(ResourceBudget(max_internal_bits=4))
            tracker.attach_sink(sink)
            tracker.mark_phase("alpha")
            tracker.charge_internal(4)
            with pytest.raises(SpaceBudgetExceeded):
                tracker.charge_internal(9)
            tracker.mark_phase("omega")

        stream = io.StringIO()
        file_sink = JsonlFileSink(stream)
        scripted(file_sink)
        file_sink.close()
        ring = RingBufferSink()
        scripted(ring)  # an identical run recorded in memory

        replayed = list(replay_jsonl(stream.getvalue().splitlines()))
        assert replayed == ring.events()
        kinds = [e.kind for e in replayed]
        assert KIND_DENIED in kinds and kinds.count(KIND_PHASE) == 2
        denied = next(e for e in replayed if e.kind == KIND_DENIED)
        assert denied.delta == 9 and denied.current_internal_bits == 4


class TestCliTrace:
    def test_trace_algorithm_writes_all_artifacts(self, tmp_path, capsys):
        from repro.__main__ import main

        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        code = main(
            [
                "trace",
                "fingerprint",
                "--n",
                "4",
                "--chrome",
                str(chrome),
                "--jsonl",
                str(jsonl),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "span timeline" in out
        assert "scan2" in out and "[input:1]" in out
        doc = json.loads(chrome.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"scan1", "params", "scan2"} <= names
        lines = jsonl.read_text().splitlines()
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "span" in kinds  # both layers in one file
        assert list(replay_jsonl(lines))  # event layer still replays

    def test_trace_longer_than_the_old_event_buffer(self, tmp_path, capsys):
        """fingerprint at n = 585 is the smallest trace that emits more
        than 65,536 events, what the ring buffer it once read kept: every
        phase still prints, exact, and the JSONL file holds them all."""
        import re

        from repro.__main__ import main
        from repro.observability.audit import CONTRACTS

        jsonl = tmp_path / "trace.jsonl"
        argv = ["trace", "fingerprint", "--n", "585", "--jsonl", str(jsonl)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        measured = dict(
            re.findall(r"(\w+)=(\d+)", out.split("measured: ")[1].splitlines()[0])
        )
        phases = {
            line.split()[0]: dict(re.findall(r"(\w+)=(\d+)", line))
            for line in out.splitlines()
            if "  phase  " in line
        }
        assert list(phases) == ["(setup)", "scan1", "params", "scan2"]
        assert sum(int(p["reversals"]) for p in phases.values()) == int(
            measured["reversals"]
        )
        assert max(int(p["peak_internal_bits"]) for p in phases.values()) == int(
            measured["peak_internal_bits"]
        )

        tally = TallySink()
        spec = next(spec for spec in CONTRACTS if spec.name == "fingerprint")
        spec.run(585, 12, random.Random("trace:fingerprint:585:0"), tally)
        assert tally.events > 1 << 16
        lines = jsonl.read_text().splitlines()
        assert len(list(replay_jsonl(lines))) == tally.events
        # the events as the run emitted them, then the spans
        assert len(lines) == tally.events + len(phases)
        spans = [json.loads(line) for line in lines[tally.events:]]
        assert [span["kind"] for span in spans] == ["span"] * len(phases)

    def test_trace_machine_target(self, capsys):
        from repro.__main__ import main

        assert main(["trace", "equality", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "run:equality" in out and "accepted=True" in out

    def test_trace_randomized_machine_target(self, capsys):
        from repro.__main__ import main

        assert main(["trace", "coin-flip", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "acceptance probability" in out
        assert "configuration DAG: interned=3 memoized=3 memo_hits=0 frames=1" in out

    def test_trace_unknown_target_fails(self, capsys):
        from repro.__main__ import main

        assert main(["trace", "no-such-target"]) == 2
        assert "known targets" in capsys.readouterr().err

    def test_trace_trials_estimate_next_to_the_dp(self, capsys):
        from repro.__main__ import main

        argv = ["trace", "coin-flip", "--n", "2", "--trials", "64"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Monte Carlo estimate over 64 trials: " in out
        assert "(exact: 0.5000)" in out
        # the probe watched the exact DP only, not the sweep's trials
        assert "configuration DAG: interned=3 memoized=3 memo_hits=0 frames=1" in out
        assert "mc-acceptance" not in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["equality", "--n", "4", "--trials", "100"],
             "--trials needs a randomized machine"),
            (["fingerprint", "--trials", "8"],
             "--trials needs a randomized machine"),
            (["coin-flip", "--n", "2", "--trials", "-5"],
             "--trials must be >= 0"),
            (["equality", "--n", "-3"], "--n must be >= 0"),
        ],
    )
    def test_trace_rejects_trials_it_would_ignore(self, argv, message, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["trace"] + argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
