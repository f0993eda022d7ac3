"""The sweep ledger and the report layer over it.

Covers the PR-8 observability surface: canonical-JSON ledger records
with wall-clock isolation, heartbeat/stall emission, the determinism
strip, run_batch / audit / ResultStore threading, the summarize /
compare / history rollups and their ``python -m repro report`` CLI.
"""

import io
import json

import pytest

from repro.cache import ResultStore, compose_key
from repro.errors import MachineError
from repro.observability.ledger import (
    KIND_CACHE_EVENT,
    KIND_HEARTBEAT,
    KIND_STALL,
    KIND_SWEEP_END,
    KIND_SWEEP_START,
    KIND_TASK_OUTCOME,
    KIND_WORKER_RESTART,
    LEDGER_SCHEMA,
    LedgerWriter,
    iter_ledger,
    load_ledger,
    strip_nondeterministic,
    strip_record,
)
from repro.observability.report import (
    append_history,
    compare_bench,
    history_record,
    render_comparison,
    render_summary,
    summarize_ledgers,
)


def _records(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


# -- module-level task bodies (workers import these by qualified name) ----


def _square(x):
    return x * x


# -- the writer ------------------------------------------------------------


class TestLedgerWriter:
    def test_record_shapes_and_canonical_lines(self):
        from repro.cache.fingerprint import canonical_json

        stream = io.StringIO()
        with LedgerWriter(stream) as ledger:
            ledger.sweep_start("demo", tasks=2, jobs=1)
            ledger.record_outcome(
                "demo", index=0, ok=True, seconds=0.25,
                detail={"cell": "a"},
            )
            ledger.record_outcome(
                "demo", index=1, ok=False, attempts=3,
                error={"kind": "task", "exception_type": "ValueError",
                       "message": "boom"},
            )
            ledger.cache_event("hit", "audit-cell", "ab" * 32)
            ledger.sweep_end("demo", cache={"hits": 1, "misses": 0,
                                            "writes": 0, "invalid": 0})
        records = _records(stream)
        assert [r["kind"] for r in records] == [
            KIND_SWEEP_START, KIND_TASK_OUTCOME, KIND_TASK_OUTCOME,
            KIND_CACHE_EVENT, KIND_SWEEP_END,
        ]
        assert all(r["schema"] == LEDGER_SCHEMA for r in records)
        # every line is its own canonical re-serialization
        for line, record in zip(stream.getvalue().splitlines(), records):
            assert line == canonical_json(record)
        start, ok_outcome, bad_outcome, cache, end = records
        assert start["provenance"]["repro_version"]
        assert start["tasks"] == 2
        # wall-clock isolation: the only timing field lives under "wall"
        assert ok_outcome["wall"] == {"seconds": 0.25}
        assert "seconds" not in ok_outcome
        assert ok_outcome["detail"] == {"cell": "a"}
        assert bad_outcome["attempts"] == 3
        assert bad_outcome["error"]["exception_type"] == "ValueError"
        assert cache["event"] == "hit" and cache["entry_kind"] == "audit-cell"
        assert end["completed"] == 1 and end["failed"] == 1
        assert end["cache"]["hits"] == 1
        assert "elapsed_seconds" in end["wall"]
        assert ledger.records_written == 5

    def test_strip_drops_wall_sections_and_stall_records(self):
        stream = io.StringIO()
        ledger = LedgerWriter(stream, min_stall_samples=2, stall_factor=2.0)
        ledger.sweep_start("s", tasks=4)
        for index in range(3):
            ledger.record_outcome("s", index=index, ok=True, seconds=0.01)
        # a sample far beyond 2 x the running p95 must emit a stall
        ledger.record_outcome("s", index=3, ok=True, seconds=30.0)
        ledger.sweep_end("s")
        kinds = [r["kind"] for r in _records(stream)]
        assert KIND_STALL in kinds
        stall = next(r for r in _records(stream) if r["kind"] == KIND_STALL)
        assert stall["wall"]["threshold_seconds"] > 0
        assert strip_record(stall) is None  # wholly wall-dependent
        stripped = strip_nondeterministic(stream.getvalue().splitlines())
        projected = [json.loads(line) for line in stripped]
        assert all(p["kind"] != KIND_STALL for p in projected)
        assert all("wall" not in p for p in projected)
        # the deterministic payload survives intact
        assert sum(p["kind"] == KIND_TASK_OUTCOME for p in projected) == 4

    def test_stall_threshold_uses_distribution_before_the_sample(self):
        # the first slow sample cannot raise its own bar: with 8 fast
        # samples on file, sample 9 is judged against *their* quantile
        stream = io.StringIO()
        ledger = LedgerWriter(stream, min_stall_samples=8)
        for index in range(8):
            ledger.record_outcome("s", index=index, ok=True, seconds=0.002)
        ledger.record_outcome("s", index=8, ok=True, seconds=5.0)
        assert any(r["kind"] == KIND_STALL for r in _records(stream))

    def test_heartbeat_cadence(self):
        stream = io.StringIO()
        ledger = LedgerWriter(stream, heartbeat_every=16)
        ledger.sweep_start("hb", tasks=40)
        for index in range(40):
            ledger.record_outcome("hb", index=index, ok=True)
        ledger.sweep_end("hb")
        beats = [r for r in _records(stream) if r["kind"] == KIND_HEARTBEAT]
        # at 16 and 32 completed; never at 40 (the sweep is over)
        assert [b["completed"] for b in beats] == [16, 32]
        assert all(b["tasks"] == 40 for b in beats)
        assert all("elapsed_seconds" in b["wall"] for b in beats)

    def test_worker_restarts_accumulate(self):
        stream = io.StringIO()
        ledger = LedgerWriter(stream)
        ledger.sweep_start("r", tasks=1)
        ledger.worker_restart("r")
        ledger.worker_restart("r")
        ledger.record_outcome("r", index=0, ok=True)
        ledger.sweep_end("r")
        records = _records(stream)
        restarts = [r for r in records if r["kind"] == KIND_WORKER_RESTART]
        assert [r["restarts"] for r in restarts] == [1, 2]
        end = next(r for r in records if r["kind"] == KIND_SWEEP_END)
        assert end["worker_restarts"] == 2

    def test_writes_to_a_path_and_owns_the_handle(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with LedgerWriter(path) as ledger:
            ledger.sweep_start("p", tasks=0)
            ledger.sweep_end("p")
        records, skipped = load_ledger(path)
        assert [r["kind"] for r in records] == [
            KIND_SWEEP_START, KIND_SWEEP_END,
        ]
        assert skipped == 0

    def test_parameter_validation(self):
        for kwargs in (
            {"heartbeat_every": 0},
            {"stall_factor": 0.0},
            {"stall_quantile": 0.0},
            {"stall_quantile": 1.5},
            {"min_stall_samples": 0},
        ):
            with pytest.raises(ValueError):
                LedgerWriter(io.StringIO(), **kwargs)


class TestHistogramQuantile:
    def test_nearest_rank_over_buckets(self):
        from repro.observability.metrics import Histogram

        h = Histogram("t", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 0.5, 1.5, 4.0):
            h.observe(value)
        assert h.quantile(0.5) == 1.0  # rank 2 of 4 lands in the <=1 bucket
        assert h.quantile(1.0) == 5.0

    def test_empty_and_invalid_and_overflow(self):
        from repro.observability.metrics import Histogram

        h = Histogram("t", buckets=(1.0,))
        assert h.quantile(0.5) is None
        with pytest.raises(ValueError):
            h.quantile(0.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)
        h.observe(100.0)  # lands in +Inf; report the largest finite bound
        assert h.quantile(1.0) == 1.0


# -- readers ---------------------------------------------------------------


class TestLedgerReaders:
    def test_foreign_lines_are_skipped_and_counted(self):
        stream = io.StringIO()
        ledger = LedgerWriter(stream)
        ledger.sweep_start("x", tasks=0)
        ledger.sweep_end("x")
        lines = stream.getvalue().splitlines()
        mixed = [
            '{"kind": "span", "name": "other-schema"}',
            lines[0],
            "not json at all",
            "",
            lines[1],
            '{"schema": 999, "kind": "sweep-start"}',
        ]
        records, skipped = load_ledger(mixed)
        assert [r["kind"] for r in records] == [
            KIND_SWEEP_START, KIND_SWEEP_END,
        ]
        assert skipped == 3  # span line, garbage, wrong schema — not blank
        assert [r["kind"] for r in iter_ledger(mixed)] == [
            KIND_SWEEP_START, KIND_SWEEP_END,
        ]
        # strip passes foreign lines through untouched: not ours to strip
        stripped = strip_nondeterministic(mixed)
        assert '{"kind": "span", "name": "other-schema"}' in stripped
        assert "not json at all" in stripped

    def test_torn_final_line_at_every_byte(self, tmp_path):
        """A crash leaves a prefix of the ledger, cut at any byte: strip
        and summarize read every record whose bytes are all on disk and
        drop the torn tail instead of passing it off as a foreign line."""
        stream = io.StringIO()
        ledger = LedgerWriter(stream)
        ledger.sweep_start("cut", tasks=2)
        ledger.record_outcome(
            "cut", index=0, ok=True, seconds=0.5,
            detail={"source": "computed"},
        )
        ledger.cache_event("miss", "audit-cell", "cd" * 32)
        ledger.record_outcome("cut", index=1, ok=True, seconds=0.25)
        ledger.sweep_end("cut")
        data = stream.getvalue()
        lines = data.splitlines(True)
        ends = [sum(map(len, lines[: i + 1])) for i in range(len(lines))]
        path = tmp_path / "cut.jsonl"
        for cut in range(len(data) + 1):
            path.write_text(data[:cut], encoding="utf-8")
            # a record is whole once every byte but its newline landed
            whole = sum(end - 1 <= cut for end in ends)
            expected = strip_nondeterministic(lines[:whole])
            assert strip_nondeterministic(path) == expected, cut
            assert summarize_ledgers([path])["skipped_lines"] == 0, cut


# -- run_batch threading ---------------------------------------------------


class TestRunBatchLedger:
    def _ledger_of(self, jobs):
        from repro.parallel import BatchTask, run_batch

        stream = io.StringIO()
        ledger = LedgerWriter(stream)
        tasks = [BatchTask.call(_square, i) for i in range(6)]
        result = run_batch(tasks, jobs=jobs, label="sq", ledger=ledger)
        assert list(result.values()) == [i * i for i in range(6)]
        return stream.getvalue().splitlines()

    def test_serial_sweep_is_journaled(self):
        records = [json.loads(line) for line in self._ledger_of(1)]
        kinds = [r["kind"] for r in records]
        assert kinds[0] == KIND_SWEEP_START and kinds[-1] == KIND_SWEEP_END
        outcomes = [r for r in records if r["kind"] == KIND_TASK_OUTCOME]
        assert sorted(r["index"] for r in outcomes) == list(range(6))
        assert all(r["ok"] for r in outcomes)
        end = records[-1]
        assert end["completed"] == 6 and end["failed"] == 0

    def test_parallel_strips_to_the_same_outcome_set(self):
        def outcome_lines(lines):
            return sorted(
                line for line in strip_nondeterministic(lines)
                if json.loads(line)["kind"] == KIND_TASK_OUTCOME
            )

        # completion order may differ across processes; content may not
        # (sweep-start/-end legitimately differ: they record the jobs)
        assert outcome_lines(self._ledger_of(1)) == outcome_lines(
            self._ledger_of(2)
        )

    def test_failed_task_outcome_carries_the_error(self):
        from repro.parallel import BatchTask, run_batch

        stream = io.StringIO()
        ledger = LedgerWriter(stream)
        run_batch(
            [BatchTask.call(_raise_value_error)],
            jobs=1, label="bad", ledger=ledger,
        )
        outcome = next(
            r for r in _records(stream) if r["kind"] == KIND_TASK_OUTCOME
        )
        assert not outcome["ok"]
        assert outcome["error"]["exception_type"] == "ValueError"


def _raise_value_error():
    raise ValueError("scripted failure")


# -- audit reconciliation --------------------------------------------------


class TestAuditLedger:
    def _audit(self, tmp_path, name, cache_dir=None):
        from repro.observability.audit import run_contract_audit

        path = tmp_path / name
        cache = None
        with LedgerWriter(path) as ledger:
            if cache_dir is not None:
                cache = ResultStore(cache_dir, ledger=ledger)
            run = run_contract_audit(quick=True, cache=cache, ledger=ledger)
        return run, path

    def test_cells_reconcile_with_the_audit_run(self, tmp_path):
        run, path = self._audit(tmp_path, "cold.jsonl", tmp_path / "cache")
        records, _ = load_ledger(path)
        cells = [
            r for r in records
            if r["kind"] == KIND_TASK_OUTCOME and r["label"] == "audit-cells"
        ]
        # one outcome per check, in spec x cell order; the (m, n) cell
        # coordinates recompute each check's N = m(2n + 2) exactly
        expected = [
            (c.name, check.input_size, check.ok)
            for c in run.contracts for check in c.checks
        ]
        journaled = [
            (r["detail"]["contract"],
             r["detail"]["m"] * (2 * r["detail"]["n"] + 2),
             r["ok"])
            for r in cells
        ]
        assert journaled == expected
        assert len(cells) == sum(len(c.checks) for c in run.contracts) == 24
        # cold run: every cell computed, every lookup a miss + a write
        assert {r["detail"]["source"] for r in cells} == {"computed"}
        events = [r for r in records if r["kind"] == KIND_CACHE_EVENT]
        assert sum(e["event"] == "miss" for e in events) == 24
        assert sum(e["event"] == "write" for e in events) == 24
        end = next(
            r for r in records
            if r["kind"] == KIND_SWEEP_END and r["label"] == "audit-cells"
        )
        assert end["cache"] == {
            "hits": 0, "misses": 24, "writes": 24, "invalid": 0,
        }

    def test_warm_run_serves_every_cell_from_the_store(self, tmp_path):
        cache_dir = tmp_path / "cache"
        self._audit(tmp_path, "cold.jsonl", cache_dir)
        _run, path = self._audit(tmp_path, "warm.jsonl", cache_dir)
        records, _ = load_ledger(path)
        cells = [
            r for r in records
            if r["kind"] == KIND_TASK_OUTCOME and r["label"] == "audit-cells"
        ]
        assert {r["detail"]["source"] for r in cells} == {"cache"}
        end = next(
            r for r in records
            if r["kind"] == KIND_SWEEP_END and r["label"] == "audit-cells"
        )
        assert end["cache"] == {
            "hits": 24, "misses": 0, "writes": 0, "invalid": 0,
        }

    def test_identical_runs_strip_to_identical_bytes(self, tmp_path):
        _run_a, path_a = self._audit(tmp_path, "a.jsonl", tmp_path / "ca")
        _run_b, path_b = self._audit(tmp_path, "b.jsonl", tmp_path / "cb")
        assert path_a.read_text() != ""
        assert strip_nondeterministic(path_a) == strip_nondeterministic(path_b)


# -- ResultStore events ----------------------------------------------------


class TestStoreLedgerEvents:
    def test_hit_miss_write_invalid_sequence(self, tmp_path):
        stream = io.StringIO()
        ledger = LedgerWriter(stream)
        store = ResultStore(tmp_path / "store")
        store.attach_ledger(ledger)
        key = compose_key("test-kind", x=1)
        assert store.lookup(key) is None
        store.store(key, {"v": 7})
        assert store.lookup(key) == {"v": 7}
        store.path_for(key).write_text("{corrupt", encoding="utf-8")
        assert store.lookup(key) is None  # quarantined: invalid + miss
        events = [
            (r["event"], r["entry_kind"]) for r in _records(stream)
        ]
        assert events == [
            ("miss", "test-kind"),
            ("write", "test-kind"),
            ("hit", "test-kind"),
            ("invalid", "test-kind"),
            ("miss", "test-kind"),
        ]
        digests = {r["key"] for r in _records(stream)}
        assert digests == {key.digest}


# -- census caching (satellite: route the census through the store) --------


class TestCensusCache:
    def _machine(self):
        import functools

        from repro.listmachine.examples import tandem_compare_nlm

        alphabet = frozenset({"00", "01", "10", "11"})
        factory = functools.partial(tandem_compare_nlm, alphabet, 2)
        return factory(), sorted(alphabet)

    def test_cache_requires_an_identity_token(self, tmp_path):
        from repro.lowerbounds.counting import enumerate_skeletons

        nlm, alphabet = self._machine()
        store = ResultStore(tmp_path)
        with pytest.raises(MachineError, match="cache_key"):
            enumerate_skeletons(nlm, alphabet, r=2, cache=store)

    def test_hit_skips_enumeration_and_journals(self, tmp_path):
        from repro.lowerbounds.counting import enumerate_skeletons

        nlm, alphabet = self._machine()
        stream = io.StringIO()
        ledger = LedgerWriter(stream)
        store = ResultStore(tmp_path, ledger=ledger)
        cold = enumerate_skeletons(
            nlm, alphabet, r=2, cache=store, cache_key="tandem-2"
        )
        warm = enumerate_skeletons(
            nlm, alphabet, r=2, cache=store, cache_key="tandem-2"
        )
        assert warm == cold
        assert store.hits == 1 and store.misses == 1 and store.writes == 1
        events = [r["event"] for r in _records(stream)]
        assert events == ["miss", "write", "hit"]
        assert all(
            r["entry_kind"] == "skeleton-census" for r in _records(stream)
        )
        # a different identity token is a different entry
        other = enumerate_skeletons(
            nlm, alphabet, r=2, cache=store, cache_key="other-family"
        )
        assert other == cold
        assert store.misses == 2 and store.writes == 2

    def test_damaged_entry_recomputes(self, tmp_path):
        from repro.cache.fingerprint import canonical_json
        from repro.lowerbounds.counting import enumerate_skeletons

        nlm, alphabet = self._machine()
        store = ResultStore(tmp_path)
        cold = enumerate_skeletons(
            nlm, alphabet, r=2, cache=store, cache_key="tandem-2"
        )
        ((path, entry),) = store.entries()
        payload = entry["payload"]
        payload["distinct_skeletonz"] = payload.pop("distinct_skeletons")
        path.write_text(canonical_json(entry), encoding="utf-8")
        again = enumerate_skeletons(
            nlm, alphabet, r=2, cache=store, cache_key="tandem-2"
        )
        assert again == cold
        assert store.invalid == 1 and store.writes == 2


# -- summaries -------------------------------------------------------------


class TestSummarize:
    def _ledger_lines(self):
        stream = io.StringIO()
        ledger = LedgerWriter(stream, heartbeat_every=2)
        ledger.sweep_start("s", tasks=4, jobs=2)
        ledger.record_outcome(
            "s", index=0, ok=True, seconds=0.1, detail={"source": "cache"}
        )
        ledger.record_outcome(
            "s", index=1, ok=True, attempts=2, seconds=0.3,
            detail={"source": "computed"},
        )
        ledger.record_outcome(
            "s", index=2, ok=False, seconds=0.2,
            error={"kind": "task", "exception_type": "ValueError",
                   "message": "x"},
        )
        ledger.worker_restart("s")
        ledger.record_outcome("s", index=3, ok=True, seconds=0.4)
        ledger.cache_event("hit", "audit-cell", "aa")
        ledger.cache_event("miss", "audit-cell", "bb")
        ledger.sweep_end(
            "s", cache={"hits": 1, "misses": 1, "writes": 1, "invalid": 0}
        )
        return stream.getvalue().splitlines()

    def test_rollup_counts(self):
        summary = summarize_ledgers([self._ledger_lines()])
        sweep = summary["sweeps"]["s"]
        assert sweep["tasks"] == 4
        assert sweep["completed"] == 3 and sweep["failed"] == 1
        assert sweep["retries"] == 1
        assert sweep["worker_restarts"] == 1
        assert sweep["errors"] == {"task": 1}
        assert sweep["sources"] == {"cache": 1, "computed": 1}
        assert sweep["cache"]["hits"] == 1
        latency = sweep["wall"]["latency_seconds"]
        assert latency["count"] == 4 and latency["max"] == 0.4
        assert latency["p50"] == 0.2
        assert summary["cache_events"]["audit-cell"]["hit"] == 1
        assert summary["cache_events"]["audit-cell"]["miss"] == 1

    def test_summary_is_deterministic_and_renders(self):
        lines = self._ledger_lines()
        first = summarize_ledgers([lines])
        second = summarize_ledgers([lines])
        assert first == second
        rendered = render_summary(first)
        assert any("sweep s:" in line for line in rendered)
        assert any("served from: cache=1" in line for line in rendered)


# -- bench comparison ------------------------------------------------------


def _payload(top, cells):
    """cells: {(engine, workload, n): speedup} -> a bench-shaped payload."""
    rows = [
        {"engine": engine, "machine": workload, "n": n,
         "speedup_vs_reference": value}
        for (engine, workload, n), value in cells.items()
    ]
    return {"summary": {"top_n_speedup": top}, "rows": rows}


class TestCompareBench:
    def test_ok_and_regressed_rows(self):
        baseline = _payload(10.0, {
            ("streaming", "equality", 64): 8.0,
            ("streaming", "equality", 1024): 10.0,
            ("streaming", "copy", 1024): 4.0,
        })
        run = _payload(9.5, {
            ("streaming", "equality", 64): 2.0,  # small n: not compared
            ("streaming", "equality", 1024): 9.5,
            ("streaming", "copy", 1024): 2.0,  # regressed
        })
        verdict = compare_bench(run, baseline, tolerance=0.8)
        assert not verdict["baseline_invalid"]
        assert verdict["top"]["verdict"] == "ok"
        by_cell = {
            (r["engine"], r["workload"]): r for r in verdict["rows"]
        }
        streaming = by_cell[("streaming", "equality")]
        assert streaming["n"] == 1024 and streaming["verdict"] == "ok"
        copy = by_cell[("streaming", "copy")]
        assert copy["verdict"] == "regressed"
        assert copy["floor"] == 3.2
        assert verdict["regressed"]
        assert any("streaming/copy" in line for line in verdict["regressions"])
        rendered = render_comparison(verdict)
        assert rendered[-1] == "  verdict: REGRESSION"

    def test_new_missing_and_incomparable_cells(self):
        baseline = _payload(5.0, {
            ("streaming", "parity", 64): 5.0,
            ("streaming", "copy", 64): 3.0,
        })
        run = _payload(5.0, {
            ("streaming", "parity", 256): 5.0,  # no shared n
            ("streaming", "majority", 64): 2.0,  # no baseline cell
        })
        verdict = compare_bench(run, baseline)
        by_cell = {
            (r["engine"], r["workload"]): r["verdict"]
            for r in verdict["rows"]
        }
        assert by_cell[("streaming", "parity")] == "incomparable"
        assert by_cell[("streaming", "majority")] == "new"
        assert by_cell[("streaming", "copy")] == "missing"
        assert not verdict["regressed"]

    def test_invalid_baseline_never_passes(self):
        run = _payload(9.0, {})
        for top in (0, -1.0, None, "5", True):
            verdict = compare_bench(run, {"summary": {"top_n_speedup": top}})
            assert verdict["baseline_invalid"]
            assert verdict["top"]["verdict"] == "baseline-invalid"
            assert not verdict["regressed"]
            assert render_comparison(verdict)[-1] == (
                "  verdict: baseline-invalid"
            )

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            compare_bench(_payload(1.0, {}), _payload(1.0, {}), tolerance=0.0)
        with pytest.raises(ValueError):
            compare_bench(_payload(1.0, {}), _payload(1.0, {}), tolerance=1.5)


class TestCompareParallelPayloads:
    """Wall-clock speedups only gate against the same silicon."""

    def _payload(self, cpu, audit=1.8, engine=1.5):
        return {
            "benchmark": "parallel",
            "cpu_count": cpu,
            "process_cpu_count": cpu,
            "jobs": 4,
            "topology": {"executor": "parallel", "jobs": 4, "shards": None},
            "sweeps": {
                "audit": {"speedup": audit},
                "engine": {"speedup": engine},
            },
        }

    def test_same_host_regression_detected(self):
        out = compare_bench(
            self._payload(4, audit=0.9), self._payload(4), tolerance=0.8
        )
        assert out["environment"]["comparable"]
        verdicts = {r["workload"]: r["verdict"] for r in out["rows"]}
        assert verdicts == {"audit": "regressed", "engine": "ok"}
        assert out["regressed"]

    def test_different_core_count_is_incomparable_not_regressed(self):
        out = compare_bench(
            self._payload(1, audit=0.2, engine=0.2),
            self._payload(8),
            tolerance=0.8,
        )
        assert not out["environment"]["comparable"]
        assert all(r["verdict"] == "incomparable" for r in out["rows"])
        assert not out["regressed"]
        assert out["top"]["verdict"] == "incomparable"
        text = "\n".join(render_comparison(out))
        assert "different hosts" in text

    def test_baseline_without_sweeps_is_invalid(self):
        out = compare_bench(
            self._payload(4), {"benchmark": "parallel", "cpu_count": 4}
        )
        assert out["baseline_invalid"]
        assert out["top"]["verdict"] == "baseline-invalid"
        assert not out["regressed"]


# -- history ---------------------------------------------------------------


class TestHistory:
    def test_record_is_timestamp_free_and_append_idempotent(self, tmp_path):
        payload = _payload(7.5, {("streaming", "equality", 64): 7.5})
        payload["benchmark"] = "engine"
        payload["python"] = "3.12.0"
        record = history_record(payload, source="BENCH_engine.json")
        assert record["benchmark"] == "engine"
        assert record["summary"]["top_n_speedup"] == 7.5
        assert "time" not in json.dumps(record).lower()
        path = tmp_path / "history.jsonl"
        assert append_history(path, record) is True
        assert append_history(path, record) is False  # idempotent
        other = history_record(payload, source="other.json")
        assert append_history(path, other) is True
        assert len(path.read_text().splitlines()) == 2

    def test_parallel_payload_summarizes_sweeps(self):
        payload = {
            "benchmark": "parallel", "python": "3.12.0",
            "cpu_count": 8, "jobs": 2,
            "sweeps": {"audit": {"speedup": 1.7}},
        }
        record = history_record(payload, source="BENCH_parallel.json")
        assert record["summary"]["cpu_count"] == 8
        assert record["summary"]["sweeps"]["audit"]["speedup"] == 1.7


# -- the report CLI --------------------------------------------------------


class TestReportCli:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload) + "\n")
        return str(path)

    def test_summarize_text_and_json(self, tmp_path, capsys):
        from repro.__main__ import main

        ledger_path = tmp_path / "sweep.jsonl"
        with LedgerWriter(ledger_path) as ledger:
            ledger.sweep_start("cli", tasks=1)
            ledger.record_outcome("cli", index=0, ok=True)
            ledger.sweep_end("cli")
        assert main(["report", "summarize", str(ledger_path)]) == 0
        out = capsys.readouterr().out
        assert "sweep cli: 1 tasks" in out
        assert main(["report", "summarize", str(ledger_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["sweeps"]["cli"]["completed"] == 1

    def test_compare_exit_codes(self, tmp_path, capsys):
        from repro.__main__ import main

        baseline = self._write(
            tmp_path, "baseline.json",
            _payload(10.0, {("streaming", "equality", 64): 10.0}),
        )
        good = self._write(
            tmp_path, "good.json",
            _payload(9.5, {("streaming", "equality", 64): 9.5}),
        )
        degraded = self._write(
            tmp_path, "bad.json",
            _payload(3.0, {("streaming", "equality", 64): 3.0}),
        )
        invalid = self._write(tmp_path, "invalid.json", {"summary": {}})

        assert main(["report", "compare", good, "--baseline", baseline]) == 0
        capsys.readouterr()
        out_path = tmp_path / "comparison.json"
        assert main([
            "report", "compare", degraded, "--baseline", baseline,
            "--output", str(out_path),
        ]) == 1
        out = capsys.readouterr().out
        # the verdict names the regressed engine/workload
        assert "streaming/equality" in out and "REG" in out
        detail = json.loads(out_path.read_text())
        assert detail["regressed"] and detail["rows"][0]["verdict"] == (
            "regressed"
        )
        assert main(
            ["report", "compare", good, "--baseline", invalid]
        ) == 2
        capsys.readouterr()

    def test_history_appends_idempotently(self, tmp_path, capsys):
        from repro.__main__ import main

        payload = self._write(
            tmp_path, "bench.json",
            dict(_payload(5.0, {}), benchmark="engine", python="3.12.0"),
        )
        history = tmp_path / "history.jsonl"
        assert main(
            ["report", "history", payload, "--file", str(history)]
        ) == 0
        assert main(
            ["report", "history", payload, "--file", str(history)]
        ) == 0
        capsys.readouterr()
        assert len(history.read_text().splitlines()) == 1

    def test_strip_writes_deterministic_lines(self, tmp_path, capsys):
        from repro.__main__ import main

        ledger_path = tmp_path / "sweep.jsonl"
        with LedgerWriter(ledger_path) as ledger:
            ledger.sweep_start("st", tasks=1)
            ledger.record_outcome("st", index=0, ok=True, seconds=1.5)
            ledger.sweep_end("st")
        out_path = tmp_path / "stripped.txt"
        assert main([
            "report", "strip", str(ledger_path), "--output", str(out_path)
        ]) == 0
        capsys.readouterr()
        lines = out_path.read_text().splitlines()
        assert len(lines) == 3
        assert all("wall" not in json.loads(line) for line in lines)

    def test_audit_ledger_flag_end_to_end(self, tmp_path, capsys):
        from repro.__main__ import main

        ledger_path = tmp_path / "audit.jsonl"
        code = main([
            "audit", "--quick",
            "--output", str(tmp_path / "audit.json"),
            "--ledger", str(ledger_path),
            "--cache", str(tmp_path / "cache"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep ledger ->" in out
        records, skipped = load_ledger(ledger_path)
        assert skipped == 0
        cells = [
            r for r in records
            if r["kind"] == KIND_TASK_OUTCOME and r["label"] == "audit-cells"
        ]
        assert len(cells) == 24 and all(r["ok"] for r in cells)
