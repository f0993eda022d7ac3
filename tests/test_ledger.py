"""The sweep ledger and the report layer over it.

Covers the ledger's surface: canonical-JSON ledger records with
wall-clock isolation, the determinism strip, audit / ResultStore
threading, the summarize / compare / history rollups and their
``python -m repro report`` CLI.
"""

import io
import json
import math

import pytest

from repro.cache import ResultStore, compose_key
from repro.observability.ledger import (
    KIND_CACHE_EVENT,
    KIND_SWEEP_END,
    KIND_SWEEP_START,
    KIND_TASK_OUTCOME,
    LEDGER_KINDS,
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


# -- the writer ------------------------------------------------------------


class TestLedgerWriter:
    def test_record_shapes_and_canonical_lines(self):
        from repro.cache.fingerprint import canonical_json

        stream = io.StringIO()
        with LedgerWriter(stream) as ledger:
            ledger.sweep_start("demo", tasks=2)
            ledger.record_outcome(
                "demo", index=0, ok=True, seconds=0.25,
                detail={"cell": "a"},
            )
            ledger.record_outcome("demo", index=1, ok=False)
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
        assert set(start) == {
            "schema", "kind", "label", "tasks", "provenance",
        }
        # wall-clock isolation: the only timing field lives under "wall"
        assert ok_outcome["wall"] == {"seconds": 0.25}
        assert "seconds" not in ok_outcome
        assert ok_outcome["detail"] == {"cell": "a"}
        assert set(bad_outcome) == {
            "schema", "kind", "label", "index", "ok", "wall",
        }
        assert not bad_outcome["ok"] and bad_outcome["wall"] == {
            "seconds": 0.0
        }
        assert cache["event"] == "hit" and cache["entry_kind"] == "audit-cell"
        assert end["completed"] == 1 and end["failed"] == 1
        assert "worker_restarts" not in end
        assert end["cache"]["hits"] == 1
        assert "elapsed_seconds" in end["wall"]
        assert ledger.records_written == 5

    def test_strip_drops_wall_sections(self):
        stream = io.StringIO()
        ledger = LedgerWriter(stream)
        ledger.sweep_start("s", tasks=40)
        for index in range(40):
            seconds = 30.0 if index == 8 else 0.01
            ledger.record_outcome("s", index=index, ok=True, seconds=seconds)
        ledger.sweep_end("s")
        records = _records(stream)
        # one record per outcome, however slow or however many
        assert [r["kind"] for r in records] == (
            [KIND_SWEEP_START] + [KIND_TASK_OUTCOME] * 40 + [KIND_SWEEP_END]
        )
        assert set(LEDGER_KINDS) == {
            KIND_SWEEP_START, KIND_TASK_OUTCOME, KIND_CACHE_EVENT,
            KIND_SWEEP_END,
        }
        slow = records[9]
        assert strip_record(slow) == {
            k: v for k, v in slow.items() if k != "wall"
        }
        stripped = strip_nondeterministic(stream.getvalue().splitlines())
        projected = [json.loads(line) for line in stripped]
        assert all("wall" not in p for p in projected)
        # the deterministic payload survives intact
        assert sum(p["kind"] == KIND_TASK_OUTCOME for p in projected) == 40

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
        # the audit's one sweep, run in process
        sweeps = [r for r in records if r["kind"] == KIND_SWEEP_START]
        assert [(r["label"], r["tasks"]) for r in sweeps] == [
            ("audit-cells", 24)
        ]
        assert {r["label"] for r in records if "label" in r} == {
            "audit-cells"
        }
        # cold run: every cell computed and timed, every lookup a miss +
        # a write
        assert {r["detail"]["source"] for r in cells} == {"computed"}
        assert all(r["wall"]["seconds"] > 0 for r in cells)
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
        # a cache hit runs nothing, and records no time
        assert [r["wall"]["seconds"] for r in cells] == [0] * 24
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
        store = ResultStore(tmp_path / "store", ledger=ledger)
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


# -- summaries -------------------------------------------------------------


class TestSummarize:
    def _ledger_lines(self):
        stream = io.StringIO()
        ledger = LedgerWriter(stream)
        ledger.sweep_start("s", tasks=4)
        ledger.record_outcome(
            "s", index=0, ok=True, seconds=0.1, detail={"source": "cache"}
        )
        ledger.record_outcome(
            "s", index=1, ok=True, seconds=0.3,
            detail={"source": "computed"},
        )
        ledger.record_outcome("s", index=2, ok=False, seconds=0.2)
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
        assert sweep["sources"] == {"cache": 1, "computed": 1}
        assert sweep["cache"]["hits"] == 1
        assert set(sweep) == {
            "tasks", "completed", "failed", "sources", "cache", "wall",
        }
        assert set(sweep["wall"]) == {"latency_seconds"}
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


# -- the e2e comparison ----------------------------------------------------

#: End-to-end metrics shaped like BENCHMARK.json's; the bounds make every
#: bound × median below exact in binary floating point.
E2E_METRICS = [
    {"name": "iter_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.125},
]


def _e2e(workloads, *, failed=0, attempted=100):
    """A ``benchmarks/e2e/run.py --output`` payload.

    ``workloads`` maps a workload to ``{metric: value}``.
    """
    return {
        "seed": 0, "trace": 0, "smoke": False, "seconds": 24.0, "rounds": 4,
        "calibration": {"CAL_REF_S": 0.015, "CAL_EXPONENT": 1.25},
        "workloads": {
            name: {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "fail_ratio": failed / attempted,
                "run_failures": [],
                "metrics": {
                    metric: {"value": value, "unit": "s"}
                    for metric, value in values.items()
                },
                "diagnostics": {"setup_s_rounds": [0.4, 0.41]},
                "inputs_digest": "d1g3st",
                "wall": [{"round": 0, "batches": [{"raw_s": [0.52]}]}],
            }
            for name, values in workloads.items()
        },
    }


def _judged(run, baseline, *, bound=0.25, better="lower"):
    """The one row of a comparison of one metric, value lists as pairs."""
    spec = [{"name": "m", "unit": "s", "better": better, "bound": bound}]
    comparison = compare_bench(
        [_e2e({"audit": {"m": value}}) for value in run],
        [_e2e({"audit": {"m": value}}) for value in baseline],
        spec,
    )
    (row,) = comparison["rows"]
    return row


#: Ten parent runs: median 104.5, quartiles 102.25 / 106.75, IQR 4.5.
PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


class TestCompareBench:
    def test_ok_and_regressed_rows(self):
        metrics = {"iter_s_p50": 0.25, "peak_rss_mb": 40.0}
        workloads = {"audit": metrics, "xpath_protocol": metrics}
        same = compare_bench([_e2e(workloads)], [_e2e(workloads)], E2E_METRICS)
        assert [row["verdict"] for row in same["rows"]] == ["ok"] * 4
        assert not same["regressed"]

        # at the bound exactly is ok; one ulp past it is regressed
        assert _judged([5.0], [4.0])["verdict"] == "ok"
        past = math.nextafter(5.0, math.inf)
        assert _judged([past], [4.0])["verdict"] == "regressed"
        assert _judged([3.0], [4.0], better="higher")["verdict"] == "ok"
        below = math.nextafter(3.0, -math.inf)
        assert _judged([below], [4.0], better="higher")["verdict"] == (
            "regressed"
        )
        # a zero baseline median leaves no room: any worsening regresses
        zero = _judged([0.5], [0.0])
        assert zero["verdict"] == "regressed" and zero["change"] is None
        assert _judged([0.0], [0.0])["verdict"] == "ok"

        slower = dict(workloads, audit={"iter_s_p50": 0.4, "peak_rss_mb": 40.0})
        verdict = compare_bench(
            [_e2e(slower)], [_e2e(workloads)], E2E_METRICS
        )
        by_row = {(r["workload"], r["metric"]): r for r in verdict["rows"]}
        row = by_row[("audit", "iter_s_p50")]
        assert row["verdict"] == "regressed"
        assert row["run"]["median"] == 0.4 and row["baseline"]["median"] == 0.25
        assert row["change"] == pytest.approx(0.6)
        assert by_row[("xpath_protocol", "iter_s_p50")]["verdict"] == "ok"
        assert verdict["regressed"]
        rendered = render_comparison(verdict)
        assert any(
            "audit" in line and "iter_s_p50" in line and "regressed" in line
            and "+60.0%" in line and "bound 25%" in line
            for line in rendered
        )
        assert rendered[-1].startswith("  verdict: REGRESSION")

    def test_gain_needs_nine_of_ten_pairs_and_a_gap_wider_than_the_iqr(self):
        row = _judged([90.0] * 9 + [120.0], PARENT)
        assert (row["won"], row["lost"], row["verdict"]) == (9, 1, "gain")
        assert row["baseline"] == {"q1": 102.25, "median": 104.5, "q3": 106.75}
        assert _judged([90.0] * 8 + [120.0] * 2, PARENT)["verdict"] == "ok"
        # ties count for neither side: a tie is no win and no loss
        tied = _judged([90.0] * 9 + [109.0], PARENT)
        assert (tied["won"], tied["lost"], tied["verdict"]) == (9, 0, "gain")
        tied = _judged([90.0] * 8 + [108.0, 109.0], PARENT)
        assert (tied["won"], tied["lost"], tied["verdict"]) == (8, 0, "ok")
        # the medians must be further apart than the parent's IQR (4.5)
        at_iqr = [value - 4.5 for value in PARENT[:9]] + [120.0]
        row = _judged(at_iqr, PARENT)
        assert row["run"]["median"] == 100.0 and row["won"] == 9
        assert row["verdict"] == "ok"
        past_iqr = [value - 4.75 for value in PARENT[:9]] + [120.0]
        assert _judged(past_iqr, PARENT)["verdict"] == "gain"
        # and there must be at least ten pairs
        assert _judged([90.0] * 9, PARENT[:9])["verdict"] == "ok"
        # higher is better: the same rule, mirrored
        mirrored = _judged([120.0] * 9 + [90.0], PARENT, better="higher")
        assert mirrored["verdict"] == "gain"

    def test_unresolved_when_the_parent_iqr_exceeds_the_bound(self):
        wide = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0,
                150.0]  # median 105, IQR 45 > 0.25 × 105
        row = _judged([105.0] * 10, wide)
        assert row["verdict"] == "unresolved"
        assert row["baseline_iqr"] == pytest.approx(45.0 / 105.0)
        # unless every run beats every parent run; then the usual rules
        assert _judged([50.0] * 10, wide)["verdict"] == "gain"
        few = [60.0, 80.0, 100.0, 120.0, 140.0]  # median 100, IQR 40
        assert _judged([59.0] * 5, few)["verdict"] == "ok"
        assert _judged([61.0] + [59.0] * 4, few)["verdict"] == "unresolved"
        # an IQR exactly at the bound is not wider than it
        assert _judged([80.0] * 5, [60.0, 70.0, 80.0, 90.0, 100.0])[
            "verdict"
        ] == "ok"
        # a regression is a regression, however wide the parent's spread
        assert _judged([140.0] * 10, wide)["verdict"] == "regressed"

    def test_a_larger_failure_share_is_regressed(self):
        metrics = {"audit": {"iter_s_p50": 0.25, "peak_rss_mb": 40.0}}

        def failures(run, baseline):
            comparison = compare_bench(
                [_e2e(metrics, failed=f, attempted=a) for f, a in run],
                [_e2e(metrics, failed=f, attempted=a) for f, a in baseline],
                E2E_METRICS,
            )
            (item,) = comparison["failures"]
            assert comparison["regressed"] == (item["verdict"] == "regressed")
            return item

        assert failures([(2, 100)], [(1, 100)])["verdict"] == "regressed"
        assert failures([(1, 200)], [(1, 100)])["verdict"] == "ok"
        assert failures([(0, 100)], [(0, 100)])["verdict"] == "ok"
        # pooled over the pairs: 3/200 against 2/200
        pooled = failures([(0, 100), (3, 100)], [(1, 100), (1, 100)])
        assert pooled["run"] == {"failed": 3, "attempted": 200}
        assert pooled["verdict"] == "regressed"

    def test_new_missing_and_incomparable_cells(self):
        metrics = {"iter_s_p50": 0.25, "peak_rss_mb": 40.0}
        run = _e2e({"audit": metrics, "xpath_protocol": metrics})
        baseline = _e2e({"audit": metrics, "fingerprint_mc": metrics})
        comparison = compare_bench([run], [baseline], E2E_METRICS)
        assert {row["workload"] for row in comparison["rows"]} == {"audit"}
        assert comparison["only_run"] == ["xpath_protocol"]
        assert comparison["only_baseline"] == ["fingerprint_mc"]
        assert not comparison["regressed"]
        rendered = "\n".join(render_comparison(comparison))
        assert "xpath_protocol" in rendered and "fingerprint_mc" in rendered
        assert rendered.count("not judged") == 2
        # no workload in common: nothing can be judged
        with pytest.raises(ValueError, match="share no workload"):
            compare_bench(
                [_e2e({"audit": metrics})],
                [_e2e({"audit_warm": metrics})],
                E2E_METRICS,
            )

    def test_invalid_baseline_never_passes(self):
        metrics = {"iter_s_p50": 0.25, "peak_rss_mb": 40.0}
        good = _e2e({"audit": metrics})
        traced = _e2e({"audit": {"extmem.self_frac": 0.6}})
        partial = _e2e({"fingerprint_mc": metrics})
        for baselines in (
            [traced],  # a traced run has no end-to-end metric
            [_e2e({"audit": {"iter_s_p50": "fast", "peak_rss_mb": 40.0}})],
            {"summary": {"top_n_speedup": 5.0}, "rows": []},  # not e2e
        ):
            if isinstance(baselines, dict):
                baselines = [baselines]
            with pytest.raises(ValueError):
                compare_bench([good], baselines, E2E_METRICS)
        with pytest.raises(ValueError, match="traced"):
            compare_bench([good], [traced], E2E_METRICS)
        # a workload one payload of a side lacks
        with pytest.raises(ValueError, match="baseline payload 2"):
            compare_bench([good, good], [good, partial], E2E_METRICS)
        with pytest.raises(ValueError, match="pairs"):
            compare_bench([good, good], [good], E2E_METRICS)
        with pytest.raises(ValueError, match="pairs"):
            compare_bench([], [], E2E_METRICS)

    def test_metric_spec_validation(self):
        good = _e2e({"audit": {"m": 1.0}})
        for spec in (
            [],
            [{"name": "m", "better": "sideways", "bound": 0.1}],
            [{"name": "m", "better": "lower", "bound": -0.1}],
            [{"name": "m", "better": "lower", "bound": True}],
            [{"better": "lower", "bound": 0.1}],
        ):
            with pytest.raises(ValueError):
                compare_bench([good], [good], spec)


class TestCompareParallelPayloads:
    """Several payloads a side, run i paired with baseline i."""

    def test_same_host_regression_detected(self):
        # ten alternating pairs; audit is 30% slower in every one of them
        parent = [0.25 + 0.001 * i for i in range(10)]

        def payload(audit_s, other_s):
            return _e2e({
                "audit": {"iter_s_p50": audit_s, "peak_rss_mb": 40.0},
                "fingerprint_mc": {"iter_s_p50": other_s, "peak_rss_mb": 40.0},
            })

        out = compare_bench(
            [payload(1.3 * t, t) for t in parent],
            [payload(t, t) for t in parent],
            E2E_METRICS,
        )
        assert out["pairs"] == 10
        verdicts = {(r["workload"], r["metric"]): r["verdict"]
                    for r in out["rows"]}
        assert verdicts == {
            ("audit", "iter_s_p50"): "regressed",
            ("audit", "peak_rss_mb"): "ok",
            ("fingerprint_mc", "iter_s_p50"): "ok",
            ("fingerprint_mc", "peak_rss_mb"): "ok",
        }
        (slow,) = [r for r in out["rows"] if r["verdict"] == "regressed"]
        assert (slow["won"], slow["lost"]) == (0, 10)
        assert slow["change"] == pytest.approx(0.3)
        assert out["regressed"]
        assert render_comparison(out)[-1] == (
            "  verdict: REGRESSION (3 ok, 1 regressed)"
        )

    def test_baseline_without_sweeps_is_invalid(self):
        good = _e2e({"audit": {"iter_s_p50": 0.25, "peak_rss_mb": 40.0}})
        parallel = {"benchmark": "parallel", "cpu_count": 4,
                    "sweeps": {"audit": {"speedup": 1.8}}}
        for baseline in (
            parallel,  # a retired parallel-sweep record
            {"benchmark": "parallel", "cpu_count": 4},
            dict(good, workloads=[]),
            "[]",
        ):
            with pytest.raises(ValueError, match="no workloads"):
                compare_bench([good], [baseline], E2E_METRICS)
        # an empty workloads block leaves nothing in common
        with pytest.raises(ValueError, match="share no workload"):
            compare_bench([good], [dict(good, workloads={})], E2E_METRICS)
        # every payload of a side is checked, not just the first
        with pytest.raises(ValueError, match="baseline payload 2"):
            compare_bench([good, good], [good, parallel], E2E_METRICS)


# -- history ---------------------------------------------------------------


class TestHistory:
    def test_record_is_timestamp_free_and_append_idempotent(self, tmp_path):
        payload = _e2e({"audit": {"iter_s_p50": 0.25, "peak_rss_mb": 40.0}})
        record = history_record(payload, source="e2e-seed0.json")
        assert record["seed"] == 0 and record["rounds"] == 4
        assert record["workloads"]["audit"] == {
            "attempted": 100,
            "failed": 0,
            "inputs_digest": "d1g3st",
            "metrics": {"iter_s_p50": 0.25, "peak_rss_mb": 40.0},
        }
        # no wall-clock section, no diagnostics: the same payload always
        # gives the same line
        assert "wall" not in json.dumps(record)
        assert "diagnostics" not in json.dumps(record)
        path = tmp_path / "history.jsonl"
        assert append_history(path, record) is True
        assert append_history(path, record) is False  # idempotent
        other = history_record(payload, source="other.json")
        assert append_history(path, other) is True
        assert len(path.read_text().splitlines()) == 2

    def test_append_starts_its_own_line_after_a_last_line_without_newline(
        self, tmp_path
    ):
        path = tmp_path / "history.jsonl"
        path.write_text('{"a":1}')
        assert append_history(path, {"b": 2}) is True
        assert path.read_text() == '{"a":1}\n{"b":2}\n'
        assert append_history(path, {"b": 2}) is False

    def test_traced_payload_keeps_its_per_layer_metrics(self):
        traced = dict(
            _e2e({"audit": {"extmem.self_frac": 0.6, "trace.overhead_x": 2.0}}),
            trace=1, seed=7,
        )
        record = history_record(traced, source="e2e-trace-seed7.json")
        assert record["trace"] == 1 and record["seed"] == 7
        assert record["workloads"]["audit"]["metrics"] == {
            "extmem.self_frac": 0.6, "trace.overhead_x": 2.0,
        }
        with pytest.raises(ValueError):
            history_record({"summary": {}}, source="BENCH.json")


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

    def test_compare_exit_codes(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": E2E_METRICS})
        )
        metrics = {"iter_s_p50": 0.25, "peak_rss_mb": 40.0}
        baseline = self._write(tmp_path, "parent.json", _e2e({"audit": metrics}))
        good = self._write(tmp_path, "good.json", _e2e({"audit": metrics}))
        degraded = self._write(
            tmp_path, "bad.json",
            _e2e({"audit": dict(metrics, peak_rss_mb=50.0)}),
        )
        traced = self._write(
            tmp_path, "traced.json", _e2e({"audit": {"extmem.self_frac": 0.6}})
        )
        other = self._write(
            tmp_path, "other.json", _e2e({"audit_warm": metrics})
        )

        assert main(["report", "compare", good, "--baseline", baseline]) == 0
        out = capsys.readouterr().out
        assert "verdict: no regression (2 ok)" in out
        out_path = tmp_path / "comparison.json"
        assert main([
            "report", "compare", degraded, "--baseline", baseline,
            "--output", str(out_path),
        ]) == 1
        out = capsys.readouterr().out
        assert "peak_rss_mb" in out and "REGRESSION" in out
        detail = json.loads(out_path.read_text())
        assert detail["regressed"]
        assert [row["verdict"] for row in detail["rows"]] == [
            "ok", "regressed"
        ]
        # exit 2 on unusable input, each case
        for argv in (
            [good, good, "--baseline", baseline],  # unequal counts
            [good, "--baseline", traced],  # no end-to-end metric
            [good, "--baseline", other],  # no workload in common
            [good, "--baseline", str(tmp_path / "absent.json")],
        ):
            assert main(["report", "compare", *argv]) == 2
            assert "repro report compare:" in capsys.readouterr().err
        (tmp_path / "BENCHMARK.json").unlink()
        assert main(["report", "compare", good, "--baseline", baseline]) == 2
        assert "BENCHMARK.json" in capsys.readouterr().err

    def test_history_appends_idempotently(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        payload = self._write(
            tmp_path, "e2e.json",
            _e2e({"audit": {"iter_s_p50": 0.25, "peak_rss_mb": 40.0}}),
        )
        assert main(["report", "history", payload]) == 0
        assert main(["report", "history", payload]) == 0
        capsys.readouterr()
        history = tmp_path / "BENCH_e2e.jsonl"
        assert len(history.read_text().splitlines()) == 1
        engine = self._write(tmp_path, "engine.json", {"summary": {}})
        assert main(["report", "history", engine]) == 2
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
        # the rollup: one sweep, with the cells' latency
        assert main(["report", "summarize", str(ledger_path)]) == 0
        out = capsys.readouterr().out
        sweeps = [line for line in out.splitlines() if "  sweep " in line]
        assert sweeps == ["  sweep audit-cells: 24 tasks, 24 ok, 0 failed"]
        assert "    latency (wall): p50=" in out
