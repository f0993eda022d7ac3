"""Executor adapters, content-addressed shards, ledger-driven resume.

Three properties carry this module:

* the adapter protocol is abstract — only its two backends run work;
* a shard plan is a partition — strided, disjoint, complete, with
  content-addressed keys that move iff the work moves;
* a resumed sweep is invisible — outcomes equal to an uninterrupted
  run and a ledger that strips byte-identical, for every way a run can
  be interrupted (mid-sweep kill, truncated final line, resumed twice).
"""

import json

import pytest

from repro.errors import ReproError
from repro.observability.ledger import (
    LedgerWriter,
    load_ledger,
    strip_nondeterministic,
)
from repro.parallel import (
    JOBS_ENV_VAR,
    BatchTask,
    ExecutorAdapter,
    default_jobs,
    load_resume_state,
    run_batch,
    shard_indices,
    sweep_fingerprint,
    task_fingerprint,
)


# -- module-level task bodies (workers import these by qualified name) ----


def square(x):
    return x * x


def draw(count, rng):
    return [rng.randrange(1000) for _ in range(count)]


def pair(x):
    return (x, x + 1)  # tuples are not journalable: resume must re-run


def logged_square(log_path, x):
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(f"{x}\n")
    return x * x


def _tasks(n=9):
    return [BatchTask.call(square, i) for i in range(n)]


def _executions(log_path):
    try:
        with open(log_path, encoding="utf-8") as handle:
            return sum(1 for _ in handle)
    except FileNotFoundError:
        return 0


class TestAdapterProtocol:
    def test_adapter_is_abstract(self):
        with pytest.raises(TypeError):
            ExecutorAdapter()


class TestShardPlan:
    def test_strided_partition_is_disjoint_and_complete(self):
        for total, shards in [(10, 3), (3, 3), (2, 5), (0, 2), (16, 1)]:
            ranges = [
                list(shard_indices(total, shards, i)) for i in range(shards)
            ]
            flat = sorted(i for r in ranges for i in r)
            assert flat == list(range(total))
            assert shard_indices(10, 3, 0)[:2] == range(0, 10, 3)[:2]

    def test_shard_indices_validation(self):
        with pytest.raises(ReproError):
            shard_indices(10, 0, 0)
        with pytest.raises(ReproError):
            shard_indices(10, 3, 3)
        with pytest.raises(ReproError):
            shard_indices(10, 3, -1)

    def test_plan_keys_are_content_addressed(self):
        from repro.observability.audit import plan_audit_shards

        keys = lambda **kw: [p["key"] for p in plan_audit_shards(**kw)]  # noqa: E731
        plan = keys(quick=True, shards=3)
        assert plan == keys(quick=True, shards=3)
        assert len(set(plan)) == 3
        assert plan != keys(quick=False, shards=3)  # other cells
        assert not set(plan) & set(keys(quick=True, shards=2))

    def test_unaddressable_sweep_cannot_resume(self, tmp_path):
        tasks = _tasks(3) + [BatchTask.call(lambda x: x, 1)]
        assert task_fingerprint(tasks[-1]) is None
        assert sweep_fingerprint(tasks) is None
        with LedgerWriter(tmp_path / "full.jsonl") as ledger:
            run_batch(tasks, ledger=ledger)
        with pytest.raises(ReproError, match="fingerprint"):
            run_batch(tasks, resume_from=tmp_path / "full.jsonl")

    def test_fingerprint_is_structural_not_positional(self):
        assert task_fingerprint(BatchTask.call(square, 4)) == task_fingerprint(
            BatchTask.call(square, 4)
        )
        assert task_fingerprint(BatchTask.call(square, 4)) != task_fingerprint(
            BatchTask.call(square, 5)
        )


class TestResume:
    """Every interruption shape lands on the same bytes."""

    def _interrupt(self, full_ledger, keep, broken_path):
        """A crashed-run ledger: header + the first ``keep`` outcomes,
        no sweep-end — exactly what a killed process leaves behind."""
        lines = full_ledger.read_text(encoding="utf-8").splitlines(True)
        kept, outcomes = [], 0
        for line in lines:
            kind = json.loads(line).get("kind")
            if kind == "sweep-end":
                continue
            if kind == "task-outcome":
                if outcomes == keep:
                    continue
                outcomes += 1
            kept.append(line)
        broken_path.write_text("".join(kept), encoding="utf-8")
        return broken_path

    def _run(self, tasks, path, **kwargs):
        with LedgerWriter(path) as ledger:
            result = run_batch(tasks, ledger=ledger, **kwargs)
        return result

    def test_resumed_run_is_bit_identical(self, tmp_path):
        tasks = [BatchTask.call(draw, 3, seeded=True) for _ in range(8)]
        baseline = self._run(tasks, tmp_path / "full.jsonl", seed=4)
        broken = self._interrupt(
            tmp_path / "full.jsonl", 5, tmp_path / "crashed.jsonl"
        )
        resumed = self._run(
            tasks, tmp_path / "resumed.jsonl", seed=4, resume_from=broken
        )
        assert resumed.values() == baseline.values()
        assert strip_nondeterministic(
            tmp_path / "resumed.jsonl"
        ) == strip_nondeterministic(tmp_path / "full.jsonl")

    def test_resume_skips_completed_work(self, tmp_path):
        log = str(tmp_path / "executions.log")
        tasks = [BatchTask.call(logged_square, log, i) for i in range(6)]
        baseline = self._run(tasks, tmp_path / "full.jsonl")
        assert _executions(log) == 6
        broken = self._interrupt(
            tmp_path / "full.jsonl", 4, tmp_path / "crashed.jsonl"
        )
        resumed = self._run(
            tasks, tmp_path / "resumed.jsonl", resume_from=broken
        )
        assert resumed.values() == baseline.values()
        assert _executions(log) == 6 + 2  # only the missing tail re-ran

    def test_resume_from_complete_ledger_runs_nothing(self, tmp_path):
        log = str(tmp_path / "executions.log")
        tasks = [BatchTask.call(logged_square, log, i) for i in range(5)]
        baseline = self._run(tasks, tmp_path / "full.jsonl")
        resumed = self._run(
            tasks,
            tmp_path / "resumed.jsonl",
            resume_from=tmp_path / "full.jsonl",
        )
        assert resumed.values() == baseline.values()
        assert _executions(log) == 5

    def test_resume_after_resume_is_idempotent(self, tmp_path):
        log = str(tmp_path / "executions.log")
        tasks = [BatchTask.call(logged_square, log, i) for i in range(6)]
        baseline = self._run(tasks, tmp_path / "full.jsonl")
        broken = self._interrupt(
            tmp_path / "full.jsonl", 3, tmp_path / "crashed.jsonl"
        )
        self._run(tasks, tmp_path / "resume1.jsonl", resume_from=broken)
        again = self._run(
            tasks,
            tmp_path / "resume2.jsonl",
            resume_from=tmp_path / "resume1.jsonl",
        )
        assert again.values() == baseline.values()
        assert _executions(log) == 6 + 3  # second resume re-ran nothing
        assert strip_nondeterministic(
            tmp_path / "resume2.jsonl"
        ) == strip_nondeterministic(tmp_path / "full.jsonl")

    def test_truncated_final_line_is_survivable(self, tmp_path):
        tasks = _tasks(6)
        baseline = self._run(tasks, tmp_path / "full.jsonl")
        text = (tmp_path / "full.jsonl").read_text(encoding="utf-8")
        lines = text.splitlines(True)
        # drop sweep-end, then leave half a task-outcome record behind —
        # the write the crash interrupted
        body, last = lines[:-2], lines[-2]
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text(
            "".join(body) + last[: len(last) // 2], encoding="utf-8"
        )
        state = load_resume_state(truncated)
        assert not state.finished
        assert len(state.completed) == len(tasks) - 1
        resumed = self._run(
            tasks, tmp_path / "resumed.jsonl", resume_from=truncated
        )
        assert resumed.values() == baseline.values()
        assert strip_nondeterministic(
            tmp_path / "resumed.jsonl"
        ) == strip_nondeterministic(tmp_path / "full.jsonl")

    def test_mismatched_fingerprint_is_refused(self, tmp_path):
        self._run(_tasks(6), tmp_path / "full.jsonl")
        with pytest.raises(ReproError, match="fingerprint"):
            self._run(
                [BatchTask.call(square, i + 100) for i in range(6)],
                tmp_path / "resumed.jsonl",
                resume_from=tmp_path / "full.jsonl",
            )

    def test_ledger_without_sweep_start_is_refused(self, tmp_path):
        (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
        with pytest.raises(ReproError, match="sweep-start"):
            run_batch(_tasks(3), resume_from=tmp_path / "empty.jsonl")

    def test_unjournalable_values_are_recomputed(self, tmp_path):
        tasks = [BatchTask.call(pair, i) for i in range(5)]
        baseline = self._run(tasks, tmp_path / "full.jsonl")
        records, _ = load_ledger(tmp_path / "full.jsonl")
        outcome_records = [r for r in records if r["kind"] == "task-outcome"]
        assert all("value" not in r for r in outcome_records)
        resumed = self._run(
            tasks,
            tmp_path / "resumed.jsonl",
            resume_from=tmp_path / "full.jsonl",
        )
        assert resumed.values() == baseline.values() == [
            (i, i + 1) for i in range(5)
        ]


class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert default_jobs() == 3

    def test_env_override_must_be_positive_int(self, monkeypatch):
        for bad in ("0", "-2", "many"):
            monkeypatch.setenv(JOBS_ENV_VAR, bad)
            with pytest.raises(ReproError, match=JOBS_ENV_VAR):
                default_jobs()

    def test_without_override_counts_cores(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert default_jobs() >= 1


class TestAuditSharding:
    """K audit shards reassemble into the exact serial artifact."""

    def _shards(self, shards=3):
        from repro.observability.audit import run_audit_shard

        return [
            run_audit_shard(quick=True, shards=shards, shard_index=i)
            for i in range(shards)
        ]

    def test_collected_shards_byte_identical(self, tmp_path):
        from repro.observability.audit import (
            collect_audit_shards,
            run_contract_audit,
            write_audit_json,
        )

        serial = tmp_path / "serial.json"
        write_audit_json(run_contract_audit(quick=True), serial)
        collected = tmp_path / "collected.json"
        write_audit_json(collect_audit_shards(self._shards()), collected)
        assert collected.read_bytes() == serial.read_bytes()

    def test_cli_shards_collect_to_the_serial_bytes(self, tmp_path, capsys):
        from repro.__main__ import main

        serial = tmp_path / "serial.json"
        assert main(["audit", "--quick", "--output", str(serial)]) == 0
        shards = []
        for index in ("0", "1"):
            shard = tmp_path / f"audit-shard-{index}.json"
            argv = ["audit", "--quick", "--shards", "2", "--shard-index", index]
            assert main(argv + ["--output", str(shard)]) == 0
            shards.append(str(shard))
        collected = tmp_path / "collected.json"
        argv = ["shard", "collect", *shards, "--output", str(collected)]
        assert main(argv) == 0
        assert collected.read_bytes() == serial.read_bytes()

    def test_collect_refuses_missing_and_duplicate_shards(self):
        from repro.observability.audit import collect_audit_shards

        artifacts = self._shards()
        with pytest.raises(ReproError, match="uncovered"):
            collect_audit_shards(artifacts[:2])
        with pytest.raises(ReproError):
            collect_audit_shards(artifacts[:2] + [artifacts[1]])

    def test_plan_covers_every_cell_once(self):
        from repro.observability.audit import (
            audit_sweep_digest,
            plan_audit_shards,
        )

        plans = plan_audit_shards(quick=True, shards=3)
        indices = sorted(
            cell["index"] for plan in plans for cell in plan["cells"]
        )
        assert indices == list(range(len(indices)))
        assert len({plan["key"] for plan in plans}) == 3
        assert all(
            plan["sweep"] == audit_sweep_digest(quick=True)
            for plan in plans
        )


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
        from repro.observability.report import compare_bench

        out = compare_bench(
            self._payload(4, audit=0.9), self._payload(4), tolerance=0.8
        )
        assert out["environment"]["comparable"]
        verdicts = {r["workload"]: r["verdict"] for r in out["rows"]}
        assert verdicts == {"audit": "regressed", "engine": "ok"}
        assert out["regressed"]

    def test_different_core_count_is_incomparable_not_regressed(self):
        from repro.observability.report import (
            compare_bench,
            render_comparison,
        )

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
        from repro.observability.report import compare_bench

        out = compare_bench(
            self._payload(4), {"benchmark": "parallel", "cpu_count": 4}
        )
        assert out["baseline_invalid"]
        assert out["top"]["verdict"] == "baseline-invalid"
        assert not out["regressed"]

    def test_summarize_counts_resumes(self, tmp_path):
        from repro.observability.report import summarize_ledgers

        path = tmp_path / "sweep.jsonl"
        with LedgerWriter(path) as ledger:
            run_batch(_tasks(4), ledger=ledger, label="demo")
        with LedgerWriter(tmp_path / "resumed.jsonl") as ledger:
            run_batch(
                _tasks(4), ledger=ledger, label="demo", resume_from=path
            )
        summary = summarize_ledgers([tmp_path / "resumed.jsonl"])
        assert summary["sweeps"]["demo"]["resumes"] == {
            "count": 1,
            "reused": 4,
        }


class TestRoutedResume:
    def test_fingerprint_trials_resume_matches(self, tmp_path):
        from repro.algorithms.fingerprint import (
            monte_carlo_fingerprint_trials,
        )

        path = tmp_path / "trials.jsonl"
        with LedgerWriter(path) as ledger:
            baseline = monte_carlo_fingerprint_trials(
                4, 8, 32, kind="near-miss", seed=3, k=3,
                trials_per_task=7, ledger=ledger,
            )
        lines = path.read_text(encoding="utf-8").splitlines(True)
        kept = [
            line
            for line in lines
            if json.loads(line).get("kind") != "sweep-end"
        ][:-2]
        broken = tmp_path / "crashed.jsonl"
        broken.write_text("".join(kept), encoding="utf-8")
        resumed = monte_carlo_fingerprint_trials(
            4, 8, 32, kind="near-miss", seed=3, k=3,
            trials_per_task=7, resume_from=broken,
        )
        assert resumed == baseline
