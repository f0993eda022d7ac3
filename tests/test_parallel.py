"""The parallel batch runtime: determinism, containment, observability.

The load-bearing property is the oracle relation: for any task list,
``run_batch(tasks, jobs=k)`` must produce outcomes *equal* to
``run_batch(tasks, jobs=1)`` — same values, same structured errors,
same order — for every k, and so for every chunking the pool derives
from k.  Everything else (crash containment, pickling hygiene, the
ledger) protects that property or observes it.
"""

import os
import pickle

import pytest
from hypothesis import given, strategies as st

from tests.settings_profiles import QUICK_SETTINGS
from repro.errors import MachineError, ReproError
from repro.machines.library import coin_flip_machine, equality_machine
from repro.machines.random_machines import random_terminating_tm
from repro.parallel import (
    ERROR_EXCEPTION,
    ERROR_WORKER_CRASH,
    BatchTask,
    auto_chunk_size,
    derive_task_rng,
    run_batch,
)
from repro.parallel.adapters import MAX_RETRIES


# -- module-level task bodies (workers import these by qualified name) ----


def square(x):
    return x * x


def draw(count, rng):
    return [rng.randrange(1000) for _ in range(count)]


def fail_on(x, bad):
    if x == bad:
        raise ValueError(f"poisoned input {x}")
    return x


def die_on(x, bad):
    if x == bad:
        os._exit(13)  # hard crash: no exception crosses the pipe
    return x


def _accepts(machine, word):
    from repro.machines.fast_engine import run_deterministic

    return run_deterministic(machine, word).accepts(machine)


def run_signature(machine, word):
    """A streaming run's (final, statistics), or its error's (type, text)."""
    from repro.machines.fast_engine import run_deterministic

    try:
        run = run_deterministic(machine, word)
    except ReproError as exc:
        return (type(exc).__name__, str(exc))
    return (run.final, run.statistics)


def accepts_random_tm(seed, word):
    machine = random_terminating_tm(seed)
    try:
        return _accepts(machine, word)
    except MachineError as exc:  # generator artifact: left-end fall
        return f"machine-error:{exc}"


class TestAdapterProtocol:
    def test_jobs_below_one_rejected(self):
        for bad in (0, -2):
            with pytest.raises(ReproError, match="jobs"):
                run_batch([BatchTask.call(square, 1)], jobs=bad)


class TestOracleRelation:
    """Parallel == serial, for values, errors, and order."""

    def test_values_and_order(self):
        tasks = [BatchTask.call(square, x) for x in range(17)]
        serial = run_batch(tasks)
        for jobs in (2, 4):
            par = run_batch(tasks, jobs=jobs)
            assert par.outcomes == serial.outcomes
        assert serial.values() == [x * x for x in range(17)]

    def test_seeded_tasks_identical_across_chunkings(self):
        # 40 tasks cut into chunks of 5, 4 and 3 at jobs 2, 3 and 4: the
        # chunking moves with jobs, the outcomes may not
        tasks = [BatchTask.call(draw, 5, seeded=True) for _ in range(40)]
        baseline = run_batch(tasks, seed=42)
        sizes = {}
        for jobs in (2, 3, 4):
            sizes[jobs] = auto_chunk_size(len(tasks), jobs)
            par = run_batch(tasks, jobs=jobs, seed=42)
            assert par.outcomes == baseline.outcomes
        assert sizes == {2: 5, 3: 4, 4: 3}
        # the streams really are per-task: task 0 and task 1 differ
        assert baseline.outcomes[0].value != baseline.outcomes[1].value

    def test_auto_chunk_size_is_deterministic(self):
        # a pure function of (tasks, workers): repeated evaluation must
        # produce the same chunking
        for count, workers in ((0, 1), (1, 1), (9, 2), (100, 4), (7, 16)):
            first = auto_chunk_size(count, workers)
            assert first == auto_chunk_size(count, workers)
            assert first >= 1
            # ~4 chunks per worker: ceil division, floored at one task
            assert first == max(1, -(-count // (workers * 4)))
        with pytest.raises(ReproError, match="workers"):
            auto_chunk_size(4, 0)

    def test_auto_chunking_matches_serial_oracle(self):
        # 9 tasks over 2 workers: chunks of 2 with a ragged last one
        tasks = [BatchTask.call(draw, 5, seeded=True) for _ in range(9)]
        assert auto_chunk_size(len(tasks), 2) == 2
        baseline = run_batch(tasks, seed=42)
        par = run_batch(tasks, jobs=2, seed=42)
        assert par.outcomes == baseline.outcomes

    def test_seed_changes_streams(self):
        tasks = [BatchTask.call(draw, 5, seeded=True)]
        a = run_batch(tasks, seed=1)
        b = run_batch(tasks, seed=2)
        assert a.outcomes[0].value != b.outcomes[0].value

    def test_derive_task_rng_is_the_contract(self):
        expected = [
            derive_task_rng(42, i).randrange(1000) for i in range(3)
        ]
        tasks = [BatchTask.call(draw, 1, seeded=True) for _ in range(3)]
        got = [v[0] for v in run_batch(tasks, seed=42).values()]
        assert got == expected

    def test_structured_errors_match_serial(self):
        tasks = [BatchTask.call(fail_on, x, 3) for x in range(6)]
        serial = run_batch(tasks)
        par = run_batch(tasks, jobs=2)
        assert par.outcomes == serial.outcomes
        (bad,) = serial.errors
        assert bad.index == 3
        assert bad.error.kind == ERROR_EXCEPTION
        assert bad.error.exception_type == "ValueError"
        assert "poisoned" in bad.error.message
        with pytest.raises(ReproError, match="poisoned"):
            par.values()
        assert par.values(strict=False)[3] is None

    def test_empty_batch(self):
        for jobs in (1, 2):
            result = run_batch([], jobs=jobs)
            assert result.outcomes == ()
            assert result.ok

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.text(alphabet="01", max_size=5),
            ),
            min_size=1,
            max_size=4,
        ),
        st.booleans(),
    )
    @QUICK_SETTINGS
    def test_random_machine_batches_match(self, cases, poison):
        """Random TM runs — with an error path mixed in — agree exactly
        between the serial oracle (jobs 1) and jobs 2 and 4."""
        tasks = [
            BatchTask.call(accepts_random_tm, seed, word)
            for seed, word in cases
        ]
        if poison:
            tasks.append(BatchTask.call(fail_on, 3, 3))
        serial = run_batch(tasks, jobs=1)
        for jobs in (2, 4):
            par = run_batch(tasks, jobs=jobs)
            assert par.outcomes == serial.outcomes


class TestCrashContainment:
    def test_worker_crash_is_contained(self):
        tasks = [BatchTask.call(die_on, x, 4) for x in range(8)]
        result = run_batch(tasks, jobs=2)
        crashed = result.outcomes[4]
        assert not crashed.ok
        assert crashed.error.kind == ERROR_WORKER_CRASH
        assert crashed.attempts == 1 + MAX_RETRIES == 3
        # every innocent sibling completed, in order, first attempt
        for x, outcome in enumerate(result.outcomes):
            assert outcome.index == x
            if x != 4:
                assert outcome.ok and outcome.value == x
        assert result.worker_restarts >= 1

    def test_unpicklable_task_is_a_dispatch_error_not_a_hang(self):
        tasks = [
            BatchTask.call(square, 2),
            BatchTask.call(lambda x: x, 1),  # lambdas do not pickle
        ]
        result = run_batch(tasks, jobs=2)
        assert result.outcomes[0].ok
        assert not result.outcomes[1].ok

    def test_serial_executor_never_retries_crashes(self):
        # the serial oracle runs in-process; a crash there is a real
        # crash, so only the exception path is containable
        tasks = [BatchTask.call(fail_on, 1, 1)]
        result = run_batch(tasks, jobs=1)
        assert result.outcomes[0].error.kind == ERROR_EXCEPTION


class TestMachinePickling:
    def test_compiled_caches_are_not_pickled(self):
        machine = equality_machine()
        word = "0101#0101"
        before = _accepts(machine, word)  # warms the streaming caches
        assert "_compiled_steps" in machine.__dict__
        assert "_transition_index" in machine.__dict__
        state = machine.__getstate__()
        for attr in type(machine)._CACHE_ATTRS:
            assert attr not in state, attr
        clone = pickle.loads(pickle.dumps(machine))
        assert "_compiled_steps" not in clone.__dict__
        assert clone == machine
        assert _accepts(clone, word) == before

    def test_no_underscore_attribute_survives_pickle(self):
        """The generic strip covers every derived cache, present and future.

        Warm *all* known memo layers, then assert no underscore-prefixed
        ``__dict__`` entry whatsoever rides the pickle.  A new memo attr
        added under an underscore name is covered automatically; one
        added under a bare name would trip the inverse check below.
        """
        machine = equality_machine()
        _accepts(machine, "01#01")
        warmed = {k for k in machine.__dict__ if k.startswith("_")}
        # every documented cache attr is actually warmable — the doc
        # tuple cannot drift ahead of (or behind) reality silently
        assert warmed == set(type(machine)._CACHE_ATTRS)
        clone = pickle.loads(pickle.dumps(machine))
        leaked = [k for k in clone.__dict__ if k.startswith("_")]
        assert leaked == []
        assert clone == machine

    def test_unpickled_machine_runs_bit_identically(self):
        # the clone rebuilds its step tables on its first run
        from repro.machines.fast_engine import run_deterministic

        machine = equality_machine()
        word = "0110#0110"
        original = run_deterministic(machine, word)  # warmed before pickling
        rerun = run_deterministic(pickle.loads(pickle.dumps(machine)), word)
        assert rerun.final == original.final
        assert rerun.statistics == original.statistics

    def test_unpickled_machine_runs_batch_bit_identically(self):
        """A warmed machine shipped to workers inside batch tasks runs
        every word — error words included — exactly as it does in
        process."""
        machine = equality_machine()
        words = ["0110#0110", "0#1", "zz", ""]
        _accepts(machine, words[0])  # warmed caches must not leak
        tasks = [BatchTask.call(run_signature, machine, w) for w in words]
        serial = run_batch(tasks)
        par = run_batch(tasks, jobs=2)
        assert par.outcomes == serial.outcomes
        # "zz" is outside the alphabet: its lane carries the error
        assert par.values()[2][0] == "MachineError"

    def test_round_trip_runs_bit_identically(self):
        machine = coin_flip_machine()
        clone = pickle.loads(pickle.dumps(machine))
        from repro.machines.fast_engine import acceptance_probability

        assert acceptance_probability(machine, "0101") == (
            acceptance_probability(clone, "0101")
        )


class TestObservability:
    def test_pool_crash_reaches_the_ledger(self):
        """A real worker death is journaled: one ``worker-restart`` per
        pool rebuild, and ``sweep-end`` tallies match the result."""
        import io
        import json

        from repro.observability.ledger import LedgerWriter

        stream = io.StringIO()
        tasks = [BatchTask.call(die_on, x, 1) for x in range(3)]
        result = run_batch(
            tasks, jobs=2, label="crashy", ledger=LedgerWriter(stream)
        )
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        restarts = [r for r in records if r["kind"] == "worker-restart"]
        (end,) = [r for r in records if r["kind"] == "sweep-end"]
        assert result.worker_restarts >= 1
        assert len(restarts) == result.worker_restarts
        assert end["worker_restarts"] == result.worker_restarts
        assert end["failed"] == len(result.errors) == 1

    def test_dag_stats_reach_the_probe(self):
        from repro.observability.trace import EngineProbe
        from repro.machines.fast_engine import acceptance_probability

        probe = EngineProbe()
        acceptance_probability(coin_flip_machine(), "01", probe=probe)
        assert probe.dag_stats == {
            "interned": 3, "memoized": 3, "memo_hits": 0, "frames": 1,
        }
        # a second DP under the same probe adds to the sums
        acceptance_probability(coin_flip_machine(), "01", probe=probe)
        assert probe.dag_stats["interned"] == 6
        assert probe.dag_stats["frames"] == 2


class TestRoutedCallSites:
    """The production sweeps really go through the runtime and really
    don't change their answers."""

    def test_audit_parallel_json_identical(self):
        import json

        from repro.observability.audit import run_contract_audit

        serial = json.dumps(run_contract_audit(quick=True).to_json_dict())
        par = json.dumps(run_contract_audit(quick=True, jobs=2).to_json_dict())
        assert par == serial

    def test_mc_acceptance_estimate_is_jobs_invariant(self):
        from repro.machines.randomized import estimate_acceptance_probability

        machine = coin_flip_machine()
        serial = estimate_acceptance_probability(machine, "0101", 96, seed=5)
        par = estimate_acceptance_probability(
            machine, "0101", 96, seed=5, jobs=3
        )
        assert par == serial
        # a fair coin over 96 trials should land loosely around 1/2
        assert 0.25 <= float(serial.estimate) <= 0.75
