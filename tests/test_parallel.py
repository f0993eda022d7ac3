"""The parallel batch runtime: determinism, containment, observability.

The load-bearing property is the oracle relation: for any task list,
``ParallelExecutor(jobs=k)`` must produce outcomes *equal* to
``SerialExecutor`` — same values, same structured errors, same order —
for every k and every chunking.  Everything else (crash containment,
pickling hygiene, the ledger) protects that property or observes it.
"""

import os
import pickle
import random

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
    ExecutorAdapter,
    ParallelExecutor,
    SerialExecutor,
    auto_chunk_size,
    derive_task_rng,
    run_batch,
)


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
    def test_adapter_is_abstract(self):
        with pytest.raises(TypeError):
            ExecutorAdapter()

    def test_jobs_below_one_rejected(self):
        for bad in (0, -2):
            with pytest.raises(ReproError, match="jobs"):
                run_batch([BatchTask.call(square, 1)], jobs=bad)


class TestOracleRelation:
    """Parallel == serial, for values, errors, and order."""

    def test_values_and_order(self):
        tasks = [BatchTask.call(square, x) for x in range(17)]
        serial = SerialExecutor().run_batch(tasks)
        for jobs in (2, 4):
            par = ParallelExecutor(jobs).run_batch(tasks)
            assert par.outcomes == serial.outcomes
        assert serial.values() == [x * x for x in range(17)]

    def test_seeded_tasks_identical_across_chunkings(self):
        tasks = [BatchTask.call(draw, 5, seeded=True) for _ in range(9)]
        baseline = SerialExecutor().run_batch(tasks, seed=42)
        for jobs, chunk in ((2, 1), (2, 4), (4, 2), (3, None)):
            par = ParallelExecutor(jobs).run_batch(
                tasks, seed=42, chunk_size=chunk
            )
            assert par.outcomes == baseline.outcomes
        # the streams really are per-task: task 0 and task 1 differ
        assert baseline.outcomes[0].value != baseline.outcomes[1].value

    def test_auto_chunk_size_is_deterministic(self):
        # a pure function of (tasks, workers): repeated evaluation and a
        # fresh executor's partition must produce the same chunking
        for count, workers in ((0, 1), (1, 1), (9, 2), (100, 4), (7, 16)):
            first = auto_chunk_size(count, workers)
            assert first == auto_chunk_size(count, workers)
            assert first >= 1
            # ~4 chunks per worker: ceil division, floored at one task
            assert first == max(1, -(-count // (workers * 4)))
        indexed = [(i, BatchTask.call(square, i)) for i in range(10)]
        parts = [
            ParallelExecutor(2)._partition(indexed, "auto", 2)
            for _ in range(2)
        ]
        assert parts[0] == parts[1]
        assert parts[0] == ParallelExecutor(2)._partition(indexed, None, 2)
        assert [len(chunk) for chunk in parts[0]] == [2, 2, 2, 2, 2]

    def test_auto_chunking_matches_serial_oracle(self):
        tasks = [BatchTask.call(draw, 5, seeded=True) for _ in range(9)]
        baseline = SerialExecutor().run_batch(tasks, seed=42)
        par = ParallelExecutor(2).run_batch(
            tasks, seed=42, chunk_size="auto"
        )
        assert par.outcomes == baseline.outcomes

    def test_bad_chunk_size_rejected(self):
        tasks = [BatchTask.call(square, 1)]
        for bad in (0, -3, "adaptive", 2.5):
            with pytest.raises(ReproError, match="chunk_size"):
                ParallelExecutor(2).run_batch(tasks, chunk_size=bad)

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
        serial = SerialExecutor().run_batch(tasks)
        par = ParallelExecutor(2).run_batch(tasks)
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
        between the serial oracle and both parallel widths."""
        tasks = [
            BatchTask.call(accepts_random_tm, seed, word)
            for seed, word in cases
        ]
        if poison:
            tasks.append(BatchTask.call(fail_on, 3, 3))
        serial = SerialExecutor().run_batch(tasks)
        for jobs in (2, 4):
            par = ParallelExecutor(jobs).run_batch(tasks)
            assert par.outcomes == serial.outcomes


class TestCrashContainment:
    def test_worker_crash_is_contained(self):
        tasks = [BatchTask.call(die_on, x, 4) for x in range(8)]
        result = ParallelExecutor(2, max_retries=1).run_batch(tasks)
        crashed = result.outcomes[4]
        assert not crashed.ok
        assert crashed.error.kind == ERROR_WORKER_CRASH
        assert crashed.attempts == 2  # initial + max_retries retries
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
        result = ParallelExecutor(2).run_batch(tasks)
        assert result.outcomes[0].ok
        assert not result.outcomes[1].ok

    def test_serial_executor_never_retries_crashes(self):
        # the serial oracle runs in-process; a crash there is a real
        # crash, so only the exception path is containable
        tasks = [BatchTask.call(fail_on, 1, 1)]
        result = SerialExecutor().run_batch(tasks)
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

        Warm *all* known memo layers — including the cache layer's
        machine fingerprint — then assert no underscore-prefixed
        ``__dict__`` entry whatsoever rides the pickle.  A new memo attr
        added under an underscore name is covered automatically; one
        added under a bare name would trip the inverse check below.
        """
        from repro.cache import machine_fingerprint

        machine = equality_machine()
        _accepts(machine, "01#01")
        machine_fingerprint(machine)
        warmed = {k for k in machine.__dict__ if k.startswith("_")}
        # every documented cache attr is actually warmable — the doc
        # tuple cannot drift ahead of (or behind) reality silently
        assert warmed == set(type(machine)._CACHE_ATTRS)
        clone = pickle.loads(pickle.dumps(machine))
        leaked = [k for k in clone.__dict__ if k.startswith("_")]
        assert leaked == []
        assert clone == machine
        # the fingerprint memo rebuilds to the same digest after the trip
        assert machine_fingerprint(clone) == machine_fingerprint(machine)

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
        serial = SerialExecutor().run_batch(tasks)
        par = ParallelExecutor(2).run_batch(tasks)
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
        result = ParallelExecutor(2, max_retries=0).run_batch(
            tasks, label="crashy", ledger=LedgerWriter(stream)
        )
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        restarts = [r for r in records if r["kind"] == "worker-restart"]
        (end,) = [r for r in records if r["kind"] == "sweep-end"]
        assert result.worker_restarts >= 1
        assert len(restarts) == result.worker_restarts
        assert end["worker_restarts"] == result.worker_restarts
        assert end["failed"] == len(result.errors) == 1

    def test_dag_stats_reach_the_registry(self):
        from repro.observability.metrics import MetricsRegistry
        from repro.observability.trace import EngineProbe, Tracer
        from repro.machines.fast_engine import acceptance_probability

        registry = MetricsRegistry()
        probe = EngineProbe(tracer=Tracer(), registry=registry)
        acceptance_probability(coin_flip_machine(), "01", probe=probe)
        assert registry.counter("dag_configs_interned_total").value() > 0
        assert registry.counter("dag_frames_total").value() > 0


class TestRoutedCallSites:
    """The production sweeps really go through the runtime and really
    don't change their answers."""

    def test_audit_parallel_json_identical(self):
        import json

        from repro.observability.audit import run_contract_audit

        serial = json.dumps(run_contract_audit(quick=True).to_json_dict())
        par = json.dumps(run_contract_audit(quick=True, jobs=2).to_json_dict())
        assert par == serial

    def test_census_parity_and_factory_requirement(self):
        import functools

        from repro.listmachine.examples import tandem_compare_nlm
        from repro.lowerbounds.counting import enumerate_skeletons

        alphabet = frozenset({"00", "01", "10", "11"})
        factory = functools.partial(tandem_compare_nlm, alphabet, 2)
        nlm = factory()
        serial = enumerate_skeletons(nlm, sorted(alphabet), r=2)
        par = enumerate_skeletons(
            nlm, sorted(alphabet), r=2, jobs=2, machine_factory=factory
        )
        assert par == serial
        with pytest.raises(MachineError, match="machine_factory"):
            enumerate_skeletons(nlm, sorted(alphabet), r=2, jobs=2)

    def test_census_decode_matches_product_order(self):
        import itertools

        from repro.lowerbounds.counting import decode_input

        alphabet = ("a", "b", "c")
        listed = list(itertools.product(alphabet, repeat=3))
        decoded = [decode_input(alphabet, 3, i) for i in range(len(listed))]
        assert decoded == listed

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

    def test_fingerprint_trials_jobs_invariant(self):
        from repro.algorithms.fingerprint import monte_carlo_fingerprint_trials

        serial = monte_carlo_fingerprint_trials(
            4, 8, 32, kind="near-miss", seed=3
        )
        par = monte_carlo_fingerprint_trials(
            4, 8, 32, kind="near-miss", seed=3, jobs=2
        )
        assert par == serial
        assert serial.trials == 32

    def test_fingerprint_trials_regrouping_invariant(self):
        """The lane contract: per-trial rngs come from the *global* lane
        index, so regrouping lanes into different ``BatchTask.map`` task
        boundaries cannot move a single draw.  ``k=3`` keeps the prime
        range small enough that near-miss false positives are plentiful,
        so a moved draw would actually change the acceptance count."""
        from repro.algorithms.fingerprint import monte_carlo_fingerprint_trials

        baseline = monte_carlo_fingerprint_trials(
            4, 8, 32, kind="near-miss", seed=3, k=3
        )
        assert 0 < baseline.accepted < baseline.trials
        for per_task in (1, 5, 7, 32, 100):
            regrouped = monte_carlo_fingerprint_trials(
                4, 8, 32, kind="near-miss", seed=3, k=3,
                trials_per_task=per_task,
            )
            assert regrouped == baseline
        par = monte_carlo_fingerprint_trials(
            4, 8, 32, kind="near-miss", seed=3, k=3, jobs=2,
            trials_per_task=7,
        )
        assert par == baseline

    def test_rtm_check_jobs_invariant(self):
        from repro.machines.randomized import check_half_zero_rtm

        machine = coin_flip_machine()
        serial = check_half_zero_rtm(machine, ["01", "0011"], [])
        par = check_half_zero_rtm(machine, ["01", "0011"], [], jobs=2)
        assert par == serial
        assert serial.holds
