"""Executor adapters: one batch lifecycle, two execution backends.

:class:`ExecutorAdapter` owns the batch *lifecycle* — ledger journaling
and ordered :class:`~repro.parallel.batch.BatchResult` assembly — and
each backend implements one method, :meth:`ExecutorAdapter.execute`,
that runs the whole batch.  Two adapters ship:

* :class:`SerialExecutor` — in-process, in order: the default everywhere
  and the oracle the pool is differentially tested against;
* :class:`ParallelExecutor` — ``ProcessPoolExecutor``-backed fan-out
  with worker-crash containment (quarantine retries, structured
  ``worker-crash`` errors) and per-worker warm-up.

Determinism contract (what the differential tests pin):

* per-task randomness comes only from
  :func:`~repro.parallel.batch.derive_task_rng` — a function of the batch
  seed and the task *index*, never of the worker or completion order;
* outcomes are ordered by task index regardless of completion order;
* chunking (``chunk_size``, including the adaptive ``"auto"``) affects
  dispatch overhead only, never results.

Worker-crash containment: a Python exception inside a task is caught in
the worker and returned as a structured :class:`~repro.parallel.batch.TaskError`
— it never breaks the pool.  A worker that *dies* (SIGKILL, segfault,
``os._exit``) breaks the pool; the executor then enters a quarantine
pass that re-runs every unfinished task one at a time in a
single-worker pool, so the culprit is identified exactly: the task whose
solo run keeps killing its worker is retried up to ``max_retries`` times
and then reported as a ``worker-crash`` error, while innocent tasks that
merely shared the broken pool complete normally.  The batch always
finishes with one outcome per task, in order.

Memoized machine caches are never pickled (see
``TuringMachine.__getstate__``): workers receive bare machines and
rebuild ``_compiled_steps`` / ``_transition_index`` lazily on first use.
For hot sweeps a picklable ``warmup`` callable can be passed to
``run_batch`` — it runs once per worker process (and once, in-process,
for the serial executor) before any task.

Observability: the sweep ledger is the batch runtime's only observer.
Pass ``ledger`` (a :class:`~repro.observability.ledger.LedgerWriter`,
duck-typed — this module never imports it) to journal the sweep
durably: one ``sweep-start``, one ``task-outcome`` per
:class:`~repro.parallel.batch.TaskOutcome` (with heartbeat/stall
telemetry), one ``worker-restart`` per pool rebuild and one
``sweep-end`` with the final tallies.  ``repro report summarize`` rolls
these up.
"""

from __future__ import annotations

import abc
import multiprocessing
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError
from .batch import (
    ERROR_DISPATCH,
    ERROR_WORKER_CRASH,
    BatchResult,
    BatchTask,
    TaskError,
    TaskOutcome,
    execute_chunk,
    execute_one,
)

__all__ = [
    "ExecutorAdapter",
    "SerialExecutor",
    "ParallelExecutor",
    "auto_chunk_size",
    "run_batch",
]

#: Chunks-per-worker target of :func:`auto_chunk_size` — large enough
#: chunks to amortize IPC, enough of them to balance uneven task costs.
AUTO_CHUNKS_PER_WORKER = 4


def auto_chunk_size(count: int, workers: int) -> int:
    """The chunk size ``chunk_size="auto"`` resolves to, deterministically.

    A pure function of the task count and the worker count — never of
    load, timing or completion order — targeting about
    :data:`AUTO_CHUNKS_PER_WORKER` chunks per worker:
    ``ceil(count / (workers * 4))``, floored at 1.  Callers outside the
    adapters (the census fan-out, say) use the same function so every
    ``"auto"`` surface derives the same partition for a given
    ``(count, workers)``.
    """
    if workers < 1:
        raise ReproError(f"workers must be >= 1, got {workers}")
    return max(1, -(-count // (workers * AUTO_CHUNKS_PER_WORKER)))


def _resolve_chunk_size(chunk_size, count: int, workers: int) -> int:
    """Normalize the ``chunk_size`` keyword: ``None``/``"auto"`` →
    :func:`auto_chunk_size`, positive ints pass through, everything else
    is rejected."""
    if chunk_size is None or chunk_size == "auto":
        return auto_chunk_size(count, workers)
    if not isinstance(chunk_size, int) or chunk_size < 1:
        raise ReproError(
            f"chunk_size must be >= 1 or 'auto', got {chunk_size!r}"
        )
    return chunk_size


def _chunked(
    indexed: Sequence[Tuple[int, BatchTask]], chunk_size: int
) -> List[List[Tuple[int, BatchTask]]]:
    return [
        list(indexed[i : i + chunk_size])
        for i in range(0, len(indexed), chunk_size)
    ]


class _Instruments:
    """The batch's ledger hooks under one label; each call is a no-op
    when no ledger is attached (one ``is None`` test per call site)."""

    __slots__ = ("label", "ledger")

    def __init__(self, label: str, ledger=None):
        self.label = label
        self.ledger = ledger

    def sweep_start(self, tasks: int, jobs: int) -> None:
        if self.ledger is not None:
            self.ledger.sweep_start(self.label, tasks=tasks, jobs=jobs)

    def sweep_end(self) -> None:
        if self.ledger is not None:
            self.ledger.sweep_end(self.label)

    def on_outcome(self, outcome: TaskOutcome) -> None:
        if self.ledger is not None:
            self.ledger.task_outcome(self.label, outcome)

    def on_restart(self) -> None:
        if self.ledger is not None:
            self.ledger.worker_restart(self.label)


class ExecutorAdapter(abc.ABC):
    """The executor protocol plus the shared batch lifecycle.

    A backend implements :meth:`execute`: run every task, report each
    outcome to the instruments as it lands, and return the outcomes in
    index order plus the number of worker restarts.  :meth:`run_batch`
    wraps it in the ledger's ``sweep-start`` / ``sweep-end`` and
    assembles the :class:`~repro.parallel.batch.BatchResult`.
    """

    jobs: int = 1

    @abc.abstractmethod
    def execute(
        self,
        tasks: Sequence[BatchTask],
        *,
        seed: Any,
        chunk_size: Union[int, str, None],
        warmup: Optional[Callable[[], Any]],
        instruments: _Instruments,
    ) -> Tuple[List[TaskOutcome], int]:
        """Outcomes in task order, plus the worker-restart count."""

    def workers_for(self, count: int) -> int:
        """How many workers a batch of ``count`` tasks would use."""
        return 1

    def run_batch(
        self,
        tasks: Sequence[BatchTask],
        *,
        seed: Any = 0,
        chunk_size: Union[int, str, None] = None,
        label: str = "batch",
        ledger=None,
        warmup: Optional[Callable[[], Any]] = None,
    ) -> BatchResult:
        tasks = tuple(tasks)
        instruments = _Instruments(label, ledger)
        workers = self.workers_for(len(tasks))
        instruments.sweep_start(len(tasks), workers)
        started = time.perf_counter()
        outcomes: List[TaskOutcome] = []
        restarts = 0
        if tasks:
            outcomes, restarts = self.execute(
                tasks,
                seed=seed,
                chunk_size=chunk_size,
                warmup=warmup,
                instruments=instruments,
            )
        result = BatchResult(
            outcomes=tuple(outcomes),
            jobs=workers,
            worker_restarts=restarts,
            elapsed_seconds=time.perf_counter() - started,
        )
        instruments.sweep_end()
        return result


class SerialExecutor(ExecutorAdapter):
    """In-process batch execution: the default path and the test oracle."""

    def execute(
        self,
        tasks: Sequence[BatchTask],
        *,
        seed: Any,
        chunk_size: Union[int, str, None],  # accepted for API parity; unused
        warmup: Optional[Callable[[], Any]],
        instruments: _Instruments,
    ) -> Tuple[List[TaskOutcome], int]:
        if warmup is not None:
            warmup()
        outcomes: List[TaskOutcome] = []
        for index, task in enumerate(tasks):
            outcome = execute_one(index, task, seed)
            instruments.on_outcome(outcome)
            outcomes.append(outcome)
        return outcomes, 0


def _warmup_initializer(warmup: Optional[Callable[[], Any]]) -> None:
    if warmup is not None:
        warmup()


class ParallelExecutor(ExecutorAdapter):
    """Multiprocess batch execution over a ``ProcessPoolExecutor``.

    ``start_method`` defaults to ``fork`` where available (cheap workers
    that inherit ``sys.path``) and falls back to ``spawn``; either way
    task arguments and results cross the process boundary pickled, so
    machines ship *without* their memoized caches.

    :meth:`execute` submits every chunk at once, drains the optimistic
    pass and runs the quarantine recovery if a worker died.
    """

    def __init__(
        self,
        jobs: int,
        *,
        max_retries: int = 2,
        start_method: Optional[str] = None,
    ):
        if jobs < 1:
            raise ReproError(f"jobs must be >= 1, got {jobs}")
        if max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {max_retries}")
        self.jobs = jobs
        self.max_retries = max_retries
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._context = multiprocessing.get_context(start_method)

    def workers_for(self, count: int) -> int:
        return min(self.jobs, max(1, count))

    # -- pool plumbing -----------------------------------------------------

    def _new_pool(
        self, workers: int, warmup: Optional[Callable[[], Any]]
    ) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=self._context,
            initializer=_warmup_initializer,
            initargs=(warmup,),
        )

    @staticmethod
    def _dispatch_error(index: int, exc: BaseException, attempts: int) -> TaskOutcome:
        return TaskOutcome(
            index=index,
            ok=False,
            error=TaskError(
                kind=ERROR_DISPATCH,
                exception_type=type(exc).__name__,
                message=str(exc),
            ),
            attempts=attempts,
        )

    @staticmethod
    def _crash_error(index: int, attempts: int) -> TaskOutcome:
        return TaskOutcome(
            index=index,
            ok=False,
            error=TaskError(
                kind=ERROR_WORKER_CRASH,
                exception_type="BrokenProcessPool",
                message=(
                    f"worker died while running task {index} "
                    f"({attempts} attempts)"
                ),
            ),
            attempts=attempts,
        )

    # -- chunk partition ---------------------------------------------------

    def _partition(
        self,
        indexed: Sequence[Tuple[int, BatchTask]],
        chunk_size: Union[int, str, None],
        workers: int,
    ) -> List[List[Tuple[int, BatchTask]]]:
        return _chunked(
            indexed, _resolve_chunk_size(chunk_size, len(indexed), workers)
        )

    # -- the backend -------------------------------------------------------

    def execute(
        self,
        tasks: Sequence[BatchTask],
        *,
        seed: Any,
        chunk_size: Union[int, str, None],
        warmup: Optional[Callable[[], Any]],
        instruments: _Instruments,
    ) -> Tuple[List[TaskOutcome], int]:
        workers = self.workers_for(len(tasks))
        chunks = self._partition(list(enumerate(tasks)), chunk_size, workers)
        outcomes: Dict[int, TaskOutcome] = {}
        unfinished: List[Tuple[int, BatchTask]] = []
        pool = self._new_pool(workers, warmup)
        try:
            futures = {
                pool.submit(execute_chunk, (seed, chunk)): chunk
                for chunk in chunks
            }
            for future in as_completed(futures):
                chunk = futures[future]
                try:
                    records = future.result()
                except BrokenExecutor:
                    unfinished.extend(chunk)
                except Exception as exc:
                    # the chunk could not cross the process boundary
                    # (unpicklable task or result); every task in it
                    # gets the same structured dispatch error
                    for index, _task in chunk:
                        outcome = self._dispatch_error(index, exc, 1)
                        outcomes[index] = outcome
                        instruments.on_outcome(outcome)
                else:
                    for outcome in records:
                        outcomes[outcome.index] = outcome
                        instruments.on_outcome(outcome)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        restarts = 0
        if unfinished:
            instruments.on_restart()
            unfinished.sort(key=lambda pair: pair[0])
            restarts = 1 + self._quarantine(
                unfinished, seed, warmup, outcomes, instruments
            )
        return [outcomes[index] for index in range(len(tasks))], restarts

    def _quarantine(
        self,
        remaining: List[Tuple[int, BatchTask]],
        seed: Any,
        warmup: Optional[Callable[[], Any]],
        outcomes: Dict[int, TaskOutcome],
        instruments: _Instruments,
    ) -> int:
        """Post-crash recovery: one task at a time in a one-worker pool.

        Solo execution attributes crashes exactly — only the task whose
        own run breaks the pool is charged an attempt, so an innocent
        task can never exhaust another task's retries.
        """
        restarts = 0
        pool = self._new_pool(1, warmup)
        try:
            for index, task in remaining:
                attempts = 0
                while True:
                    attempts += 1
                    future = pool.submit(execute_chunk, (seed, [(index, task)]))
                    try:
                        outcome = future.result()[0]
                        outcome = TaskOutcome(
                            index=outcome.index,
                            ok=outcome.ok,
                            value=outcome.value,
                            error=outcome.error,
                            attempts=attempts,
                            seconds=outcome.seconds,
                        )
                    except BrokenExecutor:
                        restarts += 1
                        instruments.on_restart()
                        pool.shutdown(wait=True, cancel_futures=True)
                        pool = self._new_pool(1, warmup)
                        if attempts > self.max_retries:
                            outcome = self._crash_error(index, attempts)
                        else:
                            continue
                    except Exception as exc:
                        outcome = self._dispatch_error(index, exc, attempts)
                    outcomes[index] = outcome
                    instruments.on_outcome(outcome)
                    break
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        return restarts


def run_batch(
    tasks: Sequence[BatchTask],
    *,
    jobs: int = 1,
    seed: Any = 0,
    chunk_size: Union[int, str, None] = None,
    max_retries: int = 2,
    label: str = "batch",
    ledger=None,
    warmup: Optional[Callable[[], Any]] = None,
) -> BatchResult:
    """Run ``tasks`` serially (``jobs=1``, the default) or in parallel.

    The convenience entry point every call site uses: ``jobs=1`` picks
    :class:`SerialExecutor`, any other value a :class:`ParallelExecutor`
    with that many workers; ``jobs < 1`` is rejected with
    :class:`~repro.errors.ReproError`.  Results are bit-identical
    across any ``jobs`` for tasks that follow the determinism contract.

    ``chunk_size`` may be a positive int, or ``"auto"``/``None`` for the
    adaptive partition (:func:`auto_chunk_size`: ~4 chunks per worker,
    a deterministic function of the task and worker counts alone).

    ``ledger`` journals the sweep (see the module docstring).
    """
    if jobs == 1:
        executor: ExecutorAdapter = SerialExecutor()
    else:
        executor = ParallelExecutor(jobs, max_retries=max_retries)
    return executor.run_batch(
        tasks,
        seed=seed,
        chunk_size=chunk_size,
        label=label,
        ledger=ledger,
        warmup=warmup,
    )
