"""``run_batch``: one batch, run in process or over a process pool.

``jobs=1`` runs the tasks in order in this process: the default and the
oracle the pool is differentially tested against.  Any larger ``jobs``
cuts the tasks into :func:`auto_chunk_size` chunks and submits them all
to a ``ProcessPoolExecutor`` (``fork`` where the platform has it, else
``spawn``).

Determinism contract (what the differential tests pin):

* per-task randomness comes only from
  :func:`~repro.parallel.batch.derive_task_rng` — a function of the batch
  seed and the task *index*, never of the worker or completion order;
* outcomes are ordered by task index regardless of completion order;
* chunking affects dispatch overhead only, never results.

Worker-crash containment: a Python exception inside a task is caught in
the worker and returned as a structured :class:`~repro.parallel.batch.TaskError`
— it never breaks the pool.  A worker that *dies* (SIGKILL, segfault,
``os._exit``) breaks the pool; the runtime then enters a quarantine
pass that re-runs every unfinished task one at a time in a
single-worker pool, so the culprit is identified exactly: the task whose
solo run keeps killing its worker is retried :data:`MAX_RETRIES` times
and then reported as a ``worker-crash`` error, while innocent tasks that
merely shared the broken pool complete normally.  The batch always
finishes with one outcome per task, in order.

Memoized machine caches are never pickled (see
``TuringMachine.__getstate__``): workers receive bare machines and
rebuild ``_compiled_steps`` / ``_transition_index`` lazily on first use.

Observability: the sweep ledger is the batch runtime's only observer.
Pass ``ledger`` (a :class:`~repro.observability.ledger.LedgerWriter`,
duck-typed — this module never imports it) to journal the sweep
durably: one ``sweep-start``, one ``task-outcome`` per
:class:`~repro.parallel.batch.TaskOutcome`, one ``worker-restart`` per
pool rebuild and one ``sweep-end`` with the final tallies.
``repro report summarize`` rolls these up.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from typing import Any, Callable, Dict, List, Sequence, Tuple

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

__all__ = ["MAX_RETRIES", "auto_chunk_size", "run_batch"]

#: Solo re-runs a task gets in the quarantine pool after its first
#: attempt killed a worker; the next death is a ``worker-crash`` error.
MAX_RETRIES = 2

#: Chunks-per-worker target of :func:`auto_chunk_size` — large enough
#: chunks to amortize IPC, enough of them to balance uneven task costs.
AUTO_CHUNKS_PER_WORKER = 4


def auto_chunk_size(count: int, workers: int) -> int:
    """The chunk size the pool cuts ``count`` tasks into, deterministically.

    A pure function of the task count and the worker count — never of
    load, timing or completion order — targeting about
    :data:`AUTO_CHUNKS_PER_WORKER` chunks per worker:
    ``ceil(count / (workers * 4))``, floored at 1.
    """
    if workers < 1:
        raise ReproError(f"workers must be >= 1, got {workers}")
    return max(1, -(-count // (workers * AUTO_CHUNKS_PER_WORKER)))


def run_batch(
    tasks: Sequence[BatchTask],
    *,
    jobs: int = 1,
    seed: Any = 0,
    label: str = "batch",
    ledger=None,
) -> BatchResult:
    """Run ``tasks`` serially (``jobs=1``, the default) or over ``jobs``
    worker processes.

    ``jobs < 1`` is rejected with :class:`~repro.errors.ReproError`.
    Results are bit-identical across any ``jobs`` for tasks that follow
    the determinism contract.  ``ledger`` journals the sweep under
    ``label`` (see the module docstring); its ``sweep-start`` records
    the number of workers used, at most one per task.
    """
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    tasks = tuple(tasks)
    workers = min(jobs, max(1, len(tasks)))

    def landed(outcome: TaskOutcome) -> None:
        if ledger is not None:
            ledger.task_outcome(label, outcome)

    def restarted() -> None:
        if ledger is not None:
            ledger.worker_restart(label)

    if ledger is not None:
        ledger.sweep_start(label, tasks=len(tasks), jobs=workers)
    outcomes: List[TaskOutcome] = []
    restarts = 0
    if jobs == 1:
        for index, task in enumerate(tasks):
            outcome = execute_one(index, task, seed)
            landed(outcome)
            outcomes.append(outcome)
    elif tasks:
        outcomes, restarts = _run_pool(tasks, seed, workers, landed, restarted)
    if ledger is not None:
        ledger.sweep_end(label)
    return BatchResult(outcomes=tuple(outcomes), worker_restarts=restarts)


# -- the process pool ------------------------------------------------------


def _new_pool(workers: int) -> ProcessPoolExecutor:
    # fork gives cheap workers that inherit sys.path; either way task
    # arguments and results cross the process boundary pickled
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


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


def _run_pool(
    tasks: Tuple[BatchTask, ...],
    seed: Any,
    workers: int,
    landed: Callable[[TaskOutcome], None],
    restarted: Callable[[], None],
) -> Tuple[List[TaskOutcome], int]:
    """Submit every chunk at once, drain the optimistic pass, and run
    the quarantine pass if a worker died.  Returns the outcomes in task
    order and the worker-restart count."""
    indexed = list(enumerate(tasks))
    size = auto_chunk_size(len(indexed), workers)
    chunks = [indexed[i : i + size] for i in range(0, len(indexed), size)]
    outcomes: Dict[int, TaskOutcome] = {}
    unfinished: List[Tuple[int, BatchTask]] = []
    pool = _new_pool(workers)
    try:
        futures = {
            pool.submit(execute_chunk, (seed, chunk)): chunk for chunk in chunks
        }
        for future in as_completed(futures):
            chunk = futures[future]
            try:
                records = future.result()
            except BrokenExecutor:
                unfinished.extend(chunk)
                continue
            except Exception as exc:
                # the chunk could not cross the process boundary
                # (unpicklable task or result); every task in it gets
                # the same structured dispatch error
                records = [_dispatch_error(index, exc, 1) for index, _ in chunk]
            for outcome in records:
                outcomes[outcome.index] = outcome
                landed(outcome)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    restarts = 0
    if unfinished:
        restarted()
        unfinished.sort(key=lambda pair: pair[0])
        restarts = 1 + _quarantine(unfinished, seed, outcomes, landed, restarted)
    return [outcomes[index] for index in range(len(tasks))], restarts


def _quarantine(
    remaining: List[Tuple[int, BatchTask]],
    seed: Any,
    outcomes: Dict[int, TaskOutcome],
    landed: Callable[[TaskOutcome], None],
    restarted: Callable[[], None],
) -> int:
    """Post-crash recovery: one task at a time in a one-worker pool.

    Solo execution attributes crashes exactly — only the task whose own
    run breaks the pool is charged an attempt, so an innocent task can
    never exhaust another task's retries.
    """
    restarts = 0
    pool = _new_pool(1)
    try:
        for index, task in remaining:
            attempts = 0
            while True:
                attempts += 1
                future = pool.submit(execute_chunk, (seed, [(index, task)]))
                try:
                    outcome = dataclasses.replace(
                        future.result()[0], attempts=attempts
                    )
                except BrokenExecutor:
                    restarts += 1
                    restarted()
                    pool.shutdown(wait=True, cancel_futures=True)
                    pool = _new_pool(1)
                    if attempts <= MAX_RETRIES:
                        continue
                    outcome = _crash_error(index, attempts)
                except Exception as exc:
                    outcome = _dispatch_error(index, exc, attempts)
                outcomes[index] = outcome
                landed(outcome)
                break
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return restarts
