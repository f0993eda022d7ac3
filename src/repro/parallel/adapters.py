"""Executor adapters: one batch lifecycle, two execution backends.

:class:`ExecutorAdapter` is the protocol every backend implements —
``submit`` / ``collect`` / ``shutdown`` over pre-indexed ``(index,
task)`` pairs — while the batch *lifecycle* (sweep fingerprinting, the
resume merge, ledger journaling, outcome assembly) lives once on the
base class.  Two adapters ship:

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

Because adapters consume *pre-indexed* pairs, a subset of a batch can be
dispatched under its original indices — the property the resume path
(re-run only never-landed indices) rests on: index ``17`` derives the
same rng stream whether it runs in a full sweep or a resumed tail.

Resuming: ``run_batch(resume_from=ledger)`` reads a previous run's
``task-outcome`` records, verifies the journaled sweep fingerprint
against this batch (refusing to merge foreign work), replays every
outcome that landed ``ok`` with a journaled value, and dispatches only
the rest.  The merged outcome tuple is bit-identical to an
uninterrupted sweep; the new ledger records one ``sweep-resume`` event
(dropped by ``repro report strip`` — whether a sweep was interrupted is
a wall-clock accident, not a property of the work).

Worker-crash containment: a Python exception inside a task is caught in
the worker and returned as a structured :class:`~repro.parallel.batch.TaskError`
— it never breaks the pool.  A worker that *dies* (SIGKILL, segfault,
``os._exit``) breaks the pool; the executor then rebuilds it and enters a
quarantine pass that re-runs every unfinished task one at a time in a
single-worker pool, so the culprit is identified exactly: the task whose
solo run keeps killing its worker is retried up to ``max_retries`` times
and then reported as a ``worker-crash`` error, while innocent tasks that
merely shared the broken pool complete normally.  The batch always
finishes with one outcome per task, in order.

Compiled-machine caches are never pickled (see
``TuringMachine.__getstate__``): workers receive bare machines and
rebuild ``_compiled_steps`` / ``_transition_index`` lazily on first use.
For hot sweeps a picklable ``warmup`` callable can be passed to
``run_batch`` — it runs once per worker process (and once, in-process,
for the serial executor) before any task.

Observability: the sweep ledger is the batch runtime's only observer.
Pass ``ledger`` (a :class:`~repro.observability.ledger.LedgerWriter`,
duck-typed — this module never imports it) to journal the sweep
durably: one ``sweep-start`` (carrying the sweep fingerprint the resume
path verifies), one ``task-outcome`` per
:class:`~repro.parallel.batch.TaskOutcome` (with heartbeat/stall
telemetry), one ``worker-restart`` per pool rebuild and one
``sweep-end`` with the final tallies.  ``repro report summarize`` rolls
these up.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import time
from concurrent.futures import BrokenExecutor, FIRST_COMPLETED, ProcessPoolExecutor, wait
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
    "default_jobs",
    "JOBS_ENV_VAR",
]

#: Environment override for :func:`default_jobs` — CI shards pin their
#: worker count with ``REPRO_JOBS=N`` instead of patching call sites.
JOBS_ENV_VAR = "REPRO_JOBS"


def default_jobs() -> int:
    """The worker count ``jobs=None`` resolves to.

    Resolution order:

    1. ``$REPRO_JOBS`` — an explicit integer override (>= 1), so CI
       matrix shards can pin worker counts without touching call sites;
    2. ``os.process_cpu_count()`` where it exists (Python 3.13+) — the
       cores *this process* may actually use, which respects cgroup
       quotas and CPU affinity masks in containers;
    3. ``os.cpu_count()`` — every visible core, or 1 when unknown.
    """
    override = os.environ.get(JOBS_ENV_VAR)
    if override is not None and override.strip():
        try:
            jobs = int(override)
        except ValueError:
            raise ReproError(
                f"${JOBS_ENV_VAR} must be an integer >= 1, got {override!r}"
            )
        if jobs < 1:
            raise ReproError(
                f"${JOBS_ENV_VAR} must be an integer >= 1, got {override!r}"
            )
        return jobs
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:
        counted = process_cpu_count()
        if counted:
            return counted
    return os.cpu_count() or 1


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

    def sweep_start(
        self, tasks: int, jobs: int, fingerprint: Optional[str]
    ) -> None:
        if self.ledger is not None:
            self.ledger.sweep_start(
                self.label, tasks=tasks, jobs=jobs, fingerprint=fingerprint
            )

    def sweep_end(self) -> None:
        if self.ledger is not None:
            self.ledger.sweep_end(self.label)

    def on_resume(self, *, fingerprint, tasks, reused, pending) -> None:
        if self.ledger is not None:
            self.ledger.sweep_resume(
                self.label,
                fingerprint=fingerprint,
                tasks=tasks,
                reused=reused,
                pending=pending,
            )

    def on_outcome(self, outcome: TaskOutcome) -> None:
        if self.ledger is not None:
            self.ledger.task_outcome(self.label, outcome)

    def on_restart(self) -> None:
        if self.ledger is not None:
            self.ledger.worker_restart(self.label)


#: What an adapter driven outside :meth:`ExecutorAdapter.run_batch`
#: reports to: nothing.
_UNOBSERVED = _Instruments("batch")


class ExecutorAdapter(abc.ABC):
    """The executor protocol plus the shared batch lifecycle.

    Backends implement three primitives over **pre-indexed** pairs —
    indices need not be dense or zero-based, which is what lets the
    resume path dispatch only the never-landed tail of a sweep under
    original indices:

    * :meth:`submit` — accept ``(index, task)`` pairs, return a token;
    * :meth:`collect` — block until done, return ``(outcomes-by-index,
      worker_restarts)``;
    * :meth:`shutdown` — release resources; idempotent, called even
      when ``collect`` raises.

    One submission may be outstanding per adapter at a time.
    :meth:`run_batch` drives the full lifecycle: sweep fingerprint,
    resume merge, ledger journaling, submit/collect/shutdown, ordered
    :class:`~repro.parallel.batch.BatchResult` assembly.
    """

    name: str = "adapter"
    jobs: int = 1

    # -- the backend protocol ---------------------------------------------

    @abc.abstractmethod
    def submit(
        self,
        indexed: Sequence[Tuple[int, BatchTask]],
        *,
        seed: Any = 0,
        chunk_size: Union[int, str, None] = None,
        warmup: Optional[Callable[[], Any]] = None,
        instruments: _Instruments = _UNOBSERVED,
    ) -> Any:
        """Hand a batch of ``(index, task)`` pairs to the backend."""

    @abc.abstractmethod
    def collect(self, token: Any) -> Tuple[Dict[int, TaskOutcome], int]:
        """Outcomes keyed by original index, plus the restart count."""

    @abc.abstractmethod
    def shutdown(self) -> None:
        """Release backend resources (idempotent)."""

    def workers_for(self, count: int) -> int:
        """How many workers a batch of ``count`` tasks would use."""
        return 1

    # -- the shared lifecycle ---------------------------------------------

    def run_batch(
        self,
        tasks: Sequence[BatchTask],
        *,
        seed: Any = 0,
        chunk_size: Union[int, str, None] = None,
        label: str = "batch",
        ledger=None,
        warmup: Optional[Callable[[], Any]] = None,
        resume_from=None,
    ) -> BatchResult:
        tasks = tuple(tasks)
        instruments = _Instruments(label, ledger)
        fingerprint: Optional[str] = None
        if ledger is not None or resume_from is not None:
            from .shard import sweep_fingerprint

            fingerprint = sweep_fingerprint(tasks, seed=seed)
        reused: Dict[int, TaskOutcome] = {}
        if resume_from is not None:
            from .resume import resolve_resume

            reused = resolve_resume(
                resume_from,
                label=label,
                fingerprint=fingerprint,
                total=len(tasks),
            )
        pending = [
            (index, task)
            for index, task in enumerate(tasks)
            if index not in reused
        ]
        workers = self.workers_for(len(pending) if reused else len(tasks))
        instruments.sweep_start(len(tasks), workers, fingerprint)
        started = time.perf_counter()
        if resume_from is not None:
            instruments.on_resume(
                fingerprint=fingerprint,
                tasks=len(tasks),
                reused=len(reused),
                pending=len(pending),
            )
            # replay reused outcomes in index order so the journal's
            # deterministic projection matches an uninterrupted sweep
            for index in sorted(reused):
                instruments.on_outcome(reused[index])
        fresh: Dict[int, TaskOutcome] = {}
        restarts = 0
        if pending:
            token = self.submit(
                pending,
                seed=seed,
                chunk_size=chunk_size,
                warmup=warmup,
                instruments=instruments,
            )
            try:
                fresh, restarts = self.collect(token)
            finally:
                self.shutdown()
        merged = {**reused, **fresh}
        result = BatchResult(
            outcomes=tuple(merged[index] for index in range(len(tasks))),
            jobs=workers,
            worker_restarts=restarts,
            elapsed_seconds=time.perf_counter() - started,
        )
        instruments.sweep_end()
        return result


class SerialExecutor(ExecutorAdapter):
    """In-process batch execution: the default path and the test oracle."""

    name = "serial"
    jobs = 1

    def __init__(self) -> None:
        self._pending: Optional[Tuple[Any, ...]] = None

    def submit(
        self,
        indexed: Sequence[Tuple[int, BatchTask]],
        *,
        seed: Any = 0,
        chunk_size: Union[int, str, None] = None,  # accepted for API parity; unused
        warmup: Optional[Callable[[], Any]] = None,
        instruments: _Instruments = _UNOBSERVED,
    ) -> Any:
        if self._pending is not None:
            raise ReproError("SerialExecutor already has a submission open")
        self._pending = (list(indexed), seed, warmup, instruments)
        return self._pending

    def collect(self, token: Any) -> Tuple[Dict[int, TaskOutcome], int]:
        indexed, seed, warmup, instruments = token
        if warmup is not None:
            warmup()
        outcomes: Dict[int, TaskOutcome] = {}
        for index, task in indexed:
            outcome = execute_one(index, task, seed)
            instruments.on_outcome(outcome)
            outcomes[index] = outcome
        return outcomes, 0

    def shutdown(self) -> None:
        self._pending = None


def _warmup_initializer(warmup: Optional[Callable[[], Any]]) -> None:
    if warmup is not None:
        warmup()


class ParallelExecutor(ExecutorAdapter):
    """Multiprocess batch execution over a ``ProcessPoolExecutor``.

    ``jobs=None`` means :func:`default_jobs` workers.  ``start_method``
    defaults to ``fork`` where available (cheap workers that inherit
    ``sys.path``) and falls back to ``spawn``; either way task arguments
    and results cross the process boundary pickled, so machines ship
    *without* their compiled caches.

    ``submit`` is eager: the pool spins up and chunk futures are in
    flight before ``collect`` is called.  ``collect`` drains the
    optimistic pass and runs the quarantine recovery if a worker died.
    """

    name = "process-pool"

    def __init__(
        self,
        jobs: Optional[int] = None,
        *,
        max_retries: int = 2,
        start_method: Optional[str] = None,
    ):
        if jobs is not None and jobs < 1:
            raise ReproError(f"jobs must be >= 1, got {jobs}")
        if max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {max_retries}")
        self.jobs = jobs if jobs is not None else default_jobs()
        self.max_retries = max_retries
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._context = multiprocessing.get_context(start_method)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._token: Optional[Dict[str, Any]] = None

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

    # -- the protocol ------------------------------------------------------

    def submit(
        self,
        indexed: Sequence[Tuple[int, BatchTask]],
        *,
        seed: Any = 0,
        chunk_size: Union[int, str, None] = None,
        warmup: Optional[Callable[[], Any]] = None,
        instruments: _Instruments = _UNOBSERVED,
    ) -> Any:
        if self._token is not None:
            raise ReproError(f"{self.name} executor already has a submission open")
        workers = self.workers_for(len(indexed))
        chunks = self._partition(indexed, chunk_size, workers)
        self._pool = self._new_pool(workers, warmup)
        futures = {
            self._pool.submit(execute_chunk, (seed, chunk)): chunk
            for chunk in chunks
        }
        self._token = {
            "futures": futures,
            "seed": seed,
            "warmup": warmup,
            "instruments": instruments,
        }
        return self._token

    def collect(self, token: Any) -> Tuple[Dict[int, TaskOutcome], int]:
        if token is not self._token or token is None:
            raise ReproError("collect() needs the token submit() returned")
        futures = token["futures"]
        instruments = token["instruments"]
        outcomes: Dict[int, TaskOutcome] = {}
        broken = False
        unfinished: List[Tuple[int, BatchTask]] = []
        try:
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    chunk = futures[future]
                    try:
                        records = future.result()
                    except BrokenExecutor:
                        broken = True
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
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if not broken:
            return outcomes, 0
        instruments.on_restart()
        unfinished.sort(key=lambda pair: pair[0])
        restarts = 1 + self._quarantine(
            unfinished,
            token["seed"],
            token["warmup"],
            outcomes,
            instruments,
        )
        return outcomes, restarts

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._token = None

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
    jobs: Optional[int] = 1,
    seed: Any = 0,
    chunk_size: Union[int, str, None] = None,
    max_retries: int = 2,
    label: str = "batch",
    ledger=None,
    warmup: Optional[Callable[[], Any]] = None,
    resume_from=None,
) -> BatchResult:
    """Run ``tasks`` serially (``jobs=1``, the default) or in parallel.

    The convenience entry point every call site uses: ``jobs=1`` picks
    :class:`SerialExecutor`, any other value a :class:`ParallelExecutor`
    with that many workers — ``jobs=None`` means :func:`default_jobs`
    (one worker per available core), ``jobs < 1`` is rejected with
    :class:`~repro.errors.ReproError`.  Results are bit-identical
    across any ``jobs`` for tasks that follow the determinism contract.

    ``chunk_size`` may be a positive int, or ``"auto"``/``None`` for the
    adaptive partition (:func:`auto_chunk_size`: ~4 chunks per worker,
    a deterministic function of the task and worker counts alone).

    ``ledger`` journals the sweep (see the module docstring).
    ``resume_from`` is a previous run's ledger (path or
    :class:`~repro.parallel.resume.ResumeState`): outcomes that landed
    ``ok`` with a journaled value are merged in and only the rest are
    dispatched — bit-identical to an uninterrupted run, refused with
    :class:`~repro.errors.ReproError` when the journaled sweep
    fingerprint does not match these tasks.
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
        resume_from=resume_from,
    )
