"""Deterministic parallel batch runtime for sweeps, trials and censuses.

One API — :func:`run_batch` — over two executor adapters
(:class:`ExecutorAdapter`: ``submit`` / ``collect`` / ``shutdown``):

* :class:`SerialExecutor` — in-process, the default everywhere and the
  oracle the parallel path is differentially tested against;
* :class:`ParallelExecutor` — ``ProcessPoolExecutor``-backed fan-out with
  worker-crash containment (quarantine retries, structured
  ``worker-crash`` errors) and per-worker warm-up.

The determinism contract — per-task ``random.Random`` streams derived
from ``(batch seed, task index)``, outcomes ordered by task index,
chunking invisible in results — makes ``jobs=K`` a pure wall-clock knob:
``python -m repro audit --jobs 4`` writes the same bytes as the serial
run, and ``repro audit --shards 3 --shard-index i`` + ``repro shard
collect`` reassembles them (:func:`shard_indices` is the strided
partition).  See DESIGN.md §6 ("The parallel runtime") and §10 ("The
executor adapters").

The sweep ledger is the runtime's only observer: ``run_batch(ledger=…)``
journals ``sweep-start`` / ``task-outcome`` / ``worker-restart`` /
``sweep-end`` records, and ``repro report summarize`` rolls them up.
Sweeps journaled to a ledger carry a :func:`sweep_fingerprint` in their
``sweep-start``; ``run_batch(resume_from=ledger)`` verifies it and
re-dispatches only the indices that never landed ``ok`` — bit-identical
to an uninterrupted run (:mod:`~repro.parallel.resume`).
"""

from .adapters import (
    ExecutorAdapter,
    JOBS_ENV_VAR,
    ParallelExecutor,
    SerialExecutor,
    auto_chunk_size,
    default_jobs,
    run_batch,
)
from .batch import (
    ERROR_DISPATCH,
    ERROR_EXCEPTION,
    ERROR_WORKER_CRASH,
    BatchResult,
    BatchTask,
    TaskError,
    TaskOutcome,
    derive_lane_rng,
    derive_task_rng,
    normalize_seed,
)
from .resume import ResumeState, load_resume_state, resolve_resume
from .shard import shard_indices, sweep_fingerprint, task_fingerprint

__all__ = [
    "BatchTask",
    "TaskError",
    "TaskOutcome",
    "BatchResult",
    "ExecutorAdapter",
    "SerialExecutor",
    "ParallelExecutor",
    "shard_indices",
    "task_fingerprint",
    "sweep_fingerprint",
    "ResumeState",
    "load_resume_state",
    "resolve_resume",
    "run_batch",
    "auto_chunk_size",
    "derive_task_rng",
    "derive_lane_rng",
    "normalize_seed",
    "default_jobs",
    "JOBS_ENV_VAR",
    "ERROR_EXCEPTION",
    "ERROR_WORKER_CRASH",
    "ERROR_DISPATCH",
]
