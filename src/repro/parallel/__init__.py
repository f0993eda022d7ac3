"""Deterministic parallel batch runtime for sweeps, trials and censuses.

One API — :func:`run_batch` — over two executor adapters
(:class:`ExecutorAdapter`, one ``execute`` method each):

* :class:`SerialExecutor` — in-process, the default everywhere and the
  oracle the parallel path is differentially tested against;
* :class:`ParallelExecutor` — ``ProcessPoolExecutor``-backed fan-out with
  worker-crash containment (quarantine retries, structured
  ``worker-crash`` errors) and per-worker warm-up.

The determinism contract — per-task ``random.Random`` streams derived
from ``(batch seed, task index)``, outcomes ordered by task index,
chunking invisible in results — makes ``jobs=K`` a pure wall-clock knob:
``python -m repro audit --jobs 4`` writes the same bytes as the serial
run.  See DESIGN.md §6 ("The parallel runtime") and §10 ("The executor
adapters").

The sweep ledger is the runtime's only observer: ``run_batch(ledger=…)``
journals ``sweep-start`` / ``task-outcome`` / ``worker-restart`` /
``sweep-end`` records, and ``repro report summarize`` rolls them up.
"""

from .adapters import (
    ExecutorAdapter,
    ParallelExecutor,
    SerialExecutor,
    auto_chunk_size,
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

__all__ = [
    "BatchTask",
    "TaskError",
    "TaskOutcome",
    "BatchResult",
    "ExecutorAdapter",
    "SerialExecutor",
    "ParallelExecutor",
    "run_batch",
    "auto_chunk_size",
    "derive_task_rng",
    "derive_lane_rng",
    "normalize_seed",
    "ERROR_EXCEPTION",
    "ERROR_WORKER_CRASH",
    "ERROR_DISPATCH",
]
