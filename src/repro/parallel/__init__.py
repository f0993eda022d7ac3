"""Deterministic parallel batch runtime for the sweeps commands fan out.

One function — :func:`run_batch` — runs an ordered list of
:class:`BatchTask`\\ s in process (``jobs=1``, the default and the
oracle the pool is differentially tested against) or over a
``ProcessPoolExecutor`` with worker-crash containment (quarantine
retries, structured ``worker-crash`` errors).  Two sweeps use it: the
contract audit (``python -m repro audit --jobs N``) and
:func:`~repro.machines.randomized.estimate_acceptance_probability`
(``python -m repro trace <machine> --trials T --jobs N``).  Every other
sweep runs its loop in process.

The determinism contract — per-task ``random.Random`` streams derived
from ``(batch seed, task index)``, outcomes ordered by task index,
chunking invisible in results — makes ``jobs=K`` a pure wall-clock knob:
``python -m repro audit --jobs 4`` writes the same bytes as the serial
run.  See DESIGN.md §6 ("The parallel runtime").

The sweep ledger is the runtime's only observer: ``run_batch(ledger=…)``
journals ``sweep-start`` / ``task-outcome`` / ``worker-restart`` /
``sweep-end`` records, and ``repro report summarize`` rolls them up.
"""

from .adapters import auto_chunk_size, run_batch
from .batch import (
    ERROR_DISPATCH,
    ERROR_EXCEPTION,
    ERROR_WORKER_CRASH,
    BatchResult,
    BatchTask,
    TaskError,
    TaskOutcome,
    derive_task_rng,
)

__all__ = [
    "BatchTask",
    "TaskError",
    "TaskOutcome",
    "BatchResult",
    "run_batch",
    "auto_chunk_size",
    "derive_task_rng",
    "ERROR_EXCEPTION",
    "ERROR_WORKER_CRASH",
    "ERROR_DISPATCH",
]
