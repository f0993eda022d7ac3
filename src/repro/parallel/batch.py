"""The batch task model: what a sweep cell is, and what running one yields.

The two sweeps that commands fan out over worker processes — the
contract audit and :func:`~repro.machines.randomized.estimate_acceptance_probability`
— reduce to the same shape: an ordered list of independent tasks, each
a picklable callable plus arguments, whose results must come back **in
task order** and **bit-identical** no matter how many workers ran them.
This module defines that shape:

* :class:`BatchTask` — one unit of work.  ``seeded=True`` tasks receive a
  task-index-derived ``random.Random`` as an ``rng`` keyword argument
  (see :func:`derive_task_rng`), which is the entire determinism story:
  the stream a task sees depends only on ``(batch seed, task index)``,
  never on which worker ran it or in what order;
* :class:`TaskError` — a structured failure record.  Tracebacks ride
  along for debugging but are excluded from equality, so a failed batch
  compares equal across serial and parallel execution;
* :class:`TaskOutcome` — one task's result slot (value or error), with
  non-comparing ``attempts``/``seconds`` bookkeeping;
* :class:`BatchResult` — the ordered outcome tuple plus the
  non-comparing worker-restart count.

The worker-side entry points (:func:`execute_one`, :func:`execute_chunk`)
live here too, so :func:`~repro.parallel.adapters.run_batch` and the
worker processes it spawns share one definition of "run a task".
"""

from __future__ import annotations

import random
import time
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .._util import normalize_seed

__all__ = [
    "BatchTask",
    "TaskError",
    "TaskOutcome",
    "BatchResult",
    "derive_task_rng",
    "execute_one",
    "execute_chunk",
    "ERROR_EXCEPTION",
    "ERROR_WORKER_CRASH",
    "ERROR_DISPATCH",
]

#: The task body raised a Python exception (contained at any ``jobs``).
ERROR_EXCEPTION = "exception"
#: The worker process died mid-task (SIGKILL, segfault, ``os._exit``);
#: only the process pool can contain this.
ERROR_WORKER_CRASH = "worker-crash"
#: The task could not be shipped to or from a worker (e.g. unpicklable
#: arguments or return value).
ERROR_DISPATCH = "dispatch"


def derive_task_rng(seed: Any, index: int) -> random.Random:
    """The per-task random stream: a function of (batch seed, task index).

    String-keyed like the audit harness's per-cell seeding, so the stream
    is stable across Python versions, worker counts and chunk sizes — the
    determinism contract of the whole runtime rests on this one line.
    The seed goes through :func:`~repro._util.normalize_seed`, so equal
    logical seeds (``7`` vs ``"7"``) yield equal streams.
    """
    return random.Random(f"batch:{normalize_seed(seed)}:{index}")


@dataclass(frozen=True)
class BatchTask:
    """One unit of batch work: ``fn(*args, **kwargs)`` in some worker.

    ``fn`` must be picklable (a module-level callable or
    ``functools.partial`` of one) for parallel execution; ``kwargs`` is
    stored as a sorted tuple of pairs so tasks stay immutable.  With
    ``seeded=True`` the runtime injects ``rng=derive_task_rng(seed, i)``.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    seeded: bool = False

    @classmethod
    def call(cls, fn: Callable[..., Any], *args: Any, seeded: bool = False, **kwargs: Any) -> "BatchTask":
        """Build a task with natural call syntax."""
        return cls(
            fn=fn,
            args=tuple(args),
            kwargs=tuple(sorted(kwargs.items())),
            seeded=seeded,
        )


@dataclass(frozen=True)
class TaskError:
    """A structured task failure.

    ``traceback`` is excluded from equality: serial and parallel runs of
    the same raising task produce *equal* errors even though their stacks
    (in-process vs. worker-process) render differently.
    """

    kind: str  # ERROR_EXCEPTION | ERROR_WORKER_CRASH | ERROR_DISPATCH
    exception_type: str
    message: str
    traceback: str = field(compare=False, repr=False, default="")


@dataclass(frozen=True)
class TaskOutcome:
    """One task's slot in the batch result, at its original index.

    ``attempts`` and ``seconds`` are bookkeeping, not results: they vary
    with crash retries and wall clock, so they do not participate in
    equality — ``TaskOutcome`` lists compare bit-identical across
    ``jobs`` whenever values and errors do.
    """

    index: int
    ok: bool
    value: Any = None
    error: Optional[TaskError] = None
    attempts: int = field(compare=False, default=1)
    seconds: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class BatchResult:
    """Ordered outcomes plus the non-comparing worker-restart count."""

    outcomes: Tuple[TaskOutcome, ...]
    worker_restarts: int = field(compare=False, default=0)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def errors(self) -> List[TaskOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def values(self, *, strict: bool = True) -> List[Any]:
        """Task values in task order.

        With ``strict=True`` (default) a failed task raises
        :class:`~repro.errors.ReproError` carrying its structured error;
        with ``strict=False`` failed slots yield ``None``.
        """
        if strict:
            for outcome in self.outcomes:
                if not outcome.ok:
                    from ..errors import ReproError

                    err = outcome.error
                    raise ReproError(
                        f"batch task {outcome.index} failed "
                        f"({err.kind}: {err.exception_type}: {err.message})"
                    )
        return [outcome.value for outcome in self.outcomes]


# -- worker-side execution -------------------------------------------------


def execute_one(index: int, task: BatchTask, seed: Any) -> TaskOutcome:
    """Run one task, containing any Python exception as a structured error."""
    started = time.perf_counter()
    kwargs: Dict[str, Any] = dict(task.kwargs)
    if task.seeded:
        kwargs["rng"] = derive_task_rng(seed, index)
    try:
        value = task.fn(*task.args, **kwargs)
    except Exception as exc:
        return TaskOutcome(
            index=index,
            ok=False,
            error=TaskError(
                kind=ERROR_EXCEPTION,
                exception_type=type(exc).__name__,
                message=str(exc),
                traceback=_traceback.format_exc(),
            ),
            seconds=time.perf_counter() - started,
        )
    return TaskOutcome(
        index=index,
        ok=True,
        value=value,
        seconds=time.perf_counter() - started,
    )


def execute_chunk(
    payload: Tuple[Any, Sequence[Tuple[int, BatchTask]]]
) -> List[TaskOutcome]:
    """Worker entry point: run a chunk of (index, task) pairs in order.

    The payload carries the batch seed so per-task rng derivation happens
    *inside* the worker — the parent never pre-draws random state.
    """
    seed, chunk = payload
    return [execute_one(index, task, seed) for index, task in chunk]
