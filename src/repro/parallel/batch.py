"""The batch task model: what a sweep cell is, and what running one yields.

Every embarrassingly-parallel workload in the repo — contract-audit
sweeps, Monte Carlo fingerprint trials, skeleton censuses, benchmark
cells — reduces to the same shape: an ordered list of independent tasks,
each a picklable callable plus arguments, whose results must come back
**in task order** and **bit-identical** no matter how many workers ran
them.  This module defines that shape:

* :class:`BatchTask` — one unit of work.  ``seeded=True`` tasks receive a
  task-index-derived ``random.Random`` as an ``rng`` keyword argument
  (see :func:`derive_task_rng`), which is the entire determinism story:
  the stream a task sees depends only on ``(batch seed, task index)``,
  never on which worker ran it or in what order.  The
  :meth:`BatchTask.map` variant carries a whole *input list*: the worker
  calls ``fn(inputs, *args)`` once and the callee handles every input (a
  *lane*) in that call.  Seeded map tasks receive one rng *per input*
  under a global lane numbering (see :func:`derive_lane_rng`), so the
  stream a lane sees depends only on ``(batch seed, lane index)`` —
  regrouping the same inputs into different task boundaries cannot
  change any lane's stream;
* :class:`TaskError` — a structured failure record.  Tracebacks ride
  along for debugging but are excluded from equality, so a failed batch
  compares equal across serial and parallel execution;
* :class:`TaskOutcome` — one task's result slot (value or error), with
  non-comparing ``attempts``/``seconds`` bookkeeping;
* :class:`BatchResult` — the ordered outcome tuple plus non-comparing
  batch statistics (worker restarts, wall clock, jobs).

The worker-side entry points (:func:`execute_one`, :func:`execute_chunk`)
live here too, so the executors in :mod:`~repro.parallel.adapters` and
the worker processes they spawn share one definition of "run a task".
"""

from __future__ import annotations

import random
import time
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .._util import normalize_seed

__all__ = [
    "normalize_seed",
    "BatchTask",
    "TaskError",
    "TaskOutcome",
    "BatchResult",
    "derive_task_rng",
    "derive_lane_rng",
    "execute_one",
    "execute_chunk",
    "ERROR_EXCEPTION",
    "ERROR_WORKER_CRASH",
    "ERROR_DISPATCH",
]

#: The task body raised a Python exception (contained in any executor).
ERROR_EXCEPTION = "exception"
#: The worker process died mid-task (SIGKILL, segfault, ``os._exit``);
#: only the parallel executor can contain this.
ERROR_WORKER_CRASH = "worker-crash"
#: The task could not be shipped to or from a worker (e.g. unpicklable
#: arguments or return value).
ERROR_DISPATCH = "dispatch"


def derive_task_rng(seed: Any, index: int) -> random.Random:
    """The per-task random stream: a function of (batch seed, task index).

    String-keyed like the audit harness's per-cell seeding, so the stream
    is stable across Python versions, worker counts, chunk sizes and
    executors — the determinism contract of the whole runtime rests on
    this one line.  The seed goes through
    :func:`~repro._util.normalize_seed`, the same choke point cache-key
    composition uses, so equal logical seeds (``7`` vs ``"7"``) yield
    equal streams *and* equal cache keys.
    """
    return random.Random(f"batch:{normalize_seed(seed)}:{index}")


def derive_lane_rng(seed: Any, index: int) -> random.Random:
    """The per-lane random stream of a :meth:`BatchTask.map` task.

    ``index`` is the lane's *global* position in the logical sweep
    (``task.base_index + offset``), so the stream depends only on
    ``(batch seed, lane index)`` — splitting the same inputs into more
    or fewer map tasks leaves every lane's randomness untouched.  Keyed
    in a distinct namespace from :func:`derive_task_rng` so a sweep that
    mixes per-task and per-lane seeding never aliases streams; the seed
    is normalized through the same choke point as cache keys.
    """
    return random.Random(f"batch:{normalize_seed(seed)}:lane:{index}")


@dataclass(frozen=True)
class BatchTask:
    """One unit of batch work: ``fn(*args, **kwargs)`` in some worker.

    ``fn`` must be picklable (a module-level callable or
    ``functools.partial`` of one) for parallel execution; ``kwargs`` is
    stored as a sorted tuple of pairs so tasks stay immutable.  With
    ``seeded=True`` the executor injects ``rng=derive_task_rng(seed, i)``.

    A *map task* (built by :meth:`map`) additionally carries ``inputs``,
    a tuple of lane inputs: the worker calls
    ``fn(list(inputs), *args, **kwargs)`` so the callee handles the
    whole list in one call.  With
    ``seeded=True`` a map task gets ``rngs=[derive_lane_rng(seed,
    base_index + j), ...]`` — one stream per lane under the sweep's
    global lane numbering — instead of a single ``rng``.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    seeded: bool = False
    inputs: Optional[Tuple[Any, ...]] = None
    base_index: int = 0

    @classmethod
    def call(cls, fn: Callable[..., Any], *args: Any, seeded: bool = False, **kwargs: Any) -> "BatchTask":
        """Build a task with natural call syntax."""
        return cls(
            fn=fn,
            args=tuple(args),
            kwargs=tuple(sorted(kwargs.items())),
            seeded=seeded,
        )

    @classmethod
    def map(
        cls,
        fn: Callable[..., Any],
        inputs: Sequence[Any],
        *args: Any,
        base_index: int = 0,
        seeded: bool = False,
        **kwargs: Any,
    ) -> "BatchTask":
        """Build a lane-batched task: ``fn(list(inputs), *args, **kwargs)``.

        ``base_index`` is the global lane index of ``inputs[0]`` in the
        logical sweep, anchoring per-lane rng derivation across task
        boundaries.
        """
        return cls(
            fn=fn,
            args=tuple(args),
            kwargs=tuple(sorted(kwargs.items())),
            seeded=seeded,
            inputs=tuple(inputs),
            base_index=base_index,
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
    executors whenever values and errors do.
    """

    index: int
    ok: bool
    value: Any = None
    error: Optional[TaskError] = None
    attempts: int = field(compare=False, default=1)
    seconds: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class BatchResult:
    """Ordered outcomes plus non-comparing batch statistics."""

    outcomes: Tuple[TaskOutcome, ...]
    jobs: int = field(compare=False, default=1)
    worker_restarts: int = field(compare=False, default=0)
    elapsed_seconds: float = field(compare=False, default=0.0)

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
    if task.inputs is not None:
        if task.seeded:
            kwargs["rngs"] = [
                derive_lane_rng(seed, task.base_index + j)
                for j in range(len(task.inputs))
            ]
        call_args = (list(task.inputs),) + task.args
    else:
        if task.seeded:
            kwargs["rng"] = derive_task_rng(seed, index)
        call_args = task.args
    try:
        value = task.fn(*call_args, **kwargs)
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
