"""The sweep ledger: durable canonical-JSON records of what a sweep did.

Every layer below this one observes a *single* run: events trace one
tracker, spans trace one engine call, a ``BatchResult`` summarizes one
batch and then dies with the process.  The ledger is the durable record
*across* runs: a :class:`LedgerWriter` appends one canonical-JSON line
(:func:`~repro.cache.fingerprint.canonical_json` — sorted keys, compact
separators) per sweep event, so a ``repro audit`` or a Monte Carlo
sweep leaves behind a journal of exactly what ran, what it cost,
and what served it.

Record kinds (all schema-versioned via :data:`LEDGER_SCHEMA`):

* ``sweep-start`` — label, task count, jobs and the timestamp-free
  provenance stamp (``repro_version``);
* ``task-outcome`` — one per :class:`~repro.parallel.batch.TaskOutcome`:
  index, ok, attempts (retries = attempts - 1), the structured error if
  any, and an optional ``detail`` dict (the audit stamps
  contract/cell/source attribution here);
* ``heartbeat`` — progress every ``heartbeat_every`` completed tasks:
  completed/total plus throughput and ETA;
* ``stall`` — a task whose latency exceeded ``stall_factor`` × the
  sweep's running ``stall_quantile`` latency (from a bucketed
  :class:`~repro.observability.metrics.Histogram`);
* ``worker-restart`` — a process-pool rebuild after a crash (quarantine
  attribution rides in the eventual ``task-outcome``'s error);
* ``cache`` — one :class:`~repro.cache.ResultStore` hit/miss/write/
  invalid event, with the entry kind and content-addressed key digest;
* ``sweep-end`` — final tallies (tasks/completed/failed/restarts) and,
  for the audit's ``audit-cells`` sweep, the store's counter snapshot.

The ledger is the batch runtime's only observer: every fact about a
sweep's dispatch (tasks, jobs, completed, failed, worker restarts,
per-task seconds) is journaled here and nowhere else.

Determinism discipline — the property the ``ledger-determinism`` CI gate
pins: every wall-clock-derived value lives in a clearly marked ``wall``
section of its record (or, for ``stall`` records, makes the *whole
record* wall-dependent).  :func:`strip_nondeterministic` removes exactly
those, after which two identical serial sweeps write byte-identical
ledgers.  Everything outside ``wall`` is a pure function of the work:
indices, counts, error structures, cache key digests, attempts.

Crash tolerance: records are flushed one whole line at a time, so a
crash can leave at most one torn line, the last one, with no newline.
Every reader given a path drops such a line when it does not parse, and
reads every complete line before it as usual.

Hot path: every instrumented call site guards with the same ``is None``
test the tracker and probe use — with no ledger attached, a sweep pays
one pointer comparison per outcome and allocates nothing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import IO, Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .._version import __version__
from ..cache.fingerprint import canonical_json
from .metrics import Histogram

__all__ = [
    "LEDGER_SCHEMA",
    "LEDGER_KINDS",
    "WALL_ONLY_KINDS",
    "KIND_SWEEP_START",
    "KIND_TASK_OUTCOME",
    "KIND_HEARTBEAT",
    "KIND_STALL",
    "KIND_WORKER_RESTART",
    "KIND_CACHE_EVENT",
    "KIND_SWEEP_END",
    "LedgerWriter",
    "iter_ledger",
    "load_ledger",
    "strip_record",
    "strip_nondeterministic",
]

#: Ledger record schema version: bump when the line shape changes;
#: readers skip (and count) lines with any other value.
LEDGER_SCHEMA = 1

KIND_SWEEP_START = "sweep-start"
KIND_TASK_OUTCOME = "task-outcome"
KIND_HEARTBEAT = "heartbeat"
KIND_STALL = "stall"
KIND_WORKER_RESTART = "worker-restart"
KIND_CACHE_EVENT = "cache"
KIND_SWEEP_END = "sweep-end"

LEDGER_KINDS: Tuple[str, ...] = (
    KIND_SWEEP_START,
    KIND_TASK_OUTCOME,
    KIND_HEARTBEAT,
    KIND_STALL,
    KIND_WORKER_RESTART,
    KIND_CACHE_EVENT,
    KIND_SWEEP_END,
)

#: Kinds whose very *existence* depends on wall-clock accidents (a stall
#: only happens when the host is slow); stripping drops them entirely,
#: where ordinary records merely lose their ``wall`` section.
WALL_ONLY_KINDS = frozenset({KIND_STALL})

#: Buckets of the stall detector's latency histogram: sweeps mix
#: sub-millisecond tasks with multi-second full-sweep audit cells.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)


class LedgerWriter:
    """Appends canonical-JSON sweep records to a JSONL ledger.

    ``target`` is a path (opened with ``"w"`` — one ledger per run, so
    reconciliation against the run's artifacts holds, and no record is
    ever glued onto a torn last line of an earlier run) or an
    already-open text stream; stream-ownership semantics mirror
    :class:`~repro.observability.sinks.JsonlFileSink` (close flushes
    always, closes only a handle this writer opened).  Records are
    flushed line-by-line: the ledger is a journal, and a crashed sweep
    must leave every completed outcome on disk.

    ``heartbeat_every`` controls progress cadence (a ``heartbeat``
    record after every N completed tasks, while work remains);
    ``stall_factor`` / ``stall_quantile`` control stall detection: a
    task slower than ``stall_factor × quantile(stall_quantile)`` of the
    sweep's prior latencies (at least ``min_stall_samples`` of them)
    gets a ``stall`` record.
    """

    def __init__(
        self,
        target: Union[str, Path, IO[str]],
        *,
        heartbeat_every: int = 16,
        stall_factor: float = 4.0,
        stall_quantile: float = 0.95,
        min_stall_samples: int = 8,
    ) -> None:
        if heartbeat_every < 1:
            raise ValueError(
                f"heartbeat_every must be >= 1, got {heartbeat_every}"
            )
        if stall_factor <= 0:
            raise ValueError(f"stall_factor must be > 0, got {stall_factor}")
        if not 0.0 < stall_quantile <= 1.0:
            raise ValueError(
                f"stall_quantile must be in (0, 1], got {stall_quantile}"
            )
        if min_stall_samples < 1:
            raise ValueError(
                f"min_stall_samples must be >= 1, got {min_stall_samples}"
            )
        if isinstance(target, (str, Path)):
            self._stream: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self.heartbeat_every = heartbeat_every
        self.stall_factor = stall_factor
        self.stall_quantile = stall_quantile
        self.min_stall_samples = min_stall_samples
        self.records_written = 0
        self._sweeps: Dict[str, Dict[str, Any]] = {}
        self._latency = Histogram(
            "ledger_task_seconds",
            "per-task latency feeding the stall detector",
            buckets=LATENCY_BUCKETS,
        )

    # -- raw line ----------------------------------------------------------

    def record(self, record: Dict[str, Any]) -> None:
        """Append one record as a canonical-JSON line (flushed at once)."""
        self._stream.write(canonical_json(record) + "\n")
        self._stream.flush()
        self.records_written += 1

    # -- sweep lifecycle ---------------------------------------------------

    def _state(self, label: str) -> Dict[str, Any]:
        state = self._sweeps.get(label)
        if state is None:
            state = {
                "total": None,
                "ok": 0,
                "failed": 0,
                "restarts": 0,
                "started": time.perf_counter(),
            }
            self._sweeps[label] = state
        return state

    def sweep_start(self, label: str, *, tasks: int, jobs: int = 1) -> None:
        """Open a sweep: reset the label's tallies and journal its shape."""
        self._sweeps[label] = {
            "total": tasks,
            "ok": 0,
            "failed": 0,
            "restarts": 0,
            "started": time.perf_counter(),
        }
        self.record(
            {
                "schema": LEDGER_SCHEMA,
                "kind": KIND_SWEEP_START,
                "label": label,
                "tasks": tasks,
                "jobs": jobs,
                "provenance": {"repro_version": __version__},
            }
        )

    def record_outcome(
        self,
        label: str,
        *,
        index: int,
        ok: bool,
        attempts: int = 1,
        seconds: float = 0.0,
        error: Optional[Dict[str, Any]] = None,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        """One task's outcome, plus any heartbeat/stall it triggers.

        Everything except ``seconds`` (and the records derived from it)
        is deterministic; ``detail`` is the caller's structured
        attribution (the audit stamps ``{contract, m, n, source}`` so
        ledger lines reconcile against ``AUDIT_contracts.json``).
        """
        state = self._state(label)
        record: Dict[str, Any] = {
            "schema": LEDGER_SCHEMA,
            "kind": KIND_TASK_OUTCOME,
            "label": label,
            "index": index,
            "ok": bool(ok),
            "attempts": attempts,
            "error": error,
            "wall": {"seconds": round(seconds, 6)},
        }
        if detail is not None:
            record["detail"] = detail
        self.record(record)
        # stall check against the latency distribution *before* this
        # sample — an outlier must not be allowed to raise its own bar
        if self._latency.count(label=label) >= self.min_stall_samples:
            quantile = self._latency.quantile(
                self.stall_quantile, label=label
            )
            if quantile is not None and quantile > 0:
                threshold = self.stall_factor * quantile
                if seconds > threshold:
                    self.record(
                        {
                            "schema": LEDGER_SCHEMA,
                            "kind": KIND_STALL,
                            "label": label,
                            "index": index,
                            "wall": {
                                "seconds": round(seconds, 6),
                                "quantile": self.stall_quantile,
                                "quantile_seconds": quantile,
                                "threshold_seconds": round(threshold, 6),
                                "factor": self.stall_factor,
                            },
                        }
                    )
        self._latency.observe(seconds, label=label)
        if ok:
            state["ok"] += 1
        else:
            state["failed"] += 1
        done = state["ok"] + state["failed"]
        total = state["total"]
        if done % self.heartbeat_every == 0 and (total is None or done < total):
            elapsed = time.perf_counter() - state["started"]
            rate = done / elapsed if elapsed > 0 else None
            eta = (
                (total - done) / rate
                if total is not None and rate
                else None
            )
            self.record(
                {
                    "schema": LEDGER_SCHEMA,
                    "kind": KIND_HEARTBEAT,
                    "label": label,
                    "completed": done,
                    "tasks": total,
                    "wall": {
                        "elapsed_seconds": round(elapsed, 6),
                        "tasks_per_second": (
                            round(rate, 3) if rate is not None else None
                        ),
                        "eta_seconds": (
                            round(eta, 3) if eta is not None else None
                        ),
                    },
                }
            )

    def task_outcome(self, label: str, outcome, *, detail=None) -> None:
        """Adapter for a :class:`~repro.parallel.batch.TaskOutcome`."""
        error = None
        if outcome.error is not None:
            error = {
                "kind": outcome.error.kind,
                "exception_type": outcome.error.exception_type,
                "message": outcome.error.message,
            }
        self.record_outcome(
            label,
            index=outcome.index,
            ok=outcome.ok,
            attempts=outcome.attempts,
            seconds=outcome.seconds,
            error=error,
            detail=detail,
        )

    def worker_restart(self, label: str, count: int = 1) -> None:
        state = self._state(label)
        state["restarts"] += count
        self.record(
            {
                "schema": LEDGER_SCHEMA,
                "kind": KIND_WORKER_RESTART,
                "label": label,
                "restarts": state["restarts"],
            }
        )

    def cache_event(self, event: str, entry_kind: str, key: str) -> None:
        """One result-store event; ``key`` is the content-addressed digest
        (deterministic by construction, so these lines survive strip)."""
        self.record(
            {
                "schema": LEDGER_SCHEMA,
                "kind": KIND_CACHE_EVENT,
                "event": event,
                "entry_kind": entry_kind,
                "key": key,
            }
        )

    def sweep_end(
        self,
        label: str,
        *,
        cache: Optional[Dict[str, int]] = None,
    ) -> None:
        """Final tallies; closes the label's running state.

        ``cache`` (a :meth:`~repro.cache.ResultStore.counter_snapshot`)
        is deterministic and rides top-level; the sweep's elapsed time
        goes under ``wall``.
        """
        state = self._sweeps.pop(label, None)
        if state is None:
            state = {"total": None, "ok": 0, "failed": 0, "restarts": 0,
                     "started": time.perf_counter()}
        record: Dict[str, Any] = {
            "schema": LEDGER_SCHEMA,
            "kind": KIND_SWEEP_END,
            "label": label,
            "tasks": state["total"],
            "completed": state["ok"],
            "failed": state["failed"],
            "worker_restarts": state["restarts"],
            "wall": {
                "elapsed_seconds": round(
                    time.perf_counter() - state["started"], 6
                ),
            },
        }
        if cache is not None:
            record["cache"] = dict(cache)
        self.record(record)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Flush always; close the handle only if this writer opened it."""
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "LedgerWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- reading ---------------------------------------------------------------


def _lines_of(source: Union[str, Path, Iterable[str]]) -> List[str]:
    """The lines of a ledger, without a path's torn final line.

    The writer flushes whole lines, so a last line with no newline that
    does not parse is a write a crash cut short: it is dropped rather
    than read as a foreign line.
    """
    if not isinstance(source, (str, Path)):
        return list(source)
    text = Path(source).read_text(encoding="utf-8")
    lines = text.splitlines()
    if lines and not text.endswith("\n"):
        try:
            json.loads(lines[-1])
        except json.JSONDecodeError:
            lines.pop()
    return lines


def _parse_ledger_line(line: str) -> Optional[Dict[str, Any]]:
    try:
        raw = json.loads(line)
    except json.JSONDecodeError:
        return None
    if (
        isinstance(raw, dict)
        and raw.get("schema") == LEDGER_SCHEMA
        and raw.get("kind") in LEDGER_KINDS
    ):
        return raw
    return None


def iter_ledger(
    source: Union[str, Path, Iterable[str]]
) -> Iterator[Dict[str, Any]]:
    """Yield every valid ledger record from a path or an iterable of lines.

    Blank lines and lines of any other schema (events, spans, foreign
    JSON) are skipped silently; use :func:`load_ledger` to count them.
    """
    for line in _lines_of(source):
        line = line.strip()
        if not line:
            continue
        record = _parse_ledger_line(line)
        if record is not None:
            yield record


def load_ledger(
    source: Union[str, Path, Iterable[str]]
) -> Tuple[List[Dict[str, Any]], int]:
    """All valid records plus the count of skipped (non-ledger) lines."""
    records: List[Dict[str, Any]] = []
    skipped = 0
    for line in _lines_of(source):
        line = line.strip()
        if not line:
            continue
        record = _parse_ledger_line(line)
        if record is None:
            skipped += 1
        else:
            records.append(record)
    return records, skipped


# -- determinism strip -----------------------------------------------------


def strip_record(record: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The deterministic projection of one record.

    Drops the marked ``wall`` section; returns ``None`` for kinds whose
    existence is itself wall-dependent (:data:`WALL_ONLY_KINDS`).
    """
    if record.get("kind") in WALL_ONLY_KINDS:
        return None
    return {k: v for k, v in record.items() if k != "wall"}


def strip_nondeterministic(
    source: Union[str, Path, Iterable[str]]
) -> List[str]:
    """Canonical lines of the ledger's deterministic projection.

    Two identical serial sweeps produce byte-identical output — the
    property the ``ledger-determinism`` CI job diffs.  Complete
    non-ledger lines (foreign schemas sharing the file) pass through
    untouched: they are not ours to strip.  A path's torn final line is
    dropped (:func:`_lines_of`).
    """
    out: List[str] = []
    for line in _lines_of(source):
        stripped_line = line.strip()
        if not stripped_line:
            continue
        record = _parse_ledger_line(stripped_line)
        if record is None:
            out.append(stripped_line)
            continue
        projected = strip_record(record)
        if projected is not None:
            out.append(canonical_json(projected))
    return out
