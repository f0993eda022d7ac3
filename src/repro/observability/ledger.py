"""The sweep ledger: durable canonical-JSON records of what a sweep did.

Every layer below this one observes a *single* run: events trace one
tracker, spans trace one engine call.  The ledger is the durable record
*across* runs: a :class:`LedgerWriter` appends one canonical-JSON line
(:func:`~repro.cache.fingerprint.canonical_json` — sorted keys, compact
separators) per sweep event, so a ``repro audit --ledger`` leaves
behind a journal of exactly what ran, what it cost, and what served it.

Record kinds (all schema-versioned via :data:`LEDGER_SCHEMA`):

* ``sweep-start`` — label, task count and the timestamp-free
  provenance stamp (``repro_version``);
* ``task-outcome`` — one per task: index, ok, the task's seconds under
  ``wall``, and an optional ``detail`` dict (the audit stamps
  contract/cell/source attribution here);
* ``cache`` — one :class:`~repro.cache.ResultStore` hit/miss/write/
  invalid event, with the entry kind and content-addressed key digest;
* ``sweep-end`` — final tallies (tasks/completed/failed), the sweep's
  elapsed time and, for the audit's ``audit-cells`` sweep, the store's
  counter snapshot.

Its one writer is the contract audit, which runs in process and
journals one sweep, ``audit-cells``: a task that raises ends the
sweep, so no record holds an error or a retry.  There are no liveness
records: the audit finishes in well under a second, so a heartbeat or
stall detector would have nothing to report.

Determinism discipline — the property the ``ledger-determinism`` CI gate
pins: every wall-clock-derived value lives in a clearly marked ``wall``
section of its record (a task's seconds, a sweep's elapsed time).
:func:`strip_nondeterministic` removes exactly those, after which two
identical sweeps write byte-identical ledgers.  Everything outside
``wall`` is a pure function of the work: indices, counts, cache key
digests.

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

__all__ = [
    "LEDGER_SCHEMA",
    "LEDGER_KINDS",
    "KIND_SWEEP_START",
    "KIND_TASK_OUTCOME",
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
LEDGER_SCHEMA = 2

KIND_SWEEP_START = "sweep-start"
KIND_TASK_OUTCOME = "task-outcome"
KIND_CACHE_EVENT = "cache"
KIND_SWEEP_END = "sweep-end"

LEDGER_KINDS: Tuple[str, ...] = (
    KIND_SWEEP_START,
    KIND_TASK_OUTCOME,
    KIND_CACHE_EVENT,
    KIND_SWEEP_END,
)


def _sweep_state(total: Optional[int]) -> Dict[str, Any]:
    """A sweep's running tallies, started now."""
    return {
        "total": total,
        "ok": 0,
        "failed": 0,
        "started": time.perf_counter(),
    }


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
    """

    def __init__(self, target: Union[str, Path, IO[str]]) -> None:
        if isinstance(target, (str, Path)):
            self._stream: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self.records_written = 0
        self._sweeps: Dict[str, Dict[str, Any]] = {}

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
            state = self._sweeps[label] = _sweep_state(None)
        return state

    def sweep_start(self, label: str, *, tasks: int) -> None:
        """Open a sweep: reset the label's tallies and journal its shape."""
        self._sweeps[label] = _sweep_state(tasks)
        self.record(
            {
                "schema": LEDGER_SCHEMA,
                "kind": KIND_SWEEP_START,
                "label": label,
                "tasks": tasks,
                "provenance": {"repro_version": __version__},
            }
        )

    def record_outcome(
        self,
        label: str,
        *,
        index: int,
        ok: bool,
        seconds: float = 0.0,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        """One task's outcome: one ``task-outcome`` record.

        Everything except ``seconds`` is deterministic; ``detail`` is the
        caller's structured attribution (the audit stamps
        ``{contract, m, n, source}`` so ledger lines reconcile against
        ``AUDIT_contracts.json``).
        """
        state = self._state(label)
        record: Dict[str, Any] = {
            "schema": LEDGER_SCHEMA,
            "kind": KIND_TASK_OUTCOME,
            "label": label,
            "index": index,
            "ok": bool(ok),
            "wall": {"seconds": round(seconds, 6)},
        }
        if detail is not None:
            record["detail"] = detail
        self.record(record)
        if ok:
            state["ok"] += 1
        else:
            state["failed"] += 1

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
            state = _sweep_state(None)
        record: Dict[str, Any] = {
            "schema": LEDGER_SCHEMA,
            "kind": KIND_SWEEP_END,
            "label": label,
            "tasks": state["total"],
            "completed": state["ok"],
            "failed": state["failed"],
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


def strip_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic projection of one record: without its ``wall``
    section."""
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
        out.append(canonical_json(strip_record(record)))
    return out
