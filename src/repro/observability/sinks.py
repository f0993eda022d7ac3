"""Pluggable event sinks for the tracker's observability stream.

A sink is anything with an ``emit(event)`` method; these three cover the
common cases:

* :class:`TallySink` — counts the events and the ``denied`` events over
  the whole stream and keeps the last event, whose totals are the run's
  final ones.  The contract audit attaches one to every check.  It is
  the one sink that declares it only tallies, by having
  :meth:`~TallySink.emit_loop`: a register loop that no budget can deny
  may then hand it its stores as one count and the loop's last event
  (see ``InternalMemory.has_headroom``).
* :class:`RingBufferSink` — keeps the last ``capacity`` events in memory
  (bounded memory on arbitrarily long runs); the tests' every-event
  reference sink.
* :class:`JsonlFileSink` — appends one JSON object per line; the durable
  form ``repro trace --jsonl`` streams the whole run into (events as they
  happen, then the probe's spans) and :func:`replay_jsonl` reads back.

With **no** sink attached the tracker skips event construction entirely —
the hot path pays one ``is None`` test per charge.  With a sink attached,
every charge builds one event and makes one ``emit`` call, except the
stores of a register loop taken whole by a tally: the full
``repro audit`` counts 157,816 events into its tally sinks and delivers
about 24k of them one by one.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Iterable, Iterator, List, Optional, Union

from .events import KIND_DENIED, ResourceEvent


class EventSink:
    """Interface: override :meth:`emit`; :meth:`close` is optional."""

    def emit(self, event: ResourceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (default: nothing to release)."""

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TallySink(EventSink):
    """Counts the events and the ``denied`` events, and keeps the last event.

    Every event carries the post-event running totals, so ``last`` holds
    the run's final scans, bits and tapes (``None`` until an event
    arrives).  Unlike a ring buffer's suffix, ``events`` and ``denied``
    cover the whole stream, in constant memory.

    Because it reads nothing else, a tally may take a register loop
    whole: :meth:`emit_loop` is what marks a sink as one that only
    tallies, and ``InternalMemory.commit_peak`` calls it in place of one
    :meth:`emit` per store.  A subclass inherits that declaration, so
    one that needs every event must not derive from this class.
    """

    def __init__(self) -> None:
        self.events = 0
        self.denied = 0
        self.last: Optional[ResourceEvent] = None

    def emit(self, event: ResourceEvent) -> None:
        self.events += 1
        if event.kind == KIND_DENIED:
            self.denied += 1
        self.last = event

    def emit_loop(self, count: int, last: ResourceEvent) -> None:
        """Take ``count`` ``internal`` events at once, ``last`` the last.

        These are the stores of a register loop that no budget could
        deny, so none of them is a denial, and ``last`` carries the
        totals the loop left.
        """
        self.events += count
        self.last = last


class RingBufferSink(EventSink):
    """Keeps the most recent ``capacity`` events; older ones are dropped.

    ``dropped`` counts evictions, so consumers can tell a complete stream
    (``dropped == 0``) from a suffix.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._buffer: "deque[ResourceEvent]" = deque(maxlen=capacity)

    def emit(self, event: ResourceEvent) -> None:
        if len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(event)

    def events(self) -> List[ResourceEvent]:
        """The retained events, oldest first."""
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[ResourceEvent]:
        return iter(self._buffer)


class JsonlFileSink(EventSink):
    """Writes one JSON object per event to ``path`` (or an open stream).

    Events are written eagerly but the stream is flushed only on
    :meth:`close` (or context-manager exit).

    Close semantics are explicit: :meth:`close` **always flushes**, and
    closes the underlying handle only when this sink opened it (a ``path``
    target).  A caller-owned stream is flushed but left open — the caller
    opened it, the caller closes it.
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._stream: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self.emitted = 0

    def emit(self, event: ResourceEvent) -> None:
        self._stream.write(json.dumps(event.to_json_dict()) + "\n")
        self.emitted += 1

    def close(self) -> None:
        """Flush always; close the handle only if this sink opened it."""
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()


def replay_jsonl(lines: Iterable[str]) -> Iterator[ResourceEvent]:
    """Parse a JSONL stream (as written by :class:`JsonlFileSink`) back into
    :class:`ResourceEvent` objects — the inverse of ``to_json_dict``.

    Lines whose ``kind`` is not a tracker event kind (e.g. the ``span``
    records an :class:`~repro.observability.trace.EngineProbe` writes, or
    the sweep-ledger records a
    :class:`~repro.observability.ledger.LedgerWriter` appends, when the
    layers share one JSONL file) are skipped losslessly — the line is
    left untouched in the source and nothing of the event layer is
    consumed by it.
    """
    from .events import EVENT_KINDS

    for line in lines:
        line = line.strip()
        if not line:
            continue
        raw = json.loads(line)
        kind = raw.get("kind") if isinstance(raw, dict) else None
        if kind not in EVENT_KINDS:
            continue
        yield ResourceEvent(
            seq=raw["seq"],
            kind=raw["kind"],
            tape_id=raw.get("tape_id"),
            tape_name=raw.get("tape_name"),
            delta=raw["delta"],
            scans=raw["scans"],
            current_internal_bits=raw["current_internal_bits"],
            peak_internal_bits=raw["peak_internal_bits"],
            tapes_used=raw["tapes_used"],
            steps=raw["steps"],
            label=raw.get("label"),
        )
