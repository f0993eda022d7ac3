"""Lightweight spans over engine runs, with Chrome-trace and text exporters.

The tracker's event stream is flat; the questions the experiments ask are
hierarchical — *which phase* of the Theorem 8(a) machine spent the
reversal, *which operator* of the Theorem 11(a) evaluator triggered the
merge sort, *how deep* did ``acceptance_probability``'s branch exploration
go.  This module adds the hierarchy:

* :class:`Span` — a named interval with a monotone id, a parent link, a
  category, and free-form ``args`` (step/reversal/space deltas land here);
* :class:`Tracer` — creates and finishes spans, keeping an open-span stack
  so nesting falls out of call order; exports to **Chrome trace-event
  JSON** (loadable in Perfetto / ``chrome://tracing``) and to an aligned
  text timeline;
* :class:`EngineProbe` — the one object threaded through the execution
  engines, the list-machine block tracer and the streaming query
  evaluators.  It doubles as an event *sink*: attach it to a
  :class:`~repro.extmem.tracker.ResourceTracker` (or pass it as the
  ``sink=`` of an algorithm) and every ``mark_phase`` boundary becomes a
  span whose ``args`` carry the phase's exact reversal/step/space deltas —
  byte-for-byte the numbers :class:`~repro.observability.profile.RunProfile`
  aggregates, because both are derived from the same event totals.

Probes default to ``None`` everywhere they are accepted, and the engines
hoist the ``probe is None`` test out of their hot loops, so with nothing
attached a step costs one extra ``is None`` test and nothing else.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from .events import KIND_DENIED, KIND_PHASE, ResourceEvent
from .profile import SETUP_PHASE

__all__ = ["Span", "Tracer", "EngineProbe"]

#: Category names used by the built-in instrumentation.
CATEGORY_ENGINE = "engine"
CATEGORY_PHASE = "phase"
CATEGORY_BRANCH = "branch"
CATEGORY_QUERY = "query"
CATEGORY_BLOCKS = "blocks"


@dataclass
class Span:
    """One named interval of a run.  Mutable until :meth:`Tracer.end`."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start_us: float
    end_us: Optional[float] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end_us is not None

    @property
    def duration_us(self) -> Optional[float]:
        if self.end_us is None:
            return None
        return self.end_us - self.start_us

    def to_json_dict(self) -> Dict[str, Any]:
        """A JSONL-friendly record (``kind: span`` distinguishes it from
        :class:`~repro.observability.events.ResourceEvent` lines when both
        layers share one sink)."""
        out: Dict[str, Any] = {
            "kind": "span",
            "span_id": self.span_id,
            "name": self.name,
            "cat": self.category,
            "start_us": round(self.start_us, 3),
        }
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.end_us is not None:
            out["end_us"] = round(self.end_us, 3)
        if self.args:
            out["args"] = self.args
        return out


class Tracer:
    """Creates spans with monotone ids and an open-span stack for nesting.

    ``capacity`` bounds retained spans (a deep ``acceptance_probability``
    exploration can open one span per DAG node); overflowing spans are
    still timed and returned to the caller but not retained, and
    ``dropped`` counts them — the same contract as
    :class:`~repro.observability.sinks.RingBufferSink`.
    """

    def __init__(self, capacity: int = 1 << 16):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._epoch = time.perf_counter()

    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    # -- span lifecycle ----------------------------------------------------

    def begin(self, name: str, category: str = CATEGORY_ENGINE, **args: Any) -> Span:
        """Open a span nested under the innermost currently-open span."""
        self._next_id += 1
        span = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            category=category,
            start_us=self._now_us(),
            args=dict(args),
        )
        if len(self._spans) < self.capacity:
            self._spans.append(span)
        else:
            self.dropped += 1
        self._stack.append(span.span_id)
        return span

    def end(self, span: Span, **args: Any) -> Span:
        """Finish ``span``, folding ``args`` into its attributes."""
        if span.end_us is not None:
            raise ValueError(f"span {span.span_id} ({span.name}) already ended")
        span.end_us = self._now_us()
        span.args.update(args)
        # pop through abandoned children so nesting self-heals
        while self._stack and self._stack[-1] != span.span_id:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        return span

    @contextmanager
    def span(
        self, name: str, category: str = CATEGORY_ENGINE, **args: Any
    ) -> Iterator[Span]:
        opened = self.begin(name, category, **args)
        try:
            yield opened
        finally:
            if opened.end_us is None:
                self.end(opened)

    # -- queries -----------------------------------------------------------

    def spans(self) -> List[Span]:
        """Retained spans in creation order (open spans included)."""
        return list(self._spans)

    def find(self, name: str) -> List[Span]:
        return [s for s in self._spans if s.name == name]

    def __len__(self) -> int:
        return len(self._spans)

    # -- exporters ---------------------------------------------------------

    def to_chrome_trace(self, process_name: str = "repro") -> Dict[str, Any]:
        """The Chrome trace-event JSON object (Perfetto / chrome://tracing).

        Every span becomes one complete ("X") event; still-open spans are
        exported as ending now, flagged ``args.unfinished``.
        """
        now = self._now_us()
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "args": {"name": process_name},
            }
        ]
        for span in self._spans:
            args = dict(span.args)
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            end = span.end_us
            if end is None:
                end = now
                args["unfinished"] = True
            events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "ts": round(span.start_us, 3),
                    "dur": round(max(end - span.start_us, 0.001), 3),
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str, process_name: str = "repro") -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(process_name), handle, indent=2)
            handle.write("\n")

    def render_timeline(self) -> List[str]:
        """An aligned text timeline: one line per span, indented by depth."""
        depth: Dict[int, int] = {}
        rows = []
        for span in self._spans:
            d = depth.get(span.parent_id, -1) + 1 if span.parent_id else 0
            depth[span.span_id] = d
            label = "  " * d + span.name
            dur = span.duration_us
            when = (
                f"[{span.start_us:>10.1f}us +{dur:>9.1f}us]"
                if dur is not None
                else f"[{span.start_us:>10.1f}us      open ]"
            )
            rows.append((label, when, span))
        if not rows:
            return ["(no spans recorded)"]
        width = max(len(label) for label, _, _ in rows)
        lines = []
        for label, when, span in rows:
            args = " ".join(
                f"{k}={v}" for k, v in span.args.items() if not isinstance(v, dict)
            )
            lines.append(
                f"{label:<{width}}  {when}  {span.category}"
                + (f"  {args}" if args else "")
            )
        if self.dropped:
            lines.append(f"... plus {self.dropped} spans dropped (capacity)")
        return lines


class EngineProbe:
    """One hook object observing both layers of a run.

    *As an event sink* (attach with ``tracker.attach_sink(probe)`` or pass
    as an algorithm's ``sink=``): forwards every
    :class:`~repro.observability.events.ResourceEvent` to the wrapped
    ``sink`` (so one JSONL file captures tracker events *and* spans), and
    turns ``mark_phase`` boundaries into phase spans whose args hold the
    exact per-phase reversal/step/space-peak numbers.

    *As an engine hook* (pass as ``probe=`` to the run functions): opens a
    ``run:<machine>`` span per execution, counts steps, and — for
    ``acceptance_probability`` — opens a span per probabilistic branch and
    feeds a histogram of branch depths.

    ``registry`` (a :class:`~repro.observability.metrics.MetricsRegistry`)
    is optional; when present the probe maintains ``events_total``,
    ``denied_total``, ``engine_steps_total``, ``engine_runs_total`` and
    ``branch_depth`` instruments.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        registry=None,
        sink=None,
    ):
        self.tracer = tracer if tracer is not None else Tracer()
        self.registry = registry
        self.sink = sink
        self.steps_observed = 0
        self._run_spans: List[Span] = []
        self._phase_span: Optional[Span] = None
        # totals at the current phase boundary: (scans, bits, steps, denied)
        self._phase_open = (1, 0, 0)
        self._phase_peak_bits = 0
        self._phase_denied = 0
        self._last_event: Optional[ResourceEvent] = None
        if registry is not None:
            self._events_total = registry.counter(
                "events_total", "tracker events seen by the probe, by kind"
            )
            self._denied_total = registry.counter(
                "denied_total", "budget denials observed"
            )
            self._steps_total = registry.counter(
                "engine_steps_total", "machine steps executed under the probe"
            )
            self._runs_total = registry.counter(
                "engine_runs_total", "engine runs observed, by machine"
            )
            self._branch_depth = registry.histogram(
                "branch_depth",
                "depth of each probabilistic branch frame opened",
            )
            self._dag_interned = registry.counter(
                "dag_configs_interned_total",
                "distinct configurations interned per acceptance DP",
            )
            self._dag_memoized = registry.counter(
                "dag_configs_memoized_total",
                "configurations with a memoized probability per acceptance DP",
            )
            self._dag_memo_hits = registry.counter(
                "dag_memo_hits_total",
                "memo lookups that hit (branches sharing a configuration)",
            )
            self._dag_frames = registry.counter(
                "dag_frames_total", "DP frames opened per acceptance DP"
            )
            registry.track(
                "spans_dropped",
                lambda: self.tracer.dropped,
                "spans not retained because the tracer hit capacity",
            )
        else:
            self._events_total = None

    # -- event-sink interface ---------------------------------------------

    def emit(self, event: ResourceEvent) -> None:
        if self.sink is not None:
            self.sink.emit(event)
        if self._events_total is not None:
            self._events_total.inc(kind=event.kind)
            if event.kind == KIND_DENIED:
                self._denied_total.inc(resource=event.label or "?")
        if event.kind == KIND_PHASE:
            self._roll_phase(event.label or "?", event)
        else:
            if self._phase_span is None:
                # activity before the first mark: open the setup span from
                # the tracker's initial totals (scans start at 1)
                self._open_phase(SETUP_PHASE, (1, 0, 0), 0)
            if event.current_internal_bits > self._phase_peak_bits:
                self._phase_peak_bits = event.current_internal_bits
            if event.kind == KIND_DENIED:
                self._phase_denied += 1
        self._last_event = event

    def export_spans(self) -> int:
        """Append every retained span to the shared sink, one record each.

        Span records carry ``kind: "span"`` so a single JSONL file holds
        both layers; :func:`~repro.observability.sinks.replay_jsonl` skips
        them when replaying the resource-event layer.  Returns the number
        of spans written.
        """
        if self.sink is None:
            return 0
        spans = self.tracer.spans()
        for span in spans:
            self.sink.emit(span)
        return len(spans)

    def close(self) -> None:
        """Sink-protocol close: finish spans, export them into the shared
        sink (both layers in one capture), then close the wrapped sink."""
        self.finish()
        self.export_spans()
        if self.sink is not None and hasattr(self.sink, "close"):
            self.sink.close()

    def __enter__(self) -> "EngineProbe":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- phase bookkeeping -------------------------------------------------

    def _totals(self, event: Optional[ResourceEvent]):
        if event is None:
            return (1, 0, 0)
        return (event.scans, event.current_internal_bits, event.steps)

    def _open_phase(self, name: str, totals, entry_bits: int) -> None:
        self._phase_span = self.tracer.begin(name, CATEGORY_PHASE)
        self._phase_open = totals
        self._phase_peak_bits = entry_bits
        self._phase_denied = 0

    def _close_phase(self, totals) -> None:
        if self._phase_span is None:
            return
        scans0, bits0, steps0 = self._phase_open
        scans1, bits1, steps1 = totals
        self.tracer.end(
            self._phase_span,
            reversals=scans1 - scans0,
            steps=steps1 - steps0,
            entry_internal_bits=bits0,
            exit_internal_bits=bits1,
            peak_internal_bits=max(self._phase_peak_bits, bits0),
            denied=self._phase_denied,
        )
        self._phase_span = None

    def _roll_phase(self, name: str, event: ResourceEvent) -> None:
        boundary = self._totals(event)
        self._close_phase(boundary)
        self._open_phase(name, boundary, event.current_internal_bits)

    def finish(self) -> Tracer:
        """Close the open phase span (and any open run spans); returns the
        tracer for chaining into an exporter."""
        self._close_phase(self._totals(self._last_event))
        while self._run_spans:
            self.tracer.end(self._run_spans.pop(), aborted=True)
        return self.tracer

    # -- engine hooks ------------------------------------------------------

    def on_run_start(self, machine, word: str) -> None:
        span = self.tracer.begin(
            f"run:{machine.name}", CATEGORY_ENGINE, input_length=len(word)
        )
        self._run_spans.append(span)
        if self.registry is not None:
            self._runs_total.inc(machine=machine.name)

    def on_step(self, state: str, steps: int) -> None:
        self.steps_observed += 1
        if self.registry is not None:
            self._steps_total.inc()

    def on_run_end(self, statistics) -> None:
        if not self._run_spans:
            return
        span = self._run_spans.pop()
        self.tracer.end(
            span,
            steps=statistics.length - 1,
            reversals=sum(statistics.reversals_per_tape),
            space=sum(statistics.space_per_tape),
        )

    # -- branch hooks (acceptance_probability) -----------------------------

    def on_branch_enter(self, depth: int, options: int, state: str) -> Span:
        if self.registry is not None:
            self._branch_depth.observe(depth)
        return self.tracer.begin(
            f"branch:{state}", CATEGORY_BRANCH, depth=depth, options=options
        )

    def on_branch_exit(self, span: Span, **args: Any) -> None:
        self.tracer.end(span, **args)

    def on_dag_stats(
        self, *, interned: int, memoized: int, memo_hits: int, frames: int
    ) -> None:
        """Configuration-DAG size at the end of one ``acceptance_probability``.

        Counters (not gauges) so a sweep of many DPs under one probe
        reports *aggregate* DAG statistics; per-run numbers are the
        per-call increments.
        """
        if self.registry is not None:
            self._dag_interned.inc(interned)
            self._dag_memoized.inc(memoized)
            self._dag_memo_hits.inc(memo_hits)
            self._dag_frames.inc(frames)
