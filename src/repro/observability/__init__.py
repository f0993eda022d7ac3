"""Observability for the (r, s, t) runtime: events, sinks, profiles, audits.

Layered bottom-up:

* :mod:`~repro.observability.events` — the :class:`ResourceEvent` record a
  :class:`~repro.extmem.ResourceTracker` emits for every registration,
  charge, denial and phase mark (monotone ``seq``, per-tape attribution,
  post-event totals inlined);
* :mod:`~repro.observability.sinks` — where events go: :class:`TallySink`
  (counts and the last event; what the audit attaches),
  :class:`RingBufferSink`, :class:`JsonlFileSink`.  With no sink attached
  (the default everywhere) the tracker pays one ``is None`` test per
  charge and allocates nothing;
* :mod:`~repro.observability.profile` — :class:`RunProfile` turns an event
  stream into per-phase scan/space timelines (``repro trace`` prints it);
* :mod:`~repro.observability.metrics` — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments with label sets, handed out by a
  :class:`MetricsRegistry` whose snapshot is deterministic JSON; an
  :class:`EngineProbe` owns one, and ``repro trace --metrics`` prints it;
* :mod:`~repro.observability.trace` — :class:`Span` records with monotone
  ids and parent links, a :class:`Tracer` exporting Chrome trace-event
  JSON (Perfetto-loadable) and text timelines, and the
  :class:`EngineProbe` hook the execution engines, the block tracer and
  the streaming query evaluators accept (``probe=None`` everywhere by
  default — the hot paths pay at most one ``is None`` test).  Probes
  watch one in-process run; batch sweeps do not take them;
* :mod:`~repro.observability.audit` — the contract-audit harness behind
  ``python -m repro audit``: sweeps the paper's algorithms across decades
  of N and checks every measured envelope against its claimed one, and
  each cell's tally of the event stream against its counters.  (This
  submodule imports the algorithm packages, so it is loaded lazily — the
  tracker itself only needs :mod:`events`.)
* :mod:`~repro.observability.ledger` — the durable layer above a single
  run, and the batch runtime's only observer: a :class:`LedgerWriter`
  journals sweeps as canonical-JSON lines (sweep start/end tallies, task
  outcomes, worker restarts, heartbeats, stalls, cache events) with
  every wall-clock field isolated in a marked ``wall`` section, so
  stripped ledgers of identical serial runs are byte-identical;
* :mod:`~repro.observability.report` — rollups and regression verdicts
  behind ``python -m repro report``: deterministic ledger summaries, the
  pairs comparer that judges ``benchmarks/e2e`` runs of a change against
  its parent under ``BENCHMARK.json``'s bounds, and the append-only
  ``BENCH_e2e.jsonl`` trajectory.
"""

from .events import (
    EVENT_KINDS,
    KIND_DENIED,
    KIND_INTERNAL,
    KIND_PHASE,
    KIND_REVERSAL,
    KIND_STEP,
    KIND_TAPE,
    ResourceEvent,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profile import SETUP_PHASE, PhaseProfile, RunProfile
from .sinks import (
    EventSink,
    JsonlFileSink,
    RingBufferSink,
    TallySink,
    replay_jsonl,
)
from .trace import EngineProbe, Span, Tracer

#: Names resolved lazily via __getattr__, mapped to their submodule.
#: The audit module imports repro.algorithms / repro.queries (which
#: import repro.extmem — eager loading here would cycle through the
#: tracker's events import); the ledger and report modules import
#: repro.cache (whose store imports this package's metrics — eager
#: loading would re-enter a partially initialized package).
_LAZY_EXPORTS = {
    "AuditRun": "audit",
    "CONTRACTS": "audit",
    "ContractCheck": "audit",
    "ContractOutcome": "audit",
    "ContractSpec": "audit",
    "FULL_SWEEP": "audit",
    "QUICK_SWEEP": "audit",
    "run_contract_audit": "audit",
    "write_audit_json": "audit",
    "LEDGER_SCHEMA": "ledger",
    "LedgerWriter": "ledger",
    "iter_ledger": "ledger",
    "load_ledger": "ledger",
    "strip_record": "ledger",
    "strip_nondeterministic": "ledger",
    "summarize_ledgers": "report",
    "render_summary": "report",
    "compare_bench": "report",
    "render_comparison": "report",
    "history_record": "report",
    "append_history": "report",
}

__all__ = [
    "ResourceEvent",
    "EVENT_KINDS",
    "KIND_TAPE",
    "KIND_REVERSAL",
    "KIND_INTERNAL",
    "KIND_STEP",
    "KIND_PHASE",
    "KIND_DENIED",
    "EventSink",
    "TallySink",
    "RingBufferSink",
    "JsonlFileSink",
    "replay_jsonl",
    "RunProfile",
    "PhaseProfile",
    "SETUP_PHASE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "Span",
    "Tracer",
    "EngineProbe",
] + sorted(_LAZY_EXPORTS)


def __getattr__(name):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        module = importlib.import_module(f".{module_name}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
