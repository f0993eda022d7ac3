"""Observability for the (r, s, t) runtime: events, sinks, spans, audits.

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
* :mod:`~repro.observability.trace` — :class:`Span` records with monotone
  ids and parent links, a :class:`Tracer` exporting Chrome trace-event
  JSON (Perfetto-loadable) and text timelines, and the
  :class:`EngineProbe` behind ``repro trace``: an event sink that folds
  the live stream into one span per phase (reversals in total and per
  tape, steps, internal bits, denials), and the ``probe=`` hook of the
  engines' run functions and ``acceptance_probability`` (``probe=None``
  by default — no per-step cost).  A probe watches one run;
  sweeps do not take them;
* :mod:`~repro.observability.audit` — the contract-audit harness behind
  ``python -m repro audit``: sweeps the paper's algorithms across decades
  of N and checks every measured envelope against its claimed one, and
  each cell's tally of the event stream against its counters.  (This
  submodule imports the algorithm packages, so it is loaded lazily — the
  tracker itself only needs :mod:`events`.)
* :mod:`~repro.observability.ledger` — the durable layer above a single
  run: a :class:`LedgerWriter` journals the audit's one sweep as
  canonical-JSON lines (sweep start/end tallies, one outcome per cell
  with its seconds, cache events) with every wall-clock field isolated in
  a marked ``wall`` section, so stripped ledgers of identical runs are
  byte-identical;
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
from .sinks import (
    EventSink,
    JsonlFileSink,
    RingBufferSink,
    TallySink,
    replay_jsonl,
)
from .trace import SETUP_PHASE, EngineProbe, Span, Tracer

#: Names resolved lazily via __getattr__, mapped to their submodule.
#: The audit module imports repro.algorithms / repro.queries (which
#: import repro.extmem — eager loading here would cycle through the
#: tracker's events import); the ledger and report modules import
#: repro.cache, which the package does not need to load up front.
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
    "SETUP_PHASE",
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
