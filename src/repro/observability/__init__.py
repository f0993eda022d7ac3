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
  each cell's tally of the event stream against its counters;
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

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "events": (
            "ResourceEvent",
            "EVENT_KINDS",
            "KIND_TAPE",
            "KIND_REVERSAL",
            "KIND_INTERNAL",
            "KIND_STEP",
            "KIND_PHASE",
            "KIND_DENIED",
        ),
        "sinks": (
            "EventSink",
            "TallySink",
            "RingBufferSink",
            "JsonlFileSink",
            "replay_jsonl",
        ),
        "trace": ("SETUP_PHASE", "Span", "Tracer", "EngineProbe"),
        "audit": (
            "AuditRun",
            "CONTRACTS",
            "ContractCheck",
            "ContractOutcome",
            "ContractSpec",
            "FULL_SWEEP",
            "QUICK_SWEEP",
            "run_contract_audit",
            "write_audit_json",
        ),
        "ledger": (
            "LEDGER_SCHEMA",
            "LedgerWriter",
            "iter_ledger",
            "load_ledger",
            "strip_record",
            "strip_nondeterministic",
        ),
        "report": (
            "summarize_ledgers",
            "render_summary",
            "compare_bench",
            "render_comparison",
            "history_record",
            "append_history",
        ),
    },
)
