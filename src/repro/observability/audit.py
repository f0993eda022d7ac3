"""ContractAudit: continuously check measured envelopes against claimed ones.

Every headline result of the reproduction is a *contract*: an algorithm
plus the (r, s, t) envelope the paper claims for it — Theorem 8(a)'s
``co-RST(2, O(log N), 1)`` for the fingerprinting machine, Corollary 7's
``ST(O(log N), O(1) records, O(1))`` for tape merge sort and CHECK-SORT,
Theorem 11(a)'s ``O(c_Q · log N)`` for the relational evaluator, the
Section 4 bound for the streaming XML queries.

:func:`run_contract_audit` sweeps each contract across decades of input
size N, runs the algorithm under an *unenforced* tracker with a
:class:`~repro.observability.sinks.RingBufferSink` attached, and checks

1. the measured ``(scans, peak_internal_bits, tapes_used)`` is ``within``
   the claimed :class:`~repro.extmem.ResourceBudget` at every N,
2. the event stream's final totals agree with ``report()`` (the stream and
   the counters are two independent views of the same charges), and
3. enforcement never fired (no ``denied`` events).

``python -m repro audit`` wraps this and writes ``AUDIT_contracts.json``;
all randomness is seeded per sweep cell, so the artifact is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..extmem import ResourceBudget, ResourceReport, ResourceTracker
from .profile import RunProfile
from .sinks import RingBufferSink

#: (m, n) sweep cells: m values per half, n bits per value.  N = m·(2n + 2).
QUICK_SWEEP: Tuple[Tuple[int, int], ...] = ((4, 12), (16, 12), (64, 12))
FULL_SWEEP: Tuple[Tuple[int, int], ...] = QUICK_SWEEP + ((256, 12), (1024, 12))

#: Ring capacity for audit runs; final totals stay exact even if the buffer
#: wraps, because every event snapshots the running totals.
_RING_CAPACITY = 1 << 16

Runner = Callable[[int, int, random.Random, RingBufferSink], Tuple[ResourceReport, ResourceBudget]]


@dataclass(frozen=True)
class ContractSpec:
    """One algorithm + its claimed envelope, as a sweepable runner."""

    name: str
    description: str
    run: Runner


@dataclass(frozen=True)
class ContractCheck:
    """The outcome of one contract at one sweep cell."""

    contract: str
    m: int
    n: int
    input_size: int
    report: ResourceReport
    claimed: ResourceBudget
    events: int
    denied: int
    event_stream_consistent: bool

    @property
    def within(self) -> bool:
        return self.report.within(self.claimed)

    @property
    def ok(self) -> bool:
        return self.within and self.event_stream_consistent and self.denied == 0

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "m": self.m,
            "n": self.n,
            "input_size": self.input_size,
            "measured": {
                "scans": self.report.scans,
                "reversals": self.report.reversals,
                "peak_internal_bits": self.report.peak_internal_bits,
                "tapes_used": self.report.tapes_used,
            },
            "claimed": {
                "max_scans": self.claimed.max_scans,
                "max_internal_bits": self.claimed.max_internal_bits,
                "max_tapes": self.claimed.max_tapes,
            },
            "within": self.within,
            "events": self.events,
            "denied": self.denied,
            "event_stream_consistent": self.event_stream_consistent,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class ContractOutcome:
    """One contract across the whole sweep."""

    name: str
    description: str
    checks: Tuple[ContractCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "ok": self.ok,
            "checks": [check.to_json_dict() for check in self.checks],
        }


@dataclass(frozen=True)
class AuditRun:
    """A full audit: every contract, every sweep cell."""

    mode: str
    contracts: Tuple[ContractOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(contract.ok for contract in self.contracts)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "tool": "python -m repro audit",
            "mode": self.mode,
            "ok": self.ok,
            "contracts": [c.to_json_dict() for c in self.contracts],
        }

    def summary_lines(self) -> List[str]:
        lines = []
        for contract in self.contracts:
            flag = "ok " if contract.ok else "FAIL"
            worst = max(
                (c.report.scans / c.claimed.max_scans)
                for c in contract.checks
                if c.claimed.max_scans
            )
            sizes = f"N={contract.checks[0].input_size}..{contract.checks[-1].input_size}"
            lines.append(
                f"  [{flag}] {contract.name:<22} {sizes:<16} "
                f"max scan-headroom used: {worst:.0%}"
            )
        return lines


# -- cache round trip ------------------------------------------------------

#: Entry kind for one contract check at one sweep cell.
AUDIT_CELL_KIND = "audit-cell"


def audit_cell_key(contract: str, m: int, n: int):
    """The content-addressed key of one audit cell.

    A cell is a pure function of (contract name, m, n, code version):
    its rng is derived from those coordinates alone (see
    :func:`run_audit_cell`), so nothing else can change the outcome.
    The code version rides in automatically via ``compose_key``.
    """
    from ..cache import compose_key

    return compose_key(AUDIT_CELL_KIND, contract=contract, m=m, n=n)


def check_to_payload(check: ContractCheck) -> Dict[str, Any]:
    """A :class:`ContractCheck` as a JSON-stable cache payload.

    Lossless for everything :meth:`ContractCheck.to_json_dict` reads, so
    a check reconstructed by :func:`check_from_payload` renders the same
    artifact bytes as the freshly computed one — the cache's
    byte-identity gate rests on this round trip.
    """
    return {
        "contract": check.contract,
        "m": check.m,
        "n": check.n,
        "input_size": check.input_size,
        "report": {
            "reversals": check.report.reversals,
            "scans": check.report.scans,
            "peak_internal_bits": check.report.peak_internal_bits,
            "tapes_used": check.report.tapes_used,
            "reversals_per_tape": {
                str(tape): count
                for tape, count in sorted(check.report.reversals_per_tape.items())
            },
            "steps": check.report.steps,
        },
        "claimed": {
            "max_scans": check.claimed.max_scans,
            "max_internal_bits": check.claimed.max_internal_bits,
            "max_tapes": check.claimed.max_tapes,
        },
        "events": check.events,
        "denied": check.denied,
        "event_stream_consistent": check.event_stream_consistent,
    }


def check_from_payload(payload: Dict[str, Any]) -> ContractCheck:
    """Rebuild a :class:`ContractCheck` from its cache payload."""
    report = payload["report"]
    claimed = payload["claimed"]
    return ContractCheck(
        contract=payload["contract"],
        m=payload["m"],
        n=payload["n"],
        input_size=payload["input_size"],
        report=ResourceReport(
            reversals=report["reversals"],
            scans=report["scans"],
            peak_internal_bits=report["peak_internal_bits"],
            tapes_used=report["tapes_used"],
            reversals_per_tape={
                int(tape): count
                for tape, count in report["reversals_per_tape"].items()
            },
            steps=report["steps"],
        ),
        claimed=ResourceBudget(
            max_scans=claimed["max_scans"],
            max_internal_bits=claimed["max_internal_bits"],
            max_tapes=claimed["max_tapes"],
        ),
        events=payload["events"],
        denied=payload["denied"],
        event_stream_consistent=payload["event_stream_consistent"],
    )


#: A fully permissive budget: audit runs measure, they do not enforce.
_UNENFORCED = ResourceBudget()


# -- contract runners ------------------------------------------------------


def _run_fingerprint(m, n, rng, sink):
    from ..algorithms.fingerprint import (
        fingerprint_space_budget,
        multiset_equality_fingerprint,
    )
    from ..problems import random_equal_instance

    inst = random_equal_instance(m, n, rng)
    result = multiset_equality_fingerprint(
        inst, rng, budget=_UNENFORCED, sink=sink
    )
    claimed = ResourceBudget(
        max_scans=2,
        max_internal_bits=fingerprint_space_budget(inst.size),
        max_tapes=1,
    )
    return result.report, claimed


def _run_mergesort(m, n, rng, sink):
    from ..algorithms.mergesort_tape import (
        mergesort_scan_budget,
        sort_instance_strings,
    )
    from ..problems import random_word

    tracker = ResourceTracker()
    tracker.attach_sink(sink)
    ordered, tracker = sort_instance_strings(
        [random_word(n, rng) for _ in range(m)], tracker=tracker
    )
    assert ordered == sorted(ordered)
    # tapes: input + three work tapes + the sorted output
    claimed = ResourceBudget(
        max_scans=mergesort_scan_budget(m), max_internal_bits=0, max_tapes=5
    )
    return tracker.report(), claimed


def _run_checksort(m, n, rng, sink):
    from ..algorithms.checksort import (
        check_sort_deterministic,
        checksort_reversal_budget,
    )
    from ..problems import random_checksort_instance

    inst = random_checksort_instance(m, n, rng, yes=True)
    result = check_sort_deterministic(inst, sink=sink)
    # tapes: first + second + three work tapes + the sorted output
    claimed = ResourceBudget(
        max_scans=checksort_reversal_budget(m),
        max_internal_bits=0,
        max_tapes=6,
    )
    return result.report, claimed


def _run_onepass(m, n, rng, sink):
    from ..algorithms.onepass import one_pass_multiset_test
    from ..problems import random_equal_instance

    inst = random_equal_instance(m, n, rng)
    result = one_pass_multiset_test(inst, sink=sink)
    claimed = ResourceBudget(max_scans=1, max_internal_bits=0, max_tapes=1)
    return result.report, claimed


def _run_lasvegas(m, n, rng, sink):
    from ..algorithms.lasvegas import LasVegasSorter
    from ..algorithms.mergesort_tape import mergesort_scan_budget
    from ..problems import random_word

    sorter = LasVegasSorter(failure_probability=0.0)
    result = sorter.sort([random_word(n, rng) for _ in range(m)], rng, sink=sink)
    assert result.answered
    claimed = ResourceBudget(
        max_scans=mergesort_scan_budget(m), max_internal_bits=0, max_tapes=5
    )
    return result.report, claimed


def _run_relational(m, n, rng, sink):
    from ..queries.relational.algebra import symmetric_difference_query
    from ..queries.relational.streaming import (
        StreamingEvaluator,
        set_equality_database,
        streaming_scan_budget,
    )
    from ..problems import random_equal_instance

    inst = random_equal_instance(m, n, rng)
    db = set_equality_database(inst)
    query = symmetric_difference_query()
    evaluator = StreamingEvaluator(db)
    evaluator.tracker.attach_sink(sink)
    result = evaluator.evaluate(query)
    assert result.is_empty  # equal halves ⇒ empty symmetric difference
    claimed = ResourceBudget(
        max_scans=streaming_scan_budget(query, db.total_size()),
        max_internal_bits=0,
    )
    return evaluator.report(), claimed


def _xml_claimed(inst) -> ResourceBudget:
    from ..queries.xml.streaming import xml_streaming_scan_budget

    # tapes: tokens + set1/set2 + 2 × (three sort tapes + sorted + dedup)
    return ResourceBudget(
        max_scans=xml_streaming_scan_budget(inst.size),
        max_internal_bits=0,
        max_tapes=13,
    )


def _run_xml_figure1(m, n, rng, sink):
    from ..queries.xml.streaming import (
        figure1_filter_streaming,
        instance_to_token_tape,
    )
    from ..problems import random_equal_instance

    inst = random_equal_instance(m, n, rng)
    tracker = ResourceTracker()
    tracker.attach_sink(sink)
    token_tape, tracker = instance_to_token_tape(inst, tracker)
    answer = figure1_filter_streaming(token_tape, tracker)
    assert answer.answer is False  # equal halves ⇒ set1 ⊆ set2
    return answer.report, _xml_claimed(inst)


def _run_xml_theorem12(m, n, rng, sink):
    from ..queries.xml.streaming import (
        instance_to_token_tape,
        theorem12_query_streaming,
    )
    from ..problems import random_equal_instance

    inst = random_equal_instance(m, n, rng)
    tracker = ResourceTracker()
    tracker.attach_sink(sink)
    token_tape, tracker = instance_to_token_tape(inst, tracker)
    answer = theorem12_query_streaming(token_tape, tracker)
    assert answer.answer is True  # equal halves ⇒ equal sets
    return answer.report, _xml_claimed(inst)


CONTRACTS: Tuple[ContractSpec, ...] = (
    ContractSpec(
        "fingerprint",
        "Theorem 8(a): multiset equality in co-RST(2, O(log N), 1)",
        _run_fingerprint,
    ),
    ContractSpec(
        "mergesort",
        "Chen-Yap / Corollary 7: tape merge sort in O(log N) scans, 5 tapes",
        _run_mergesort,
    ),
    ContractSpec(
        "checksort",
        "Corollary 10: deterministic CHECK-SORT in ST(O(log N), ., O(1))",
        _run_checksort,
    ),
    ContractSpec(
        "onepass",
        "Theorem 6 foil: the one-pass sketch baseline uses exactly 1 scan",
        _run_onepass,
    ),
    ContractSpec(
        "lasvegas-sorter",
        "Corollary 10: the Las Vegas sorter stays in the merge-sort envelope",
        _run_lasvegas,
    ),
    ContractSpec(
        "relational-streaming",
        "Theorem 11(a): symmetric-difference query in O(c_Q . log N) scans",
        _run_relational,
    ),
    ContractSpec(
        "xml-figure1",
        "Section 4: the Figure 1 filter on a token stream in O(log N) scans",
        _run_xml_figure1,
    ),
    ContractSpec(
        "xml-theorem12",
        "Theorem 12: set equality on a token stream in O(log N) scans",
        _run_xml_theorem12,
    ),
)


def _instance_size(m: int, n: int) -> int:
    return m * (2 * n + 2)  # N = 2m + Σ|v| + Σ|v'|


def run_audit_cell(spec: ContractSpec, m: int, n: int) -> ContractCheck:
    """One sweep cell: run the contract at (m, n) under an instrumented
    tracker and check measured-vs-claimed plus stream consistency.

    Module-level and self-seeding (the rng is derived from the cell
    coordinates alone), so cells are independent batch tasks: the audit
    dispatches them through :func:`repro.parallel.run_batch` and the JSON
    record is byte-identical at any ``jobs``.
    """
    rng = random.Random(f"audit:{spec.name}:{m}:{n}")
    sink = RingBufferSink(_RING_CAPACITY)
    report, claimed = spec.run(m, n, rng, sink)
    profile = RunProfile.from_events(sink.events())
    consistent = (
        profile.final_scans == report.scans
        and profile.final_peak_internal_bits == report.peak_internal_bits
        and profile.final_tapes_used == report.tapes_used
    )
    return ContractCheck(
        contract=spec.name,
        m=m,
        n=n,
        input_size=_instance_size(m, n),
        report=report,
        claimed=claimed,
        events=len(sink) + sink.dropped,
        denied=profile.denied_total,
        event_stream_consistent=consistent,
    )


def run_audit_cells(
    cells: Sequence[Tuple[int, int]], spec: ContractSpec
) -> List[ContractCheck]:
    """Map-task body: one contract's whole (m, n) N-sweep in one task.

    The per-spec sweep is the batch-shaped unit the audit hands down the
    runtime (a :meth:`~repro.parallel.BatchTask.map` input list); each
    cell still seeds its own rng from its coordinates alone, so the
    checks — and the JSON written from them — are byte-identical to
    running the cells as individual tasks at any ``jobs``.
    """
    return [run_audit_cell(spec, m, n) for m, n in cells]


def _resolve_checks(
    run_specs: Sequence[ContractSpec],
    spec_cells: Dict[str, Sequence[Tuple[int, int]]],
    *,
    jobs: int = 1,
    chunk_size: Union[int, str, None] = None,
    cache=None,
    ledger=None,
):
    """Cache-lookup pass plus batch dispatch for per-spec cell lists.

    The shared core of the full audit and the sharded audit: look every
    requested (spec, m, n) cell up in the store, dispatch only the
    misses (one lane-batched map task per spec, label ``audit``), store
    what was computed, and return ``(checks by (name, m, n), hit keys)``.
    """
    from ..parallel import BatchTask, run_batch

    cached_checks: Dict[Tuple[str, int, int], ContractCheck] = {}
    missing: Dict[str, List[Tuple[int, int]]] = {}
    if cache is not None:
        for spec in run_specs:
            for m, n in spec_cells[spec.name]:
                payload = cache.lookup(audit_cell_key(spec.name, m, n))
                if payload is None:
                    missing.setdefault(spec.name, []).append((m, n))
                else:
                    cached_checks[(spec.name, m, n)] = check_from_payload(
                        payload
                    )
        dispatch_specs = [spec for spec in run_specs if missing.get(spec.name)]
        dispatch_cells = {
            spec.name: tuple(missing[spec.name]) for spec in dispatch_specs
        }
    else:
        dispatch_specs = [
            spec for spec in run_specs if spec_cells[spec.name]
        ]
        dispatch_cells = {
            spec.name: tuple(spec_cells[spec.name]) for spec in dispatch_specs
        }
    hit_keys = frozenset(cached_checks)
    if dispatch_specs:
        tasks = [
            BatchTask.map(
                run_audit_cells, dispatch_cells[spec.name], spec
            )
            for spec in dispatch_specs
        ]
        sweeps = run_batch(
            tasks,
            jobs=jobs,
            chunk_size=chunk_size,
            label="audit",
            ledger=ledger,
        ).values()
        for spec, checks in zip(dispatch_specs, sweeps):
            for check in checks:
                if cache is not None:
                    cache.store(
                        audit_cell_key(check.contract, check.m, check.n),
                        check_to_payload(check),
                        engine="audit",
                    )
                cached_checks[(spec.name, check.m, check.n)] = check
    return cached_checks, hit_keys


def run_contract_audit(
    *,
    quick: bool = False,
    contracts: Optional[Sequence[ContractSpec]] = None,
    sweep: Optional[Sequence[Tuple[int, int]]] = None,
    jobs: int = 1,
    chunk_size: Union[int, str, None] = None,
    cache=None,
    ledger=None,
) -> AuditRun:
    """Sweep every contract; returns the full measured-vs-claimed record.

    ``jobs`` fans the per-contract N-sweeps out over worker processes
    via :mod:`repro.parallel` — one lane-batched map task per contract,
    so each worker hands a whole sweep down in one call; every cell
    seeds its own rng from its coordinates, so the result — and the JSON
    artifact written from it — is byte-identical to the serial sweep for
    any ``jobs`` and to the old one-task-per-cell grouping.  For
    CI-matrix splits use :func:`run_audit_shard` /
    :func:`collect_audit_shards` (they partition by *cell*, not by
    contract).

    ``cache`` (a :class:`~repro.cache.ResultStore`) memoizes per check:
    cells whose content-addressed key is already stored skip their
    contract runner entirely (zero engine work) and only the misses are
    dispatched — with a warm cache the whole audit is lookups.  The
    assembled record is byte-identical with the cache on, off, cold or
    warm; the store's hit/miss counters prove which path served each
    cell.

    ``ledger`` (a :class:`~repro.observability.ledger.LedgerWriter`)
    journals the run durably on two layers: the batch runtime writes one
    ``task-outcome`` per dispatched map task (label ``audit``, one per
    contract), and this function writes a deterministic per-cell sweep
    (label ``audit-cells``) — one ``task-outcome`` per contract check,
    stamped ``{contract, m, n, source: cache|computed}`` — that
    reconciles exactly with the checks in ``AUDIT_contracts.json`` and,
    via its ``sweep-end`` cache counters, with the store's hit/miss
    totals.
    """
    cells = tuple(sweep) if sweep is not None else (
        QUICK_SWEEP if quick else FULL_SWEEP
    )
    specs = tuple(contracts if contracts is not None else CONTRACTS)

    cached_checks, hit_keys = _resolve_checks(
        specs,
        {spec.name: cells for spec in specs},
        jobs=jobs,
        chunk_size=chunk_size,
        cache=cache,
        ledger=ledger,
    )

    if ledger is not None:
        # The reconciliation layer: one deterministic outcome record per
        # contract check, in spec × cell order regardless of jobs or
        # cache state, each stamped with what served it — these lines
        # line up one-to-one with the checks in the JSON artifact.
        ledger.sweep_start(
            "audit-cells", tasks=len(specs) * len(cells), jobs=jobs
        )
        index = 0
        for spec in specs:
            for m, n in cells:
                check = cached_checks[(spec.name, m, n)]
                source = (
                    "cache" if (spec.name, m, n) in hit_keys else "computed"
                )
                ledger.record_outcome(
                    "audit-cells",
                    index=index,
                    ok=check.ok,
                    detail={
                        "contract": spec.name,
                        "m": m,
                        "n": n,
                        "source": source,
                    },
                )
                index += 1
        ledger.sweep_end(
            "audit-cells",
            cache=cache.counter_snapshot() if cache is not None else None,
        )

    outcomes = []
    for spec in specs:
        outcomes.append(
            ContractOutcome(
                name=spec.name,
                description=spec.description,
                checks=tuple(
                    cached_checks[(spec.name, m, n)] for m, n in cells
                ),
            )
        )
    return AuditRun(
        mode="quick" if quick else "full", contracts=tuple(outcomes)
    )


# -- sharded audit ---------------------------------------------------------

#: Schema version of the shard artifact ``repro audit --shards`` writes
#: and ``repro shard collect`` consumes.
AUDIT_SHARD_SCHEMA = 1


def _audit_flat(
    quick: bool,
) -> Tuple[str, Tuple[Tuple[int, int], ...], List[Tuple[ContractSpec, int, int]]]:
    """The audit sweep flattened in spec × cell order (the artifact order)."""
    cells = QUICK_SWEEP if quick else FULL_SWEEP
    mode = "quick" if quick else "full"
    flat = [(spec, m, n) for spec in CONTRACTS for m, n in cells]
    return mode, cells, flat


def audit_sweep_digest(*, quick: bool = False) -> str:
    """The identity of the whole audit sweep, code version included.

    Every shard artifact carries it, and ``collect`` recomputes it
    locally — so shards from a different sweep shape, contract set or
    code version can never be merged into one ``AUDIT_contracts.json``.
    """
    from ..cache import compose_key

    mode, cells, _flat = _audit_flat(quick)
    return compose_key(
        "audit-sweep",
        mode=mode,
        contracts=[spec.name for spec in CONTRACTS],
        cells=[[m, n] for m, n in cells],
    ).digest


def plan_audit_shards(
    *, quick: bool = False, shards: int
) -> List[Dict[str, Any]]:
    """Describe the K-way split of the audit sweep without running it.

    One dict per shard: the content-addressed shard key (composed
    through ``compose_key("shard", …)`` over the per-cell cache-key
    digests, the same code-versioned key discipline the result cache
    uses), the global cell indices it owns, and the (contract, m, n) coordinates — everything a
    CI matrix job needs to run ``repro audit --shards K --shard-index i``.
    """
    from ..cache import compose_key
    from ..parallel.shard import shard_indices

    mode, _cells, flat = _audit_flat(quick)
    sweep = audit_sweep_digest(quick=quick)
    plans: List[Dict[str, Any]] = []
    for shard_index in range(shards):
        indices = list(shard_indices(len(flat), shards, shard_index))
        cell_digests = [
            audit_cell_key(flat[g][0].name, flat[g][1], flat[g][2]).digest
            for g in indices
        ]
        plans.append(
            {
                "mode": mode,
                "shards": shards,
                "index": shard_index,
                "sweep": sweep,
                "key": compose_key(
                    "shard",
                    sweep=sweep,
                    seed=mode,
                    shards=shards,
                    index=shard_index,
                    tasks=cell_digests,
                ).digest,
                "cells": [
                    {
                        "index": g,
                        "contract": flat[g][0].name,
                        "m": flat[g][1],
                        "n": flat[g][2],
                    }
                    for g in indices
                ],
            }
        )
    return plans


def run_audit_shard(
    *,
    quick: bool = False,
    shards: int,
    shard_index: int,
    jobs: int = 1,
    chunk_size: Union[int, str, None] = None,
    cache=None,
    ledger=None,
) -> Dict[str, Any]:
    """Run one strided shard of the audit sweep; returns the artifact dict.

    The shard owns every flattened (contract, m, n) cell whose global
    index ``g`` satisfies ``g % shards == shard_index``.  Cells are
    self-seeded from their coordinates, so a shard computes exactly the
    checks the unsharded audit would — the artifact carries them as
    lossless :func:`check_to_payload` payloads keyed by global index,
    plus the sweep digest ``collect`` verifies.  Composes with the
    result cache and the ledger exactly like :func:`run_contract_audit`
    (batch label ``audit``, reconciliation label ``audit-cells`` with
    global indices).
    """
    from ..parallel.shard import shard_indices

    mode, _cells, flat = _audit_flat(quick)
    plan = plan_audit_shards(quick=quick, shards=shards)[shard_index]
    indices = list(shard_indices(len(flat), shards, shard_index))

    spec_cells: Dict[str, List[Tuple[int, int]]] = {}
    run_specs: List[ContractSpec] = []
    for g in indices:
        spec, m, n = flat[g]
        if spec.name not in spec_cells:
            spec_cells[spec.name] = []
            run_specs.append(spec)
        spec_cells[spec.name].append((m, n))

    checks, hit_keys = _resolve_checks(
        run_specs,
        spec_cells,
        jobs=jobs,
        chunk_size=chunk_size,
        cache=cache,
        ledger=ledger,
    )

    if ledger is not None:
        ledger.sweep_start("audit-cells", tasks=len(indices), jobs=jobs)
        for g in indices:
            spec, m, n = flat[g]
            check = checks[(spec.name, m, n)]
            ledger.record_outcome(
                "audit-cells",
                index=g,
                ok=check.ok,
                detail={
                    "contract": spec.name,
                    "m": m,
                    "n": n,
                    "source": (
                        "cache" if (spec.name, m, n) in hit_keys else "computed"
                    ),
                },
            )
        ledger.sweep_end(
            "audit-cells",
            cache=cache.counter_snapshot() if cache is not None else None,
        )

    return {
        "tool": "python -m repro audit",
        "kind": "audit-shard",
        "schema": AUDIT_SHARD_SCHEMA,
        "mode": mode,
        "shards": shards,
        "shard_index": shard_index,
        "sweep": plan["sweep"],
        "shard_key": plan["key"],
        "total_cells": len(flat),
        "ok": all(
            checks[(flat[g][0].name, flat[g][1], flat[g][2])].ok
            for g in indices
        ),
        "checks": [
            {
                "index": g,
                "contract": flat[g][0].name,
                "payload": check_to_payload(
                    checks[(flat[g][0].name, flat[g][1], flat[g][2])]
                ),
            }
            for g in indices
        ],
    }


def collect_audit_shards(payloads: Sequence[Dict[str, Any]]) -> AuditRun:
    """Merge shard artifacts back into the full :class:`AuditRun`.

    Verifies before merging: every artifact must carry this code
    version's sweep digest for one mode and one topology, and together
    the shards must cover every flattened cell exactly once (no gaps,
    no overlaps, no duplicates).  The reassembled run renders
    ``AUDIT_contracts.json`` byte-identical to an unsharded audit — the
    property the ``shard-identity`` CI gate diffs.
    """
    from ..errors import ReproError

    if not payloads:
        raise ReproError("no shard artifacts to collect")
    first = payloads[0]
    for artifact in payloads:
        if artifact.get("kind") != "audit-shard":
            raise ReproError(
                f"not an audit shard artifact: kind={artifact.get('kind')!r}"
            )
        if artifact.get("schema") != AUDIT_SHARD_SCHEMA:
            raise ReproError(
                f"audit shard schema {artifact.get('schema')!r} != "
                f"{AUDIT_SHARD_SCHEMA}"
            )
        for field_name in ("mode", "shards", "sweep", "total_cells"):
            if artifact.get(field_name) != first.get(field_name):
                raise ReproError(
                    f"shard artifacts disagree on {field_name!r}: "
                    f"{artifact.get(field_name)!r} != "
                    f"{first.get(field_name)!r}"
                )
    mode = first["mode"]
    quick = mode == "quick"
    expected_sweep = audit_sweep_digest(quick=quick)
    if first["sweep"] != expected_sweep:
        raise ReproError(
            "refusing to collect: shard sweep digest "
            f"{first['sweep'][:16]}… does not match this code version's "
            f"audit sweep {expected_sweep[:16]}… (different contracts, "
            "cells or repro version)"
        )
    _mode, cells, flat = _audit_flat(quick)
    if first["total_cells"] != len(flat):
        raise ReproError(
            f"shard artifacts cover {first['total_cells']} cells, this "
            f"sweep has {len(flat)}"
        )
    by_index: Dict[int, ContractCheck] = {}
    for artifact in payloads:
        for entry in artifact["checks"]:
            g = entry["index"]
            if g in by_index:
                raise ReproError(
                    f"cell index {g} appears in more than one shard artifact"
                )
            check = check_from_payload(entry["payload"])
            spec, m, n = flat[g]
            if (check.contract, check.m, check.n) != (spec.name, m, n):
                raise ReproError(
                    f"cell index {g} carries check for "
                    f"({check.contract}, {check.m}, {check.n}), expected "
                    f"({spec.name}, {m}, {n})"
                )
            by_index[g] = check
    missing = [g for g in range(len(flat)) if g not in by_index]
    if missing:
        raise ReproError(
            f"shard artifacts leave {len(missing)} cells uncovered "
            f"(first missing: index {missing[0]} = "
            f"{flat[missing[0]][0].name} m={flat[missing[0]][1]})"
        )
    outcomes = []
    g = 0
    for spec in CONTRACTS:
        spec_checks = []
        for _m, _n in cells:
            spec_checks.append(by_index[g])
            g += 1
        outcomes.append(
            ContractOutcome(
                name=spec.name,
                description=spec.description,
                checks=tuple(spec_checks),
            )
        )
    return AuditRun(mode=mode, contracts=tuple(outcomes))


def write_audit_json(run: AuditRun, path: str) -> None:
    """Write the checked-in ``AUDIT_contracts.json`` artifact."""
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(run.to_json_dict(), handle, indent=2, sort_keys=False)
        handle.write("\n")


def write_audit_shard_json(artifact: Dict[str, Any], path: str) -> None:
    """Write one shard's artifact (the file ``repro shard collect`` reads)."""
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=False)
        handle.write("\n")
