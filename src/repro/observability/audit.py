"""ContractAudit: continuously check measured envelopes against claimed ones.

Every headline result of the reproduction is a *contract*: an algorithm
plus the (r, s, t) envelope the paper claims for it — Theorem 8(a)'s
``co-RST(2, O(log N), 1)`` for the fingerprinting machine, Corollary 7's
``ST(O(log N), O(1) records, O(1))`` for tape merge sort and CHECK-SORT,
Theorem 11(a)'s ``O(c_Q · log N)`` for the relational evaluator, the
Section 4 bound for the streaming XML queries.

:func:`run_contract_audit` sweeps each contract across decades of input
size N, runs the algorithm under an *unenforced* tracker with a
:class:`~repro.observability.sinks.TallySink` attached, and checks

1. the measured ``(scans, peak_internal_bits, tapes_used)`` is ``within``
   the claimed :class:`~repro.extmem.ResourceBudget` at every N,
2. the event stream's final totals (those its last event carries) agree
   with ``report()`` (the stream and the counters are two independent
   views of the same charges), and
3. enforcement never fired (no ``denied`` event anywhere in the stream).

``python -m repro audit`` wraps this and writes ``AUDIT_contracts.json``;
all randomness is seeded per sweep cell, so the artifact is reproducible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..extmem import ResourceBudget, ResourceReport, ResourceTracker
from .sinks import EventSink, TallySink

#: (m, n) sweep cells: m values per half, n bits per value.  N = m·(2n + 2).
QUICK_SWEEP: Tuple[Tuple[int, int], ...] = ((4, 12), (16, 12), (64, 12))
FULL_SWEEP: Tuple[Tuple[int, int], ...] = QUICK_SWEEP + ((256, 12), (1024, 12))

Runner = Callable[[int, int, random.Random, EventSink], Tuple[ResourceReport, ResourceBudget]]


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
            used = [
                c.report.scans / c.claimed.max_scans
                for c in contract.checks
                if c.claimed.max_scans
            ]
            worst = f"{max(used):.0%}" if used else "n/a"  # no scan claim
            sizes = f"N={contract.checks[0].input_size}..{contract.checks[-1].input_size}"
            lines.append(
                f"  [{flag}] {contract.name:<22} {sizes:<16} "
                f"max scan-headroom used: {worst}"
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
    from ..problems import random_words

    tracker = ResourceTracker()
    tracker.attach_sink(sink)
    ordered, tracker = sort_instance_strings(
        random_words(m, n, rng), tracker=tracker
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
    from ..problems import random_words

    sorter = LasVegasSorter(failure_probability=0.0)
    result = sorter.sort(random_words(m, n, rng), rng, sink=sink)
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

    Self-seeding: the rng is derived from the cell coordinates alone, so
    a cell computes the same check alone, in a sweep, or when the result
    store recomputes it to verify an entry.
    """
    rng = random.Random(f"audit:{spec.name}:{m}:{n}")
    sink = TallySink()
    report, claimed = spec.run(m, n, rng, sink)
    last = sink.last
    # every event carries the running totals; with no event, the stream
    # stands for a run that charged nothing
    final = (
        (last.scans, last.peak_internal_bits, last.tapes_used)
        if last is not None
        else (1, 0, 0)
    )
    counted = (report.scans, report.peak_internal_bits, report.tapes_used)
    return ContractCheck(
        contract=spec.name,
        m=m,
        n=n,
        input_size=_instance_size(m, n),
        report=report,
        claimed=claimed,
        events=sink.events,
        denied=sink.denied,
        event_stream_consistent=final == counted,
    )


def run_contract_audit(
    *,
    quick: bool = False,
    contracts: Optional[Sequence[ContractSpec]] = None,
    sweep: Optional[Sequence[Tuple[int, int]]] = None,
    cache=None,
    ledger=None,
) -> AuditRun:
    """Sweep every contract; returns the full measured-vs-claimed record.

    Every contract runs over the same (m, n) cell list, in process, spec
    by spec and cell by cell; every cell seeds its own rng from its
    coordinates, so the JSON artifact written from the result is a pure
    function of the code.

    ``cache`` (a :class:`~repro.cache.ResultStore`) memoizes per check:
    a cell whose content-addressed key is already stored skips its
    contract runner entirely (zero engine work) — with a warm cache the
    whole audit is lookups.  An entry that does not decode back into a
    check is quarantined and recomputed.  The assembled record is
    byte-identical with the cache on, off, cold or warm; the store's
    hit/miss counters prove which path served each cell.

    ``ledger`` (a :class:`~repro.observability.ledger.LedgerWriter`)
    journals the run as one sweep, label ``audit-cells``: one
    ``task-outcome`` per contract check, in spec × cell order, stamped
    ``{contract, m, n, source: cache|computed}`` with the cell's seconds
    under ``wall`` (0 for a cache hit).  The outcomes reconcile exactly
    with the checks in ``AUDIT_contracts.json`` and, via the
    ``sweep-end`` cache counters, with the store's hit/miss totals.
    """
    cells = tuple(sweep) if sweep is not None else (
        QUICK_SWEEP if quick else FULL_SWEEP
    )
    specs = tuple(contracts if contracts is not None else CONTRACTS)

    if ledger is not None:
        ledger.sweep_start("audit-cells", tasks=len(specs) * len(cells))
    outcomes = []
    index = 0
    for spec in specs:
        checks = []
        for m, n in cells:
            check = None
            if cache is not None:
                key = audit_cell_key(spec.name, m, n)
                check = cache.lookup(key, check_from_payload)
            source, seconds = "cache", 0.0
            if check is None:
                source = "computed"
                started = time.perf_counter()
                check = run_audit_cell(spec, m, n)
                seconds = time.perf_counter() - started
                if cache is not None:
                    cache.store(key, check_to_payload(check), engine="audit")
            if ledger is not None:
                ledger.record_outcome(
                    "audit-cells",
                    index=index,
                    ok=check.ok,
                    seconds=seconds,
                    detail={
                        "contract": spec.name,
                        "m": m,
                        "n": n,
                        "source": source,
                    },
                )
            index += 1
            checks.append(check)
        outcomes.append(
            ContractOutcome(
                name=spec.name,
                description=spec.description,
                checks=tuple(checks),
            )
        )
    if ledger is not None:
        ledger.sweep_end(
            "audit-cells",
            cache=cache.counter_snapshot() if cache is not None else None,
        )
    return AuditRun(
        mode="quick" if quick else "full", contracts=tuple(outcomes)
    )


def write_audit_json(run: AuditRun, path: str) -> None:
    """Write the checked-in ``AUDIT_contracts.json`` artifact."""
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(run.to_json_dict(), handle, indent=2, sort_keys=False)
        handle.write("\n")

