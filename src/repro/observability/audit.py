"""ContractAudit: continuously check measured envelopes against claimed ones.

Every headline result of the reproduction is a *contract*: an algorithm
plus the (r, s, t) envelope the paper claims for it — Theorem 8(a)'s
``co-RST(2, O(log N), 1)`` for the fingerprinting machine, Corollary 7's
``ST(O(log N), O(1) records, O(1))`` for tape merge sort and CHECK-SORT,
Theorem 11(a)'s ``O(c_Q · log N)`` for the relational evaluator, the
Section 4 bound for the streaming XML queries.  Each is one
:class:`ContractSpec` in :data:`CONTRACTS`, which writes its instance
kinds, its reference decider, its claim and its runner once.

:func:`run_contract_audit` sweeps each contract across decades of input
size N, runs the algorithm on a yes-instance under an *unenforced*
tracker with a :class:`~repro.observability.sinks.TallySink` attached,
and checks

1. the measured ``(scans, peak_internal_bits, tapes_used)`` is ``within``
   the claimed :class:`~repro.extmem.ResourceBudget` at every N,
2. the event stream's final totals (those its last event carries) agree
   with ``report()`` (the stream and the counters are two independent
   views of the same charges),
3. enforcement never fired (no ``denied`` event anywhere in the stream),
4. the answer is the reference decider's: a wrong one raises
   :class:`~repro.errors.ReproError`, and the cell has no record.

``python -m repro audit`` wraps this and writes ``AUDIT_contracts.json``;
all randomness is seeded per sweep cell, so the artifact is reproducible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ReproError
from ..extmem import ResourceBudget, ResourceReport, ResourceTracker
from .sinks import EventSink, TallySink

#: (m, n) sweep cells: m values per half, n bits per value.  N = m·(2n + 2).
QUICK_SWEEP: Tuple[Tuple[int, int], ...] = ((4, 12), (16, 12), (64, 12))
FULL_SWEEP: Tuple[Tuple[int, int], ...] = QUICK_SWEEP + ((256, 12), (1024, 12))

#: A fully permissive budget: audit runs measure, they do not enforce.
_UNENFORCED = ResourceBudget()

@dataclass(frozen=True)
class ContractSpec:
    """One algorithm: the instances it is held on, its answer and its claim.

    ``kinds`` maps each kind of instance to a builder ``(m, n, rng)`` that
    draws one, or returns ``None`` where (m, n) has none; the audit and
    ``repro trace`` draw ``"yes"``.  ``decide`` is the reference decider
    (for the sorters, the reference sort); a ``one_sided`` contract must
    accept every yes-instance and may accept a no-instance.  ``claim``
    maps an instance to the claimed (r, s, t) envelope, and ``run(instance,
    rng, budget, sink)`` runs the algorithm and returns (answer, report).
    """

    name: str
    description: str
    kinds: Mapping[str, Callable[[int, int, random.Random], Any]]
    decide: Callable[[Any], Any]
    one_sided: bool
    claim: Callable[[Any], ResourceBudget]
    run: Callable[..., Tuple[Any, ResourceReport]]

    def agrees(self, instance: Any, answer: Any) -> bool:
        """Is ``answer`` the decider's on ``instance``?"""
        if self.one_sided:  # an accepted instance needs no decider
            return bool(answer) or not self.decide(instance)
        return answer == self.decide(instance)

    def measure(
        self, m: int, n: int, rng: random.Random, sink: EventSink
    ) -> Tuple[ResourceReport, ResourceBudget]:
        """Run the contract, unenforced, on a yes-instance drawn at (m, n)
        from ``rng``, which then gives the algorithm its randomness; return
        the report and the claim.  Raises
        :class:`~repro.errors.ReproError` if the answer is not the decider's.
        """
        instance = self.kinds["yes"](m, n, rng)
        answer, report = self.run(instance, rng, _UNENFORCED, sink)
        if not self.agrees(instance, answer):
            raise ReproError(
                f"contract {self.name!r} at (m={m}, n={n}) answered "
                "otherwise than its reference decider"
            )
        return report, self.claim(instance)


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


# -- instance kinds ----------------------------------------------------------


def _problems(name: str) -> Callable[..., Any]:
    """``repro.problems.<name>``, looked up when called: importing the
    audit loads no problem module, as a runner imports its algorithm
    only when it runs."""

    def call(*args, **kwargs):
        from .. import problems

        return getattr(problems, name)(*args, **kwargs)

    return call


def _with_values(make):
    """``make`` where (m, n) leaves a value to change: m, n >= 1."""
    return lambda m, n, rng: make(m, n, rng) if m and n else None


def _check_phi(yes: bool):
    """A CHECK-φ instance (Lemma 22): m a power of two dividing 2^n, and
    for a no-instance room for a second value in each interval."""

    def build(m, n, rng):
        from .._util import is_power_of_two

        if m and n and is_power_of_two(m) and 2**n // m >= (1 if yes else 2):
            family = _problems("CheckPhiFamily")(m, n)
            return family.random_yes(rng) if yes else family.random_no(rng)
        return None

    return build


def _as_database(make):
    """``make``'s instance as Theorem 11(b)'s database: R1 and R2 hold the
    two halves as unary rows."""

    def build(m, n, rng):
        from ..queries.relational.streaming import set_equality_database

        inst = make(m, n, rng)
        return None if inst is None else set_equality_database(inst)

    return build


_checksort_instance = _problems("random_checksort_instance")
_SET_KINDS = {
    "yes": _problems("random_equal_instance"),
    "no": _with_values(_problems("random_unequal_instance")),
    "near-miss": _with_values(_problems("near_miss_instance")),
}
_CHECK_PHI_KINDS = {"check-phi-yes": _check_phi(True), "check-phi-no": _check_phi(False)}
_CHECKSORT_KINDS = {
    "yes": lambda m, n, rng: _checksort_instance(m, n, rng, yes=True),
    "no": lambda m, n, rng: (
        _checksort_instance(m, n, rng, yes=False) if m >= 2 and n else None
    ),
    **_CHECK_PHI_KINDS,
}


# -- claims and runners --------------------------------------------------------


def _fingerprint_claim(inst) -> ResourceBudget:
    from ..algorithms.fingerprint import fingerprint_space_budget

    return ResourceBudget(
        max_scans=2,
        max_internal_bits=fingerprint_space_budget(inst.size),
        max_tapes=1,
    )


def _run_fingerprint(inst, rng, budget, sink):
    from ..algorithms.fingerprint import multiset_equality_fingerprint

    result = multiset_equality_fingerprint(inst, rng, budget=budget, sink=sink)
    return result.accepted, result.report


def _sort_claim(words) -> ResourceBudget:
    from ..algorithms.mergesort_tape import mergesort_scan_budget

    # tapes: input + three work tapes + the sorted output
    return ResourceBudget(
        max_scans=mergesort_scan_budget(len(words)),
        max_internal_bits=0,
        max_tapes=5,
    )


def _run_mergesort(words, rng, budget, sink):
    from ..algorithms.mergesort_tape import sort_instance_strings

    tracker = ResourceTracker(budget)
    tracker.attach_sink(sink)
    ordered, tracker = sort_instance_strings(words, tracker=tracker)
    return ordered, tracker.report()


def _checksort_claim(inst) -> ResourceBudget:
    from ..algorithms.checksort import checksort_reversal_budget

    # tapes: first + second + three work tapes + the sorted output
    return ResourceBudget(
        max_scans=checksort_reversal_budget(inst.m),
        max_internal_bits=0,
        max_tapes=6,
    )


def _run_checksort(inst, rng, budget, sink):
    from ..algorithms.checksort import check_sort_deterministic

    result = check_sort_deterministic(inst, budget=budget, sink=sink)
    return result.accepted, result.report


def _run_onepass(inst, rng, budget, sink):
    from ..algorithms.onepass import one_pass_multiset_test

    # the baseline takes no budget: its report is held to the claim
    result = one_pass_multiset_test(inst, sink=sink)
    return result.accepted, result.report


def _run_lasvegas(words, rng, budget, sink):
    from ..algorithms.lasvegas import LasVegasSorter

    # the sorter takes no budget: its report is held to the claim
    result = LasVegasSorter(failure_probability=0.0).sort(words, rng, sink=sink)
    return result.output, result.report


def _relational_claim(db) -> ResourceBudget:
    from ..queries.relational.algebra import symmetric_difference_query
    from ..queries.relational.streaming import streaming_scan_budget

    return ResourceBudget(
        max_scans=streaming_scan_budget(
            symmetric_difference_query(), db.total_size()
        ),
        max_internal_bits=0,
    )


def _run_relational(db, rng, budget, sink):
    from ..queries.relational.algebra import symmetric_difference_query
    from ..queries.relational.streaming import StreamingEvaluator

    evaluator = StreamingEvaluator(db, budget=budget)
    evaluator.tracker.attach_sink(sink)
    result = evaluator.evaluate(symmetric_difference_query())
    return result.is_empty, evaluator.report()


def _xml_claim(inst) -> ResourceBudget:
    from ..queries.xml.streaming import xml_streaming_scan_budget

    # tapes: tokens + set1/set2 + 2 × (three sort tapes + sorted + dedup)
    return ResourceBudget(
        max_scans=xml_streaming_scan_budget(inst.size),
        max_internal_bits=0,
        max_tapes=13,
    )


def _run_xml(query: str):
    """The runner of a streaming XML query: the instance's token tape is
    written under the run's tracker, then the query reads it."""

    def run(inst, rng, budget, sink):
        from ..queries.xml import streaming

        tracker = ResourceTracker(budget)
        tracker.attach_sink(sink)
        token_tape, tracker = streaming.instance_to_token_tape(inst, tracker)
        answer = getattr(streaming, query)(token_tape, tracker)
        return answer.answer, answer.report

    return run


CONTRACTS: Tuple[ContractSpec, ...] = (
    ContractSpec(
        name="fingerprint",
        description="Theorem 8(a): multiset equality in co-RST(2, O(log N), 1)",
        kinds={**_SET_KINDS, **_CHECK_PHI_KINDS},
        decide=_problems("MULTISET_EQUALITY"),
        one_sided=True,
        claim=_fingerprint_claim,
        run=_run_fingerprint,
    ),
    ContractSpec(
        name="mergesort",
        description="Chen-Yap / Corollary 7: tape merge sort in O(log N) scans, 5 tapes",
        kinds={"yes": _problems("random_words")},
        decide=_problems("sort_strings"),
        one_sided=False,
        claim=_sort_claim,
        run=_run_mergesort,
    ),
    ContractSpec(
        name="checksort",
        description="Corollary 10: deterministic CHECK-SORT in ST(O(log N), ., O(1))",
        kinds=_CHECKSORT_KINDS,
        decide=_problems("CHECK_SORT"),
        one_sided=False,
        claim=_checksort_claim,
        run=_run_checksort,
    ),
    ContractSpec(
        name="onepass",
        description="Theorem 6 foil: the one-pass sketch baseline uses exactly 1 scan",
        kinds={**_SET_KINDS, **_CHECK_PHI_KINDS},
        decide=_problems("MULTISET_EQUALITY"),
        one_sided=True,
        claim=lambda inst: ResourceBudget(max_scans=1, max_internal_bits=0, max_tapes=1),
        run=_run_onepass,
    ),
    ContractSpec(
        name="lasvegas-sorter",
        description="Corollary 10: the Las Vegas sorter stays in the merge-sort envelope",
        kinds={"yes": _problems("random_words")},
        decide=_problems("sort_strings"),
        one_sided=False,
        claim=_sort_claim,
        run=_run_lasvegas,
    ),
    ContractSpec(
        name="relational-streaming",
        description="Theorem 11(a): symmetric-difference query in O(c_Q . log N) scans",
        kinds={kind: _as_database(make) for kind, make in _SET_KINDS.items()},
        # SET-EQUALITY through the reduction: equal halves as sets, R1 = R2
        decide=lambda db: db["R1"] == db["R2"],
        one_sided=False,
        claim=_relational_claim,
        run=_run_relational,
    ),
    ContractSpec(
        name="xml-figure1",
        description="Section 4: the Figure 1 filter on a token stream in O(log N) scans",
        kinds=_SET_KINDS,
        # Figure 1's filter: a value of the first half is not in the second
        decide=lambda inst: not set(inst.first) <= set(inst.second),
        one_sided=False,
        claim=_xml_claim,
        run=_run_xml("figure1_filter_streaming"),
    ),
    ContractSpec(
        name="xml-theorem12",
        description="Theorem 12: set equality on a token stream in O(log N) scans",
        kinds=_SET_KINDS,
        decide=_problems("SET_EQUALITY"),
        one_sided=False,
        claim=_xml_claim,
        run=_run_xml("theorem12_query_streaming"),
    ),
)


def _instance_size(m: int, n: int) -> int:
    return m * (2 * n + 2)  # N = 2m + Σ|v| + Σ|v'|


def run_audit_cell(spec: ContractSpec, m: int, n: int) -> ContractCheck:
    """One sweep cell: run the contract at (m, n) under an instrumented
    tracker and check measured-vs-claimed plus stream consistency.
    Raises :class:`~repro.errors.ReproError` if the answer is not the
    reference decider's.

    Self-seeding: the rng is derived from the cell coordinates alone, so
    a cell computes the same check alone, in a sweep, or when the result
    store recomputes it to verify an entry.
    """
    sink = TallySink()
    report, claimed = spec.measure(
        m, n, random.Random(f"audit:{spec.name}:{m}:{n}"), sink
    )
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
