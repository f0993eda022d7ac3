"""Resource accounting for the (r, s, t) model.

Definition 1 of the paper calls a machine (r, s, t)-bounded when every run ρ
on an input of length N satisfies

    (1) ρ is finite,
    (2) 1 + Σ_{i≤t} rev(ρ, i)  ≤  r(N),
    (3) Σ_{t<i≤t+u} space(ρ, i)  ≤  s(N).

The ``+1`` in (2) makes r(N) a bound on the number of *sequential scans*
rather than direction changes.  :class:`ResourceTracker` implements exactly
this accounting; every tape and internal-memory object registers with one
tracker, and a :class:`ResourceBudget` (if attached) turns accounting into
enforcement.

Two invariants the rest of the repo leans on:

* **Check-then-commit.**  Every charge validates the budget *before*
  mutating any counter.  A caught ``*BudgetExceeded`` therefore leaves the
  tracker exactly as it was before the offending charge — ``report()`` after
  a denied charge equals the report of a budget-free twin that performed the
  same successful charges.
* **Optional event stream.**  A sink (see :mod:`repro.observability`) may be
  attached with :meth:`attach_sink`; every registration, charge, denial and
  phase mark is then emitted as a :class:`~repro.observability.events.ResourceEvent`
  with a monotone sequence number.  With no sink attached (the default) the
  only overhead per charge is one ``is None`` test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import (
    ReversalBudgetExceeded,
    SpaceBudgetExceeded,
    TapeBudgetExceeded,
)
from ..observability.events import (
    KIND_DENIED,
    KIND_INTERNAL,
    KIND_PHASE,
    KIND_REVERSAL,
    KIND_STEP,
    KIND_TAPE,
    new_event,
)


@dataclass(frozen=True)
class ResourceBudget:
    """An (r, s, t) budget: scans, internal bits, external tapes.

    ``max_scans`` bounds ``1 + Σ reversals`` (the paper's r(N));
    ``max_internal_bits`` bounds peak internal memory (the paper's s(N), in
    bits); ``max_tapes`` bounds the number of external tapes (the paper's t).
    Any component may be ``None`` meaning "unbounded".
    """

    max_scans: Optional[int] = None
    max_internal_bits: Optional[int] = None
    max_tapes: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_scans", "max_internal_bits", "max_tapes"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")


@dataclass(frozen=True)
class ResourceReport:
    """Immutable snapshot of the resources a computation consumed."""

    reversals: int
    scans: int  # 1 + reversals, the paper's bounded quantity
    peak_internal_bits: int
    tapes_used: int
    reversals_per_tape: Dict[int, int] = field(default_factory=dict)
    steps: int = 0

    def within(self, budget: ResourceBudget) -> bool:
        """Did this run stay within ``budget``?"""
        if budget.max_scans is not None and self.scans > budget.max_scans:
            return False
        if (
            budget.max_internal_bits is not None
            and self.peak_internal_bits > budget.max_internal_bits
        ):
            return False
        if budget.max_tapes is not None and self.tapes_used > budget.max_tapes:
            return False
        return True


class ResourceTracker:
    """Aggregates reversal/space/tape charges; optionally enforces a budget.

    Tapes call :meth:`charge_reversal`, internal memory calls
    :meth:`charge_internal` (except that ``InternalMemory.store``, the
    hottest charge, commits an allowed charge inline with the same
    effect, and ``InternalMemory.commit_peak`` commits a whole register
    loop at once: its final total and its peak, when no budget could
    deny any of its stores and the sink, if any, only tallies; a tally
    then receives the loop's event count and last event, and the
    sequence number advances past every store), and anything that
    wants a step count calls :meth:`charge_step`.  All charges are
    monotone and atomic: a charge that would exceed the budget raises
    *without* changing any counter, so ``report()`` can be taken at any
    point — including inside an ``except`` block around a denied charge.
    """

    def __init__(self, budget: Optional[ResourceBudget] = None):
        self.budget = budget
        self._reversals_per_tape: Dict[int, int] = {}
        self._reversals = 0  # running sum of _reversals_per_tape
        self._tape_names: Dict[int, str] = {}
        self._tape_count = 0
        self._current_internal_bits = 0
        self._peak_internal_bits = 0
        self._steps = 0
        self._sink = None
        self._seq = 0

    # -- observability -----------------------------------------------------

    @property
    def sink(self):
        """The attached event sink, or ``None`` (accounting-only mode)."""
        return self._sink

    def attach_sink(self, sink) -> None:
        """Stream every subsequent registration/charge/denial to ``sink``.

        ``sink`` needs a single method ``emit(event)``; see
        :mod:`repro.observability.sinks`.  Attaching replaces any previous
        sink; sequence numbers keep increasing across replacements.
        """
        self._sink = sink

    def detach_sink(self) -> None:
        """Return to accounting-only mode (events stop; counters continue)."""
        self._sink = None

    def _emit(
        self,
        kind: str,
        *,
        tape_id: Optional[int] = None,
        delta: int = 0,
        label: Optional[str] = None,
    ) -> None:
        """Number one event and deliver it to the sink.

        ``InternalMemory.store`` and ``InternalMemory.commit_peak``
        build their ``internal`` events inline with this layout; change
        the three together.
        """
        self._seq += 1
        self._sink.emit(
            new_event((  # every field, in field order: this is the hot path
                self._seq,
                kind,
                tape_id,
                self._tape_names.get(tape_id) if tape_id else None,
                delta,
                1 + self._reversals,
                self._current_internal_bits,
                self._peak_internal_bits,
                self._tape_count,
                self._steps,
                label,
            ))
        )

    def mark_phase(self, name: str) -> None:
        """Emit a phase boundary (no-op without a sink; never charges).

        An :class:`~repro.observability.trace.EngineProbe` attached as the
        sink folds the events between consecutive marks into one phase
        span each (what ``repro trace`` prints).
        """
        if self._sink is not None:
            self._emit(KIND_PHASE, label=name)

    # -- registration -----------------------------------------------------

    def register_tape(self, name: Optional[str] = None) -> int:
        """Register a new external tape; returns its 1-based tape id.

        Check-then-commit: if the tape budget is already full, the tracker
        raises and ``tapes_used`` stays unchanged.
        """
        prospective = self._tape_count + 1
        if (
            self.budget is not None
            and self.budget.max_tapes is not None
            and prospective > self.budget.max_tapes
        ):
            if self._sink is not None:
                self._emit(KIND_DENIED, delta=1, label="tape")
            raise TapeBudgetExceeded(prospective, self.budget.max_tapes)
        self._tape_count = prospective
        tape_id = self._tape_count
        self._reversals_per_tape[tape_id] = 0
        if name is not None:
            self._tape_names[tape_id] = name
        if self._sink is not None:
            self._emit(KIND_TAPE, tape_id=tape_id, delta=1, label=name)
        return tape_id

    # -- charging ---------------------------------------------------------

    def charge_reversal(self, tape_id: int) -> None:
        """Record one head-direction change on ``tape_id``.

        Check-then-commit: a reversal that would push ``scans`` past the
        budget raises and leaves all counters unchanged.
        """
        if tape_id not in self._reversals_per_tape:
            raise ValueError(f"unknown tape id {tape_id}")
        if self.budget is not None and self.budget.max_scans is not None:
            if self.scans + 1 > self.budget.max_scans:
                if self._sink is not None:
                    self._emit(
                        KIND_DENIED, tape_id=tape_id, delta=1, label="reversal"
                    )
                raise ReversalBudgetExceeded(
                    self.scans + 1, self.budget.max_scans, tape=tape_id
                )
        self._reversals_per_tape[tape_id] += 1
        self._reversals += 1
        if self._sink is not None:
            self._emit(KIND_REVERSAL, tape_id=tape_id, delta=1)

    def charge_internal(self, delta_bits: int) -> None:
        """Adjust current internal-memory usage by ``delta_bits`` (may free).

        Check-then-commit: a charge that would go negative (a bug in the
        caller) or exceed the space budget raises and leaves both the
        current and the peak counter unchanged.  ``InternalMemory.store``
        repeats the commit below inline; change the two together.
        ``InternalMemory.commit_peak`` sets both counters for a register
        loop that ``InternalMemory.has_headroom`` let run on locals: none
        of its stores could have been denied and no sink needs them one
        by one, so the final total and the peak are all they leave, with,
        for a tally, the number of events and the last one, which
        ``commit_peak`` builds in :meth:`_emit`'s layout.
        """
        prospective = self._current_internal_bits + delta_bits
        if prospective < 0:
            raise ValueError("internal memory usage went negative")
        if (
            prospective > self._peak_internal_bits
            and self.budget is not None
            and self.budget.max_internal_bits is not None
            and prospective > self.budget.max_internal_bits
        ):
            if self._sink is not None:
                self._emit(KIND_DENIED, delta=delta_bits, label="internal")
            raise SpaceBudgetExceeded(prospective, self.budget.max_internal_bits)
        self._current_internal_bits = prospective
        if prospective > self._peak_internal_bits:
            self._peak_internal_bits = prospective
        if self._sink is not None:
            self._emit(KIND_INTERNAL, delta=delta_bits)

    def charge_step(self, count: int = 1) -> None:
        """Record machine steps (not budgeted; used for Lemma 3 analytics)."""
        self._steps += count
        if self._sink is not None:
            self._emit(KIND_STEP, delta=count)

    # -- queries ----------------------------------------------------------

    @property
    def reversals(self) -> int:
        """Total head reversals across all external tapes."""
        return self._reversals

    def reversals_on(self, tape_id: int) -> int:
        """Reversals charged to one tape — an O(1) counter read, unlike
        ``report()`` which materializes a full snapshot."""
        return self._reversals_per_tape.get(tape_id, 0)

    def tape_name(self, tape_id: int) -> Optional[str]:
        """The name a tape registered under, if it provided one."""
        return self._tape_names.get(tape_id)

    @property
    def scans(self) -> int:
        """The paper's bounded quantity: 1 + total reversals."""
        return 1 + self._reversals

    @property
    def peak_internal_bits(self) -> int:
        return self._peak_internal_bits

    @property
    def current_internal_bits(self) -> int:
        return self._current_internal_bits

    @property
    def tapes_used(self) -> int:
        return self._tape_count

    @property
    def steps(self) -> int:
        return self._steps

    def report(self) -> ResourceReport:
        """Snapshot the current consumption."""
        return ResourceReport(
            reversals=self.reversals,
            scans=self.scans,
            peak_internal_bits=self._peak_internal_bits,
            tapes_used=self._tape_count,
            reversals_per_tape=dict(self._reversals_per_tape),
            steps=self._steps,
        )
