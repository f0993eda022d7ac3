"""External-memory runtime: tapes, heads, reversal and space accounting.

This package is the executable version of the paper's cost model
(Section 2).  A computation is charged for:

* **head reversals** on external-memory tapes — the quantity
  ``1 + Σ_i rev(ρ, i)`` which bounds the number of *sequential scans*
  (footnote 1 of the paper);
* **internal-memory space** — the total number of cells (we account bits)
  used on internal-memory tapes;
* **number of external tapes** ``t``.

Two granularities are provided:

* :class:`~repro.extmem.tape.SymbolTape` — cell-per-symbol tapes for the
  faithful Turing-machine simulator (``repro.machines``);
* :class:`~repro.extmem.record_tape.RecordTape` — cell-per-record tapes on
  which the paper's algorithms (merge sort, fingerprinting, certificate
  verification, query evaluation) run at realistic input sizes with the
  *same* reversal accounting.

A :class:`~repro.extmem.tracker.ResourceTracker` aggregates charges and
(optionally) enforces an (r, s, t) budget, raising
:class:`repro.errors.ResourceError` subclasses on violation.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "tracker": ("ResourceBudget", "ResourceReport", "ResourceTracker"),
        "memory": ("InternalMemory",),
        "tape": ("SymbolTape", "BLANK"),
        "record_tape": ("RecordTape",),
    },
)
