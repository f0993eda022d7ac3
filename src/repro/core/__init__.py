"""Core API: resource-bound calculus, complexity classes, theorem registry.

This package ties the substrates together into the paper's statements:

* :mod:`~repro.core.bounds` — a tiny calculus of growth rates
  ``N^a · (log N)^b`` with exact (fraction-exponent) o/O comparisons, plus
  Lemma 3's run-length bound;
* :mod:`~repro.core.classes` — the classes ST / NST / RST / co-RST /
  LasVegas-RST as first-class objects, with ``contains`` answering from
  the paper's theorems (True, False, or None = open, e.g. DISJOINT-SETS);
* :mod:`~repro.core.theorems` — a registry mapping every numbered result
  to an executable check; ``verify(result_id)`` runs the corresponding
  experiment at a small scale and reports paper-claim vs. measured.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "bounds": ("GrowthRate", "lemma3_bound"),
        "classes": (
            "ClassKind",
            "ComplexityClass",
            "ST",
            "NST",
            "RST",
            "CoRST",
            "LasVegasRST",
            "Containment",
        ),
        "theorems": ("TheoremCheck", "REGISTRY", "verify", "verify_all"),
    },
)
