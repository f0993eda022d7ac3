"""Resource-bounded implementations of the paper's upper bounds.

* :mod:`~repro.algorithms.fingerprint` — Theorem 8(a): the randomized
  multiset-equality test in co-RST(2, O(log N), 1): two sequential scans of
  a single external tape, O(log N) internal bits, never rejects equal
  multisets, accepts unequal ones with probability ≤ 1/2;
* :mod:`~repro.algorithms.mergesort_tape` — the Chen–Yap-style tape merge
  sort behind Corollary 7: O(log N) head reversals on three tapes;
* :mod:`~repro.algorithms.checksort` / :mod:`~repro.algorithms.setequality`
  — the deterministic ST(O(log N), ·, ·) solvers for CHECK-SORT,
  SET-EQUALITY and MULTISET-EQUALITY built on the tape sort;
* :mod:`~repro.algorithms.nondet_verify` — Theorem 8(b): certificate-based
  nondeterministic acceptance, including the paper's guess-many-copies
  certificate format with its backward-scan verifier;
* :mod:`~repro.algorithms.onepass` — deliberately *weak* baselines (single
  scan, tiny internal memory) used as foils in the lower-bound experiments.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "fingerprint": (
            "FingerprintParameters",
            "FingerprintResult",
            "fingerprint_parameters",
            "multiset_equality_fingerprint",
            "amplified_multiset_equality",
            "fingerprint_space_budget",
        ),
        "mergesort_tape": ("tape_merge_sort", "sort_instance_strings"),
        "checksort": ("check_sort_deterministic",),
        "setequality": (
            "multiset_equality_deterministic",
            "set_equality_deterministic",
            "sets_disjoint_deterministic",
        ),
        "nondet_verify": (
            "Certificate",
            "build_certificate",
            "verify_certificate",
            "nondeterministic_accepts",
        ),
        "onepass": (
            "XorSumSketch",
            "ModularSumSketch",
            "one_pass_multiset_test",
        ),
        "fingerprint_bitlevel": ("multiset_equality_fingerprint_bitlevel",),
        "lasvegas": (
            "DONT_KNOW",
            "LasVegasResult",
            "LasVegasSorter",
            "check_sort_via_sorter",
            "las_vegas_success_amplification",
        ),
    },
)
