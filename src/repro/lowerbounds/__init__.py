"""Lower-bound machinery: sortedness, parameter calculus, adversaries.

This package holds the combinatorial side of the paper's lower-bound proof:

* :mod:`~repro.lowerbounds.permutations` — Definition 19 / Remark 20: the
  ``sortedness`` of a permutation (longest monotone subsequence), the
  Erdős–Szekeres lower bound ``sortedness(π) ≥ √m``, and the reverse-binary
  permutation φ_m with ``sortedness(φ_m) ≤ 2√m − 1``;
* :mod:`~repro.lowerbounds.parameters` — the explicit inequalities of
  Lemma 21 and Lemma 22 relating (r, s, t) to (m, n, k), including the
  thresholds from equations (3) and (4);
* :mod:`~repro.lowerbounds.counting` — skeleton-count formulas (Lemma 32)
  and their comparison against exhaustive enumeration on tiny machines;
* :mod:`~repro.lowerbounds.adversary` — executable attacks: the composition
  attack of Lemma 34 driven end-to-end against concrete list machines, and
  fooling-input constructions for limited-memory streaming baselines.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "permutations": (
            "sortedness",
            "sortedness_bruteforce",
            "phi_permutation",
            "phi_one_based",
            "erdos_szekeres_bound",
            "phi_sortedness_bound",
        ),
        "parameters": (
            "LowerBoundParameters",
            "lemma21_hypotheses",
            "lemma22_thresholds",
            "theorem6_applies",
            "minimal_m_for_machine",
        ),
    },
)
