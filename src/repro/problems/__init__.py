"""The paper's decision problems, instance encoding, generators, reductions.

Instances of all problems share one shape (Section 3)::

    v1 # v2 # ... # vm # v'1 # v'2 # ... # v'm #

with ``v_i, v'_i ∈ {0,1}*``.  The input size is
``N = 2m + Σ (|v_i| + |v'_i|)``; when every string has length n,
``N = 2m(n+1)``.

Problems:

* SET-EQUALITY — {v_i} = {v'_i} as sets;
* MULTISET-EQUALITY — as multisets;
* CHECK-SORT — (v'_1, …, v'_m) is the ascending lexicographic sort of
  (v_1, …, v_m);
* CHECK-φ (Lemma 22) — the promise restriction with values drawn from the
  interval family I_φ(1)×…×I_φ(m)×I_1×…×I_m, deciding
  (v_1..v_m) = (v'_φ(1)..v'_φ(m));
* SHORT-* — restrictions to strings of length ≤ c·log m (c ≥ 2);
* SORTING — the function problem (output the sorted sequence);
* DISJOINT-SETS — the paper's open problem (implemented for completeness).
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "encoding": (
            "encode_instance",
            "decode_instance",
            "instance_size",
            "Instance",
        ),
        "definitions": (
            "Problem",
            "SET_EQUALITY",
            "MULTISET_EQUALITY",
            "CHECK_SORT",
            "DISJOINT_SETS",
            "short_variant",
            "check_phi_problem",
            "sort_strings",
            "ALL_PROBLEMS",
        ),
        "instances": (
            "IntervalFamily",
            "random_word",
            "random_words",
            "random_equal_instance",
            "random_unequal_instance",
            "near_miss_instance",
            "random_checksort_instance",
            "CheckPhiFamily",
        ),
        "reductions": ("check_phi_to_short", "short_block_length"),
    },
)
