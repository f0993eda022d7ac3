#!/usr/bin/env python
"""Tape merge sort: watching the Θ(log N) reversal law.

Corollary 7's upper bound rests on sorting with O(log N) head reversals
(Chen & Yap).  This script sorts growing inputs on the record-tape
runtime and prints the measured reversal counts next to the log₂ m curve
— and contrasts them with the fingerprinting machine, which needs only a
single reversal but answers a weaker (one-sided, multiset-only) question.

    python examples/sorting_tapes.py
"""

import random

from repro._util import ceil_log2
from repro.algorithms import (
    multiset_equality_fingerprint,
    sort_instance_strings,
)
from repro.problems import random_equal_instance, random_word

rng = random.Random(7)


def main() -> None:
    print(f"{'m':>6} | {'reversals':>9} | {'log2(m)':>7} | ratio")
    print("-" * 42)
    for log_m in range(4, 13):
        m = 2**log_m
        words = [random_word(16, rng) for _ in range(m)]
        out, tracker = sort_instance_strings(words)
        assert out == sorted(words)
        reversals = tracker.reversals
        print(
            f"{m:>6} | {reversals:>9} | {log_m:>7} | "
            f"{reversals / log_m:>5.1f}"
        )

    print()
    print("fingerprinting the same workloads (Theorem 8a):")
    print(f"{'m':>6} | {'scans':>5} | {'internal bits':>13}")
    print("-" * 32)
    for log_m in (4, 8, 12):
        m = 2**log_m
        inst = random_equal_instance(m, 16, rng)
        result = multiset_equality_fingerprint(inst, rng)
        assert result.accepted
        print(
            f"{m:>6} | {result.report.scans:>5} | "
            f"{result.report.peak_internal_bits:>13}"
        )
    print()
    print(
        "sorting pays Θ(log N) reversals for a deterministic exact answer; "
        "the fingerprint pays one reversal and O(log N) bits for a "
        "one-sided randomized answer — the paper proves both are optimal."
    )


if __name__ == "__main__":
    main()
