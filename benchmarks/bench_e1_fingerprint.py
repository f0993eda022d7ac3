"""E1 (Theorem 8a) — the fingerprinting machine's envelope and error.

Paper claim: MULTISET-EQUALITY ∈ co-RST(2, O(log N), 1) — two sequential
scans of one tape, O(log N) internal bits, equal multisets always
accepted, unequal ones accepted with probability ≤ 1/2.

Measured here: per-(m, n) rows with scans, peak internal bits, the
false-negative count (must be 0) and the false-positive rate (must be
≤ 0.5; in practice ≈ 0).
"""

import pytest

from repro.algorithms import fingerprint_space_budget, multiset_equality_fingerprint
from repro.problems import near_miss_instance, random_equal_instance

from conftest import emit_table

SWEEP = [(8, 16), (32, 16), (128, 16), (128, 64)]
TRIALS = 60


def run_sweep(rng):
    rows = []
    for m, n in SWEEP:
        false_neg = 0
        false_pos = 0
        scans = bits = size = 0
        for _ in range(TRIALS):
            yes = random_equal_instance(m, n, rng)
            res = multiset_equality_fingerprint(yes, rng)
            false_neg += not res.accepted
            scans = max(scans, res.report.scans)
            bits = max(bits, res.report.peak_internal_bits)
            size = yes.size
            no = near_miss_instance(m, n, rng)
            false_pos += multiset_equality_fingerprint(no, rng).accepted
        rows.append(
            (
                m,
                n,
                size,
                scans,
                bits,
                fingerprint_space_budget(size),
                false_neg,
                f"{false_pos}/{TRIALS}",
            )
        )
    return rows


def test_e1_fingerprint(benchmark, rng):
    rows = run_sweep(rng)
    table = emit_table(
        "E1 — Theorem 8(a): co-RST(2, O(log N), 1) fingerprinting",
        ("m", "n", "N", "scans", "bits", "budget", "falseneg", "falsepos"),
        rows,
    )
    benchmark.extra_info["table"] = table

    # shape assertions — the paper's claims
    for m, n, size, scans, bits, budget, false_neg, false_pos in rows:
        assert scans <= 2
        assert bits <= budget
        assert false_neg == 0  # no false negatives, ever
        accepted, trials = map(int, false_pos.split("/"))
        assert accepted / trials <= 0.5
    # O(log N) space: the 8× larger instance uses < 2× the bits
    assert rows[2][4] <= 2 * rows[0][4]
    # the table EXPERIMENTS.md records, exactly, at the fixture's seed:
    # every peak is a charge, so a change to what a scan charges shows
    assert [(bits, false_pos) for _, _, _, _, bits, _, _, false_pos in rows] == [
        (162, "0/60"),
        (209, "0/60"),
        (261, "0/60"),
        (292, "0/60"),
    ]

    # the timed unit: one full fingerprint run at the largest size
    inst = random_equal_instance(128, 64, rng)
    result = benchmark(lambda: multiset_equality_fingerprint(inst, rng))
    assert result.accepted
