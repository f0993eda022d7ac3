"""E12 (Lemma 3) — run length vs. N · 2^{O(r(t+s))}.

Paper claim: an (r, s, t)-bounded machine's runs have length (and external
space) at most N · 2^{O(r·(t+s))}.

Measured: run lengths of the library machines across input sizes, the
bound with constant c = 2, and the tightness ratio.
"""

import pytest

from repro.core import lemma3_bound
from repro.machines import (
    copy_machine,
    equality_machine,
    parity_machine,
    run_deterministic,
)
from repro.problems import random_word

from conftest import emit_table


def test_e12_runlength(benchmark, rng):
    rows = []
    cases = []
    for n in (8, 32, 128):
        w = random_word(n, rng)
        cases.append((equality_machine(), f"{w}#{w}", f"equality n={n}"))
        cases.append((copy_machine(), w, f"copy n={n}"))
        cases.append((parity_machine(), w, f"parity n={n}"))
    for machine, word, label in cases:
        run = run_deterministic(machine, word)
        stats = run.statistics
        r = stats.external_scans(machine.external_tapes)
        s = stats.internal_space(machine.external_tapes)
        bound = lemma3_bound(len(word), r, s, machine.external_tapes)
        assert stats.length <= bound
        rows.append(
            (label, len(word), r, s, stats.length, bound if bound < 10**9 else f"2^{bound.bit_length()}")
        )
    table = emit_table(
        "E12 — Lemma 3: run length ≤ N·2^{c·r·(t+s)} (c = 2)",
        ("machine", "N", "r", "s", "run length", "bound"),
        rows,
    )
    benchmark.extra_info["table"] = table

    # run length is linear in N for these machines: far below the bound
    machine = equality_machine()
    w = random_word(64, rng)
    run = benchmark(lambda: run_deterministic(machine, f"{w}#{w}"))
    assert run.accepts(machine)
