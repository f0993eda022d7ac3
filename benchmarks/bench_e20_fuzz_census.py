"""E20 (universality census) — the lemmas over a population of random machines.

The paper's lemmas quantify over all (r, t)-bounded machines; the
hand-built examples probe designed corners.  This census runs a seeded
population of *random* machines (terminating by construction, otherwise
arbitrary) and reports, for each lemma, how many machines satisfy it — the
only acceptable number is all of them — together with tightness quantiles
showing how much slack the bounds carry in the wild.
"""

import pytest

from repro.listmachine import check_run_shape, merge_lemma_holds
from repro.listmachine.random_machines import random_terminating_nlm
from repro.listmachine.run import run_deterministic
from repro.listmachine.simulate_tm import (
    block_trace,
    blocks_respect_lemma30,
    verify_block_reconstruction,
)
from repro.machines import run_deterministic as tm_run
from repro.machines.random_machines import random_terminating_tm
from repro.problems import random_word
from repro.errors import MachineError

from conftest import emit_table

WORDS = frozenset({"00", "01", "10", "11"})
POPULATION = 120


def test_e20_fuzz_census(benchmark, rng):
    rows = []

    # --- random list machines: Lemmas 30/31 and 37 ------------------------
    shape_ok = merge_ok = 0
    tightness = []
    for seed in range(POPULATION):
        nlm = random_terminating_nlm(seed, WORDS, 3, length=6)
        values = [rng.choice(sorted(WORDS)) for _ in range(3)]
        run = run_deterministic(nlm, values)
        r = run.scan_count(nlm)
        report = check_run_shape(run, nlm, r)
        shape_ok += report.all_within
        merge_ok += merge_lemma_holds(run, nlm, r)
        tightness.append(
            report.max_total_list_length / report.list_length_bound
        )
    tightness.sort()
    rows.append(
        (
            "NLM shape (L30/31)",
            f"{shape_ok}/{POPULATION}",
            f"median fill {tightness[len(tightness) // 2]:.1%}",
        )
    )
    rows.append(("NLM merge lemma (L37)", f"{merge_ok}/{POPULATION}", "-"))
    assert shape_ok == POPULATION
    assert merge_ok == POPULATION

    # --- random Turing machines: Lemma 16 block machinery -----------------
    trace_ok = attempted = 0
    for seed in range(POPULATION):
        machine = random_terminating_tm(seed)
        word = random_word(4, rng)
        try:
            trace = block_trace(machine, word)
        except MachineError:
            continue  # generator artifact: head fell off the left end
        attempted += 1
        turns = sum(1 for e in trace.events if e.kind == "turn")
        actual = sum(
            trace.run.statistics.reversals_per_tape[: machine.external_tapes]
        )
        if (
            turns == actual
            and blocks_respect_lemma30(trace, machine)
            and verify_block_reconstruction(trace, machine, word)
        ):
            trace_ok += 1
    rows.append(
        ("TM block traces (L16)", f"{trace_ok}/{attempted}", "rest fell off-tape")
    )
    assert trace_ok == attempted
    assert attempted >= POPULATION // 2  # the generator isn't degenerate

    table = emit_table(
        "E20 — census over random machines (must be unanimous)",
        ("lemma", "satisfied", "notes"),
        rows,
    )
    benchmark.extra_info["table"] = table

    nlm = random_terminating_nlm(7, WORDS, 3, length=6)
    values = ["00", "01", "10"]
    run = benchmark(lambda: run_deterministic(nlm, values))
    assert run.length <= 7
