"""E15 (Lemma 16) — TM runs and their induced list-machine block traces.

Paper claim: every (r, s, t)-bounded TM is simulated by an NLM whose steps
correspond to maximal no-turn no-crossing stretches of the TM run; the
blocks multiply by at most (t+1) per reversal (feeding Lemma 30).

Measured: event counts, turn events = TM reversals, block growth within
the (t+1)^i law, and NLM-step compression (list-machine steps ≪ TM steps).
"""

import pytest

from repro.listmachine.simulate_tm import (
    block_trace,
    blocks_respect_lemma30,
    verify_block_reconstruction,
)
from repro.machines import copy_machine, equality_machine
from repro.problems import random_word

from conftest import emit_table


def test_e15_simulation(benchmark, rng):
    rows = []
    machine = equality_machine()
    for n in (8, 32, 128):
        w = random_word(n, rng)
        word = f"{w}#{w}"
        trace = block_trace(machine, word)
        stats = trace.run.statistics
        tm_revs = sum(stats.reversals_per_tape[: machine.external_tapes])
        turns = sum(1 for e in trace.events if e.kind == "turn")
        assert turns == tm_revs
        assert blocks_respect_lemma30(trace, machine)
        assert verify_block_reconstruction(trace, machine, word)
        rows.append(
            (
                f"equality n={n}",
                stats.length,
                trace.list_machine_steps,
                turns,
                trace.total_blocks(),
            )
        )
    # a reversal-free machine induces a single NLM step
    trace = block_trace(copy_machine(), "0101")
    assert trace.list_machine_steps == 1
    rows.append(("copy n=4", trace.run.statistics.length, 1, 0, trace.total_blocks()))

    # the full simulating machine (actual list surgery) agrees with the
    # trace decomposition and keeps reconstructible, partitioning cells
    from repro.listmachine.simulating_machine import (
        SimulatingListMachine,
        verify_cell_contents,
        verify_cells_partition,
    )

    word = "0110#0110"
    sim = SimulatingListMachine(machine).run(word)
    trace = block_trace(machine, word)
    assert sim.list_machine_steps == trace.list_machine_steps
    assert verify_cells_partition(sim)
    assert verify_cell_contents(sim, machine, word)
    rows.append(
        (
            "equality (full sim)",
            sim.tm_run_length,
            sim.list_machine_steps,
            sum(sim.reversals_per_list),
            sim.max_total_list_length(),
        )
    )

    table = emit_table(
        "E15 — Lemma 16: block traces of TM runs",
        ("machine", "TM steps", "NLM steps", "turns", "blocks"),
        rows,
    )
    benchmark.extra_info["table"] = table

    # compression: NLM steps ≪ TM steps, and both scale linearly here
    assert all(row[2] <= row[1] for row in rows)

    w = random_word(64, rng)
    trace = benchmark(lambda: block_trace(machine, f"{w}#{w}"))
    assert trace.run.accepts(machine)
