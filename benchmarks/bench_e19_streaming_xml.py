"""E19 (Theorems 12/13, upper-bound side) — XML queries on token streams.

The lower bounds say the paper's XML queries need Ω(log N) reversals on
streams; the matching upper bound evaluates them by extract + sort +
merge.  Measured: scan counts of the streaming Figure 1 filter and the
streaming Theorem 12 query across a decade sweep, agreement with the DOM
evaluators, and the log-law shape.
"""

import random

import pytest

from repro._util import ceil_log2
from repro.problems import random_equal_instance, random_unequal_instance
from repro.queries.xml import instance_to_document
from repro.queries.xml.streaming import (
    figure1_filter_streaming,
    instance_to_token_tape,
    theorem12_query_streaming,
)
from repro.queries.xpath import figure1_query, matches

from conftest import emit_table

SWEEP = [8, 32, 128, 512]


def _not_contained(m, rng):
    """An instance whose first set has a string the second lacks."""
    while True:
        inst = random_unequal_instance(m, 8, rng)
        if not set(inst.first) <= set(inst.second):
            return inst


def test_e19_streaming_xml(benchmark, rng):
    rows = []
    for m in SWEEP:
        inst = random_equal_instance(m, 8, rng)
        tape, tracker = instance_to_token_tape(inst)
        fig = figure1_filter_streaming(tape, tracker)
        assert fig.answer == matches(figure1_query(), instance_to_document(inst))

        tape2, tracker2 = instance_to_token_tape(inst)
        q12 = theorem12_query_streaming(tape2, tracker2)
        assert q12.answer is True  # equal instance

        # the firing side: X ⊄ Y, drawn apart from the fixture's stream
        # so the table's instances stay put
        no = _not_contained(m, random.Random(f"e19-no:{m}"))
        no_tape, no_tracker = instance_to_token_tape(no)
        assert figure1_filter_streaming(no_tape, no_tracker).answer is True
        assert matches(figure1_query(), instance_to_document(no)) is True

        tokens = len(tape.snapshot())
        rows.append(
            (
                m,
                tokens,
                fig.report.scans,
                q12.report.scans,
                ceil_log2(tokens),
            )
        )

    # no-instances: both evaluators fire/deny consistently
    inst = random_unequal_instance(64, 8, rng)
    tape, tracker = instance_to_token_tape(inst)
    q12 = theorem12_query_streaming(tape, tracker)
    assert q12.answer == (set(inst.first) == set(inst.second))

    table = emit_table(
        "E19 — streaming XML queries: scans vs. stream length",
        ("m", "tokens", "fig1 scans", "Q12 scans", "log2(tokens)"),
        rows,
    )
    benchmark.extra_info["table"] = table

    # the log law, in additive form: each 4× step in m adds the same
    # number of scans (a constant per doubling)
    for col in (2, 3):
        increments = [
            rows[i + 1][col] - rows[i][col] for i in range(len(rows) - 1)
        ]
        assert max(increments) <= 1.5 * min(increments)
        assert max(increments) <= 14 * 4  # ≤ sort constant × log-steps

    inst = random_equal_instance(128, 8, rng)

    def run():
        tape, tracker = instance_to_token_tape(inst)
        return theorem12_query_streaming(tape, tracker)

    result = benchmark(run)
    assert result.answer
