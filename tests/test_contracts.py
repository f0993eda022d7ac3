"""Every audit contract under its own claim, enforced, on every kind of
instance it names: one test per (contract, kind) pair of ``CONTRACTS``,
which alone writes the kinds, the claims and the deciders.

A draw must deny nothing, report within the claim and give the reference
decider's answer.  A run that stores internal bits runs again with a ring
buffer, which takes each store's event where the audit's tally takes a
register loop whole: the answer, the report and the count must agree.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from repro.observability.audit import CONTRACTS, run_audit_cell
from repro.observability.sinks import RingBufferSink, TallySink
from tests.settings_profiles import QUICK_SETTINGS

PAIRS = [(spec, kind) for spec in CONTRACTS for kind in spec.kinds]

#: m is a power of two about half the time: only there has a CHECK-φ
#: kind an instance (m must divide 2^n), and its other draws are assumed
#: away.
SIZES = st.integers(0, 33) | st.sampled_from([1, 2, 4, 8, 16, 32])


@pytest.mark.parametrize("spec, kind", PAIRS, ids=[f"{s.name}:{k}" for s, k in PAIRS])
@given(m=SIZES, n=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
@example(m=0, n=0, seed=0)
@example(m=1, n=0, seed=0)
@example(m=4, n=12, seed=0)  # the audit's smallest cell
@example(m=128, n=64, seed=0)  # E1's widest shape
@settings(
    QUICK_SETTINGS,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
def test_within_claim_and_decides(spec, kind, m, n, seed):
    instance = spec.kinds[kind](m, n, random.Random(seed))
    assume(instance is not None)
    claimed = spec.claim(instance)
    tally = TallySink()
    answer, report = spec.run(instance, random.Random(seed), claimed, tally)
    assert tally.denied == 0
    assert report.within(claimed), (report, claimed)
    assert spec.agrees(instance, answer)
    if report.peak_internal_bits:
        ring = RingBufferSink()
        rerun = spec.run(instance, random.Random(seed), claimed, ring)
        assert rerun == (answer, report)
        assert len(ring) + ring.dropped == tally.events
        assert ring.events()[-1] == tally.last


def test_each_claim_is_the_one_checked_in():
    """A claim with slack can lose a scan and still hold every run above:
    at the audit's cells, each claim is the one ``AUDIT_contracts.json``
    records."""
    artifact = Path(__file__).resolve().parent.parent / "AUDIT_contracts.json"
    recorded = json.loads(artifact.read_text())["contracts"]
    assert [contract["name"] for contract in recorded] == [s.name for s in CONTRACTS]
    for spec, contract in zip(CONTRACTS, recorded):
        for check in contract["checks"]:
            cell = run_audit_cell(spec, check["m"], check["n"])
            assert cell.to_json_dict()["claimed"] == check["claimed"], spec.name
