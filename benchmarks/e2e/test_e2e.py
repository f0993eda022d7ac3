"""Smoke test of the end-to-end benchmark (about 20 s on two cores).

Runs ``run.py --smoke`` three times at once: two traced runs with the
same seed, and one untraced run with another seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

E2E_DIR = Path(__file__).resolve().parent
ROOT = E2E_DIR.parents[1]
sys.path.insert(0, str(E2E_DIR))

import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUNS = {
    "traced_a": ("--seed", "0", "--trace"),
    "traced_b": ("--seed", "0", "--trace"),
    "untraced": ("--seed", "1"),
}


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("e2e")
    procs = {
        name: subprocess.Popen(
            [sys.executable, str(E2E_DIR / "run.py"), "--smoke", *args,
             "--output", str(out_dir / f"{name}.json")],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        for name, args in RUNS.items()
    }
    results = {}
    try:
        for name, proc in procs.items():
            stdout, _ = proc.communicate(timeout=120)
            results[name] = {
                "returncode": proc.returncode,
                "last_line": json.loads(stdout.strip().splitlines()[-1]),
                "payload": json.loads(
                    (out_dir / f"{name}.json").read_text(encoding="utf-8")
                ),
            }
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return results


def test_benchmark_json_matches_the_harness():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in bench["per_layer"]
    ] == [row[:3] for row in metrics.PER_LAYER]
    end_to_end = {row[0] for row in metrics.END_TO_END}
    for _name, _unit, _better, moves in metrics.PER_LAYER:
        assert moves["metric"] in end_to_end
        assert moves["workload"] in WORKLOADS


def test_every_metric_is_reported_with_its_unit(smoke):
    bench = _benchmark_json()
    for run, rows in (("untraced", "end_to_end"), ("traced_a", "per_layer")):
        payload = smoke[run]["payload"]["workloads"]
        for name in WORKLOADS:
            reported = payload[name]["metrics"]
            for row in bench[rows]:
                assert reported[row["name"]]["unit"] == row["unit"], (run, name)
        line = smoke[run]["last_line"]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert len(line["metrics"]) == len(WORKLOADS) * len(bench[rows])


def test_no_operation_fails(smoke):
    for run in RUNS:
        assert smoke[run]["returncode"] == 0
        assert smoke[run]["last_line"]["correct"] is True
        for name, report in smoke[run]["payload"]["workloads"].items():
            assert report["attempted"] >= 1
            assert report["fail_ratio"] == 0, (run, name)


def test_self_time_fractions_sum_to_one(smoke):
    for name, report in smoke["traced_a"]["payload"]["workloads"].items():
        fractions = [
            report["metrics"][f"{layer}.self_frac"]["value"]
            for layer in metrics.LAYERS
        ]
        assert sum(fractions) == pytest.approx(1.0, abs=1e-6), name


def test_traced_counts_repeat_for_a_seed(smoke):
    a = smoke["traced_a"]["payload"]["workloads"]
    b = smoke["traced_b"]["payload"]["workloads"]
    for name in WORKLOADS:
        counts_a = {
            key: value["value"]
            for key, value in a[name]["metrics"].items()
            if not key.endswith(".self_frac") and key != "trace.overhead_x"
        }
        counts_b = {key: b[name]["metrics"][key]["value"] for key in counts_a}
        assert counts_a == counts_b, name


def test_inputs_follow_the_seed(smoke):
    seed0 = smoke["traced_a"]["payload"]["workloads"]
    seed0_again = smoke["traced_b"]["payload"]["workloads"]
    seed1 = smoke["untraced"]["payload"]["workloads"]
    for name in WORKLOADS:
        assert seed0[name]["inputs_digest"] == seed0_again[name]["inputs_digest"]
    for name in ("fingerprint_mc", "xpath_protocol"):
        assert seed0[name]["inputs_digest"] != seed1[name]["inputs_digest"]
    # the audit's cells seed themselves from their coordinates
    for name in ("audit", "audit_warm"):
        assert seed0[name]["inputs_digest"] == seed1[name]["inputs_digest"]
