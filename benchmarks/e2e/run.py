"""End-to-end benchmark of ``repro audit`` and the slowest experiments.

Usage::

    python3 benchmarks/e2e/run.py --seed 0                 # all four workloads
    python3 benchmarks/e2e/run.py --workload audit --seed 3 --seconds 16
    python3 benchmarks/e2e/run.py --seed 0 --trace         # per-layer profile
    python3 benchmarks/e2e/run.py --smoke --trace --output out.json

Each workload runs in a fresh child process per round (``child.py``),
serially, one child at a time; in an untraced run there are ``ROUNDS``
rounds and the workload order rotates each round.  Timings are reported
in calibrated seconds (``calibrate.py``).  Every metric is printed by
name with its unit, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every oracle held; a child that crashes ends the run with
code 2 and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import metrics
from workloads import WORKLOADS

#: Fresh child processes per workload in an untraced run.
ROUNDS = 4
#: Whole-run limit: children still running at this point are killed.
DEADLINE_S = 170.0

E2E_DIR = Path(__file__).resolve().parent
ROOT = E2E_DIR.parents[1]


class ChildFailed(RuntimeError):
    pass


def run_child(workload, seed, round_index, seconds, *, traced, smoke, deadline):
    """Run one round in a fresh interpreter; returns its parsed result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # fixed hashing, so set orders (and so call counts) repeat per seed
    env["PYTHONHASHSEED"] = "0"
    # set-up always compiles repro from source, whatever the environment
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [
        sys.executable,
        str(E2E_DIR / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--round", str(round_index),
        "--seconds", repr(seconds),
    ]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} round {round_index}: timed out")
    if proc.returncode != 0:
        raise ChildFailed(
            f"{workload} round {round_index}: child exited {proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibrated(batches):
    """Calibrated per-iteration seconds of a list of batches."""
    return [
        raw * calibrate.factor(batch["spin_before"], batch["spin_after"])
        for batch in batches
        for raw in batch["raw_s"]
    ]


def percentile(samples, q):
    """Nearest-rank percentile ``q`` (0 < q <= 100)."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def outcome(children):
    """Oracle totals over a workload's children."""
    run_failures = [f for child in children for f in child["run_failures"]]
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    return {
        "correct": failed == 0 and not run_failures,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "run_failures": run_failures,
    }


def summarize_timed(children):
    """End-to-end metrics of one workload's untraced rounds."""
    setups = [
        child["setup"]["raw_s"]
        * calibrate.factor(child["setup"]["spin_before"], child["setup"]["spin_after"])
        for child in children
    ]
    samples = [s for child in children for s in calibrated(child["batches"])]
    values = {
        "setup_s": statistics.median(setups),
        "iter_s_p50": statistics.median(samples),
        "peak_rss_mb": statistics.median(child["peak_rss_mb"] for child in children),
    }
    diagnostics = {
        "iter_s_p50_samples": len(samples),
        "iter_s_p90": {"value": percentile(samples, 90), "unit": "s",
                       "samples": len(samples)},
        "setup_s_rounds": setups,
        "oracles": [child["diagnostics"] for child in children],
    }
    return values, diagnostics


def summarize_traced(child):
    """Per-layer metrics of one workload's traced round."""
    profile = child["profile"]
    iters = profile["iterations"]
    total = sum(profile["self_s"].values())
    values = {}
    for layer in metrics.LAYERS:
        values[f"{layer}.self_frac"] = profile["self_s"][layer] / total
    for layer in metrics.LAYERS:
        values[f"{layer}.calls_per_iter"] = profile["calls"][layer] / iters
    for name, count in profile["named"].items():
        values[name] = count / iters
    harness = profile["harness"]
    lookups = harness.get("cache_lookups", 0)
    values["cache.hit_ratio"] = harness.get("cache_hits", 0) / lookups if lookups else 0.0
    values["cache.bytes_read"] = harness.get("cache_bytes_read", 0) / iters
    values["ledger.records"] = harness.get("ledger_records", 0) / iters
    values["ledger.bytes"] = harness.get("ledger_bytes", 0) / iters
    values["trace.overhead_x"] = statistics.median(
        calibrated(child["traced_batches"])
    ) / statistics.median(calibrated(child["batches"]))
    diagnostics = {
        "traced_iterations": iters,
        "self_s": profile["self_s"],
        "chrome_trace": child["chrome_trace"],
        "oracles": [child["diagnostics"]],
    }
    return values, diagnostics


def wall_section(children):
    """Raw seconds and spin times, to get back to wall-clock time."""
    return [
        {
            "round": child["round"],
            "setup": child["setup"],
            "traced_batches": child.get("traced_batches", []),
            "batches": child["batches"],
        }
        for child in children
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of repro audit and the slow experiments."
    )
    parser.add_argument(
        "--workload", action="append", choices=list(WORKLOADS),
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=24.0,
        help="timed seconds per workload, split over the rounds",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: one cProfile round per workload, report per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="one round, one timed iteration, few traced iterations",
    )
    parser.add_argument("--output", help="write the full payload as JSON here")
    args = parser.parse_args(argv)

    names = args.workload or list(WORKLOADS)
    traced = bool(args.trace)
    rounds = 1 if (traced or args.smoke) else ROUNDS
    if args.smoke:
        budget = 0.0
    elif traced:
        budget = args.seconds / 2  # untraced half, for trace.overhead_x
    else:
        budget = args.seconds / rounds
    deadline = time.monotonic() + DEADLINE_S

    children = {name: [] for name in names}
    try:
        for round_index in range(rounds):
            shift = round_index % len(names)
            for name in names[shift:] + names[:shift]:
                children[name].append(
                    run_child(
                        name, args.seed, round_index, budget,
                        traced=traced, smoke=args.smoke, deadline=deadline,
                    )
                )
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    units = {row[0]: row[1] for row in metrics.END_TO_END + metrics.PER_LAYER}
    single = len(names) == 1
    report = {}
    line_metrics = {}
    for name in names:
        if traced:
            values, diagnostics = summarize_traced(children[name][0])
        else:
            values, diagnostics = summarize_timed(children[name])
        result = outcome(children[name])
        report[name] = dict(
            result,
            metrics={k: {"value": v, "unit": units[k]} for k, v in values.items()},
            diagnostics=diagnostics,
            inputs_digest=children[name][0]["inputs_digest"],
            wall=wall_section(children[name]),
        )
        for key, value in values.items():
            print(f"{name:<16} {key:<28} {value:>16.9g} {units[key]}")
        print(f"{name:<16} {'fail_ratio':<28} {result['fail_ratio']:>16.9g} ratio")
        if not traced:
            p90 = diagnostics["iter_s_p90"]
            print(f"{name:<16} {'iter_s_p90':<28} {p90['value']:>16.9g} s "
                  f"(diagnostic, n={p90['samples']})")
        for failure in result["run_failures"]:
            print(f"{name:<16} FAILED: {failure}")
        for key, value in values.items():
            line_metrics[key if single else f"{name}.{key}"] = {
                "value": value, "unit": units[key],
            }

    correct = all(report[name]["correct"] for name in names)
    if args.output:
        payload = {
            "seed": args.seed,
            "trace": args.trace,
            "smoke": args.smoke,
            "seconds": args.seconds,
            "rounds": rounds,
            "calibration": {
                "CAL_REF_S": calibrate.CAL_REF_S,
                "CAL_EXPONENT": calibrate.CAL_EXPONENT,
                "SPIN_LOOPS": calibrate.SPIN_LOOPS,
            },
            "workloads": report,
        }
        Path(args.output).write_text(json.dumps(payload, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(report[name]["attempted"] for name in names),
        "failed": sum(report[name]["failed"] for name in names),
        "metrics": line_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
