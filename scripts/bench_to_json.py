#!/usr/bin/env python
"""Regenerate BENCH_engine.json — the engine-benchmark trajectory point.

Runs the engine sweep (reference vs. streaming) from
``benchmarks/bench_engine.py`` and writes one row per engine (each row
carries an ``engine`` field, plus derived ``inputs_per_second`` /
``steps_per_second`` throughput) and a summary to JSON, so the speedup
claimed in the repo is reproducible with one command:

    python scripts/bench_to_json.py                 # full sweep
    python scripts/bench_to_json.py --quick         # CI smoke (small n)
    python scripts/bench_to_json.py -o out.json

Bench-regression mode: ``--compare BENCH_engine.json`` checks this run
against the checked-in baseline through
:func:`repro.observability.report.compare_bench`: the overall top-N
speedup gate plus one verdict per (engine, workload) cell, each compared
at the largest input size present in both payloads and judged against
``tolerance × baseline`` (default 0.8 — timing noise on shared runners
makes a tighter bound flaky).  A regression names its culprit on stderr
(which engine, which workload, measured vs. floor); the full verdict
rides in the JSON payload under ``comparison`` and in the exit status,
so CI can surface it non-gatingly as an artifact.  A cell the baseline
lacks comes back ``new``, never as a failure.

Ledger mode: ``--ledger PATH`` journals the sweep (task outcomes,
heartbeats, stalls) to a JSONL sweep ledger; summarize it afterwards
with ``python -m repro report summarize PATH``.

Cache mode: ``--cache DIR`` (or ``$REPRO_CACHE_DIR``) routes each cell's
two-engine correctness cross-check through the content-addressed result
store in :mod:`repro.cache` — a warm rerun re-verifies unchanged cells
without executing a single engine step.  Timings are **never** cached:
every invocation re-measures every cell, cache or not, so the artifact
stays an honest trajectory point.  ``--no-cache`` forces the scratch
path; ``--cache-stats PATH`` dumps the store's disk stats for CI
artifacts.

Parallel mode: ``--jobs N`` dispatches the engine sweep over N worker
processes (cell timings are still taken inside the worker running the
cell) and additionally writes ``BENCH_parallel.json`` — serial vs.
parallel wall-clock for the contract-audit sweep and the engine sweep,
with the host core count.  Purely informational, never gating: speedup
depends on the runner's cores.

No third-party dependencies; stdlib + the repo only.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_engine import (  # noqa: E402  (path setup must come first)
    GATE_MACHINE,
    GATE_SPEEDUP,
    SIZES,
    per_tier_rows,
    run_engine_benchmark,
    top_speedup,
)

QUICK_SIZES = (16, 64)


def with_throughput(rows):
    """Add per-row ``inputs_per_second`` / ``steps_per_second`` fields.

    Derived, never measured separately: ``seconds`` on every engine row is
    wall-clock per input, so its reciprocal is input throughput, and
    rows that carry the run length additionally get engine steps per
    second — the cross-workload normalizer, since a cheaper second on a
    shorter run is not a win.  Rows without a positive timing (or
    without ``run_length``) simply omit the fields.
    """
    out = []
    for r in rows:
        row = dict(r)
        seconds = row.get("seconds")
        if isinstance(seconds, (int, float)) and seconds > 0:
            row["inputs_per_second"] = round(1.0 / seconds, 1)
            run_length = row.get("run_length")
            if isinstance(run_length, (int, float)):
                row["steps_per_second"] = round(run_length / seconds, 1)
        out.append(row)
    return out


def compare_against_baseline(gate, all_rows, baseline, tolerance):
    """The ``--compare`` verdict as a plain dict, testable in isolation.

    This run's ``compare_bench`` verdict
    (:mod:`repro.observability.report`) against ``baseline``.  A
    baseline whose ``top_n_speedup`` is missing, non-numeric or
    non-positive cannot anchor a regression floor (``tolerance × 0 = 0``
    passes any measurement), so it yields ``baseline_invalid: True``, no
    floor and ``regressed: False`` — the caller warns loudly instead of
    silently blessing the run.
    """
    from repro.observability.report import compare_bench

    return compare_bench(
        {"summary": {"top_n_speedup": gate}, "rows": list(all_rows)},
        baseline,
        tolerance=tolerance,
    )


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def parallel_payload(jobs, quick, repeats, sizes):
    """Serial-vs-parallel wall-clock for the audit and engine sweeps.

    The work is identical on both sides (the parallel audit JSON is
    byte-identical to the serial one by construction), so the ratio is a
    pure scheduling measurement.  Recorded, never gated: the speedup is
    a property of the host's core count, not of the code.
    """
    from repro.observability.audit import run_contract_audit

    audit_serial = _timed(lambda: run_contract_audit(quick=quick))
    audit_parallel = _timed(lambda: run_contract_audit(quick=quick, jobs=jobs))
    engine_serial = _timed(
        lambda: run_engine_benchmark(sizes=sizes, repeats=repeats)
    )
    engine_parallel = _timed(
        lambda: run_engine_benchmark(sizes=sizes, repeats=repeats, jobs=jobs)
    )
    return {
        "benchmark": "parallel",
        "description": (
            "wall-clock of the contract-audit sweep and the engine sweep, "
            "serial vs. repro.parallel multiprocess dispatch; results are "
            "bit-identical on both sides, only scheduling differs"
        ),
        "command": f"python scripts/bench_to_json.py --jobs {jobs}"
        + (" --quick" if quick else ""),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "process_cpu_count": getattr(os, "process_cpu_count", os.cpu_count)(),
        "topology": {"executor": "parallel", "jobs": jobs, "shards": None},
        "jobs": jobs,
        "quick": quick,
        "unit": "seconds",
        "sweeps": {
            "audit": {
                "mode": "quick" if quick else "full",
                "serial_seconds": round(audit_serial, 4),
                "parallel_seconds": round(audit_parallel, 4),
                "speedup": round(audit_serial / audit_parallel, 2),
            },
            "engine": {
                "sizes": list(sizes),
                "repeats": repeats,
                "serial_seconds": round(engine_serial, 4),
                "parallel_seconds": round(engine_parallel, 4),
                "speedup": round(engine_serial / engine_parallel, 2),
            },
        },
        "gating": False,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "-o",
        "--output",
        default=str(REPO_ROOT / "BENCH_engine.json"),
        help="output path (default: BENCH_engine.json at the repo root)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small-n smoke sweep (for CI); skips the speedup gate",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="timing repetitions per cell (best-of; default 5)",
    )
    parser.add_argument(
        "--compare",
        metavar="BASELINE_JSON",
        help="compare this run's top-N speedup against a previous payload "
        "(e.g. the checked-in BENCH_engine.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.8,
        help="regression threshold: fail if speedup < tolerance x baseline "
        "(default 0.8)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep (default 1 = serial); with "
        "--jobs > 1 also writes the serial-vs-parallel wall-clock record",
    )
    parser.add_argument(
        "--parallel-output",
        default=str(REPO_ROOT / "BENCH_parallel.json"),
        help="where --jobs > 1 writes the wall-clock record "
        "(default: BENCH_parallel.json at the repo root)",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=os.environ.get("REPRO_CACHE_DIR"),
        help="result-store directory for the correctness cross-checks "
        "(default: $REPRO_CACHE_DIR if set); timings are NEVER cached",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache / $REPRO_CACHE_DIR and verify from scratch",
    )
    parser.add_argument(
        "--cache-stats",
        metavar="PATH",
        help="write the cache's post-run disk stats as JSON (requires "
        "an active cache)",
    )
    parser.add_argument(
        "--ledger",
        metavar="PATH",
        help="append sweep/task records for the benchmark sweep to this "
        "JSONL ledger (read it back with `repro report summarize`)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if not 0.0 < args.tolerance <= 1.0:
        parser.error("--tolerance must be in (0, 1]")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    cache_dir = None if args.no_cache else args.cache
    if args.cache_stats and cache_dir is None:
        parser.error("--cache-stats needs an active --cache directory")

    ledger = None
    if args.ledger:
        from repro.observability.ledger import LedgerWriter

        ledger = LedgerWriter(args.ledger)

    sizes = QUICK_SIZES if args.quick else SIZES
    try:
        rows = run_engine_benchmark(
            sizes=sizes, repeats=args.repeats, jobs=args.jobs,
            cache_dir=cache_dir, ledger=ledger,
        )
    finally:
        if ledger is not None:
            ledger.close()
    if ledger is not None:
        print(
            f"sweep ledger -> {args.ledger} "
            f"({ledger.records_written} records)"
        )
    gate = top_speedup(rows)
    all_rows = with_throughput(per_tier_rows(rows))
    payload = {
        "benchmark": "engine",
        "description": (
            "run_deterministic: reference engine (full configuration "
            "history + post-hoc statistics) vs. streaming engine "
            "(incremental statistics, O(1) memory per step); one row per "
            "engine, keyed by the 'engine' field"
        ),
        "command": "python scripts/bench_to_json.py",
        "python": platform.python_version(),
        "machine_sweep": sorted({r["machine"] for r in rows}),
        "sizes": list(sizes),
        "repeats": args.repeats,
        "unit": "seconds",
        "rows": all_rows,
        "summary": {
            "gate_machine": GATE_MACHINE,
            "gate_speedup_required": GATE_SPEEDUP,
            # streaming over reference — the quantity --compare baselines
            # have always recorded, so old payloads stay comparable
            "top_n_speedup": round(gate, 2),
            "all_cells_verified_identical": all(
                r["verified_identical"] for r in all_rows
            ),
        },
    }
    regressed = False
    if args.compare:
        baseline = json.loads(Path(args.compare).read_text())
        comparison = compare_against_baseline(
            gate, all_rows, baseline, args.tolerance
        )
        payload["comparison"] = dict(comparison, baseline=args.compare)
        regressed = comparison["regressed"]
        if comparison["baseline_invalid"]:
            print(
                f"WARNING: baseline {args.compare} has no positive "
                f"top_n_speedup — the regression floor would be vacuous; "
                f"comparison recorded as baseline_invalid, not as a pass",
                file=sys.stderr,
            )

    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"wrote {args.output}: streaming {gate:.1f}x over reference on "
        f"{GATE_MACHINE}"
    )
    if args.jobs > 1:
        record = parallel_payload(args.jobs, args.quick, args.repeats, sizes)
        Path(args.parallel_output).write_text(
            json.dumps(record, indent=2) + "\n"
        )
        sweeps = record["sweeps"]
        print(
            f"wrote {args.parallel_output}: audit "
            f"{sweeps['audit']['speedup']:.2f}x, engine "
            f"{sweeps['engine']['speedup']:.2f}x at --jobs {args.jobs} "
            f"({record['cpu_count']} cores; informational, non-gating)"
        )
    if args.cache_stats:
        from repro.cache import ResultStore

        stats = ResultStore(cache_dir).stats()
        Path(args.cache_stats).write_text(json.dumps(stats, indent=2) + "\n")
        print(
            f"wrote {args.cache_stats}: {stats['entries']} cache entries "
            f"under {cache_dir}"
        )
    if args.compare:
        comparison = payload["comparison"]
        top = comparison["top"]
        if comparison["baseline_invalid"]:
            print(
                f"compare vs {args.compare}: baseline invalid "
                f"(no positive top_n_speedup) -> no verdict"
            )
        else:
            verdict = "REGRESSION" if regressed else "ok"
            print(
                f"compare vs {args.compare}: baseline "
                f"{top['baseline']:.1f}x, floor {top['floor']:.1f}x "
                f"(tolerance {args.tolerance}) -> {verdict}"
            )
        # name exactly what fell below the floor and by how much —
        # "REGRESSION" with no culprit is not actionable
        for line in comparison["regressions"]:
            print(f"  regression: {line}", file=sys.stderr)
    if regressed:
        return 1
    if not args.quick:
        if gate < GATE_SPEEDUP:
            print(
                f"WARNING: streaming speedup below the {GATE_SPEEDUP}x gate",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
