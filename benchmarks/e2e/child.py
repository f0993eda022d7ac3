"""One benchmark round of one workload, in a fresh process.

``run.py`` starts this script once per (workload, round) and reads the
single JSON line it prints.  The child sets up (its clock starts before
any ``repro`` import), runs one untimed warm-up iteration, then timed
batches; a fixed spin brackets every batch (see ``calibrate.py``).  All
numbers leave the child raw: ``run.py`` applies the calibration.

In a traced round a fixed number of iterations runs under cProfile
first, so the profile's call counts repeat exactly for a seed, and then
untraced batches run for the time budget, so the profiler's overhead can
be measured in the same process.  Spans the harness records around its
own calls are kept in memory and written as Chrome trace JSON at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import os
import pstats
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import metrics
from workloads import WORKLOADS

#: Target length of one batch: long enough that the two ~20 ms spins
#: around it cost a few percent, short enough to follow host drift.
BATCH_S = 1.0

ROOT = Path(__file__).resolve().parents[2]
WORK_DIR = ROOT / ".bench_build" / "e2e"


class Spans:
    """Harness spans, kept in memory and exported as Chrome trace JSON."""

    def __init__(self) -> None:
        self.records = []
        self._stack = [0]
        self._next_id = 1

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "harness"):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append((span_id, parent, name, layer, start, end))

    def write_chrome(self, path: Path) -> None:
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": os.getpid(),
                "tid": 0,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, parent, name, layer, start, end in self.records
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")
        os.replace(tmp, path)


class NullSpans:
    """Untraced rounds record nothing."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str, layer: str = "harness"):
        return self._NULL


class Tally:
    """Oracle outcomes and per-iteration counts over a child's iterations."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.counts = {}

    def record(self, i: int, result, *, count: bool = False) -> None:
        self.attempted += 1
        self.failed += not self.workload.check(i, result)
        if count:
            for key, value in self.workload.counts(result).items():
                self.counts[key] = self.counts.get(key, 0) + value


def run_batches(workload, spans, tally, first, *, count=None, budget=None, profiler=None):
    """Run batches from iteration ``first``; returns (batches, next index).

    Stops after ``count`` iterations, or once the next iteration would
    likely end past ``budget`` seconds (at least one iteration runs).
    """
    batches = []
    i = first
    done = 0
    started = time.perf_counter()
    spin_before = calibrate.spin()
    finished = False
    while not finished:
        raw = []
        batch_start = time.perf_counter()
        with spans.span("batch"):
            while True:
                with spans.span("iteration"):
                    t0 = time.perf_counter()
                    if profiler is not None:
                        profiler.enable()
                    result = workload.iterate(i, spans)
                    if profiler is not None:
                        profiler.disable()
                    elapsed = time.perf_counter() - t0
                raw.append(elapsed)
                tally.record(i, result, count=profiler is not None)
                i += 1
                done += 1
                now = time.perf_counter()
                if count is not None:
                    finished = done >= count
                else:
                    finished = now - started + elapsed > budget
                if finished or now - batch_start >= BATCH_S:
                    break
        spin_after = calibrate.spin()
        batches.append(
            {"spin_before": spin_before, "spin_after": spin_after, "raw_s": raw}
        )
        spin_before = spin_after
    return batches, i


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    spin_setup_before = calibrate.spin()
    setup_start = time.perf_counter()
    workload = WORKLOADS[args.workload]()
    spans = Spans() if args.traced else NullSpans()
    tally = Tally(workload)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        with spans.span("child"):
            with spans.span("setup"):
                import repro

                package = Path(repro.__file__).resolve().parent
                if package != ROOT / "src" / "repro":
                    raise RuntimeError(
                        f"imported repro from {package}, not from this checkout"
                    )
                workload.setup(ROOT, workdir, args.seed, args.round, spans)
                if not args.smoke:
                    with spans.span("warm-up"):
                        tally.record(0, workload.iterate(0, spans))
            setup_raw = time.perf_counter() - setup_start

            result = {
                "workload": args.workload,
                "seed": args.seed,
                "round": args.round,
                "setup": {
                    "raw_s": setup_raw,
                    "spin_before": spin_setup_before,
                },
            }
            first = 1
            if args.traced:
                profiler = cProfile.Profile()
                iters = workload.smoke_trace_iters if args.smoke else workload.trace_iters
                result["traced_batches"], first = run_batches(
                    workload, spans, tally, first, count=iters, profiler=profiler
                )
                self_s, calls, named = metrics.fold(pstats.Stats(profiler).stats)
                result["profile"] = {
                    "iterations": iters,
                    "self_s": self_s,
                    "calls": calls,
                    "named": named,
                    "harness": tally.counts,
                }
            result["batches"], _ = run_batches(
                workload, spans, tally, first, budget=args.seconds
            )
        result["setup"]["spin_after"] = result[
            "traced_batches" if args.traced else "batches"
        ][0]["spin_before"]
        result["attempted"] = tally.attempted
        result["failed"] = tally.failed
        result["run_failures"] = workload.run_failures()
        result["diagnostics"] = workload.diagnostics()
        result["inputs_digest"] = workload.inputs_digest()
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        if args.traced:
            chrome = WORK_DIR / f"chrome-{args.workload}-seed{args.seed}.json"
            spans.write_chrome(chrome)
            result["chrome_trace"] = str(chrome.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
