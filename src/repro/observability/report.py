"""Rollups and regression verdicts: the aggregation layer over ledgers.

Three consumers of durable run records, all behind ``python -m repro
report``:

* :func:`summarize_ledgers` — deterministic rollups of one or more sweep
  ledgers: per-label task/retry/restart tallies, error and cache-source
  tables, and (under a marked ``wall`` section, mirroring the ledger's
  own discipline) latency quantiles and stall counts.  Aggregation is
  order-insensitive and every table is sorted, so parallel sweeps whose
  outcome records landed in completion order still summarize to the same
  bytes.
* :func:`compare_bench` — the noise-aware perf-regression detector:
  generalizes the bench's single top-N gate into per-engine/per-workload
  verdicts.  Each (engine, workload) cell is compared at the largest
  input size present in *both* payloads (a quick smoke run never gets
  judged against a full-sweep baseline's biggest n), against a tolerance
  band ``measured >= tolerance × baseline``; a baseline without a usable
  ``top_n_speedup`` propagates ``baseline_invalid`` instead of vacuously
  passing.  Verdicts are machine-readable: ``ok`` / ``regressed`` /
  ``new`` (no baseline cell) / ``missing`` (baseline cell gone) /
  ``incomparable`` (no shared n).
* :func:`history_record` / :func:`append_history` — one timestamp-free
  snapshot per bench payload appended to ``BENCH_history.jsonl``, so the
  performance trajectory across PRs is a diffable artifact.  Appends are
  idempotent: a record whose canonical line is already present is
  skipped.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple, Union

from ..cache.fingerprint import canonical_json
from .ledger import (
    KIND_CACHE_EVENT,
    KIND_HEARTBEAT,
    KIND_STALL,
    KIND_SWEEP_END,
    KIND_SWEEP_START,
    KIND_TASK_OUTCOME,
    KIND_WORKER_RESTART,
    load_ledger,
)

__all__ = [
    "SUMMARY_SCHEMA",
    "HISTORY_SCHEMA",
    "ROW_METRICS",
    "summarize_ledgers",
    "render_summary",
    "compare_bench",
    "render_comparison",
    "history_record",
    "append_history",
]

SUMMARY_SCHEMA = 1
HISTORY_SCHEMA = 1

#: Latency quantiles reported per sweep label (nearest-rank over the
#: ledger's exact per-task seconds, not histogram buckets).
_QUANTILES = (0.5, 0.9, 0.99)


def _exact_quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted sample."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


# -- ledger summaries ------------------------------------------------------


def summarize_ledgers(
    sources: Iterable[Union[str, Path, Iterable[str]]]
) -> Dict[str, Any]:
    """Deterministic rollup of one or more ledgers, JSON-ready.

    Wall-derived numbers (latency quantiles, stall counts) live under
    each sweep's ``wall`` key — strip those and two rollups of two
    identical runs are equal, the same contract the ledger itself keeps.
    """
    records: List[Dict[str, Any]] = []
    skipped = 0
    for source in sources:
        recs, skip = load_ledger(source)
        records.extend(recs)
        skipped += skip

    sweeps: Dict[str, Dict[str, Any]] = {}
    cache_events: Dict[str, Dict[str, int]] = {}

    def sweep(label: str) -> Dict[str, Any]:
        return sweeps.setdefault(
            label,
            {
                "tasks": 0,
                "completed": 0,
                "failed": 0,
                "retries": 0,
                "worker_restarts": 0,
                "heartbeats": 0,
                "errors": {},
                "sources": {},
                "cache": None,
                "_seconds": [],
                "_stalls": 0,
            },
        )

    for record in records:
        kind = record["kind"]
        label = record.get("label", "?")
        if kind == KIND_SWEEP_START:
            sweep(label)["tasks"] += record.get("tasks") or 0
        elif kind == KIND_TASK_OUTCOME:
            state = sweep(label)
            if record.get("ok"):
                state["completed"] += 1
            else:
                state["failed"] += 1
                error = record.get("error") or {}
                error_kind = error.get("kind", "?")
                state["errors"][error_kind] = (
                    state["errors"].get(error_kind, 0) + 1
                )
            state["retries"] += max(0, record.get("attempts", 1) - 1)
            detail = record.get("detail")
            if isinstance(detail, dict) and "source" in detail:
                source_name = str(detail["source"])
                state["sources"][source_name] = (
                    state["sources"].get(source_name, 0) + 1
                )
            seconds = record.get("wall", {}).get("seconds")
            if isinstance(seconds, (int, float)):
                state["_seconds"].append(float(seconds))
        elif kind == KIND_HEARTBEAT:
            sweep(label)["heartbeats"] += 1
        elif kind == KIND_STALL:
            sweep(label)["_stalls"] += 1
        elif kind == KIND_WORKER_RESTART:
            state = sweep(label)
            state["worker_restarts"] = max(
                state["worker_restarts"], record.get("restarts", 0)
            )
        elif kind == KIND_SWEEP_END:
            state = sweep(label)
            state["worker_restarts"] = max(
                state["worker_restarts"], record.get("worker_restarts", 0)
            )
            if record.get("cache") is not None:
                state["cache"] = record["cache"]
        elif kind == KIND_CACHE_EVENT:
            cell = cache_events.setdefault(
                record.get("entry_kind", "?"),
                {"hit": 0, "miss": 0, "write": 0, "invalid": 0},
            )
            event = record.get("event")
            if event in cell:
                cell[event] += 1

    out_sweeps: Dict[str, Any] = {}
    for label in sorted(sweeps):
        state = sweeps[label]
        seconds = sorted(state.pop("_seconds"))
        stalls = state.pop("_stalls")
        entry: Dict[str, Any] = {
            key: state[key]
            for key in (
                "tasks",
                "completed",
                "failed",
                "retries",
                "worker_restarts",
                "heartbeats",
            )
        }
        if state["errors"]:
            entry["errors"] = dict(sorted(state["errors"].items()))
        if state["sources"]:
            entry["sources"] = dict(sorted(state["sources"].items()))
        if state["cache"] is not None:
            entry["cache"] = state["cache"]
        latency = None
        if seconds:
            latency = {
                "count": len(seconds),
                "sum": round(sum(seconds), 6),
                "max": round(seconds[-1], 6),
            }
            for q in _QUANTILES:
                latency[f"p{int(q * 100)}"] = round(
                    _exact_quantile(seconds, q), 6
                )
        entry["wall"] = {"stalls": stalls, "latency_seconds": latency}
        out_sweeps[label] = entry

    return {
        "schema": SUMMARY_SCHEMA,
        "records": len(records),
        "skipped_lines": skipped,
        "sweeps": out_sweeps,
        "cache_events": {
            kind: cache_events[kind] for kind in sorted(cache_events)
        },
    }


def render_summary(summary: Dict[str, Any]) -> List[str]:
    """Human-readable lines; deterministic for a given summary dict."""
    lines = [
        f"ledger: {summary['records']} records"
        + (
            f" ({summary['skipped_lines']} foreign lines skipped)"
            if summary["skipped_lines"]
            else ""
        )
    ]
    for label, sweep in summary["sweeps"].items():
        lines.append(
            f"  sweep {label}: {sweep['tasks']} tasks, "
            f"{sweep['completed']} ok, {sweep['failed']} failed, "
            f"{sweep['retries']} retries, "
            f"{sweep['worker_restarts']} worker restarts, "
            f"{sweep['heartbeats']} heartbeats"
        )
        if "errors" in sweep:
            errors = ", ".join(
                f"{kind}={count}" for kind, count in sweep["errors"].items()
            )
            lines.append(f"    errors: {errors}")
        if "sources" in sweep:
            sources = ", ".join(
                f"{name}={count}" for name, count in sweep["sources"].items()
            )
            lines.append(f"    served from: {sources}")
        if "cache" in sweep:
            cache = sweep["cache"]
            lines.append(
                "    cache counters: "
                + ", ".join(f"{k}={cache[k]}" for k in sorted(cache))
            )
        wall = sweep.get("wall", {})
        latency = wall.get("latency_seconds")
        if latency is not None:
            quantiles = " ".join(
                f"p{int(q * 100)}={latency[f'p{int(q * 100)}']}"
                for q in _QUANTILES
            )
            lines.append(
                f"    latency (wall): {quantiles} max={latency['max']} "
                f"sum={latency['sum']}s; stalls={wall.get('stalls', 0)}"
            )
    if summary["cache_events"]:
        lines.append("  cache events:")
        for kind, cell in summary["cache_events"].items():
            lines.append(
                f"    {kind}: "
                + ", ".join(f"{k}={cell[k]}" for k in sorted(cell))
            )
    return lines


# -- bench regression detection --------------------------------------------

#: Per-engine speedup metric each engine's rows carry (the reference
#: engine is the denominator and has no ratio of its own).
ROW_METRICS: Dict[str, str] = {
    "streaming": "speedup_vs_reference",
}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _metric_cells(
    rows: Iterable[Dict[str, Any]]
) -> Dict[Tuple[str, str], Dict[int, float]]:
    """``(engine, workload) -> {n: speedup}`` for every comparable row."""
    cells: Dict[Tuple[str, str], Dict[int, float]] = {}
    for row in rows:
        metric = ROW_METRICS.get(row.get("engine"))
        if metric is None or not _is_number(row.get(metric)):
            continue
        key = (row["engine"], str(row.get("machine", "?")))
        cells.setdefault(key, {})[int(row.get("n", 0))] = float(row[metric])
    return cells


def _parallel_env(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The host facts a wall-clock speedup is a function of."""
    return {
        "cpu_count": payload.get("cpu_count"),
        "process_cpu_count": payload.get(
            "process_cpu_count", payload.get("cpu_count")
        ),
        "jobs": payload.get("jobs"),
        "topology": payload.get("topology"),
    }


def _compare_parallel(
    run: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    tolerance: float,
) -> Dict[str, Any]:
    """Verdicts for two ``parallel`` bench payloads (wall-clock sweeps).

    A parallel speedup is a property of the host's core count, not of
    the code, so cells measured on hosts with different core counts are
    ``incomparable`` — never ``regressed``.  The recorded
    ``environment`` block says exactly which facts disagreed.
    """
    run_sweeps = run.get("sweeps") or {}
    base_sweeps = baseline.get("sweeps") or {}
    base_speeds = [
        s.get("speedup")
        for s in base_sweeps.values()
        if _is_number(s.get("speedup"))
    ]
    baseline_invalid = not base_speeds
    run_env = _parallel_env(run)
    base_env = _parallel_env(baseline)
    comparable = (
        not baseline_invalid
        and run_env["cpu_count"] == base_env["cpu_count"]
        and run_env["process_cpu_count"] == base_env["process_cpu_count"]
    )
    rows: List[Dict[str, Any]] = []
    for label in sorted(set(run_sweeps) | set(base_sweeps)):
        row: Dict[str, Any] = {
            "engine": "parallel",
            "workload": label,
            "metric": "speedup",
            "n": "-",
        }
        base_speed = (base_sweeps.get(label) or {}).get("speedup")
        run_speed = (run_sweeps.get(label) or {}).get("speedup")
        if not _is_number(base_speed):
            row.update(
                baseline=None,
                measured=run_speed if _is_number(run_speed) else None,
                floor=None,
                verdict="new",
            )
        elif not _is_number(run_speed):
            row.update(
                baseline=base_speed, measured=None, floor=None,
                verdict="missing",
            )
        elif not comparable:
            row.update(
                baseline=base_speed, measured=run_speed, floor=None,
                verdict="incomparable",
            )
        else:
            floor = round(tolerance * base_speed, 4)
            row.update(
                n="-",
                baseline=base_speed,
                measured=run_speed,
                floor=floor,
                ratio=(
                    round(run_speed / base_speed, 4) if base_speed else None
                ),
                verdict="regressed" if run_speed < floor else "ok",
            )
        rows.append(row)
    run_speeds = [
        s.get("speedup")
        for s in run_sweeps.values()
        if _is_number(s.get("speedup"))
    ]
    top: Dict[str, Any] = {
        "metric": "min_sweep_speedup",
        "baseline": None if baseline_invalid else round(min(base_speeds), 4),
        "measured": round(min(run_speeds), 4) if run_speeds else None,
        "floor": None,
    }
    if baseline_invalid:
        top["verdict"] = "baseline-invalid"
    elif not run_speeds:
        top["verdict"] = "missing"
    elif not comparable:
        top["verdict"] = "incomparable"
    else:
        top["floor"] = round(tolerance * top["baseline"], 4)
        top["verdict"] = (
            "regressed" if top["measured"] < top["floor"] else "ok"
        )
    regressions = [
        f"{row['engine']}/{row['workload']}: {row['metric']} "
        f"{row['measured']} < floor {row['floor']} "
        f"(baseline {row['baseline']}, tolerance {tolerance})"
        for row in rows
        if row["verdict"] == "regressed"
    ]
    return {
        "schema": SUMMARY_SCHEMA,
        "tolerance": tolerance,
        "baseline_invalid": baseline_invalid,
        "environment": {
            "run": run_env,
            "baseline": base_env,
            "comparable": comparable,
        },
        "top": top,
        "rows": rows,
        "regressed": any(row["verdict"] == "regressed" for row in rows),
        "regressions": regressions,
    }


def compare_bench(
    run: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    tolerance: float = 0.8,
) -> Dict[str, Any]:
    """Noise-aware verdicts for a bench payload against a baseline.

    Returns a machine-readable dict: the overall ``top`` gate (the
    quantity every historical baseline records), one row per
    (engine, workload) cell with its own verdict, the ``regressed``
    rollup, and human-readable ``regressions`` strings naming exactly
    what fell below the floor and by how much.  ``baseline_invalid``
    (missing/non-numeric/non-positive ``top_n_speedup``) is propagated
    explicitly — it can never read as a pass.

    ``parallel`` bench payloads (wall-clock serial-vs-parallel sweeps)
    are compared cell-by-cell on their sweep speedups instead, with an
    ``environment`` block recording both hosts' core counts; cells from
    hosts with different core counts come back ``incomparable``, never
    ``regressed`` — a wall-clock ratio measured on a different machine
    is not a regression signal.
    """
    if not 0.0 < tolerance <= 1.0:
        raise ValueError(f"tolerance must be in (0, 1], got {tolerance}")
    if (
        run.get("benchmark") == "parallel"
        or baseline.get("benchmark") == "parallel"
    ):
        return _compare_parallel(run, baseline, tolerance=tolerance)
    base_top = (baseline.get("summary") or {}).get("top_n_speedup")
    baseline_invalid = not _is_number(base_top) or base_top <= 0
    measured_top = (run.get("summary") or {}).get("top_n_speedup")
    top: Dict[str, Any] = {
        "metric": "top_n_speedup",
        "baseline": None if baseline_invalid else base_top,
        "measured": measured_top if _is_number(measured_top) else None,
        "floor": (
            None if baseline_invalid else round(tolerance * base_top, 4)
        ),
    }
    overall_regressed = (
        not baseline_invalid
        and _is_number(measured_top)
        and measured_top < tolerance * base_top
    )
    if baseline_invalid:
        top["verdict"] = "baseline-invalid"
    elif not _is_number(measured_top):
        top["verdict"] = "missing"
    else:
        top["verdict"] = "regressed" if overall_regressed else "ok"

    base_cells = _metric_cells(baseline.get("rows", ()))
    run_cells = _metric_cells(run.get("rows", ()))
    rows: List[Dict[str, Any]] = []
    for key in sorted(set(base_cells) | set(run_cells)):
        engine, workload = key
        row: Dict[str, Any] = {
            "engine": engine,
            "workload": workload,
            "metric": ROW_METRICS[engine],
        }
        base_ns = base_cells.get(key, {})
        run_ns = run_cells.get(key, {})
        common = sorted(set(base_ns) & set(run_ns))
        if not base_ns:
            n = max(run_ns)
            row.update(
                n=n, baseline=None, measured=run_ns[n], floor=None,
                verdict="new",
            )
        elif not run_ns:
            n = max(base_ns)
            row.update(
                n=n, baseline=base_ns[n], measured=None, floor=None,
                verdict="missing",
            )
        elif not common:
            row.update(
                n=None,
                baseline=base_ns[max(base_ns)],
                measured=run_ns[max(run_ns)],
                floor=None,
                verdict="incomparable",
            )
        else:
            # the largest n both payloads measured: the least noisy,
            # most comparable cell (a quick smoke run is never judged
            # against a full sweep's biggest size)
            n = common[-1]
            floor = round(tolerance * base_ns[n], 4)
            measured = run_ns[n]
            row.update(
                n=n,
                baseline=base_ns[n],
                measured=measured,
                floor=floor,
                ratio=(
                    round(measured / base_ns[n], 4) if base_ns[n] else None
                ),
                verdict="regressed" if measured < floor else "ok",
            )
        rows.append(row)

    regressions = [
        f"{row['engine']}/{row['workload']}: {row['metric']} "
        f"{row['measured']} < floor {row['floor']} "
        f"(baseline {row['baseline']} at n={row['n']}, "
        f"tolerance {tolerance})"
        for row in rows
        if row["verdict"] == "regressed"
    ]
    if overall_regressed:
        regressions.append(
            f"overall: top_n_speedup {measured_top} < floor "
            f"{top['floor']} (baseline {base_top}, tolerance {tolerance})"
        )
    return {
        "schema": SUMMARY_SCHEMA,
        "tolerance": tolerance,
        "baseline_invalid": baseline_invalid,
        "top": top,
        "rows": rows,
        "regressed": overall_regressed or any(
            row["verdict"] == "regressed" for row in rows
        ),
        "regressions": regressions,
    }


def render_comparison(comparison: Dict[str, Any]) -> List[str]:
    """Human-readable verdict lines, worst news first."""
    flags = {
        "ok": "ok ",
        "regressed": "REG",
        "new": "new",
        "missing": "gone",
        "incomparable": "?n ",
        "baseline-invalid": "?? ",
    }
    lines = []
    top = comparison["top"]
    env = comparison.get("environment")
    if env is not None and not env["comparable"] and not comparison[
        "baseline_invalid"
    ]:
        lines.append(
            "  note: wall-clock sweeps measured on different hosts "
            f"(run: {env['run']['cpu_count']} cores, baseline: "
            f"{env['baseline']['cpu_count']} cores) — speedup cells are "
            "incomparable, not regressions"
        )
    if comparison["baseline_invalid"]:
        lines.append(
            "  [?? ] baseline invalid: no positive top_n_speedup — "
            "no floor can be anchored (this is NOT a pass)"
        )
    else:
        lines.append(
            f"  [{flags[top['verdict']]:<4}] overall top_n_speedup: "
            f"measured {top['measured']} vs baseline {top['baseline']} "
            f"(floor {top['floor']})"
        )
    for row in comparison["rows"]:
        flag = flags.get(row["verdict"], "?")
        cell = f"{row['engine']}/{row['workload']}"
        if row["verdict"] in ("ok", "regressed"):
            lines.append(
                f"  [{flag:<4}] {cell:<22} n={row['n']:<6} "
                f"{row['metric']}: measured {row['measured']} vs "
                f"baseline {row['baseline']} (floor {row['floor']})"
            )
        else:
            lines.append(
                f"  [{flag:<4}] {cell:<22} {row['metric']}: "
                f"{row['verdict']} (baseline {row['baseline']}, "
                f"measured {row['measured']})"
            )
    verdict = "REGRESSION" if comparison["regressed"] else (
        "baseline-invalid" if comparison["baseline_invalid"] else "ok"
    )
    lines.append(f"  verdict: {verdict}")
    return lines


# -- bench history ---------------------------------------------------------


def history_record(
    payload: Dict[str, Any], *, source: str
) -> Dict[str, Any]:
    """One timestamp-free trajectory point from a bench payload.

    Carries the payload's summary (the engine bench) or its wall-clock
    sweeps block (the parallel bench) — never the raw per-cell rows, so
    the history file stays one compact line per run.
    """
    record: Dict[str, Any] = {
        "schema": HISTORY_SCHEMA,
        "source": source,
        "benchmark": payload.get("benchmark", "unknown"),
        "python": payload.get("python"),
        "summary": payload.get("summary"),
    }
    if record["summary"] is None and "sweeps" in payload:
        record["summary"] = {
            "cpu_count": payload.get("cpu_count"),
            "jobs": payload.get("jobs"),
            "sweeps": payload["sweeps"],
        }
    return record


def append_history(
    path: Union[str, Path], record: Dict[str, Any]
) -> bool:
    """Append ``record`` as one canonical line; idempotent.

    Returns ``True`` when appended, ``False`` when an identical line is
    already present (re-running the same seeding command is a no-op).
    """
    line = canonical_json(record)
    target = Path(path)
    if target.exists():
        existing = target.read_text(encoding="utf-8").splitlines()
        if line in (l.strip() for l in existing):
            return False
        with open(target, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        return True
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(line + "\n")
    return True
