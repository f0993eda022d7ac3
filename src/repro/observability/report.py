"""Rollups and regression verdicts: the aggregation layer over run records.

Three consumers of durable run records, all behind ``python -m repro
report``:

* :func:`summarize_ledgers` — deterministic rollups of one or more sweep
  ledgers: per-label task tallies, cache-source tables, and (under a
  marked ``wall`` section, mirroring the ledger's own discipline) latency
  quantiles of the per-task seconds.  Aggregation is order-insensitive
  and every table is sorted, so ledgers given in any order summarize to
  the same bytes.
* :func:`compare_bench` — the verdict on a change, from
  ``benchmarks/e2e/run.py --output`` payloads taken in alternating
  pairs: per workload and end-to-end metric of ``BENCHMARK.json``, each
  side's median and quartiles, pairs won, and one of ``regressed`` /
  ``unresolved`` / ``gain`` / ``ok`` under the metric's bound; a larger
  failure share is ``regressed`` too.
* :func:`history_record` / :func:`append_history` — one timestamp-free
  line per e2e payload appended to ``BENCH_e2e.jsonl``, so the
  performance trajectory across changes is a diffable artifact.  Appends
  are idempotent: a record whose canonical line is already present is
  skipped.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Set, Tuple, Union

from ..cache.fingerprint import canonical_json
from .ledger import (
    KIND_CACHE_EVENT,
    KIND_SWEEP_END,
    KIND_SWEEP_START,
    KIND_TASK_OUTCOME,
    load_ledger,
)

__all__ = [
    "SUMMARY_SCHEMA",
    "HISTORY_SCHEMA",
    "summarize_ledgers",
    "render_summary",
    "compare_bench",
    "render_comparison",
    "history_record",
    "append_history",
]

SUMMARY_SCHEMA = 1
HISTORY_SCHEMA = 2

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

    Wall-derived numbers (latency quantiles) live under each sweep's
    ``wall`` key — strip those and two rollups of two
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
                "sources": {},
                "cache": None,
                "_seconds": [],
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
            detail = record.get("detail")
            if isinstance(detail, dict) and "source" in detail:
                source_name = str(detail["source"])
                state["sources"][source_name] = (
                    state["sources"].get(source_name, 0) + 1
                )
            seconds = record.get("wall", {}).get("seconds")
            if isinstance(seconds, (int, float)):
                state["_seconds"].append(float(seconds))
        elif kind == KIND_SWEEP_END:
            if record.get("cache") is not None:
                sweep(label)["cache"] = record["cache"]
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
        entry: Dict[str, Any] = {
            key: state[key] for key in ("tasks", "completed", "failed")
        }
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
        entry["wall"] = {"latency_seconds": latency}
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
            f"{sweep['completed']} ok, {sweep['failed']} failed"
        )
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
        latency = sweep.get("wall", {}).get("latency_seconds")
        if latency is not None:
            quantiles = " ".join(
                f"p{int(q * 100)}={latency[f'p{int(q * 100)}']}"
                for q in _QUANTILES
            )
            lines.append(
                f"    latency (wall): {quantiles} max={latency['max']} "
                f"sum={latency['sum']}s"
            )
    if summary["cache_events"]:
        lines.append("  cache events:")
        for kind, cell in summary["cache_events"].items():
            lines.append(
                f"    {kind}: "
                + ", ".join(f"{k}={cell[k]}" for k in sorted(cell))
            )
    return lines


# -- end-to-end comparison -------------------------------------------------


def _workloads(payload: Any, label: str) -> Dict[str, Any]:
    """The per-workload block of a ``benchmarks/e2e/run.py --output`` payload."""
    workloads = payload.get("workloads") if isinstance(payload, dict) else None
    if not isinstance(workloads, dict):
        raise ValueError(
            f"{label} is not a benchmarks/e2e/run.py --output payload "
            "(no workloads)"
        )
    return workloads


def _names(payloads: Sequence[Any], side: str) -> Set[str]:
    """Every workload some payload of one side ran."""
    return {
        name
        for index, payload in enumerate(payloads, 1)
        for name in _workloads(payload, f"{side} payload {index}")
    }


def _metric_values(
    payloads: Sequence[Any], side: str, workload: str, metric: str
) -> List[float]:
    """One value of ``workload``'s ``metric`` per payload, in order."""
    values = []
    for index, payload in enumerate(payloads, 1):
        label = f"{side} payload {index}"
        entry = _workloads(payload, label).get(workload)
        try:
            value = entry["metrics"][metric]["value"]
        except (KeyError, TypeError):
            raise ValueError(
                f"{label} has no end-to-end metric {workload}.{metric} "
                "(a traced run has none)"
            ) from None
        # a NaN or infinite value compares false both ways, and a negative
        # median turns the bound around: either would pass vacuously
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
            or value < 0
        ):
            raise ValueError(
                f"{label}: {workload}.{metric} is not a finite number >= 0: "
                f"{value!r}"
            )
        values.append(float(value))
    return values


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three of its quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _failures(
    payloads: Sequence[Any], side: str, workload: str
) -> Dict[str, int]:
    """Pooled oracle tallies of ``workload`` over one side's payloads."""
    failed = attempted = 0
    for index, payload in enumerate(payloads, 1):
        entry = _workloads(payload, f"{side} payload {index}")[workload]
        try:
            failed += int(entry["failed"])
            attempted += int(entry["attempted"])
        except (KeyError, TypeError, ValueError):
            raise ValueError(
                f"{side} payload {index}: {workload} has no failed/attempted "
                "tallies"
            ) from None
    return {"failed": failed, "attempted": attempted}


def _judge(
    run: Sequence[float], baseline: Sequence[float], bound: float, sign: float
) -> Dict[str, Any]:
    """Apply the pairs rule to one workload × metric.

    ``sign`` is 1 when lower is better and -1 when higher is better, so
    ``sign × (a − b) > 0`` reads "a is worse than b".  The rules, in
    order: ``regressed`` when the run's median is worse than the
    baseline's by more than ``bound`` × the baseline's median;
    ``unresolved`` when the baseline's interquartile range is wider than
    that, unless every run is better than every baseline run; ``gain``
    with at least 10 pairs, at least 9 in 10 of them won (ties count for
    neither side) and the medians apart by more than the baseline's
    interquartile range; otherwise ``ok``.
    """
    base_q1, base_median, base_q3 = _quartiles(baseline)
    run_q1, run_median, run_q3 = _quartiles(run)
    spread = base_q3 - base_q1
    pairs = len(run)
    won = sum(sign * (b - r) > 0 for r, b in zip(run, baseline))
    lost = sum(sign * (r - b) > 0 for r, b in zip(run, baseline))
    every_run_better = max(sign * r for r in run) < min(
        sign * b for b in baseline
    )
    if sign * (run_median - base_median) > bound * base_median:
        verdict = "regressed"
    elif spread > bound * base_median and not every_run_better:
        verdict = "unresolved"
    elif (
        pairs >= 10
        and 10 * won >= 9 * pairs
        and sign * (base_median - run_median) > spread
    ):
        verdict = "gain"
    else:
        verdict = "ok"
    return {
        "run": {"q1": run_q1, "median": run_median, "q3": run_q3},
        "baseline": {"q1": base_q1, "median": base_median, "q3": base_q3},
        "change": (
            (run_median - base_median) / base_median if base_median else None
        ),
        "baseline_iqr": spread / base_median if base_median else None,
        "pairs": pairs,
        "won": won,
        "lost": lost,
        "verdict": verdict,
    }


def compare_bench(
    runs: Sequence[Any],
    baselines: Sequence[Any],
    end_to_end: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Judge ``benchmarks/e2e/run.py --output`` payloads against a baseline.

    ``runs[i]`` and ``baselines[i]`` make pair i (run them alternately,
    so each pair saw the same host).  ``end_to_end`` is
    ``BENCHMARK.json``'s list of end-to-end metrics, each with its
    ``name``, ``unit``, ``better`` direction and ``bound``.  Every
    workload both sides ran gets one row per metric (see :func:`_judge`
    for the rule) and a failure row: a larger pooled
    ``failed``/``attempted`` share in the runs is ``regressed``.
    Workloads on one side only are listed, not judged.

    Raises :class:`ValueError` on unusable input: unequal payload
    counts, a payload that lacks a compared workload's end-to-end metric
    (a traced run has none), a compared value that is not a finite
    number >= 0, no workload in common, or a metric whose direction or
    bound cannot be read.
    """
    if len(runs) != len(baselines) or not runs:
        raise ValueError(
            f"{len(runs)} run payloads against {len(baselines)} baseline "
            "payloads: run i pairs with baseline i"
        )
    if not end_to_end:
        raise ValueError("no end-to-end metrics to judge")
    for metric in end_to_end:
        bound = metric.get("bound")
        if (
            not isinstance(metric.get("name"), str)
            or metric.get("better") not in ("lower", "higher")
            or isinstance(bound, bool)
            or not isinstance(bound, (int, float))
            or bound < 0
        ):
            raise ValueError(
                f"end-to-end metric {metric!r} needs a name, better "
                "'lower' or 'higher', and a bound >= 0"
            )
    run_names = _names(runs, "run")
    base_names = _names(baselines, "baseline")
    common = sorted(run_names & base_names)
    if not common:
        raise ValueError("the runs and the baselines share no workload")
    rows: List[Dict[str, Any]] = []
    failures: List[Dict[str, Any]] = []
    for workload in common:
        for metric in end_to_end:
            name = metric["name"]
            row = _judge(
                _metric_values(runs, "run", workload, name),
                _metric_values(baselines, "baseline", workload, name),
                float(metric["bound"]),
                1.0 if metric["better"] == "lower" else -1.0,
            )
            rows.append(
                dict(
                    row,
                    workload=workload,
                    metric=name,
                    unit=metric.get("unit", ""),
                    better=metric["better"],
                    bound=metric["bound"],
                )
            )
        run_tally = _failures(runs, "run", workload)
        base_tally = _failures(baselines, "baseline", workload)
        # the pooled shares, compared as exact cross-products
        worse = (
            run_tally["failed"] * base_tally["attempted"]
            > base_tally["failed"] * run_tally["attempted"]
        )
        failures.append(
            {
                "workload": workload,
                "run": run_tally,
                "baseline": base_tally,
                "verdict": "regressed" if worse else "ok",
            }
        )
    return {
        "schema": SUMMARY_SCHEMA,
        "pairs": len(runs),
        "rows": rows,
        "failures": failures,
        "only_run": sorted(run_names - base_names),
        "only_baseline": sorted(base_names - run_names),
        "regressed": any(
            item["verdict"] == "regressed" for item in rows + failures
        ),
    }


def render_comparison(comparison: Dict[str, Any]) -> List[str]:
    """Human-readable lines: per workload, one per metric and its failures."""

    def side(stats: Dict[str, float]) -> str:
        return f"{stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}]"

    def share(value: Any, spec: str) -> str:
        return "n/a" if value is None else format(value, spec)

    lines = [
        f"  {comparison['pairs']} pair(s); each side's median [q1, q3]; "
        "bound and baseline IQR as shares of the baseline median"
    ]
    for item in comparison["failures"]:
        for row in comparison["rows"]:
            if row["workload"] != item["workload"]:
                continue
            lines.append(
                f"  {row['workload']:<15} {row['metric']:<12} "
                f"baseline {side(row['baseline'])}  run {side(row['run'])} "
                f"{row['unit']}  change {share(row['change'], '+.1%')}  "
                f"bound {row['bound']:.0%}  "
                f"baseline IQR {share(row['baseline_iqr'], '.1%')}  "
                f"won {row['won']}/{row['pairs']} lost {row['lost']}  "
                f"{row['verdict']}"
            )
        lines.append(
            f"  {item['workload']:<15} {'failures':<12} baseline "
            f"{item['baseline']['failed']}/{item['baseline']['attempted']}  "
            f"run {item['run']['failed']}/{item['run']['attempted']}  "
            f"{item['verdict']}"
        )
    for key, where in (("only_run", "runs"), ("only_baseline", "baselines")):
        for workload in comparison[key]:
            lines.append(f"  {workload:<15} only in the {where}: not judged")
    tally: Dict[str, int] = {}
    for row in comparison["rows"]:
        tally[row["verdict"]] = tally.get(row["verdict"], 0) + 1
    counts = ", ".join(f"{tally[v]} {v}" for v in sorted(tally))
    verdict = "REGRESSION" if comparison["regressed"] else "no regression"
    lines.append(f"  verdict: {verdict} ({counts})")
    return lines


# -- the benchmark history -------------------------------------------------


def history_record(payload: Any, *, source: str) -> Dict[str, Any]:
    """One timestamp-free trajectory point from an e2e payload.

    Keeps the run's settings and, per workload, the oracle tallies, the
    inputs digest and every metric's value.  The diagnostics and the
    raw ``wall`` section are dropped, so the line stays compact and the
    same payload always yields the same line.
    """
    workloads = _workloads(payload, source)
    return {
        "schema": HISTORY_SCHEMA,
        "source": source,
        **{
            key: payload.get(key)
            for key in ("seed", "trace", "smoke", "seconds", "rounds",
                        "calibration")
        },
        "workloads": {
            name: {
                "attempted": entry.get("attempted"),
                "failed": entry.get("failed"),
                "inputs_digest": entry.get("inputs_digest"),
                "metrics": {
                    metric: value.get("value")
                    for metric, value in (entry.get("metrics") or {}).items()
                },
            }
            for name, entry in workloads.items()
        },
    }


def append_history(
    path: Union[str, Path], record: Dict[str, Any]
) -> bool:
    """Append ``record`` as one canonical line; idempotent.

    Returns ``True`` when appended, ``False`` when an identical line is
    already present (re-running the same seeding command is a no-op).
    A last line without its newline is ended first, so the record
    always starts a line of its own.
    """
    line = canonical_json(record)
    target = Path(path)
    existing = target.read_text(encoding="utf-8") if target.exists() else ""
    if line in (l.strip() for l in existing.splitlines()):
        return False
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "a", encoding="utf-8") as handle:
        if existing and not existing.endswith("\n"):
            handle.write("\n")
        handle.write(line + "\n")
    return True
