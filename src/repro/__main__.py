"""``python -m repro``: re-verify the paper; ``audit``/``trace``: observability.

With no arguments, runs the theorem registry at small scale and prints a
one-line verdict per numbered result — a smoke test of the whole
reproduction that runs in well under a second.  Exit status is nonzero
if any check fails.

``python -m repro audit [--quick] [--output PATH] [-v] [--cache DIR]``
runs the contract-audit harness instead: every upper-bound algorithm is
swept across decades of N under an instrumented tracker, and the measured
``(scans, peak_internal_bits, tapes_used)`` is checked against the claimed
(r, s, t) envelope at every size.  The full record is written as JSON
(default ``AUDIT_contracts.json``); exit status is nonzero if any measured
envelope escapes its claim, the event stream disagrees with the counters,
enforcement denied a charge, or an algorithm answered otherwise than its
reference decider (an error: no record is written).  With ``--cache DIR`` (or
``$REPRO_CACHE_DIR``) sweep cells are memoized in the content-addressed
result store of :mod:`repro.cache`: a warm rerun writes the same bytes
without re-running a single check, and ``--no-cache`` forces the scratch
path.  ``--ledger PATH`` journals the sweep.  Every command runs in
this one process: the whole audit's work (about 50 ms) is less than a
process pool costs to start.

``python -m repro report {summarize,compare,history,strip}`` works the
observability artifacts: ``summarize`` rolls one or more sweep ledgers
(written by ``audit --ledger``) into a deterministic per-sweep digest,
``compare`` judges ``benchmarks/e2e/run.py --output`` payloads of a
change against payloads of its parent, pair by pair, under the bounds
``BENCHMARK.json`` in the working directory sets (exit 1 on a
regression, 2 on unusable input), ``history`` appends timestamp-free
payload summaries to ``BENCH_e2e.jsonl``, and ``strip`` projects a
ledger down to the deterministic lines the CI determinism gate diffs.

``python -m repro cache {stats,gc,verify} --dir DIR`` administers a
result store: ``stats`` prints disk-derived entry counts, ``gc`` drops
quarantined/stale/unparseable files, and ``verify`` recomputes a seeded
sample of entries from their provenance stamps and diffs the canonical
bytes against what is stored.

``python -m repro trace <algorithm|machine> [--n N] [--chrome out.json]
[--jsonl out.jsonl] [--trials T]`` runs one target under an
:class:`~repro.observability.trace.EngineProbe` and prints its span
timeline: one line per phase with its reversals (in total and per tape),
steps, internal bits and denials, folded from the whole event stream
however long the run.  ``--chrome`` writes Chrome trace-event JSON (open
in Perfetto or chrome://tracing); ``--jsonl`` streams every resource
event into one file as the run emits it and appends the span records at
the end.  Targets are the audit contract names (``fingerprint``,
``onepass``, ...) and the machine-library machines (``equality``,
``coin-flip``, ...); randomized machines are traced through
``acceptance_probability``'s branch exploration instead of a single run,
with the size of its configuration DAG printed, and ``--trials`` adds a
Monte Carlo estimate next to the exact DP (randomized machines only).
"""

from __future__ import annotations

import argparse
import os
import sys

from ._version import __version__


def _cmd_verify() -> int:
    from .core import verify_all

    print(
        f"repro {__version__} — Grohe/Hernich/Schweikardt PODS'06, "
        "executable reproduction"
    )
    print("re-verifying every registered result at small scale:\n")
    checks = verify_all()
    width = max(len(c.result_id) for c in checks)
    failures = 0
    for check in checks:
        flag = "ok " if check.passed else "FAIL"
        failures += not check.passed
        print(f"  [{flag}] {check.result_id:<{width}}  {check.measured}")
    print(
        f"\n{len(checks) - failures}/{len(checks)} results verified"
        + ("" if failures == 0 else f" — {failures} FAILED")
    )
    return 1 if failures else 0


def _cmd_audit(
    quick: bool,
    output: str,
    verbose: bool,
    cache_dir: "str | None" = None,
    cache_stats: "str | None" = None,
    ledger_path: "str | None" = None,
) -> int:
    from .observability.audit import run_contract_audit, write_audit_json

    ledger = None
    if ledger_path is not None:
        from .observability.ledger import LedgerWriter

        ledger = LedgerWriter(ledger_path)

    cache = None
    if cache_dir is not None:
        from .cache import ResultStore

        cache = ResultStore(cache_dir, ledger=ledger)

    mode = "quick" if quick else "full"
    cached = f", cache at {cache_dir}" if cache is not None else ""

    print(
        f"repro {__version__} — contract audit ({mode} sweep{cached}): "
        "measured (scans, bits, tapes) vs. claimed envelopes\n"
    )
    try:
        run = run_contract_audit(quick=quick, cache=cache, ledger=ledger)
    finally:
        if ledger is not None:
            ledger.close()
    for line in run.summary_lines():
        print(line)
    if verbose:
        print()
        for contract in run.contracts:
            for check in contract.checks:
                flag = "ok " if check.ok else "FAIL"
                print(
                    f"  [{flag}] {contract.name:<22} N={check.input_size:<7} "
                    f"scans {check.report.scans}/{check.claimed.max_scans}  "
                    f"bits {check.report.peak_internal_bits}"
                    f"/{check.claimed.max_internal_bits}  "
                    f"tapes {check.report.tapes_used}/{check.claimed.max_tapes}"
                    f"  events={check.events}"
                )
    write_audit_json(run, output)
    total = sum(len(c.checks) for c in run.contracts)
    print(
        f"\n{total} contract checks across {len(run.contracts)} algorithms "
        f"-> {output}: " + ("ALL WITHIN CLAIMED ENVELOPES" if run.ok else "VIOLATIONS FOUND")
    )
    if cache is not None:
        counters = cache.counter_snapshot()
        print(
            f"cache: {counters['hits']} hits, {counters['misses']} misses, "
            f"{counters['writes']} writes, {counters['invalid']} invalid"
        )
        if cache_stats:
            import json as _json

            with open(cache_stats, "w") as handle:
                _json.dump(counters, handle, indent=2)
                handle.write("\n")
            print(f"cache counters -> {cache_stats}")
    if ledger is not None:
        print(
            f"sweep ledger -> {ledger_path} "
            f"({ledger.records_written} records)"
        )
    return 0 if run.ok else 1


def _cmd_cache(action: str, cache_dir: str, sample: int, seed: int) -> int:
    import json as _json

    from .cache import ResultStore, verify_entries

    store = ResultStore(cache_dir)
    if action == "stats":
        print(_json.dumps(store.stats(), indent=2))
        return 0
    if action == "gc":
        report = store.gc()
        print(
            f"gc {cache_dir}: removed {report['removed']} files "
            f"({report['reclaimed_bytes']} bytes), kept {report['kept']} "
            f"entries"
        )
        return 0
    # verify: recompute a seeded sample of entries from their provenance
    # stamps and diff the canonical bytes against what is stored
    report = verify_entries(store, sample=sample, seed=seed)
    for item in report["results"]:
        flag = {"ok": "ok ", "MISMATCH": "BAD", "unsupported": "?? "}[
            item["verdict"]
        ]
        # a refused stamp says why; a recomputed mismatch is in the bytes
        refused = f"  {item['detail']}" if flag == "BAD" and "detail" in item else ""
        print(f"  [{flag}] {item['kind']!s:<18} {item['key'][:16]}{refused}")
    print(
        f"\nverified {report['checked']} sampled entries: {report['ok']} ok, "
        f"{report['mismatched']} mismatched, {report['unsupported']} "
        f"unsupported"
    )
    return 1 if report["mismatched"] else 0


def _cmd_report(args) -> int:
    import json as _json
    from pathlib import Path

    from .cache.fingerprint import canonical_json

    def read(path):
        return _json.loads(Path(path).read_text(encoding="utf-8"))

    if args.report_command == "summarize":
        from .observability.report import render_summary, summarize_ledgers

        summary = summarize_ledgers(args.ledgers)
        if args.json:
            print(canonical_json(summary))
        else:
            for line in render_summary(summary):
                print(line)
        return 0

    if args.report_command == "compare":
        from .observability.report import compare_bench, render_comparison

        try:
            spec = Path("BENCHMARK.json")
            if not spec.is_file():
                raise ValueError(
                    "no BENCHMARK.json in the working directory to read "
                    "the end-to-end metrics and their bounds from"
                )
            comparison = compare_bench(
                [read(path) for path in args.runs],
                [read(path) for path in args.baseline],
                read(spec).get("end_to_end"),
            )
        except (OSError, ValueError) as exc:
            print(f"repro report compare: {exc}", file=sys.stderr)
            return 2
        if args.output:
            Path(args.output).write_text(canonical_json(comparison) + "\n")
        if args.json:
            print(canonical_json(comparison))
        else:
            print(
                f"repro {__version__} — e2e comparison: "
                f"{' '.join(args.runs)} vs baseline {' '.join(args.baseline)}"
            )
            for line in render_comparison(comparison):
                print(line)
        return 1 if comparison["regressed"] else 0

    if args.report_command == "history":
        from .observability.report import append_history, history_record

        appended = 0
        for payload_path in args.payloads:
            try:
                record = history_record(
                    read(payload_path), source=os.path.basename(payload_path)
                )
            except (OSError, ValueError) as exc:
                print(f"repro report history: {exc}", file=sys.stderr)
                return 2
            if append_history(args.file, record):
                appended += 1
                print(f"appended {payload_path} -> {args.file}")
            else:
                print(f"unchanged: {payload_path} already in {args.file}")
        print(f"{appended}/{len(args.payloads)} payloads appended")
        return 0

    # strip: the deterministic projection the CI determinism gate diffs
    from .observability.ledger import strip_nondeterministic

    lines = strip_nondeterministic(args.ledger)
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.output:
        Path(args.output).write_text(text)
        print(f"stripped ledger -> {args.output} ({len(lines)} lines)")
    else:
        sys.stdout.write(text)
    return 0


#: Machine trace targets: library factory + a word builder of length n.
#: The final flag marks randomized machines, which are traced through
#: ``acceptance_probability``'s branch exploration instead of a single run.
def _machine_targets():
    from .machines import library

    return {
        "copy": (library.copy_machine, lambda n: ("01" * n)[:n], False),
        "parity": (library.parity_machine, lambda n: ("110" * n)[:n], False),
        "majority": (library.majority_machine, lambda n: ("10" * n)[:n], False),
        "copy-reverse": (
            library.copy_reverse_machine,
            lambda n: ("0110" * n)[:n],
            False,
        ),
        "equality": (
            library.equality_machine,
            lambda n: ("01" * n)[:n] + "#" + ("01" * n)[:n],
            False,
        ),
        "coin-flip": (library.coin_flip_machine, lambda n: ("01" * n)[:n], True),
        "guess-bit": (library.guess_bit_machine, lambda n: ("01" * n)[:n], True),
    }


def _budget_str(budget) -> str:
    parts = []
    for label, value in (
        ("scans", budget.max_scans),
        ("bits", budget.max_internal_bits),
        ("tapes", budget.max_tapes),
    ):
        if value is not None:
            parts.append(f"{label}<={value}")
    return " ".join(parts) if parts else "(unbounded)"


def _cmd_trace(
    target: str,
    n: int,
    chrome: "str | None",
    jsonl: "str | None",
    seed: int,
    trials: int = 0,
) -> int:
    import random

    from .observability.audit import CONTRACTS
    from .observability.sinks import JsonlFileSink
    from .observability.trace import EngineProbe

    contracts = {spec.name: spec for spec in CONTRACTS}
    machines = _machine_targets()
    if target not in contracts and target not in machines:
        print(f"unknown trace target {target!r}; known targets:", file=sys.stderr)
        print(
            "  algorithms: " + ", ".join(sorted(contracts)), file=sys.stderr
        )
        print("  machines:   " + ", ".join(sorted(machines)), file=sys.stderr)
        return 2

    # the JSONL file takes every event as the run emits it, and the spans
    # when the probe closes
    probe = EngineProbe(sink=JsonlFileSink(jsonl) if jsonl else None)

    print(f"repro {__version__} — tracing {target!r} (n={n})\n")
    if target in contracts:
        spec = contracts[target]
        rng = random.Random(f"trace:{target}:{n}:{seed}")
        report, claimed = spec.measure(n, 12, rng, probe)
        probe.finish()
        print(spec.description)
        print(
            f"measured: scans={report.scans} reversals={report.reversals} "
            f"peak_internal_bits={report.peak_internal_bits} "
            f"tapes={report.tapes_used}"
        )
        print(f"claimed envelope: {_budget_str(claimed)}")
    else:
        factory, word_of, randomized = machines[target]
        machine = factory()
        word = word_of(n)
        if randomized:
            from .machines.fast_engine import acceptance_probability

            p = acceptance_probability(machine, word, probe=probe)
            probe.finish()
            print(
                f"{machine.name}: acceptance probability on |w|={len(word)} "
                f"is {p}"
            )
            print(
                "configuration DAG: "
                + " ".join(f"{k}={v}" for k, v in probe.dag_stats.items())
            )
            if trials > 0:
                from .machines.randomized import estimate_acceptance_probability

                estimate = estimate_acceptance_probability(
                    machine, word, trials, seed=seed
                )
                print(
                    f"Monte Carlo estimate over {estimate.trials} trials: "
                    f"{estimate.accepted}/{estimate.trials} "
                    f"= {float(estimate.estimate):.4f}  (exact: {float(p):.4f})"
                )
        else:
            from .machines.fast_engine import run_deterministic

            result = run_deterministic(machine, word, probe=probe)
            probe.finish()
            stats = result.statistics
            print(
                f"{machine.name} on |w|={len(word)}: "
                f"accepted={result.accepts(machine)} steps={stats.length - 1} "
                f"reversals={sum(stats.reversals_per_tape)} "
                f"space={sum(stats.space_per_tape)}"
            )

    print("\nspan timeline:")
    for line in probe.tracer.render_timeline():
        print("  " + line)

    if chrome:
        probe.tracer.write_chrome_trace(chrome)
        print(f"\nChrome trace -> {chrome}  (open in Perfetto / chrome://tracing)")
    probe.close()
    if jsonl:
        print(f"combined JSONL (events + spans) -> {jsonl}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__
    )
    sub = parser.add_subparsers(dest="command")
    audit = sub.add_parser(
        "audit", help="sweep the paper's algorithms vs. claimed envelopes"
    )
    audit.add_argument(
        "--quick",
        action="store_true",
        help="small sweep only (CI smoke; seconds instead of minutes)",
    )
    audit.add_argument(
        "--output",
        default="AUDIT_contracts.json",
        help="where to write the JSON record (default: AUDIT_contracts.json)",
    )
    audit.add_argument(
        "-v", "--verbose", action="store_true", help="print every sweep cell"
    )
    audit.add_argument(
        "--cache",
        metavar="DIR",
        default=os.environ.get("REPRO_CACHE_DIR"),
        help="memoize sweep cells in a content-addressed result store "
        "(default: $REPRO_CACHE_DIR if set); the JSON artifact is "
        "byte-identical with or without it",
    )
    audit.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache / $REPRO_CACHE_DIR and recompute everything",
    )
    audit.add_argument(
        "--cache-stats",
        metavar="PATH",
        help="write this run's hit/miss/write/invalid counters as JSON "
        "(requires an active cache)",
    )
    audit.add_argument(
        "--ledger",
        metavar="PATH",
        help="append sweep/task/cache records to this JSONL ledger "
        "(read it back with `repro report summarize`)",
    )
    report = sub.add_parser(
        "report",
        help="summarize sweep ledgers, judge e2e benchmark pairs, keep history",
    )
    report_sub = report.add_subparsers(dest="report_command")
    summarize = report_sub.add_parser(
        "summarize", help="deterministic rollup of one or more ledgers"
    )
    summarize.add_argument(
        "ledgers", nargs="+", help="JSONL ledger files to aggregate"
    )
    summarize.add_argument(
        "--json",
        action="store_true",
        help="print the rollup as canonical JSON instead of text",
    )
    compare = report_sub.add_parser(
        "compare",
        help="judge benchmarks/e2e/run.py --output payloads in pairs "
        "against BENCHMARK.json's bounds (exit 1 on a regression, "
        "2 on unusable input)",
    )
    compare.add_argument(
        "runs", nargs="+", help="payloads of the change; run i pairs with "
        "baseline i"
    )
    compare.add_argument(
        "--baseline",
        nargs="+",
        required=True,
        help="payloads of the parent, as many as runs",
    )
    compare.add_argument(
        "--json",
        action="store_true",
        help="print the comparison as canonical JSON instead of text",
    )
    compare.add_argument(
        "--output",
        metavar="PATH",
        help="also write the comparison JSON here",
    )
    history = report_sub.add_parser(
        "history",
        help="append e2e payload summaries to an append-only trajectory",
    )
    history.add_argument(
        "payloads", nargs="+", help="benchmarks/e2e/run.py --output payloads"
    )
    history.add_argument(
        "--file",
        default="BENCH_e2e.jsonl",
        help="the history file (default: BENCH_e2e.jsonl); appends "
        "are idempotent — an identical record is never duplicated",
    )
    strip = report_sub.add_parser(
        "strip",
        help="project a ledger to its deterministic lines (wall-clock "
        "sections dropped)",
    )
    strip.add_argument("ledger", help="JSONL ledger file to strip")
    strip.add_argument(
        "--output",
        metavar="PATH",
        help="write the stripped lines here instead of stdout",
    )
    cache = sub.add_parser(
        "cache", help="inspect, collect or spot-check a result store"
    )
    cache.add_argument(
        "action",
        choices=("stats", "gc", "verify"),
        help="stats: disk-derived entry counts; gc: drop quarantined, "
        "stale-version and unparseable files; verify: recompute a sample "
        "of entries from their provenance stamps and diff byte-for-byte",
    )
    cache.add_argument(
        "--dir",
        default=os.environ.get("REPRO_CACHE_DIR"),
        help="the store directory (default: $REPRO_CACHE_DIR)",
    )
    cache.add_argument(
        "--sample",
        type=int,
        default=8,
        help="verify: how many entries to spot-check (default 8)",
    )
    cache.add_argument(
        "--seed",
        type=int,
        default=0,
        help="verify: sample-selection seed (default 0)",
    )
    trace = sub.add_parser(
        "trace",
        help="run one algorithm/machine under an EngineProbe and export spans",
    )
    trace.add_argument(
        "target",
        help="an audit contract name (fingerprint, onepass, ...) or a "
        "library machine (equality, coin-flip, ...)",
    )
    trace.add_argument(
        "--n",
        type=int,
        default=64,
        help="problem size: strings per half for algorithms, input length "
        "for machines (default: 64)",
    )
    trace.add_argument(
        "--chrome",
        metavar="PATH",
        help="write Chrome trace-event JSON here (Perfetto-loadable)",
    )
    trace.add_argument(
        "--jsonl",
        metavar="PATH",
        help="write one JSONL file holding every resource event, then the "
        "spans",
    )
    trace.add_argument(
        "--seed", type=int, default=0, help="seed for randomized algorithms"
    )
    trace.add_argument(
        "--trials",
        type=int,
        default=0,
        help="for randomized machines: also run this many Monte Carlo "
        "trials (deterministically seeded) next to the exact DP",
    )
    args = parser.parse_args(argv)
    if args.command == "audit":
        cache_dir = None if args.no_cache else args.cache
        if args.cache_stats and cache_dir is None:
            parser.error("--cache-stats needs an active --cache directory")
        return _cmd_audit(
            args.quick,
            args.output,
            args.verbose,
            cache_dir,
            args.cache_stats,
            args.ledger,
        )
    if args.command == "report":
        if args.report_command is None:
            parser.error(
                "report needs a subcommand: summarize, compare, history, strip"
            )
        return _cmd_report(args)
    if args.command == "cache":
        if args.dir is None:
            parser.error("cache commands need --dir or $REPRO_CACHE_DIR")
        if args.sample < 1:
            parser.error("--sample must be >= 1")
        return _cmd_cache(args.action, args.dir, args.sample, args.seed)
    if args.command == "trace":
        if args.n < 0:
            parser.error("--n must be >= 0")
        if args.trials < 0:
            parser.error("--trials must be >= 0")
        randomized = sorted(
            name
            for name, (_factory, _word, is_random) in _machine_targets().items()
            if is_random
        )
        if args.trials > 0 and args.target not in randomized:
            parser.error(
                "--trials needs a randomized machine target: "
                + ", ".join(randomized)
            )
        return _cmd_trace(
            args.target,
            args.n,
            args.chrome,
            args.jsonl,
            args.seed,
            args.trials,
        )
    return _cmd_verify()


if __name__ == "__main__":
    sys.exit(main())
