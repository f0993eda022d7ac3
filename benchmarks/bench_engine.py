"""Engine benchmark — reference vs. streaming.

Unlike the E1–E20 experiments (which regenerate paper claims), this module
tracks the repo's own performance trajectory: it times
``run_deterministic`` under the two engines on the machine library
across an input sweep, and verifies on every cell that the engines
produce identical ``Run.final`` and ``RunStatistics``.  Its speedup floor
is streaming over reference on the largest library machine at the top N.

The ``test_*`` functions here assert only identity (verified cells),
never wall-clock floors: they run in the gating test job, where a loaded
host must not turn a timing into a failure.  The floor described here is
enforced by ``scripts/bench_to_json.py`` (full runs) and its
``--compare`` against the checked-in baseline, in CI's non-gating
``bench-smoke`` job.

Importable: :func:`run_engine_benchmark` returns the result rows as
plain dicts; ``scripts/bench_to_json.py`` wraps it to regenerate
``BENCH_engine.json``, the perf trajectory artifact.
"""

import time

from repro.machines import (
    copy_machine,
    copy_reverse_machine,
    equality_machine,
    majority_machine,
    parity_machine,
)
from repro.machines import execute, fast_engine

from conftest import emit_table

#: (machine name, factory, word builder).  The word builders produce
#: deterministic inputs whose run length grows linearly in ``n``, so the
#: sweep measures engine overhead, not input luck.  ``equality`` is the
#: largest library machine (most states/transitions) and the speedup gate.
CASES = (
    ("copy", copy_machine, lambda n: ("01" * n)[:n]),
    ("parity", parity_machine, lambda n: ("110" * n)[:n]),
    ("majority", majority_machine, lambda n: ("10" * n)[:n]),
    ("copy-reverse", copy_reverse_machine, lambda n: ("0110" * n)[:n]),
    ("equality", equality_machine, lambda n: ("01" * n)[:n] + "#" + ("01" * n)[:n]),
)

CASE_MAP = {name: (factory, build_word) for name, factory, build_word in CASES}

SIZES = (64, 256, 1024)
GATE_MACHINE = "equality"  # largest library machine
GATE_SPEEDUP = 5.0

STEP_LIMIT = 1_000_000


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _open_store(cache_dir):
    """A :class:`~repro.cache.ResultStore` on ``cache_dir``, or ``None``.

    Opened inside whichever process runs the cell — stores share the
    directory across workers safely (atomic writes, byte-identical
    rewrites on races) and ``stats()`` is disk-derived, so per-process
    counter objects never need to cross the pool boundary.
    """
    if cache_dir is None:
        return None
    from repro.cache import ResultStore

    return ResultStore(cache_dir)


def verify_cell(name, n, cache_dir=None):
    """The correctness half of one sweep cell: the two-engine cross-check.

    Deterministic in (machine definition, word, step limit, code) — so
    with ``cache_dir`` the result is served through the content-addressed
    store and an unchanged cell re-verifies without running a single
    engine step.  Timings never go anywhere near this path: only the
    verification verdict (plus the run-shape facts the benchmark rows
    report) is cacheable.
    """
    factory, build_word = CASE_MAP[name]
    machine = factory()
    word = build_word(n)

    def compute():
        ref = execute.run_deterministic(machine, word, step_limit=STEP_LIMIT)
        fast = fast_engine.run_deterministic(
            machine, word, step_limit=STEP_LIMIT
        )
        if fast.final != ref.final or fast.statistics != ref.statistics:
            raise AssertionError(
                f"streaming engine mismatch on {name} at n={n}: "
                f"{fast.statistics} != {ref.statistics}"
            )
        return {
            "run_length": ref.statistics.length,
            "verified_identical": True,
        }

    store = _open_store(cache_dir)
    if store is None:
        return compute()
    from repro.cache import compose_key, digest_of

    key = compose_key(
        "bench-verify",
        machine=machine,
        name=name,
        n=n,
        word=digest_of(word),
        step_limit=STEP_LIMIT,
        engines="reference+streaming",
    )
    return store.get_or_compute(key, compute, engine="bench")


def bench_cell(name, n, repeats, cache_dir=None):
    """One sweep cell: cross-check the engines, then time each (best-of).

    A module-level batch task so the sweep can fan out over worker
    processes — the cell is looked up by name and the machine rebuilt
    locally (word-builder lambdas never cross the process boundary), and
    all timing happens inside whichever process runs the cell.  With
    ``cache_dir`` only the :func:`verify_cell` half is memoized; the
    timings below are measured fresh on every invocation, always.
    """
    factory, build_word = CASE_MAP[name]
    machine = factory()
    word = build_word(n)
    verified = verify_cell(name, n, cache_dir=cache_dir)
    ref_seconds = _best_of(
        lambda: execute.run_deterministic(machine, word, step_limit=STEP_LIMIT),
        repeats,
    )
    fast_seconds = _best_of(
        lambda: fast_engine.run_deterministic(
            machine, word, step_limit=STEP_LIMIT
        ),
        repeats,
    )
    return {
        "machine": name,
        "n": n,
        "input_length": len(word),
        "run_length": verified["run_length"],
        "ref_seconds": ref_seconds,
        "fast_seconds": fast_seconds,
        "speedup": ref_seconds / fast_seconds,
        "verified_identical": verified["verified_identical"],
    }


def run_engine_benchmark(sizes=SIZES, repeats=3, jobs=1, cache_dir=None,
                         ledger=None):
    """Time both engines over the library sweep; returns a list of rows.

    Every row is cross-checked: the streaming engine's final configuration
    and statistics must be bit-identical to the reference engine's.
    ``jobs > 1`` dispatches cells over worker processes — rows come back
    in sweep order either way, and each cell's timing is measured inside
    the worker that runs it, so parallelism changes wall-clock, not the
    measurements' meaning (though co-scheduled cells do contend for
    cores; serial timings are the low-noise ones).  ``cache_dir``
    memoizes the verification half of every cell only — timings are
    re-measured on every run regardless.
    """
    from repro.parallel import BatchTask, run_batch

    tasks = [
        BatchTask.call(bench_cell, name, n, repeats, cache_dir=cache_dir)
        for name, _factory, _build_word in CASES
        for n in sizes
    ]
    return run_batch(
        tasks, jobs=jobs, label="engine-bench", ledger=ledger
    ).values()


def top_speedup(rows, machine=GATE_MACHINE):
    """Streaming-over-reference speedup of ``machine`` at the largest n."""
    candidates = [r for r in rows if r["machine"] == machine]
    return max(candidates, key=lambda r: r["n"])["speedup"]


def per_tier_rows(rows):
    """Expand combined sweep cells into one row per engine.

    ``BENCH_engine.json`` records the trajectory per engine: each cell
    becomes two rows sharing (machine, n, ...) with an ``engine`` field
    and that engine's timing, plus the derived speedup on the streaming
    row.
    """
    tiers = []
    for r in rows:
        shared = {
            k: r[k]
            for k in ("machine", "n", "input_length", "run_length",
                      "verified_identical")
        }
        tiers.append(
            dict(shared, engine="reference", seconds=r["ref_seconds"])
        )
        tiers.append(
            dict(
                shared,
                engine="streaming",
                seconds=r["fast_seconds"],
                speedup_vs_reference=round(r["speedup"], 2),
            )
        )
    return tiers


def test_engine_speedup(benchmark):
    rows = run_engine_benchmark()
    table = emit_table(
        "ENGINE — reference vs. streaming run_deterministic",
        ("machine", "n", "N", "steps", "ref s", "fast s", "fast/ref"),
        [
            (
                r["machine"],
                r["n"],
                r["input_length"],
                r["run_length"],
                f"{r['ref_seconds']:.5f}",
                f"{r['fast_seconds']:.5f}",
                f"{r['speedup']:.1f}x",
            )
            for r in rows
        ],
    )
    benchmark.extra_info["table"] = table

    # identity only: every cell cross-checked identical across the
    # engines.  The wall-clock floor (GATE_SPEEDUP) is checked by
    # scripts/bench_to_json.py outside the gating test run.
    assert all(r["verified_identical"] for r in rows)

    machine = equality_machine()
    word = ("01" * SIZES[-1])[:SIZES[-1]]
    word = word + "#" + word
    result = benchmark(
        lambda: fast_engine.run_deterministic(
            machine, word, step_limit=STEP_LIMIT
        )
    )
    assert result.accepts(machine)
