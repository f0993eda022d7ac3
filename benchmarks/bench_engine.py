"""Engine benchmark — reference vs. streaming vs. compiled vs. batch vs. SIMD.

Unlike the E1–E20 experiments (which regenerate paper claims), this module
tracks the repo's own performance trajectory: it times
``run_deterministic`` under the serial engine tiers on the machine library
across an input sweep, and verifies on every cell that the tiers produce
identical ``Run.final`` and ``RunStatistics``.  Its speedup floors at the
top N are streaming over reference on the largest library machine, and
compiled over streaming on the sweep-heavy machines (where macro-step
run compression must engage — the row's ``macro_compression`` column
records steps-per-dispatch as evidence that the win comes from
compression, not just cheaper dispatch).

The ``test_*`` functions here assert only identity and shape (verified
cells, engaged compression), never wall-clock floors: they run in the
gating test job, where a loaded host must not turn a timing into a
failure.  The floors described here are enforced by
``scripts/bench_to_json.py`` (full runs) and its ``--compare`` against
the checked-in baseline, in CI's non-gating ``bench-smoke`` job.

The batch sweep (:func:`run_batch_benchmark`) times the fourth tier on
its own traffic shape — one machine, a whole batch of random inputs, the
``monte_carlo_fingerprint_trials`` workload profile — against a serial
compiled loop over the same words, cross-checking every lane
bit-identical first.  The floor is per-input wall-clock: batch must be
≥ 5× compiled on the sweep-dominated machines at the top N, where the
run itself is cheap and the serial tier's per-run overhead (interning,
snapshot, cache lookups) is the dominant cost the batch tier amortizes.
Micro-step-dominated machines (parity, majority) are benched but not
gated: their time is genuine table dispatch, which batching cannot
shrink.

The SIMD sweep (:func:`run_simd_benchmark`) times the fifth tier against
the batch tier on the same shape at :data:`SIMD_LANES` lanes — the scale
where NumPy state-cohort kernels amortize array-dispatch overhead.  The
floor is again per-input wall-clock on the sweep-dominated machines:
SIMD ≥ 2× batch at the top N, every lane cross-checked bit-identical to
a serial compiled run first.  Requires the ``repro[simd]`` extra; the
sweep is skipped (not failed) when NumPy is absent, since the fallback
path is the batch tier itself.

Importable: :func:`run_engine_benchmark` / :func:`run_batch_benchmark` /
:func:`run_simd_benchmark` return the result rows as plain dicts;
``scripts/bench_to_json.py`` wraps them to regenerate
``BENCH_engine.json``, the perf trajectory artifact.
"""

import random
import time

from repro.machines import (
    copy_machine,
    copy_reverse_machine,
    equality_machine,
    is_simd_available,
    majority_machine,
    parity_machine,
    run_deterministic_batch,
)
from repro.machines import compiled_engine, execute, fast_engine

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

#: Compiled-tier gate: machines whose runs are dominated by straight-line
#: head sweeps, so macro compression must engage.  parity/majority spin in
#: tight multi-state loops the sweep detector does not (and need not)
#: compress — they are benched but not gated.
COMPILED_GATE_MACHINES = ("copy", "equality")
COMPILED_GATE_SPEEDUP = 2.0  # compiled over *streaming*, at top N

#: Batch-tier sweep shape: one machine, this many random inputs per cell —
#: the ``monte_carlo_fingerprint_trials`` traffic profile.
BATCH_LANES = 256
BATCH_GATE_MACHINES = ("copy", "equality")
BATCH_GATE_SPEEDUP = 5.0  # batch over *compiled*, per input, at top N

#: SIMD-tier sweep shape: the census-scale lane count where state-cohort
#: kernels amortize NumPy dispatch overhead (well past the auto
#: crossover, which sits at 32 lanes).
SIMD_LANES = 1024
SIMD_GATE_MACHINES = ("copy", "equality")
SIMD_GATE_SPEEDUP = 2.0  # simd over *batch*, per input, at top N

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
    """The correctness half of one sweep cell: the three-tier cross-check.

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
        comp = compiled_engine.run_deterministic(
            machine, word, step_limit=STEP_LIMIT
        )
        for tier_name, run in (("streaming", fast), ("compiled", comp)):
            if run.final != ref.final or run.statistics != ref.statistics:
                raise AssertionError(
                    f"{tier_name} engine mismatch on {name} at n={n}: "
                    f"{run.statistics} != {ref.statistics}"
                )
        dispatch = compiled_engine.dispatch_count(
            machine, word, step_limit=STEP_LIMIT
        )
        return {
            "run_length": ref.statistics.length,
            "macro_compression": round(dispatch.compression, 1),
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
        engines="reference+streaming+compiled",
    )
    return store.get_or_compute(key, compute, engine="bench")


def bench_cell(name, n, repeats, cache_dir=None):
    """One sweep cell: cross-check all tiers, then time each (best-of).

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
    compiled_seconds = _best_of(
        lambda: compiled_engine.run_deterministic(
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
        "compiled_seconds": compiled_seconds,
        "speedup": ref_seconds / fast_seconds,
        "compiled_speedup": fast_seconds / compiled_seconds,
        "macro_compression": verified["macro_compression"],
        "verified_identical": verified["verified_identical"],
    }


def run_engine_benchmark(sizes=SIZES, repeats=3, jobs=1, registry=None,
                         cache_dir=None, ledger=None):
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
        tasks, jobs=jobs, label="engine-bench", registry=registry,
        ledger=ledger,
    ).values()


def _batch_words(name, n, lanes=BATCH_LANES):
    """``lanes`` random inputs for one batch sweep cell, deterministically.

    Seeded from the cell coordinates so rows are reproducible and every
    regeneration of ``BENCH_engine.json`` times the same word population.
    ``equality`` gets well-formed ``w#w`` inputs so runs sweep the full
    comparison loop instead of rejecting at the separator.
    """
    rng = random.Random(f"bench-batch:{name}:{n}")
    words = []
    for _ in range(lanes):
        if name == "equality":
            half = "".join(rng.choice("01") for _ in range(n // 2))
            words.append(half + "#" + half)
        else:
            words.append("".join(rng.choice("01") for _ in range(n)))
    return words


def verify_batch_cell(name, n, lanes=BATCH_LANES, cache_dir=None,
                      engine="batch"):
    """The correctness half of one batch cell: per-lane cross-check.

    Every lane of the ``engine`` tier (``"batch"`` or ``"simd"``) is
    verified bit-identical to its compiled twin.  Like
    :func:`verify_cell`, the verdict is a pure function of (machine,
    word population, step limit, engine tier, code), so with
    ``cache_dir`` an unchanged cell's re-verification is a single store
    lookup — the tier under test is part of the key, so a batch-tier
    verdict can never be served for a SIMD-tier question.
    """
    factory, _build_word = CASE_MAP[name]
    machine = factory()
    words = _batch_words(name, n, lanes)

    def compute():
        outcomes = run_deterministic_batch(
            machine, words, step_limit=STEP_LIMIT, engine=engine
        )
        for word, outcome in zip(words, outcomes):
            twin = compiled_engine.run_deterministic(
                machine, word, step_limit=STEP_LIMIT
            )
            if (
                not outcome.ok
                or outcome.result.final != twin.final
                or outcome.result.statistics != twin.statistics
            ):
                raise AssertionError(
                    f"{engine} engine mismatch on {name} at n={n} lane "
                    f"{outcome.index}"
                )
        return {"verified_identical": True}

    store = _open_store(cache_dir)
    if store is None:
        return compute()
    from repro.cache import compose_key, digest_of

    key = compose_key(
        "bench-batch-verify",
        machine=machine,
        name=name,
        n=n,
        lanes=lanes,
        words=digest_of(words),
        step_limit=STEP_LIMIT,
        engines=f"{engine}+compiled",
    )
    return store.get_or_compute(key, compute, engine="bench")


def bench_batch_cell(name, n, repeats, lanes=BATCH_LANES, cache_dir=None):
    """One batch sweep cell: per-lane cross-check, then best-of timings.

    The whole word list goes down ``run_deterministic_batch`` in one
    call — the conversion this benchmark exists to measure — and the
    serial baseline is the compiled tier looped over the same words.
    Every lane is verified bit-identical to its compiled twin (through
    the cache when ``cache_dir`` is set) before any timing happens;
    timings themselves are never cached.
    """
    factory, _build_word = CASE_MAP[name]
    machine = factory()
    words = _batch_words(name, n, lanes)
    verified = verify_batch_cell(name, n, lanes, cache_dir=cache_dir)
    compiled_seconds = _best_of(
        lambda: [
            compiled_engine.run_deterministic(
                machine, word, step_limit=STEP_LIMIT
            )
            for word in words
        ],
        repeats,
    )
    batch_seconds = _best_of(
        lambda: run_deterministic_batch(
            machine, words, step_limit=STEP_LIMIT, engine="batch"
        ),
        repeats,
    )
    return {
        "machine": name,
        "n": n,
        "input_length": len(words[0]),
        "lanes": lanes,
        "compiled_seconds_per_input": compiled_seconds / lanes,
        "batch_seconds_per_input": batch_seconds / lanes,
        "batch_speedup": compiled_seconds / batch_seconds,
        "verified_identical": verified["verified_identical"],
    }


def run_batch_benchmark(sizes=SIZES, repeats=3, lanes=BATCH_LANES, jobs=1,
                        registry=None, cache_dir=None, ledger=None):
    """Time the batch tier over the library sweep; returns a list of rows.

    Same contract as :func:`run_engine_benchmark`: every row is
    lane-cross-checked against the compiled tier before timing (cached
    when ``cache_dir`` is set, never the timings), rows come back in
    sweep order at any ``jobs``, and each cell times inside whichever
    process runs it.
    """
    from repro.parallel import BatchTask, run_batch

    tasks = [
        BatchTask.call(
            bench_batch_cell, name, n, repeats, lanes, cache_dir=cache_dir
        )
        for name, _factory, _build_word in CASES
        for n in sizes
    ]
    return run_batch(
        tasks, jobs=jobs, label="batch-bench", registry=registry,
        ledger=ledger,
    ).values()


def batch_top_speedup(rows, machine):
    """Batch-over-compiled per-input speedup of ``machine`` at the top n."""
    candidates = [r for r in rows if r["machine"] == machine]
    return max(candidates, key=lambda r: r["n"])["batch_speedup"]


def batch_tier_rows(rows):
    """Batch sweep cells as ``engine="batch"`` rows for the JSON artifact."""
    return [
        {
            "machine": r["machine"],
            "n": r["n"],
            "input_length": r["input_length"],
            "engine": "batch",
            "lanes": r["lanes"],
            "seconds": r["batch_seconds_per_input"],
            "compiled_seconds_per_input": r["compiled_seconds_per_input"],
            "speedup_vs_compiled": round(r["batch_speedup"], 2),
            "verified_identical": r["verified_identical"],
        }
        for r in rows
    ]


def bench_simd_cell(name, n, repeats, lanes=SIMD_LANES, cache_dir=None):
    """One SIMD sweep cell: per-lane cross-check, then best-of timings.

    Times the SIMD tier against the batch tier on the identical word
    population — the conversion this sweep measures is Python per-lane
    dispatch → NumPy state-cohort kernels, so the baseline is the tier
    the SIMD engine replaces, not the serial compiled loop.  Every SIMD
    lane is verified bit-identical to its compiled twin first (through
    the cache when ``cache_dir`` is set); timings are never cached.
    """
    factory, _build_word = CASE_MAP[name]
    machine = factory()
    words = _batch_words(name, n, lanes)
    verified = verify_batch_cell(
        name, n, lanes, cache_dir=cache_dir, engine="simd"
    )
    batch_seconds = _best_of(
        lambda: run_deterministic_batch(
            machine, words, step_limit=STEP_LIMIT, engine="batch"
        ),
        repeats,
    )
    simd_seconds = _best_of(
        lambda: run_deterministic_batch(
            machine, words, step_limit=STEP_LIMIT, engine="simd"
        ),
        repeats,
    )
    return {
        "machine": name,
        "n": n,
        "input_length": len(words[0]),
        "lanes": lanes,
        "batch_seconds_per_input": batch_seconds / lanes,
        "simd_seconds_per_input": simd_seconds / lanes,
        "simd_speedup": batch_seconds / simd_seconds,
        "verified_identical": verified["verified_identical"],
    }


def run_simd_benchmark(sizes=SIZES, repeats=3, lanes=SIMD_LANES, jobs=1,
                       registry=None, cache_dir=None, ledger=None):
    """Time the SIMD tier over the library sweep; returns a list of rows.

    Same contract as :func:`run_batch_benchmark`: every row is
    lane-cross-checked against the compiled tier before timing, rows
    come back in sweep order at any ``jobs``, and each cell times inside
    whichever process runs it.  Raises when NumPy is absent — callers
    (the gating benchmark test, ``bench_to_json.py``) skip the sweep via
    :func:`repro.machines.is_simd_available` instead, because without
    NumPy the SIMD entry points *are* the batch tier and the comparison
    would time a tier against itself.
    """
    if not is_simd_available():
        raise RuntimeError(
            "the SIMD sweep needs NumPy (pip install repro[simd])"
        )
    from repro.parallel import BatchTask, run_batch

    tasks = [
        BatchTask.call(
            bench_simd_cell, name, n, repeats, lanes, cache_dir=cache_dir
        )
        for name, _factory, _build_word in CASES
        for n in sizes
    ]
    return run_batch(
        tasks, jobs=jobs, label="simd-bench", registry=registry,
        ledger=ledger,
    ).values()


def simd_top_speedup(rows, machine):
    """SIMD-over-batch per-input speedup of ``machine`` at the top n."""
    candidates = [r for r in rows if r["machine"] == machine]
    return max(candidates, key=lambda r: r["n"])["simd_speedup"]


def simd_tier_rows(rows):
    """SIMD sweep cells as ``engine="simd"`` rows for the JSON artifact."""
    return [
        {
            "machine": r["machine"],
            "n": r["n"],
            "input_length": r["input_length"],
            "engine": "simd",
            "lanes": r["lanes"],
            "seconds": r["simd_seconds_per_input"],
            "batch_seconds_per_input": r["batch_seconds_per_input"],
            "speedup_vs_batch": round(r["simd_speedup"], 2),
            "verified_identical": r["verified_identical"],
        }
        for r in rows
    ]


def top_speedup(rows, machine=GATE_MACHINE):
    """Streaming-over-reference speedup of ``machine`` at the largest n."""
    candidates = [r for r in rows if r["machine"] == machine]
    return max(candidates, key=lambda r: r["n"])["speedup"]


def compiled_top_speedup(rows, machine):
    """Compiled-over-streaming speedup of ``machine`` at the largest n."""
    candidates = [r for r in rows if r["machine"] == machine]
    return max(candidates, key=lambda r: r["n"])["compiled_speedup"]


def per_tier_rows(rows):
    """Expand combined sweep cells into one row per engine tier.

    ``BENCH_engine.json`` records the trajectory per tier: each cell
    becomes three rows sharing (machine, n, ...) with an ``engine`` field
    and that tier's timing, plus the derived speedups on the faster tiers.
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
        tiers.append(
            dict(
                shared,
                engine="compiled",
                seconds=r["compiled_seconds"],
                speedup_vs_streaming=round(r["compiled_speedup"], 2),
                macro_compression=r["macro_compression"],
            )
        )
    return tiers


def test_engine_speedup(benchmark):
    rows = run_engine_benchmark()
    table = emit_table(
        "ENGINE — reference vs. streaming vs. compiled run_deterministic",
        (
            "machine", "n", "N", "steps", "ref s", "fast s", "comp s",
            "fast/ref", "comp/fast", "steps/disp",
        ),
        [
            (
                r["machine"],
                r["n"],
                r["input_length"],
                r["run_length"],
                f"{r['ref_seconds']:.5f}",
                f"{r['fast_seconds']:.5f}",
                f"{r['compiled_seconds']:.5f}",
                f"{r['speedup']:.1f}x",
                f"{r['compiled_speedup']:.1f}x",
                f"{r['macro_compression']:.0f}",
            )
            for r in rows
        ],
    )
    benchmark.extra_info["table"] = table

    # shape only: every cell cross-checked identical across the tiers,
    # and on the sweep-dominated machines the compression column proves
    # macro sweeps engaged (>= 1 dispatch saved per 10 steps).  The
    # wall-clock floors (GATE_SPEEDUP, COMPILED_GATE_SPEEDUP) are checked
    # by scripts/bench_to_json.py outside the gating test run.
    assert all(r["verified_identical"] for r in rows)
    for machine_name in COMPILED_GATE_MACHINES:
        top = max(
            (r for r in rows if r["machine"] == machine_name),
            key=lambda r: r["n"],
        )
        assert top["macro_compression"] > 10

    machine = equality_machine()
    word = ("01" * SIZES[-1])[:SIZES[-1]]
    word = word + "#" + word
    result = benchmark(
        lambda: compiled_engine.run_deterministic(
            machine, word, step_limit=STEP_LIMIT
        )
    )
    assert result.accepts(machine)


def test_batch_engine_speedup(benchmark):
    rows = run_batch_benchmark()
    table = emit_table(
        "BATCH — lock-step batch vs. compiled run_deterministic, per input",
        (
            "machine", "n", "N", "lanes", "comp s/in", "batch s/in",
            "batch/comp",
        ),
        [
            (
                r["machine"],
                r["n"],
                r["input_length"],
                r["lanes"],
                f"{r['compiled_seconds_per_input']:.6f}",
                f"{r['batch_seconds_per_input']:.6f}",
                f"{r['batch_speedup']:.1f}x",
            )
            for r in rows
        ],
    )
    benchmark.extra_info["table"] = table

    # shape only: every lane verified bit-identical inside the cell
    # before timing; the BATCH_GATE_SPEEDUP floor is checked by
    # scripts/bench_to_json.py outside the gating test run
    assert all(r["verified_identical"] for r in rows)

    machine = equality_machine()
    words = _batch_words("equality", SIZES[-1])
    result = benchmark(
        lambda: run_deterministic_batch(
            machine, words, step_limit=STEP_LIMIT, engine="batch"
        )
    )
    assert all(outcome.ok for outcome in result)


def test_simd_engine_speedup(benchmark):
    import pytest

    if not is_simd_available():
        pytest.skip("SIMD sweep needs NumPy (repro[simd])")
    rows = run_simd_benchmark()
    table = emit_table(
        "SIMD — state-cohort kernels vs. lock-step batch, per input",
        (
            "machine", "n", "N", "lanes", "batch s/in", "simd s/in",
            "simd/batch",
        ),
        [
            (
                r["machine"],
                r["n"],
                r["input_length"],
                r["lanes"],
                f"{r['batch_seconds_per_input']:.6f}",
                f"{r['simd_seconds_per_input']:.6f}",
                f"{r['simd_speedup']:.1f}x",
            )
            for r in rows
        ],
    )
    benchmark.extra_info["table"] = table

    # shape only: every lane verified bit-identical to its compiled twin
    # before timing; the SIMD_GATE_SPEEDUP floor is checked by
    # scripts/bench_to_json.py outside the gating test run
    assert all(r["verified_identical"] for r in rows)

    machine = equality_machine()
    words = _batch_words("equality", SIZES[-1], SIMD_LANES)
    result = benchmark(
        lambda: run_deterministic_batch(
            machine, words, step_limit=STEP_LIMIT, engine="simd"
        )
    )
    assert all(outcome.ok for outcome in result)
