"""What the end-to-end benchmark measures, and how a profile folds into layers.

The end-to-end metrics are what a user of ``repro audit`` or an
experiment sees.  The per-layer metrics come from a separate traced run:
cProfile self time and call counts, folded by source file into the
layers below, plus counts the harness reads off the public objects it
holds (the result store, the ledger writer).  Each per-layer metric names
the end-to-end metric and workload it should move (``moves``), written
down before any optimisation is measured against it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple

#: (name, unit, better, bound): ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.15),
    ("iter_s_p50", "s", "lower", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

#: The layers, in report order.  ``other`` is the rest of ``repro`` plus
#: the harness's own frames; ``stdlib`` is the standard library and
#: built-ins (cProfile charges a built-in's time to the built-in).
LAYERS = (
    "problems",
    "algorithms",
    "extmem",
    "numbertheory",
    "queries",
    "telemetry",
    "audit",
    "ledger",
    "cache",
    "parallel",
    "machines",
    "other",
    "stdlib",
)

#: Sub-packages of ``repro`` that are a layer of their own.
_PACKAGE_LAYERS = frozenset(
    {
        "problems",
        "algorithms",
        "extmem",
        "numbertheory",
        "queries",
        "cache",
        "parallel",
        "machines",
    }
)

#: ``repro/observability`` is split by file.
_OBSERVABILITY_LAYERS = {
    "events.py": "telemetry",
    "sinks.py": "telemetry",
    "profile.py": "telemetry",
    "metrics.py": "telemetry",
    "trace.py": "telemetry",
    "audit.py": "audit",
    "ledger.py": "ledger",
}

#: Call counts of single functions: (path under ``repro/``, function name).
_NAMED_CALLS = {
    "extmem.tape_moves": (
        ("extmem/record_tape.py", "move"),
        ("extmem/tape.py", "move"),
    ),
    "extmem.seeks": (
        ("extmem/record_tape.py", "seek_start"),
        ("extmem/record_tape.py", "seek_end"),
        ("extmem/tape.py", "seek_start"),
    ),
    "extmem.memory_stores": (("extmem/memory.py", "store"),),
    "extmem.tracker_charges": (
        ("extmem/tracker.py", "charge_reversal"),
        ("extmem/tracker.py", "charge_internal"),
        ("extmem/tracker.py", "charge_step"),
        ("extmem/tracker.py", "charge_batch"),
    ),
    "telemetry.sink_emits": (("observability/sinks.py", "emit"),),
    "cache.lookups": (("cache/store.py", "lookup"),),
}
_SITE_TO_COUNT = {
    site: name for name, sites in _NAMED_CALLS.items() for site in sites
}

_E2E_DIR = Path(__file__).resolve().parent
_PACKAGE_PREFIX = str(_E2E_DIR.parents[1] / "src" / "repro") + "/"
_HARNESS_PREFIX = str(_E2E_DIR) + "/"


def _moves(metric: str, workload: str) -> Dict[str, str]:
    return {"metric": metric, "workload": workload}


#: Where each layer's time should show end to end.
_LAYER_MOVES = {
    "problems": _moves("iter_s_p50", "fingerprint_mc"),
    "algorithms": _moves("iter_s_p50", "fingerprint_mc"),
    "extmem": _moves("iter_s_p50", "audit"),
    "numbertheory": _moves("iter_s_p50", "fingerprint_mc"),
    "queries": _moves("iter_s_p50", "xpath_protocol"),
    "telemetry": _moves("iter_s_p50", "audit"),
    "audit": _moves("iter_s_p50", "audit_warm"),
    "ledger": _moves("iter_s_p50", "audit_warm"),
    "cache": _moves("iter_s_p50", "audit_warm"),
    "parallel": _moves("iter_s_p50", "audit"),
    # no workload imports repro.machines: deleting engine tiers can
    # move set-up (import) time only
    "machines": _moves("setup_s", "audit"),
    "other": _moves("iter_s_p50", "audit"),
    "stdlib": _moves("iter_s_p50", "audit"),
}

#: (name, unit, better, moves) for every per-layer metric.
PER_LAYER = tuple(
    [
        (f"{layer}.self_frac", "fraction", "lower", _LAYER_MOVES[layer])
        for layer in LAYERS
    ]
    + [
        (f"{layer}.calls_per_iter", "calls/iter", "lower", _LAYER_MOVES[layer])
        for layer in LAYERS
    ]
    + [
        ("extmem.tape_moves", "calls/iter", "lower", _moves("iter_s_p50", "audit")),
        ("extmem.seeks", "calls/iter", "lower", _moves("iter_s_p50", "audit")),
        (
            "extmem.memory_stores",
            "calls/iter",
            "lower",
            _moves("iter_s_p50", "fingerprint_mc"),
        ),
        (
            "extmem.tracker_charges",
            "calls/iter",
            "lower",
            _moves("iter_s_p50", "fingerprint_mc"),
        ),
        ("telemetry.sink_emits", "calls/iter", "lower", _moves("iter_s_p50", "audit")),
        ("cache.lookups", "calls/iter", "lower", _moves("iter_s_p50", "audit_warm")),
        ("cache.hit_ratio", "fraction", "higher", _moves("iter_s_p50", "audit_warm")),
        ("cache.bytes_read", "bytes/iter", "lower", _moves("iter_s_p50", "audit_warm")),
        ("ledger.records", "records/iter", "lower", _moves("iter_s_p50", "audit_warm")),
        ("ledger.bytes", "bytes/iter", "lower", _moves("iter_s_p50", "audit_warm")),
        # cProfile's cost grows with the number of Python calls, which is
        # what a fast path in the audit's hottest layer takes away
        ("trace.overhead_x", "x", "lower", _moves("iter_s_p50", "audit")),
    ]
)


def layer_of(filename: str) -> str:
    """The layer a profiled function belongs to, from its source file."""
    if filename.startswith(_PACKAGE_PREFIX):
        rel = filename[len(_PACKAGE_PREFIX):]
        package, _, rest = rel.partition("/")
        if package in _PACKAGE_LAYERS:
            return package
        if package == "observability":
            return _OBSERVABILITY_LAYERS.get(rest, "other")
        return "other"
    if filename.startswith(_HARNESS_PREFIX):
        return "other"
    return "stdlib"


def fold(
    stats: Dict[Tuple[str, int, str], tuple]
) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, int]]:
    """Fold ``pstats``-shaped stats into (self seconds, calls, named counts).

    ``stats`` maps ``(filename, line, function)`` to
    ``(primitive calls, total calls, self time, cumulative time, callers)``.
    Every layer and every named count is present, zero when unused.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    named = dict.fromkeys(_NAMED_CALLS, 0)
    for (filename, _line, function), (_cc, ncalls, tottime, _ct, _callers) in (
        stats.items()
    ):
        layer = layer_of(filename)
        self_s[layer] += tottime
        calls[layer] += ncalls
        if filename.startswith(_PACKAGE_PREFIX):
            count = _SITE_TO_COUNT.get((filename[len(_PACKAGE_PREFIX):], function))
            if count is not None:
                named[count] += ncalls
    return self_s, calls, named
