"""Host-drift calibration for the end-to-end benchmark.

Wall-clock time on a shared host drifts by tens of percent between runs
of identical code.  Every timed batch is therefore bracketed by a fixed
pure-Python spin, and each timing is reported in *calibrated seconds*::

    calibrated = raw * (CAL_REF_S / mean(spin before, spin after)) ** CAL_EXPONENT

i.e. the time the work would have taken on a host whose spin takes
exactly ``CAL_REF_S``.  The spin exercises the interpreter loop the
workloads live in (bytecode dispatch, small-int arithmetic), so it slows
down and speeds up with them.  Raw seconds and spin times are kept next
to every calibrated value, so wall-clock time can always be recovered.
"""

from __future__ import annotations

import time

#: Loop trips of one spin: about 15-20 ms of pure-Python work.
SPIN_LOOPS = 160_000

#: The spin's duration on the reference host (the host the benchmark was
#: defined on, when quiet).  Fixed once; changing it rescales every
#: calibrated number and breaks comparison with earlier results.
CAL_REF_S = 0.0150

#: When the host is contended the workloads slow down more than the spin
#: does.  Scaling by the spin ratio to this power, not linearly, cut the
#: run-to-run spread of the warm audit by half and of the XPath protocol
#: by a third (README.md, "Why timings are calibrated").
CAL_EXPONENT = 1.25


def spin() -> float:
    """Run the fixed spin once; returns its wall-clock seconds."""
    start = time.perf_counter()
    x = 0
    for i in range(SPIN_LOOPS):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def factor(spin_before: float, spin_after: float) -> float:
    """The multiplier turning raw seconds into calibrated seconds."""
    return (CAL_REF_S / ((spin_before + spin_after) / 2.0)) ** CAL_EXPONENT
