"""Multi-tape Turing machines with (r, s, t) accounting (Section 2, App. A).

A machine has ``t`` external-memory tapes (tape 1 is the input tape) and
``u`` internal-memory tapes.  Definition 1 calls it (r, s, t)-bounded when
every run ρ on a length-N input is finite, performs
``1 + Σ_{i≤t} rev(ρ, i) ≤ r(N)`` head reversals on the external tapes, and
uses ``Σ_{i>t} space(ρ, i) ≤ s(N)`` cells on the internal tapes.

The simulator supports:

* deterministic execution (:func:`~repro.machines.execute.run_deterministic`),
* full nondeterministic run enumeration and **exact** acceptance
  probabilities under the uniform-successor semantics of the paper
  (:func:`~repro.machines.execute.acceptance_probability`) — this is the
  (1/2, 0)-RTM semantics of Definition 4,
* the choice-sequence view of Definition 17 (ρ_T(w, c) and the C_T
  alphabet) used by the simulation lemma,
* per-run resource statistics rev(ρ, i) / space(ρ, i) and
  (r, s, t)-boundedness checks against Lemma 3's run-length bound.

Machines are built either directly from a transition relation or through
the small DSL in :mod:`~repro.machines.builder`; :mod:`~repro.machines.
library` ships concrete machines used across tests and experiments.

Three engines implement the semantics, pinned bit-identical by
differential tests: the **reference engine**
(:mod:`~repro.machines.execute`) materializes full configuration
histories, the **streaming engine** (:mod:`~repro.machines.fast_engine`)
simulates in O(1) extra memory per step with incrementally maintained
statistics, and the **compiled engine**
(:mod:`~repro.machines.compiled_engine`) lowers the transition relation
to dense integer tables and executes straight-line head sweeps as
macro-steps.  The package-level :func:`run_deterministic` /
:func:`run_with_choices` go through the tier-selection front door in
:mod:`~repro.machines.engine` (``engine="auto"`` picks the compiled
tier, falling back to streaming for ``trace=True``, attached probes and
machines the compiler cannot lower).
"""

from .tm import TuringMachine, Transition, L, N, R
from .config import Configuration
from .execute import (
    Run,
    RunStatistics,
    enumerate_runs,
    choice_alphabet,
)

# The canonical run functions are the tier-selecting front door; pass
# engine="reference" / "streaming" / "compiled" to pin a tier.
from .engine import (
    ENGINES,
    resolve_engine,
    run_deterministic,
    run_with_choices,
)

# The canonical acceptance_probability is the streaming engine's iterative
# DP — identical exact Fractions, no RecursionError on deep runs.  The
# recursive reference oracle stays at repro.machines.execute.
from .fast_engine import (
    FastRun,
    StepState,
    acceptance_probability,
    run_deterministic as fast_run_deterministic,
    run_with_choices as fast_run_with_choices,
)
from .builder import MachineBuilder
from .library import (
    copy_machine,
    parity_machine,
    coin_flip_machine,
    guess_bit_machine,
    equality_machine,
    copy_reverse_machine,
    majority_machine,
)
from .randomized import (
    RTMReport,
    RTMViolation,
    check_half_zero_rtm,
    check_co_half_zero_rtm,
)

__all__ = [
    "TuringMachine",
    "Transition",
    "L",
    "N",
    "R",
    "Configuration",
    "Run",
    "RunStatistics",
    "run_deterministic",
    "enumerate_runs",
    "acceptance_probability",
    "run_with_choices",
    "choice_alphabet",
    "ENGINES",
    "resolve_engine",
    "FastRun",
    "StepState",
    "fast_run_deterministic",
    "fast_run_with_choices",
    "MachineBuilder",
    "copy_machine",
    "parity_machine",
    "coin_flip_machine",
    "guess_bit_machine",
    "equality_machine",
    "copy_reverse_machine",
    "majority_machine",
    "RTMReport",
    "RTMViolation",
    "check_half_zero_rtm",
    "check_co_half_zero_rtm",
]
