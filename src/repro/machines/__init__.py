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

Two engines implement the semantics, pinned bit-identical by
differential tests: the **reference engine**
(:mod:`~repro.machines.execute`) materializes full configuration
histories and is the oracle the tests compare against, and the
**streaming engine** (:mod:`~repro.machines.fast_engine`) simulates in
O(1) extra memory per step with incrementally maintained statistics and
charges an attached :class:`~repro.extmem.tracker.ResourceTracker` as it
goes.  The package-level :func:`run_deterministic`,
:func:`run_with_choices` and :func:`acceptance_probability` are the
streaming engine's; the reference versions stay at
:mod:`repro.machines.execute`.
"""

from .tm import TuringMachine, Transition, L, N, R
from .config import Configuration
from .execute import (
    Run,
    RunStatistics,
    enumerate_runs,
    choice_alphabet,
)

# acceptance_probability's DP is iterative: the reference oracle's exact
# Fractions without its RecursionError on deep runs.
from .fast_engine import (
    FastRun,
    StepState,
    acceptance_probability,
    run_deterministic,
    run_with_choices,
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
    "FastRun",
    "StepState",
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
