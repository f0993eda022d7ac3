"""Validation of randomized machine contracts ((1/2, 0)-RTMs, Las Vegas).

Definition 4 of the paper: a decision problem is solved by a (1/2, 0)-RTM
iff yes-inputs are accepted with probability ≥ 1/2 and no-inputs with
probability exactly 0.  These helpers check that contract for a concrete
machine over finite word samples, using the exact acceptance probabilities
of :func:`repro.machines.fast_engine.acceptance_probability` (the
streaming engine's iterative DP — same Fractions as the reference
oracle, no recursion-depth ceiling) — no sampling noise.

Both checkers run one ``acceptance_probability`` per word, in process.
To see one DP's configuration-DAG size (interned and memoized
configurations, memo hits, frames), trace it: ``repro trace coin-flip``
prints it on one line.

:func:`estimate_acceptance_probability` is the Monte Carlo twin of the
exact DP: it samples whole runs under uniformly random choice sequences
(Definition 17 semantics) in blocks of :data:`TRIALS_PER_TASK`, in
process, each block drawing from its own rng keyed by the seed and the
block's index, so the estimate is a function of ``(seed, trials)`` alone
(``repro trace <machine> --trials T`` prints it).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence, Tuple

from .._util import normalize_seed
from ..errors import MachineError
from .fast_engine import acceptance_probability, run_with_choices
from .tm import TuringMachine

#: The checkers' default per-word step ceiling.
DEFAULT_CHECK_STEP_LIMIT = 100_000

#: Trials per block of :func:`estimate_acceptance_probability`.
TRIALS_PER_TASK = 32

#: Random choice values are drawn below this bound; it is divisible by
#: every branching factor up to 16, so ``c mod |options|`` stays exactly
#: uniform for any realistic machine (Definition 17 applies ``mod``).
_CHOICE_BOUND = 720_720


@dataclass(frozen=True)
class RTMViolation:
    """A word on which the (1/2, 0) contract fails."""

    word: str
    expected: str  # "yes" or "no"
    probability: Fraction


@dataclass(frozen=True)
class RTMReport:
    """Outcome of checking the (1/2, 0)-RTM contract on word samples."""

    violations: Tuple[RTMViolation, ...]
    checked: int

    @property
    def holds(self) -> bool:
        return not self.violations


def _check_rtm_words(
    machine: TuringMachine,
    yes_words: Sequence[str],
    no_words: Sequence[str],
    yes_violated,
    no_violated,
    step_limit: int,
) -> RTMReport:
    words = [(word, "yes") for word in yes_words]
    words += [(word, "no") for word in no_words]
    violations = []
    for word, side in words:
        p = acceptance_probability(machine, word, step_limit=step_limit)
        violated = yes_violated(p) if side == "yes" else no_violated(p)
        if violated:
            violations.append(RTMViolation(word, side, p))
    return RTMReport(tuple(violations), len(words))


def check_half_zero_rtm(
    machine: TuringMachine,
    yes_words: Sequence[str],
    no_words: Sequence[str],
    *,
    step_limit: int = DEFAULT_CHECK_STEP_LIMIT,
) -> RTMReport:
    """Exactly verify the (1/2, 0)-RTM contract on the given samples.

    Yes-words need Pr(accept) ≥ 1/2; no-words need Pr(accept) = 0.
    """
    return _check_rtm_words(
        machine,
        yes_words,
        no_words,
        lambda p: p < Fraction(1, 2),
        lambda p: p != 0,
        step_limit,
    )


def check_co_half_zero_rtm(
    machine: TuringMachine,
    yes_words: Sequence[str],
    no_words: Sequence[str],
    *,
    step_limit: int = DEFAULT_CHECK_STEP_LIMIT,
) -> RTMReport:
    """The complementary contract (co-RST side): yes-words accepted with
    probability 1, no-words accepted with probability ≤ 1/2."""
    return _check_rtm_words(
        machine,
        yes_words,
        no_words,
        lambda p: p != 1,
        lambda p: p > Fraction(1, 2),
        step_limit,
    )


# -- Monte Carlo estimation ------------------------------------------------


class _RandomChoices:
    """A lazy random choice sequence for :func:`run_with_choices`.

    Presents ``len() == limit`` so the engine's step guard still fires,
    but draws each choice on demand — sampling a short run never
    materializes ``step_limit`` integers.
    """

    __slots__ = ("_rng", "_limit")

    def __init__(self, rng: random.Random, limit: int):
        self._rng = rng
        self._limit = limit

    def __len__(self) -> int:
        return self._limit

    def __getitem__(self, index: int) -> int:
        return self._rng.randrange(_CHOICE_BOUND)


def sample_run_accepts(
    machine: TuringMachine,
    word: str,
    rng: random.Random,
    *,
    step_limit: int = DEFAULT_CHECK_STEP_LIMIT,
) -> bool:
    """One Monte Carlo sample: run under uniformly random choices."""
    run = run_with_choices(
        machine, word, _RandomChoices(rng, step_limit), step_limit=step_limit
    )
    return run.accepts(machine)


@dataclass(frozen=True)
class MonteCarloAcceptance:
    """A sampled acceptance probability with its trial transcript."""

    trials: int
    accepted: int

    @property
    def estimate(self) -> Fraction:
        return Fraction(self.accepted, self.trials)


def estimate_acceptance_probability(
    machine: TuringMachine,
    word: str,
    trials: int,
    *,
    seed: Any = 0,
    step_limit: int = DEFAULT_CHECK_STEP_LIMIT,
) -> MonteCarloAcceptance:
    """Sample Pr(T accepts w) over ``trials`` independent random runs.

    The sample is partitioned into blocks of :data:`TRIALS_PER_TASK`;
    block ``i`` draws from ``random.Random(f"batch:{seed}:{i}")`` (the
    seed through :func:`~repro._util.normalize_seed`), string-keyed so the
    streams are stable across Python versions.  The estimate depends only
    on ``(seed, trials)``.  The exact-DP answer is the oracle this
    estimator is tested against.
    """
    if trials < 1:
        raise MachineError(f"trials must be >= 1, got {trials}")
    key = normalize_seed(seed)
    accepted = 0
    for index, start in enumerate(range(0, trials, TRIALS_PER_TASK)):
        rng = random.Random(f"batch:{key}:{index}")
        for _ in range(min(TRIALS_PER_TASK, trials - start)):
            accepted += sample_run_accepts(
                machine, word, rng, step_limit=step_limit
            )
    return MonteCarloAcceptance(trials=trials, accepted=accepted)
