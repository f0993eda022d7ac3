"""Engine tier selection: one front door over the three execution engines.

The repo ships three implementations of the same run semantics, pinned
bit-identical by the cross-engine differential tests:

* ``reference`` (:mod:`repro.machines.execute`) — materializes the full
  configuration history, recovers statistics post hoc.  O(length²) per
  run; the oracle everything else is tested against.
* ``streaming`` (:mod:`repro.machines.fast_engine`) — O(1) per step,
  incremental statistics, supports ``trace=True``, per-step probes and
  live :class:`~repro.extmem.tracker.ResourceTracker` enforcement.
* ``compiled`` (:mod:`repro.machines.compiled_engine`) — dense integer
  transition tables plus macro-step run compression; the fastest tier
  for a single run.

:func:`run_deterministic` / :func:`run_with_choices` here accept an
``engine`` keyword (``"auto"`` | ``"reference"`` | ``"streaming"`` |
``"compiled"``) and dispatch accordingly.  ``"auto"`` — the default and
what the package-level ``repro.machines.run_deterministic`` uses — picks
the compiled tier, which itself falls back to streaming for run modes
that need per-step observation (``trace=True``, an attached ``probe``)
and for machines the compiler cannot lower; :func:`resolve_engine`
reports the tier that would actually execute, without running anything.

The reference engine predates resource bridging and stays the plain
oracle: asking for ``engine="reference"`` together with a ``tracker``
raises ``ValueError`` rather than silently dropping enforcement.
"""

from __future__ import annotations

from typing import Sequence, Union

from . import compiled_engine, execute, fast_engine
from .execute import DEFAULT_STEP_LIMIT, Run
from .fast_engine import FastRun
from .tm import TuringMachine

#: The accepted values of the ``engine`` keyword.
ENGINES = ("auto", "reference", "streaming", "compiled")


def _check_engine(engine: str, tracker) -> str:
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    if engine == "reference" and tracker is not None:
        raise ValueError(
            "the reference engine does not bridge ResourceTracker charges; "
            "use engine='streaming' or engine='compiled'"
        )
    return engine


def resolve_engine(
    machine: TuringMachine,
    *,
    engine: str = "auto",
    trace: bool = False,
    probe=None,
    tracker=None,
) -> str:
    """The tier that would actually execute, after fallbacks.

    ``"auto"`` and ``"compiled"`` resolve to ``"streaming"`` when the run
    needs per-step observation (``trace``/``probe``) or the machine
    cannot be lowered; everything else resolves to itself.  Raises the
    same ``ValueError`` as the run functions on an unknown engine or an
    unsupported combination.
    """
    engine = _check_engine(engine, tracker)
    if engine == "reference" or engine == "streaming":
        return engine
    if trace or probe is not None:
        return "streaming"
    if compiled_engine.try_compile(machine) is None:
        return "streaming"
    return "compiled"


def run_deterministic(
    machine: TuringMachine,
    word: str,
    *,
    step_limit: int = DEFAULT_STEP_LIMIT,
    trace: bool = False,
    probe=None,
    tracker=None,
    engine: str = "auto",
) -> Union[Run, FastRun]:
    """Execute a deterministic machine on the selected engine tier.

    Returns the reference engine's :class:`~repro.machines.execute.Run`
    when the tier keeps a full history (``engine="reference"`` or
    ``trace=True``), otherwise a :class:`~repro.machines.fast_engine.FastRun`
    — bit-identical final configuration and statistics either way.
    """
    engine = _check_engine(engine, tracker)
    if engine == "reference":
        return execute.run_deterministic(
            machine, word, step_limit=step_limit, probe=probe
        )
    if engine == "streaming":
        return fast_engine.run_deterministic(
            machine, word, step_limit=step_limit, trace=trace, probe=probe,
            tracker=tracker,
        )
    return compiled_engine.run_deterministic(
        machine, word, step_limit=step_limit, trace=trace, probe=probe,
        tracker=tracker,
    )


def run_with_choices(
    machine: TuringMachine,
    word: str,
    choices: Sequence[int],
    *,
    step_limit: int = DEFAULT_STEP_LIMIT,
    trace: bool = False,
    probe=None,
    tracker=None,
    engine: str = "auto",
) -> Union[Run, FastRun]:
    """ρ_T(w, c) on the selected engine tier (Definition 17 semantics).

    ``choices`` may be lazy (an object indexing into an RNG stream); every
    tier consumes exactly one ``choices[step]`` per step, in order.
    """
    engine = _check_engine(engine, tracker)
    if engine == "reference":
        return execute.run_with_choices(
            machine, word, choices, step_limit=step_limit
        )
    if engine == "streaming":
        return fast_engine.run_with_choices(
            machine, word, choices, step_limit=step_limit, trace=trace,
            probe=probe, tracker=tracker,
        )
    return compiled_engine.run_with_choices(
        machine, word, choices, step_limit=step_limit, trace=trace,
        probe=probe, tracker=tracker,
    )
