"""The streaming engine (repro.machines.fast_engine).

Three layers of evidence that the fast engine is a faithful twin of the
reference engine:

1. unit tests on :class:`StepState`'s initial state and slots;
2. Hypothesis differential tests — randomly generated machines and words,
   asserting bit-identical finals, statistics and exact probabilities;
3. a regression test that the iterative ``acceptance_probability`` (the
   canonical ``repro.machines`` export) survives runs deeper than
   ``sys.getrecursionlimit()``, where the recursive oracle cannot.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.errors import MachineError, StepBudgetExceeded
from repro.extmem.tape import BLANK
from repro.machines import (
    MachineBuilder,
    acceptance_probability,
    run_deterministic,
    run_with_choices,
)
from repro.machines import execute, fast_engine
from repro.machines.config import initial_configuration
from repro.machines.fast_engine import FastRun, StepState
from repro.machines.library import (
    coin_flip_machine,
    copy_machine,
    equality_machine,
    guess_bit_machine,
    parity_machine,
)
from repro.machines.random_machines import random_terminating_tm
from repro.machines.tm import N, R

from tests.settings_profiles import DIFFERENTIAL_SETTINGS, QUICK_SETTINGS

words = st.text(alphabet="01", max_size=10)

machines = st.builds(
    random_terminating_tm,
    seed=st.integers(0, 2**16),
    external_tapes=st.integers(1, 2),
    internal_tapes=st.integers(0, 1),
    length=st.integers(2, 8),
)


def random_branching_tm(seed, length=4):
    """A small nondeterministic machine: 1–3 choices per situation.

    Every transition advances a step index, so all runs are finite; moves
    are only R/N, so heads never fall off — every word has a well-defined
    exact acceptance probability to compare across engines.
    """
    rng = random.Random(seed)
    b = MachineBuilder(f"branchy-{seed}", external_tapes=1).start("s0")
    b.accept("acc").reject("rej")
    for step in range(length):
        for sym in ("0", "1", BLANK):
            for _ in range(rng.randint(1, 3)):
                write = rng.choice(("0", "1", BLANK))
                move = rng.choice((R, N))
                if step + 1 < length:
                    target = f"s{step + 1}"
                else:
                    target = rng.choice(("acc", "rej"))
                b.on(f"s{step}", (sym,), target, (write,), (move,))
    return b.build()


class TestStepState:
    def test_initial_snapshot_matches_initial_configuration(self):
        machine = equality_machine()
        state = StepState(machine, "01#01")
        assert state.snapshot() == initial_configuration(machine, "01#01")
        assert state.statistics().length == 1

    def test_slots_reject_stray_attributes(self):
        state = StepState(copy_machine(), "0")
        with pytest.raises(AttributeError):
            state.stray = 1

    def test_left_wall_raises_like_reference(self):
        b = MachineBuilder("fall").start("q").accept("a")
        b.on("q", ("0",), "q", ("0",), ("L",))
        machine = b.build()
        with pytest.raises(MachineError):
            fast_engine.run_deterministic(machine, "0")


class TestRunModes:
    def test_streaming_returns_fastrun_without_history(self):
        run = fast_engine.run_deterministic(copy_machine(), "0101")
        assert isinstance(run, FastRun)
        assert not hasattr(run, "configurations")

    def test_package_alias_is_fast_engine(self):
        assert run_deterministic is fast_engine.run_deterministic
        assert run_with_choices is fast_engine.run_with_choices
        assert acceptance_probability is fast_engine.acceptance_probability

    def test_choices_stay_lazy(self):
        # the Monte Carlo sampler's choices draw from an RNG on access:
        # exactly one access per step, in order
        class Lazy:
            def __init__(self):
                self.accesses = []

            def __len__(self):
                return 64

            def __getitem__(self, index):
                self.accesses.append(index)
                return 1

        for machine in (coin_flip_machine(), random_branching_tm(7, 12)):
            choices = Lazy()
            run = run_with_choices(machine, "0110", choices)
            steps = run.statistics.length - 1
            assert choices.accesses == list(range(steps))

    def test_nondeterministic_machine_rejected(self):
        with pytest.raises(MachineError):
            fast_engine.run_deterministic(coin_flip_machine(), "0")

    def test_step_limit(self):
        b = MachineBuilder("long").start("q").accept("a")
        b.on("q", (BLANK,), "q", ("0",), (R,))
        with pytest.raises(StepBudgetExceeded):
            fast_engine.run_deterministic(b.build(), "", step_limit=100)

    def test_exhausted_choices_reported(self):
        with pytest.raises(MachineError):
            fast_engine.run_with_choices(parity_machine(), "111111", [1])


class TestDifferentialProperties:
    @given(machine=machines, word=words)
    @DIFFERENTIAL_SETTINGS
    def test_fast_equals_reference_on_random_machines(self, machine, word):
        try:
            ref = execute.run_deterministic(machine, word)
        except MachineError:
            # generated machine fell off the left wall: both engines agree
            with pytest.raises(MachineError):
                fast_engine.run_deterministic(machine, word)
            return
        fast = fast_engine.run_deterministic(machine, word)
        assert fast.final == ref.final
        assert fast.statistics == ref.statistics
        assert fast.accepts(machine) == ref.accepts(machine)

    @given(seed=st.integers(0, 2**16), word=st.text(alphabet="01", max_size=6))
    @QUICK_SETTINGS
    def test_acceptance_probability_equals_reference(self, seed, word):
        machine = random_branching_tm(seed)
        reference = execute.acceptance_probability(machine, word)
        fast = fast_engine.acceptance_probability(machine, word)
        assert fast == reference
        assert isinstance(fast, Fraction)

    @given(
        word=st.text(alphabet="01", max_size=6),
        choices=st.lists(st.integers(1, 6), min_size=10, max_size=14),
    )
    @QUICK_SETTINGS
    def test_run_with_choices_equals_reference(self, word, choices):
        for machine in (coin_flip_machine(), guess_bit_machine()):
            ref = execute.run_with_choices(machine, word, choices)
            fast = fast_engine.run_with_choices(machine, word, choices)
            assert fast.final == ref.final
            assert fast.statistics == ref.statistics


class TestDeepRuns:
    def test_acceptance_probability_beyond_recursion_limit(self):
        """The iterative DP must survive runs the recursive oracle cannot."""
        machine = parity_machine()
        depth = sys.getrecursionlimit() + 200
        word = "1" * depth
        expected = Fraction(1 if depth % 2 == 0 else 0)
        assert (
            fast_engine.acceptance_probability(
                machine, word, step_limit=depth + 10
            )
            == expected
        )
        with pytest.raises(RecursionError):
            execute.acceptance_probability(machine, word, step_limit=depth + 10)

    def test_cycle_detection_preserved(self):
        b = MachineBuilder("loop").start("q").accept("a")
        b.on("q", (BLANK,), "q", (BLANK,), (N,))
        machine = b.build()
        with pytest.raises(MachineError):
            fast_engine.acceptance_probability(machine, "")
