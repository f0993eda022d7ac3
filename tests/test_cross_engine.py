"""Cross-engine consistency: every decision procedure in the library must
agree with the reference deciders — and with each other — on random and
adversarial instances.  One failure here means two subsystems disagree
about the same paper-defined problem.

Also here: the Turing-machine engine pair.  The reference engine
(:mod:`repro.machines.execute`) and the streaming engine
(:mod:`repro.machines.fast_engine`) must produce bit-identical
``Run.final``, ``RunStatistics`` and exact ``Fraction`` acceptance
probabilities on the machine library and on randomly generated machines —
the streaming engine earns its speedups only if nothing observable
changes."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.algorithms import (
    amplified_multiset_equality,
    multiset_equality_deterministic,
    multiset_equality_fingerprint_bitlevel,
    nondeterministic_accepts,
    set_equality_deterministic,
    sets_disjoint_deterministic,
)
from repro.problems import (
    DISJOINT_SETS,
    MULTISET_EQUALITY,
    SET_EQUALITY,
    decode_instance,
    encode_instance,
)
from repro.queries.relational import (
    StreamingEvaluator,
    evaluate,
    set_equality_database,
    symmetric_difference_query,
)
from repro.queries.xml import instance_to_document
from repro.queries.xml.streaming import (
    instance_to_token_tape,
    theorem12_query_streaming,
)
from repro.queries.xpath import figure1_query, matches

words = st.lists(st.text(alphabet="01", min_size=1, max_size=5), max_size=6)


def _instance(first, second):
    k = min(len(first), len(second))
    return decode_instance(encode_instance(first[:k], second[:k]))


class TestMultisetEqualityEngines:
    @given(words, words, st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_all_engines_agree(self, first, second, seed):
        inst = _instance(first, second)
        rng = random.Random(seed)
        truth = MULTISET_EQUALITY(inst)
        assert multiset_equality_deterministic(inst).accepted == truth
        assert nondeterministic_accepts(inst) == truth
        # the randomized engines: completeness always; soundness w.h.p.
        amplified = amplified_multiset_equality(inst, rng, rounds=10)
        if truth:
            assert amplified
        bit = multiset_equality_fingerprint_bitlevel(inst.encode(), rng)
        if truth:
            assert bit.accepted
        if not bit.accepted:
            assert not truth


class TestSetEqualityEngines:
    @given(words, words)
    @settings(max_examples=40, deadline=None)
    def test_all_engines_agree(self, first, second):
        inst = _instance(first, second)
        truth = SET_EQUALITY(inst)
        assert set_equality_deterministic(inst).accepted == truth
        assert nondeterministic_accepts(inst, problem="set-equality") == truth
        # relational algebra: reference and streaming
        db = set_equality_database(inst)
        query = symmetric_difference_query()
        assert evaluate(query, db).is_empty == truth
        assert StreamingEvaluator(db).evaluate(query).is_empty == truth
        # XPath protocol (exact filter both directions)
        fires = matches(figure1_query(), instance_to_document(inst)) or matches(
            figure1_query(), instance_to_document(inst.swapped())
        )
        assert (not fires) == truth
        # streaming XML (Theorem 12 on token tapes)
        tape, tracker = instance_to_token_tape(inst)
        assert theorem12_query_streaming(tape, tracker).answer == truth


class TestDisjointSetsEngines:
    @given(words, words)
    @settings(max_examples=40, deadline=None)
    def test_solver_matches_reference(self, first, second):
        inst = _instance(first, second)
        assert sets_disjoint_deterministic(inst).accepted == DISJOINT_SETS(inst)

    def test_disjoint_solver_costs_match_equality(self):
        rng = random.Random(0)
        from repro.problems import random_equal_instance

        inst = random_equal_instance(64, 8, rng)
        dis = sets_disjoint_deterministic(inst)
        eq = set_equality_deterministic(inst)
        # both are sort-dominated: same order of magnitude of scans
        assert abs(dis.report.scans - eq.report.scans) <= 10


# ---------------------------------------------------------------------------
# Turing-machine engines: reference (execute) vs. streaming (fast_engine)
# ---------------------------------------------------------------------------

from repro.errors import (
    MachineError,
    ReversalBudgetExceeded,
    SpaceBudgetExceeded,
    StepBudgetExceeded,
)
from repro.extmem import ResourceBudget, ResourceTracker
from repro.extmem.tape import BLANK
from repro.machines import MachineBuilder, R
from repro.machines import execute as reference_engine
from repro.machines import fast_engine as streaming_engine
from repro.machines.library import (
    coin_flip_machine,
    copy_machine,
    copy_reverse_machine,
    equality_machine,
    guess_bit_machine,
    majority_machine,
    parity_machine,
)
from repro.machines.random_machines import random_terminating_tm

from tests.settings_profiles import DIFFERENTIAL_SETTINGS, QUICK_SETTINGS

DETERMINISTIC_LIBRARY = (
    copy_machine,
    parity_machine,
    copy_reverse_machine,
    majority_machine,
    equality_machine,
)
RANDOMIZED_LIBRARY = (coin_flip_machine, guess_bit_machine)

tm_words = st.text(alphabet="01#", max_size=12)


def _library_word(factory, word):
    if "#" in word and factory is not equality_machine:
        return word.replace("#", "0")  # '#' only in equality's alphabet
    return word


#: The engine benchmark's machines and word builders: run length grows
#: linearly in n, up to 5,126 configurations for equality at n = 1024.
BENCH_CELLS = (
    (copy_machine, lambda n: ("01" * n)[:n]),
    (parity_machine, lambda n: ("110" * n)[:n]),
    (majority_machine, lambda n: ("10" * n)[:n]),
    (copy_reverse_machine, lambda n: ("0110" * n)[:n]),
    (equality_machine, lambda n: ("01" * n)[:n] + "#" + ("01" * n)[:n]),
)


def _same_outcome(run_reference, run_streaming):
    """Both engines succeed with the same final configuration and
    statistics, or both raise the same exception type and message.
    Returns the reference engine's exception, or ``None``."""
    try:
        ref = run_reference()
    except (MachineError, StepBudgetExceeded) as exc:
        with pytest.raises(type(exc)) as raised:
            run_streaming()
        assert str(raised.value) == str(exc)
        return exc
    fast = run_streaming()
    assert fast.final == ref.final
    assert fast.statistics == ref.statistics
    return None


def _stuck_machine():
    b = MachineBuilder("stuck").start("q").accept("a")
    b.on("q", ("0",), "q", ("0",), (R,))  # no transition on the blank
    return b.build()


def _endless_machine():
    b = MachineBuilder("long").start("q").accept("a")
    b.on("q", (BLANK,), "q", ("0",), (R,))
    return b.build()


#: One pinned run per failure path: the run on a given engine, the error
#: both engines must raise, and a phrase its message must carry.
FAILURE_RUNS = {
    "stuck": (
        lambda engine: engine.run_deterministic(_stuck_machine(), "00"),
        MachineError,
        "stuck",
    ),
    "step_budget": (
        lambda engine: engine.run_deterministic(
            _endless_machine(), "", step_limit=50
        ),
        StepBudgetExceeded,
        "50 steps",
    ),
    "choice_exhaustion": (
        lambda engine: engine.run_with_choices(coin_flip_machine(), "0", ""),
        MachineError,
        "exhausted",
    ),
}


class TestTuringEnginePair:
    @pytest.mark.parametrize(
        "factory", DETERMINISTIC_LIBRARY, ids=lambda f: f.__name__
    )
    @given(word=tm_words)
    @DIFFERENTIAL_SETTINGS
    def test_library_runs_identical(self, factory, word):
        machine = factory()
        word = _library_word(factory, word)
        ref = reference_engine.run_deterministic(machine, word)
        fast = streaming_engine.run_deterministic(machine, word)
        assert fast.final == ref.final
        assert fast.statistics == ref.statistics

    @given(
        seed=st.integers(0, 2**20),
        tapes=st.integers(1, 3),
        word=st.text(alphabet="01", max_size=8),
        step_limit=st.sampled_from((5, 40, 10_000)),
    )
    @DIFFERENTIAL_SETTINGS
    def test_random_machine_runs_identical(self, seed, tapes, word, step_limit):
        """Small step limits force the step-budget path; stuck machines
        and left-wall falls force the error paths — both engines must
        raise the same exception type with the same message, or both
        succeed equally."""
        machine = random_terminating_tm(seed, external_tapes=tapes, length=6)
        _same_outcome(
            lambda: reference_engine.run_deterministic(
                machine, word, step_limit=step_limit
            ),
            lambda: streaming_engine.run_deterministic(
                machine, word, step_limit=step_limit
            ),
        )

    @pytest.mark.parametrize("case", sorted(FAILURE_RUNS))
    def test_failure_paths_match_reference(self, case):
        run, error, phrase = FAILURE_RUNS[case]
        denied = _same_outcome(
            lambda: run(reference_engine), lambda: run(streaming_engine)
        )
        assert isinstance(denied, error)
        assert phrase in str(denied)

    def test_step_limit_denial_mid_sweep(self):
        # the step guard fires at the exact step inside a long head sweep
        machine = copy_machine()
        word = "1" * 200
        for limit in (7, 50, 199):
            denied = _same_outcome(
                lambda: reference_engine.run_deterministic(
                    machine, word, step_limit=limit
                ),
                lambda: streaming_engine.run_deterministic(
                    machine, word, step_limit=limit
                ),
            )
            assert isinstance(denied, StepBudgetExceeded)

    @pytest.mark.parametrize(
        "factory", RANDOMIZED_LIBRARY, ids=lambda f: f.__name__
    )
    @given(word=st.text(alphabet="01", max_size=8))
    @QUICK_SETTINGS
    def test_acceptance_probabilities_identical(self, factory, word):
        machine = factory()
        reference = reference_engine.acceptance_probability(machine, word)
        fast = streaming_engine.acceptance_probability(machine, word)
        assert fast == reference
        assert (fast.numerator, fast.denominator) == (
            reference.numerator,
            reference.denominator,
        )

    @given(
        word=st.text(alphabet="01", max_size=6),
        choices=st.lists(st.integers(1, 12), min_size=0, max_size=14),
    )
    @QUICK_SETTINGS
    def test_choice_runs_identical(self, word, choices):
        """Short choice sequences exhaust mid-run: the choice-exhaustion
        diagnosis must come from both engines identically."""
        for factory in RANDOMIZED_LIBRARY:
            machine = factory()
            _same_outcome(
                lambda: reference_engine.run_with_choices(
                    machine, word, choices
                ),
                lambda: streaming_engine.run_with_choices(
                    machine, word, choices
                ),
            )

    @pytest.mark.parametrize(
        "factory, word_of",
        BENCH_CELLS,
        ids=[factory.__name__ for factory, _word_of in BENCH_CELLS],
    )
    def test_engine_bench_cells_identical(self, factory, word_of):
        machine = factory()
        for n in (16, 64, 256, 1024):
            word = word_of(n)
            ref = reference_engine.run_deterministic(
                machine, word, step_limit=1_000_000
            )
            fast = streaming_engine.run_deterministic(
                machine, word, step_limit=1_000_000
            )
            assert fast.final == ref.final, n
            assert fast.statistics == ref.statistics, n


# ---------------------------------------------------------------------------
# The streaming engine's tracker bridge, against the reference statistics
# ---------------------------------------------------------------------------


def _bridged(machine, word, budget=None):
    """A streaming run charged to a fresh tracker: (tracker, denial)."""
    tracker = ResourceTracker(budget)
    try:
        streaming_engine.run_deterministic(machine, word, tracker=tracker)
    except (ReversalBudgetExceeded, SpaceBudgetExceeded) as exc:
        return tracker, exc
    return tracker, None


def _check_bridge(machine, word):
    """The tracker holds Definition 1's quantities, as the reference run's
    statistics give them, and every budget below them denies at the cap.

    One step charged per step; ``1 + Σ rev`` over the external tapes as
    scans; each internal tape's space minus its start cell, which counts
    as space but is never charged, as internal bits.  A denied charge
    commits nothing (check-then-commit), so the run stops exactly at the
    cap.  Returns the unbudgeted run's tracker.
    """
    stats = reference_engine.run_deterministic(machine, word).statistics
    t = machine.external_tapes
    free, denied = _bridged(machine, word)
    assert denied is None
    assert free.scans == stats.external_scans(t)
    assert free.steps == stats.length - 1
    assert free.peak_internal_bits == (
        stats.internal_space(t) - machine.internal_tapes
    )
    for cap in range(1, free.scans):
        tracker, denied = _bridged(machine, word, ResourceBudget(max_scans=cap))
        assert isinstance(denied, ReversalBudgetExceeded), cap
        assert tracker.scans == cap
    for cap in range(free.peak_internal_bits):
        tracker, denied = _bridged(
            machine, word, ResourceBudget(max_internal_bits=cap)
        )
        assert isinstance(denied, SpaceBudgetExceeded), cap
        assert tracker.peak_internal_bits == cap
    return free


#: Words whose runs have caps to deny: equality and copy-reverse reverse
#: their heads, majority grows its internal counter tape.
PINNED_CAP_RUNS = (
    (equality_machine, "0110#0110"),
    (copy_reverse_machine, "0110"),
    (majority_machine, "0110"),
    (majority_machine, "0101101"),
)


class TestTrackerBridge:
    @pytest.mark.parametrize(
        "factory", DETERMINISTIC_LIBRARY, ids=lambda f: f.__name__
    )
    @given(word=tm_words)
    @example(word="0110#0110")  # equality and copy-reverse reverse
    @example(word="1" * 12)  # majority's counter tape grows to 13 cells
    @QUICK_SETTINGS
    def test_library_charges_match_reference(self, factory, word):
        _check_bridge(factory(), _library_word(factory, word))

    @pytest.mark.parametrize(
        "factory, word",
        PINNED_CAP_RUNS,
        ids=[f"{f.__name__[:-len('_machine')]}-{w}" for f, w in PINNED_CAP_RUNS],
    )
    def test_pinned_words_deny_at_every_cap(self, factory, word):
        free = _check_bridge(factory(), word)
        assert free.scans > 1 or free.peak_internal_bits > 0

    @given(
        seed=st.integers(0, 2**20),
        tapes=st.integers(1, 3),
        internal=st.integers(0, 1),
        word=st.text(alphabet="01", max_size=8),
    )
    @DIFFERENTIAL_SETTINGS
    def test_random_machine_charges_match_reference(
        self, seed, tapes, internal, word
    ):
        machine = random_terminating_tm(
            seed, external_tapes=tapes, internal_tapes=internal, length=6
        )
        try:
            reference_engine.run_deterministic(machine, word)
        except MachineError:
            return  # a left-wall fall: compared in TestTuringEnginePair
        _check_bridge(machine, word)
