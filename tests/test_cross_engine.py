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
from hypothesis import given, settings, strategies as st

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

from repro.errors import MachineError
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


class TestTuringEnginePair:
    @pytest.mark.parametrize(
        "factory", DETERMINISTIC_LIBRARY, ids=lambda f: f.__name__
    )
    @given(word=tm_words)
    @DIFFERENTIAL_SETTINGS
    def test_library_runs_identical(self, factory, word):
        machine = factory()
        if "#" in word and factory is not equality_machine:
            word = word.replace("#", "0")  # '#' only in equality's alphabet
        ref = reference_engine.run_deterministic(machine, word)
        fast = streaming_engine.run_deterministic(machine, word)
        assert fast.final == ref.final
        assert fast.statistics == ref.statistics
        # trace mode reproduces the reference Run object exactly
        assert (
            streaming_engine.run_deterministic(machine, word, trace=True) == ref
        )

    @given(
        seed=st.integers(0, 2**20),
        tapes=st.integers(1, 3),
        word=st.text(alphabet="01", max_size=8),
    )
    @DIFFERENTIAL_SETTINGS
    def test_random_machine_runs_identical(self, seed, tapes, word):
        machine = random_terminating_tm(
            seed, external_tapes=tapes, length=6
        )
        try:
            ref = reference_engine.run_deterministic(machine, word)
        except MachineError:
            with pytest.raises(MachineError):
                streaming_engine.run_deterministic(machine, word)
            return
        fast = streaming_engine.run_deterministic(machine, word)
        assert fast.final == ref.final
        assert fast.statistics == ref.statistics

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
        choices=st.lists(st.integers(1, 12), min_size=10, max_size=14),
    )
    @QUICK_SETTINGS
    def test_choice_runs_identical(self, word, choices):
        for factory in RANDOMIZED_LIBRARY:
            machine = factory()
            ref = reference_engine.run_with_choices(machine, word, choices)
            fast = streaming_engine.run_with_choices(machine, word, choices)
            assert fast.final == ref.final
            assert fast.statistics == ref.statistics


# ---------------------------------------------------------------------------
# Three-way differential: reference vs. streaming vs. compiled
# ---------------------------------------------------------------------------

from repro.errors import ReproError, StepBudgetExceeded
from repro.extmem import ResourceBudget, ResourceTracker
from repro.machines import compiled_engine as compiled_tier


class TestThreeWayDifferential:
    """Every engine tier must agree bit-for-bit — on results, on failure
    control flow (stuck / step-limit / choice exhaustion) and, for the
    tracker-bridging tiers, on budget-denial state."""

    @pytest.mark.parametrize(
        "factory", DETERMINISTIC_LIBRARY, ids=lambda f: f.__name__
    )
    @given(word=tm_words)
    @DIFFERENTIAL_SETTINGS
    def test_library_runs_identical(self, factory, word):
        machine = factory()
        if "#" in word and factory is not equality_machine:
            word = word.replace("#", "0")
        ref = reference_engine.run_deterministic(machine, word)
        for tier in (streaming_engine, compiled_tier):
            run = tier.run_deterministic(machine, word)
            assert run.final == ref.final
            assert run.statistics == ref.statistics

    @given(
        seed=st.integers(0, 2**20),
        tapes=st.integers(1, 3),
        word=st.text(alphabet="01", max_size=8),
        step_limit=st.sampled_from((5, 40, 10_000)),
    )
    @DIFFERENTIAL_SETTINGS
    def test_random_machines_agree_including_failures(
        self, seed, tapes, word, step_limit
    ):
        """Small step limits force the step-budget path; stuck machines
        force the no-transition path — all tiers must raise the same
        exception type with the same message, or all succeed equally."""
        machine = random_terminating_tm(seed, external_tapes=tapes, length=6)
        try:
            ref = reference_engine.run_deterministic(
                machine, word, step_limit=step_limit
            )
            outcome = None
        except (MachineError, StepBudgetExceeded) as exc:
            ref, outcome = None, exc
        for tier in (streaming_engine, compiled_tier):
            if outcome is None:
                run = tier.run_deterministic(
                    machine, word, step_limit=step_limit
                )
                assert run.final == ref.final
                assert run.statistics == ref.statistics
            else:
                with pytest.raises(type(outcome)) as exc:
                    tier.run_deterministic(
                        machine, word, step_limit=step_limit
                    )
                assert str(exc.value) == str(outcome)

    @given(
        word=st.text(alphabet="01", max_size=6),
        choices=st.lists(st.integers(1, 12), min_size=0, max_size=14),
    )
    @QUICK_SETTINGS
    def test_choice_runs_agree_including_exhaustion(self, word, choices):
        """Short choice sequences exhaust mid-run: the choice-exhaustion
        diagnosis must come from every tier identically."""
        for factory in RANDOMIZED_LIBRARY:
            machine = factory()
            try:
                ref = reference_engine.run_with_choices(machine, word, choices)
                outcome = None
            except MachineError as exc:
                ref, outcome = None, exc
            for tier in (streaming_engine, compiled_tier):
                if outcome is None:
                    run = tier.run_with_choices(machine, word, choices)
                    assert run.final == ref.final
                    assert run.statistics == ref.statistics
                else:
                    with pytest.raises(MachineError) as exc:
                        tier.run_with_choices(machine, word, choices)
                    assert str(exc.value) == str(outcome)

    @pytest.mark.parametrize(
        "factory", DETERMINISTIC_LIBRARY, ids=lambda f: f.__name__
    )
    @given(word=st.text(alphabet="01", min_size=1, max_size=8), cap=st.integers(1, 6))
    @QUICK_SETTINGS
    def test_budget_violations_agree(self, factory, word, cap):
        """Under a scan budget, streaming and compiled must deny at the
        same charge with the same exception and identical tracker state
        (the reference tier predates tracker bridging and sits this one
        out)."""
        machine = factory()
        outcomes = []
        for tier in (streaming_engine, compiled_tier):
            tracker = ResourceTracker(ResourceBudget(max_scans=cap))
            try:
                tier.run_deterministic(machine, word, tracker=tracker)
                outcomes.append((None, tracker.report()))
            except ReproError as exc:
                outcomes.append(((type(exc), str(exc)), tracker.report()))
        assert outcomes[0] == outcomes[1]
