"""Tests for repro.problems: encoding, deciders, generators, reductions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EncodingError
from repro.lowerbounds import phi_permutation
from repro.problems import (
    CHECK_SORT,
    DISJOINT_SETS,
    MULTISET_EQUALITY,
    SET_EQUALITY,
    CheckPhiFamily,
    Instance,
    IntervalFamily,
    check_phi_problem,
    check_phi_to_short,
    decode_instance,
    encode_instance,
    instance_size,
    near_miss_instance,
    random_checksort_instance,
    random_equal_instance,
    random_unequal_instance,
    random_word,
    random_words,
    short_variant,
    sort_strings,
)
from repro.problems.reductions import (
    check_phi_to_short_on_tapes,
    reduction_layout,
    verify_length_linear,
)

bitstrings = st.text(alphabet="01", max_size=8)


class TestEncoding:
    def test_encode_basic(self):
        assert encode_instance(["01", "1"], ["1", "01"]) == "01#1#1#01#"

    def test_empty_instance(self):
        inst = decode_instance("")
        assert inst.m == 0 and inst.size == 0

    def test_decode_basic(self):
        inst = decode_instance("01#1#1#01#")
        assert inst.first == ("01", "1")
        assert inst.second == ("1", "01")

    def test_size_formula(self):
        # N = 2m + Σ|v|: m=2, strings 2+1+1+2 = 6 → N = 10
        assert instance_size("01#1#1#01#") == 10
        assert instance_size("01#1#1#01#") == len("01#1#1#01#")

    def test_uniform_length_size(self):
        inst = decode_instance("00#11#01#10#")
        # N = 2m(n+1) with m=2, n=2
        assert inst.size == 2 * 2 * 3

    @pytest.mark.parametrize(
        "bad",
        ["01", "0#1#1#", "0a#0a#", "#0#1", "0#1#2#3#"],
    )
    def test_decode_rejects_malformed(self, bad):
        with pytest.raises(EncodingError):
            decode_instance(bad)

    def test_empty_values_are_legal(self):
        inst = decode_instance("##")
        assert inst.first == ("",) and inst.second == ("",)

    def test_halves_must_match(self):
        with pytest.raises(EncodingError):
            encode_instance(["0"], [])
        with pytest.raises(EncodingError):
            Instance(("0",), ())

    def test_values_must_be_binary(self):
        with pytest.raises(EncodingError):
            encode_instance(["0x"], ["0x"])

    def test_sequence_of_bits_is_not_a_value(self):
        # a list of 0-1 characters iterates like a 0-1 string but cannot
        # be encoded, so it must be refused up front
        with pytest.raises(EncodingError, match="is not a 0-1 string"):
            Instance((["0", "1"],), (("0", "1"),))
        with pytest.raises(EncodingError, match="is not a 0-1 string"):
            encode_instance([["0", "1"]], ["01"])

    def test_non_string_values_raise_encoding_error(self):
        with pytest.raises(EncodingError, match="is not a 0-1 string"):
            Instance((1,), (1,))
        with pytest.raises(EncodingError, match="is not a 0-1 string"):
            encode_instance(["0"], [None])

    @given(
        st.lists(bitstrings, max_size=6).flatmap(
            lambda first: st.tuples(
                st.just(first),
                st.lists(bitstrings, min_size=len(first), max_size=len(first)),
            )
        )
    )
    def test_roundtrip(self, halves):
        first, second = halves
        text = encode_instance(first, second)
        inst = decode_instance(text)
        assert list(inst.first) == first
        assert list(inst.second) == second
        assert inst.encode() == text

    def test_swapped(self):
        inst = decode_instance("0#1#")
        assert inst.swapped().first == ("1",)


class TestDeciders:
    def test_set_equality(self):
        assert SET_EQUALITY("0#1#1#0#")
        assert SET_EQUALITY("0#0#1#0#1#1#")  # sets ignore multiplicity
        assert not SET_EQUALITY("0#1#1#1#")

    def test_multiset_equality(self):
        assert MULTISET_EQUALITY("0#1#1#0#")
        assert not MULTISET_EQUALITY("0#0#1#0#1#1#")

    def test_set_vs_multiset_disagree_exactly_on_multiplicity(self):
        inst = "00#00#11#00#11#11#"
        assert SET_EQUALITY(inst) and not MULTISET_EQUALITY(inst)

    def test_check_sort(self):
        assert CHECK_SORT("10#01#01#10#")
        assert not CHECK_SORT("10#01#10#01#")
        assert CHECK_SORT("")  # trivially sorted

    def test_check_sort_respects_duplicates(self):
        assert CHECK_SORT("1#0#1#0#1#1#")
        with pytest.raises(EncodingError):
            CHECK_SORT("1#0#1#0#1#")  # odd count → malformed
        # wrong multiset, right order
        assert not CHECK_SORT("1#0#1#0#0#1#")

    def test_lexicographic_convention(self):
        assert sort_strings(["1", "0", "00", "01"]) == ["0", "00", "01", "1"]

    def test_disjoint_sets(self):
        assert DISJOINT_SETS("0#1#")
        assert not DISJOINT_SETS("0#0#")

    def test_short_variant_promise(self):
        short = short_variant(MULTISET_EQUALITY, c=2)
        # m = 4 → limit 2·log2(4) = 4
        ok = encode_instance(["0000"] * 4, ["0000"] * 4)
        too_long = encode_instance(["00000"] * 4, ["00000"] * 4)
        assert short.is_valid_instance(ok)
        assert not short.is_valid_instance(too_long)
        with pytest.raises(EncodingError):
            short(too_long)

    def test_short_variant_requires_c_ge_2(self):
        with pytest.raises(EncodingError):
            short_variant(SET_EQUALITY, c=1)

    def test_check_phi_problem(self):
        phi = phi_permutation(4)  # [0, 2, 1, 3]
        problem = check_phi_problem(phi)
        u = ["00", "01", "10", "11"]
        first = [u[phi[i]] for i in range(4)]
        assert problem(encode_instance(first, u))
        assert not problem(encode_instance(u, u))

    def test_check_phi_rejects_wrong_m(self):
        problem = check_phi_problem(phi_permutation(4))
        with pytest.raises(EncodingError):
            problem("0#0#")


class TestGenerators:
    def test_equal_instances_are_yes(self):
        rng = random.Random(0)
        for _ in range(20):
            inst = random_equal_instance(6, 5, rng)
            assert MULTISET_EQUALITY(inst) and SET_EQUALITY(inst)

    def test_unequal_instances_are_no(self):
        rng = random.Random(1)
        for _ in range(20):
            inst = random_unequal_instance(6, 5, rng)
            assert not MULTISET_EQUALITY(inst)

    def test_near_miss_is_no_but_close(self):
        rng = random.Random(2)
        for _ in range(20):
            inst = near_miss_instance(5, 6, rng)
            assert not MULTISET_EQUALITY(inst)
            diff = sum(
                a != b
                for v, w in zip(sorted(inst.first), sorted(inst.second))
                for a, b in zip(v, w)
            )
            assert diff >= 1

    @given(
        m=st.integers(1, 6),
        n=st.integers(1, 6),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_near_miss_flips_one_bit_of_the_equal_instance(self, m, n, seed):
        """The equal instance the same rng would draw, with one bit of
        one second-half value flipped, after exactly two more draws."""
        rng = random.Random(seed)
        clone = random.Random()
        clone.setstate(rng.getstate())
        inst = near_miss_instance(m, n, rng)
        equal = random_equal_instance(m, n, clone)
        assert inst.first == equal.first
        changed = [
            (v, w) for v, w in zip(equal.second, inst.second) if v != w
        ]
        assert len(changed) == 1
        ((v, w),) = changed
        assert len(v) == len(w)
        assert sum(a != b for a, b in zip(v, w)) == 1
        clone.randrange(m)
        clone.randrange(n)
        assert rng.getstate() == clone.getstate()
        assert not MULTISET_EQUALITY(inst)

    def test_checksort_instances(self):
        rng = random.Random(3)
        for _ in range(10):
            assert CHECK_SORT(random_checksort_instance(6, 4, rng, yes=True))
            assert not CHECK_SORT(random_checksort_instance(6, 4, rng, yes=False))

    def test_unequal_requires_m_positive(self):
        with pytest.raises(EncodingError):
            random_unequal_instance(0, 4, random.Random(0))

    @pytest.mark.parametrize("n", [0, 1, 2, 31, 32, 33, 64, 257])
    def test_random_word_is_the_choice_loop(self, n):
        # pins the bulk draws to CPython's choice/getrandbits: a change in
        # either makes this fail rather than silently move every instance.
        # random_words(m, n) must be m random_word(n) draws in a row; m
        # runs inside, so the ids stay one per n
        for seed in range(300):
            bulk, loop = random.Random(seed), random.Random(seed)
            assert random_word(n, bulk) == "".join(
                loop.choice("01") for _ in range(n)
            )
            assert bulk.getstate() == loop.getstate()
            for m in (0, 1, 7, 128):
                assert random_words(m, n, bulk) == [
                    random_word(n, loop) for _ in range(m)
                ]
                assert bulk.getstate() == loop.getstate()


class TestIntervalFamily:
    def test_partition(self):
        fam = IntervalFamily(4, 4)
        assert fam.interval_size == 4
        assert fam.interval_of("0000") == 0
        assert fam.interval_of("0100") == 1
        assert fam.interval_of("1111") == 3

    def test_enumerate_covers_everything(self):
        fam = IntervalFamily(4, 3)
        seen = [v for j in range(4) for v in fam.enumerate_interval(j)]
        assert len(seen) == 8 and len(set(seen)) == 8

    def test_sample_lands_in_interval(self):
        fam = IntervalFamily(8, 6)
        rng = random.Random(4)
        for j in range(8):
            for _ in range(5):
                assert fam.interval_of(fam.sample(j, rng)) == j

    def test_m_must_divide(self):
        with pytest.raises(EncodingError):
            IntervalFamily(3, 4)

    def test_wrong_length_value(self):
        fam = IntervalFamily(2, 4)
        with pytest.raises(EncodingError):
            fam.interval_of("00")


class TestCheckPhiFamily:
    def test_yes_instances_satisfy_promise_and_decision(self):
        fam = CheckPhiFamily(8, 6)
        rng = random.Random(5)
        problem = check_phi_problem(fam.phi)
        for _ in range(10):
            inst = fam.random_yes(rng)
            assert fam.in_promise(inst)
            assert fam.is_yes(inst)
            assert problem(inst)
            # CHECK-φ yes-instances are yes for (multi)set equality too
            assert MULTISET_EQUALITY(inst) and SET_EQUALITY(inst)

    def test_no_instances_stay_in_promise(self):
        fam = CheckPhiFamily(8, 6)
        rng = random.Random(6)
        for _ in range(10):
            inst = fam.random_no(rng)
            assert fam.in_promise(inst)
            assert not fam.is_yes(inst)
            assert not MULTISET_EQUALITY(inst)

    def test_on_checkphi_family_all_three_problems_coincide(self):
        # Section 8: "For inputs that are instances of CHECK-φ, the problems
        # SET-EQUALITY, MULTISET-EQUALITY, CHECK-SORT and CHECK-φ coincide."
        fam = CheckPhiFamily(8, 6)
        rng = random.Random(7)
        for _ in range(20):
            inst = fam.random_yes(rng) if rng.random() < 0.5 else fam.random_no(rng)
            answers = {
                SET_EQUALITY(inst),
                MULTISET_EQUALITY(inst),
                fam.is_yes(inst),
            }
            assert len(answers) == 1
            # CHECK-SORT applies to the instance with sorted second half:
            # v'_j ∈ I_j means the second half is sorted ascending already
            assert list(inst.second) == sorted(inst.second)
            assert CHECK_SORT(inst) == fam.is_yes(inst)

    def test_instance_from_choices_validates(self):
        fam = CheckPhiFamily(4, 4)
        with pytest.raises(EncodingError):
            fam.instance_from_choices(["0000", "0000", "1000", "1100"])

    def test_tiny_intervals_cannot_produce_no(self):
        fam = CheckPhiFamily(4, 2)  # interval size 1
        with pytest.raises(EncodingError):
            fam.random_no(random.Random(0))


class TestReduction:
    def _roundtrip(self, m, n, seed, yes):
        fam = CheckPhiFamily(m, n)
        rng = random.Random(seed)
        inst = fam.random_yes(rng) if yes else fam.random_no(rng)
        out, layout = check_phi_to_short(inst, fam.phi)
        return inst, out, layout, fam

    @pytest.mark.parametrize("yes", [True, False])
    def test_preserves_answer_multiset(self, yes):
        inst, out, _, fam = self._roundtrip(8, 16, 11, yes)
        assert MULTISET_EQUALITY(out) == fam.is_yes(inst)
        assert SET_EQUALITY(out) == fam.is_yes(inst)

    @pytest.mark.parametrize("yes", [True, False])
    def test_preserves_answer_checksort(self, yes):
        inst, out, _, fam = self._roundtrip(8, 16, 12, yes)
        # second half of f(v) is sorted by construction …
        assert list(out.second) == sorted(out.second)
        # … so CHECK-SORT(f(v)) ⇔ multiset equality ⇔ CHECK-φ(v)
        assert CHECK_SORT(out) == fam.is_yes(inst)

    def test_output_is_short(self):
        _, out, layout, _ = self._roundtrip(8, 16, 13, True)
        short = short_variant(MULTISET_EQUALITY, c=layout.short_constant())
        assert short.is_valid_instance(out)

    def test_length_linear(self):
        inst, out, layout, _ = self._roundtrip(16, 64, 14, True)
        assert verify_length_linear(inst, out, layout)

    def test_layout_matches_paper_for_n_m_cubed(self):
        # with n = m³ the index width is 3·log m (paper's BIN')
        layout = reduction_layout(8, 8**3)
        assert layout.block_length == 3
        assert layout.blocks_per_value == -(-512 // 3)
        assert layout.index_width == 8  # ceil(log2(171)) = 8 ≤ 3·log m = 9

    def test_streaming_version_matches(self):
        fam = CheckPhiFamily(8, 16)
        inst = fam.random_yes(random.Random(15))
        expected, _ = check_phi_to_short(inst, fam.phi)
        tape, _, tracker = check_phi_to_short_on_tapes(inst, fam.phi)
        produced = tape.snapshot()
        assert produced == list(expected.first) + list(expected.second)
        # O(1) reversals: two forward scans over the input (1 rewind)
        assert tracker.report().reversals <= 2

    def test_reduction_rejects_mixed_lengths(self):
        inst = Instance(("00", "000"), ("00", "000"))
        with pytest.raises(EncodingError):
            check_phi_to_short(inst, [0, 1])

    def test_reduction_rejects_bad_phi(self):
        inst = Instance(("00", "11"), ("00", "11"))
        with pytest.raises(EncodingError):
            check_phi_to_short(inst, [0, 0])
