"""Tests for the Theorem 8(a) fingerprinting machine."""

import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro._util import is_power_of_two
from repro.algorithms import (
    amplified_multiset_equality,
    fingerprint_parameters,
    fingerprint_space_budget,
    multiset_equality_fingerprint,
    one_pass_multiset_test,
)
from repro.algorithms.fingerprint import (
    FingerprintParameters,
    _mod_pow_charged,
    _power_peak,
    _powers,
    _records,
    _residue_of_string,
    _residue_peak,
    monte_carlo_fingerprint_trials,
)
from repro.errors import EncodingError
from repro.extmem import InternalMemory, RecordTape, ResourceBudget, ResourceTracker
from repro.numbertheory import bertrand_prime, is_prime, random_prime_at_most
from repro.observability.audit import FULL_SWEEP
from repro.observability.sinks import RingBufferSink, TallySink
from repro.problems import (
    MULTISET_EQUALITY,
    CheckPhiFamily,
    Instance,
    encode_instance,
    near_miss_instance,
    random_equal_instance,
    random_unequal_instance,
)
from tests.settings_profiles import DIFFERENTIAL_SETTINGS, STANDARD_SETTINGS

bit_words = st.lists(st.text(alphabet="01", min_size=1, max_size=10), max_size=8)

#: Values longer than the moduli's bit lengths, so the closed forms both
#: take their unreduced prefix and step past it.
long_bits = st.text(alphabet="01", max_size=40)

#: Moduli at the closed forms' edges (1, 2, 2^k and 2^k ± 1) and between.
moduli = st.one_of(
    st.integers(1, 2**34),
    st.integers(0, 34)
    .flatmap(lambda k: st.sampled_from([2**k - 1, 2**k, 2**k + 1]))
    .filter(lambda modulus: modulus >= 1),
)

#: Odd primes from 3 up to about 2^34.6, E1's widest p2, with the
#: smallest ones drawn often.
primes = st.one_of(
    st.sampled_from([3, 5, 7, 11, 13]), st.integers(1, 2**32).map(bertrand_prime)
)


@st.composite
def powers_of(draw):
    """A prime modulus and a base 1, 2, modulus − 1 or drawn."""
    modulus = draw(primes)
    base = draw(
        st.sampled_from([1, 2, modulus - 1]) | st.integers(1, modulus - 1)
    )
    return modulus, base


#: The registers of scan 1's and scan 2's one commit when each runs
#: deferred.
SCAN1_COMMIT = ("count", "n_max")
SCAN_COMMIT = ("sum_first", "sum_second", "idx")

#: E1's four (m, n) shapes (``benchmarks/bench_e1_fingerprint.py``).
E1_SHAPES = ((8, 16), (32, 16), (128, 16), (128, 64))


@pytest.fixture
def commits(monkeypatch):
    """The registers of every ``InternalMemory.commit_peak``, in order."""
    log = []
    commit_peak = InternalMemory.commit_peak

    def recording(mem, values, *args):
        log.append(tuple(values))
        commit_peak(mem, values, *args)

    monkeypatch.setattr(InternalMemory, "commit_peak", recording)
    return log


class TestParameters:
    def test_k_formula(self):
        params = fingerprint_parameters(encode_instance(["0101"], ["0101"]))
        # m=1, n=4 → n_eff=5, base=5, k = 5·ceil(log2 5) = 15
        assert params.k == 15
        assert 3 * params.k < params.p2 <= 6 * params.k
        assert is_prime(params.p2)

    def test_empty_instance_has_no_parameters(self):
        with pytest.raises(EncodingError):
            fingerprint_parameters("")

    def test_space_budget_is_logarithmic(self):
        # budget(N²) ≤ 2.5 · budget(N): grows like log N, not like N
        for n_power in range(4, 16):
            small = fingerprint_space_budget(2**n_power)
            big = fingerprint_space_budget(2 ** (2 * n_power))
            assert big <= 2.5 * small


class TestOneSidedness:
    """Equal multisets must be accepted with probability 1."""

    def test_equal_always_accepted(self):
        rng = random.Random(0)
        for trial in range(30):
            inst = random_equal_instance(rng.randint(1, 10), rng.randint(1, 12), rng)
            result = multiset_equality_fingerprint(inst, rng)
            assert result.accepted

    def test_empty_instance_accepted(self):
        result = multiset_equality_fingerprint("", random.Random(0))
        assert result.accepted

    @given(bit_words, st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_property_no_false_negatives(self, words, seed):
        rng = random.Random(seed)
        shuffled = list(words)
        rng.shuffle(shuffled)
        inst = encode_instance(words, shuffled)
        assert multiset_equality_fingerprint(inst, rng).accepted


class TestErrorBound:
    def test_unequal_rejected_mostly(self):
        rng = random.Random(1)
        accepts = 0
        trials = 200
        for _ in range(trials):
            inst = random_unequal_instance(8, 8, rng)
            if multiset_equality_fingerprint(inst, rng).accepted:
                accepts += 1
        assert accepts / trials <= 0.5  # the paper's bound; in practice ≈ 0

    def test_near_miss_rejected_mostly(self):
        rng = random.Random(2)
        accepts = sum(
            multiset_equality_fingerprint(near_miss_instance(8, 10, rng), rng).accepted
            for _ in range(200)
        )
        assert accepts / 200 <= 0.5

    def test_mixed_length_values_handled_injectively(self):
        # "01" vs "1": same integer, different strings — the injectivity
        # prefix must keep these apart (with overwhelming probability)
        rng = random.Random(3)
        inst = encode_instance(["01", "1"], ["1", "1"])
        accepts = sum(
            multiset_equality_fingerprint(inst, rng).accepted for _ in range(100)
        )
        assert accepts <= 50

    def test_amplification_drives_error_down(self):
        rng = random.Random(4)
        accepts = sum(
            amplified_multiset_equality(random_unequal_instance(4, 4, rng), rng, rounds=8)
            for _ in range(100)
        )
        assert accepts <= 5

    def test_amplification_preserves_completeness(self):
        rng = random.Random(5)
        inst = random_equal_instance(6, 6, rng)
        assert amplified_multiset_equality(inst, rng, rounds=12)

    def test_amplification_validates_rounds(self):
        with pytest.raises(EncodingError):
            amplified_multiset_equality("0#0#", random.Random(0), rounds=0)


class TestTrialWithRange:
    def test_non_binary_value_raises_encoding_error(self):
        # Instance.__post_init__ normally rejects this, so forge a corrupt
        # one the way a buggy caller could: the trial must still fail with
        # the domain error, not a bare ValueError from int(..., 2)
        from repro.algorithms.fingerprint import fingerprint_trial_with_range
        from repro.problems.encoding import Instance

        inst = Instance.__new__(Instance)
        object.__setattr__(inst, "first", ("01", "2x"))
        object.__setattr__(inst, "second", ("01", "2x"))
        with pytest.raises(EncodingError):
            fingerprint_trial_with_range(inst, random.Random(0), k=64)

    def test_valid_equal_instance_accepts(self):
        from repro.algorithms.fingerprint import fingerprint_trial_with_range

        inst = random_equal_instance(4, 4, random.Random(7))
        assert fingerprint_trial_with_range(inst, random.Random(7), k=64)


class TestResourceEnvelope:
    """co-RST(2, O(log N), 1): the budget is enforced, not just measured."""

    def test_two_scans_one_tape(self):
        rng = random.Random(6)
        inst = random_equal_instance(16, 16, rng)
        result = multiset_equality_fingerprint(inst, rng)
        assert result.report.scans <= 2
        assert result.report.tapes_used == 1
        assert result.report.reversals <= 1

    def test_internal_memory_within_log_budget(self):
        rng = random.Random(7)
        for m, n in [(4, 8), (16, 16), (64, 16), (128, 32)]:
            inst = random_equal_instance(m, n, rng)
            result = multiset_equality_fingerprint(inst, rng)
            assert result.report.peak_internal_bits <= fingerprint_space_budget(
                inst.size
            )

    def test_space_scales_logarithmically(self):
        rng = random.Random(8)
        peaks = {}
        for m in (8, 64, 512):
            inst = random_equal_instance(m, 16, rng)
            result = multiset_equality_fingerprint(inst, rng)
            peaks[m] = result.report.peak_internal_bits
        # N grows 64×; peak bits should grow far slower (log-like)
        assert peaks[512] <= 3 * peaks[8]

    def test_transcript_fields_populated(self):
        rng = random.Random(9)
        inst = random_equal_instance(4, 6, rng)
        result = multiset_equality_fingerprint(inst, rng)
        assert result.p1 is not None and is_prime(result.p1)
        assert result.p1 <= result.parameters.k
        assert 1 <= result.x < result.parameters.p2
        assert result.sum_first == result.sum_second


class TestAgainstReference:
    @given(bit_words, bit_words, st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_rejection_implies_truly_unequal(self, first, second, seed):
        """One-sidedness as a property: a REJECT answer is always correct."""
        if len(first) != len(second):
            first = first[: len(second)]
            second = second[: len(first)]
        rng = random.Random(seed)
        inst = encode_instance(first, second)
        result = multiset_equality_fingerprint(inst, rng)
        if not result.accepted:
            assert not MULTISET_EQUALITY(inst)


# -- the register-reading reference ----------------------------------------
#
# The machine keeps each register's value in a local and reads operands
# from it.  Below is the same machine reading every operand back from
# ``mem``, the formulation the Theorem 8(a) analysis charges.  Both make
# the same stores in the same order, so charges, events, reports and the
# registers left behind must agree exactly, budget denials included.


def _residue_reference(value, modulus, mem):
    mem["acc"] = 1 % modulus
    for ch in value:
        if ch not in "01":
            raise EncodingError(f"non-binary character {ch!r} in value")
        mem["acc"] = (mem["acc"] * 2 + (1 if ch == "1" else 0)) % modulus
    result = mem["acc"]
    mem.free("acc")
    return result


def _mod_pow_reference(base, exponent, modulus, mem):
    mem["pw_base"] = base % modulus
    mem["pw_exp"] = exponent
    mem["pw_result"] = 1 % modulus
    while mem["pw_exp"] > 0:
        if mem["pw_exp"] % 2 == 1:
            mem["pw_result"] = mem["pw_result"] * mem["pw_base"] % modulus
        mem["pw_base"] = mem["pw_base"] * mem["pw_base"] % modulus
        mem["pw_exp"] = mem["pw_exp"] // 2
    result = mem["pw_result"]
    for name in ("pw_base", "pw_exp", "pw_result"):
        mem.free(name)
    return result


def _fingerprint_reference(inst, rng, budget, sink):
    """The Theorem 8(a) machine's two scans, every operand read from ``mem``."""
    tracker = ResourceTracker(budget)
    tracker.attach_sink(sink)
    mem = InternalMemory(tracker)
    tape = RecordTape(
        list(inst.first) + list(inst.second), tracker=tracker, name="input"
    )
    tracker.mark_phase("scan1")
    mem["count"] = 0
    mem["n_max"] = 0
    for value in tape.scan():
        mem["count"] = mem["count"] + 1
        if len(value) > mem["n_max"]:
            mem["n_max"] = len(value)
    m = mem["count"] // 2
    if m == 0:
        return True, None, None, None, None, tracker.report()
    tracker.mark_phase("params")
    params = FingerprintParameters.for_shape(m, mem["n_max"])
    mem["p1"] = random_prime_at_most(params.k, rng)
    mem["p2"] = params.p2
    mem["x"] = rng.randint(1, params.p2 - 1)
    tracker.mark_phase("scan2")
    mem["sum_first"] = 0
    mem["sum_second"] = 0
    mem["idx"] = 0
    tape.move(-1)
    while True:
        e = _residue_reference(tape.read(), mem["p1"], mem)
        term = _mod_pow_reference(mem["x"], e, mem["p2"], mem)
        if mem["idx"] < m:
            mem["sum_second"] = (mem["sum_second"] + term) % mem["p2"]
        else:
            mem["sum_first"] = (mem["sum_first"] + term) % mem["p2"]
        mem["idx"] = mem["idx"] + 1
        if tape.at_start:
            break
        tape.move(-1)
    result = (
        mem["sum_first"] == mem["sum_second"],
        mem["p1"],
        mem["x"],
        mem["sum_first"],
        mem["sum_second"],
        tracker.report(),
    )
    mem.clear()
    return result


def _residue_steps(value, modulus):
    """The residue loop on locals: its value, ``acc``'s widest charge, and
    the number of bits read when that charge first reached the widest
    residue's (``None`` if it never did)."""
    top = (modulus - 1).bit_length() or 1
    acc = 1 % modulus
    peak = 1
    reached = 0 if peak >= top else None
    for read, ch in enumerate(value, 1):
        acc = (acc * 2 + (1 if ch == "1" else 0)) % modulus
        peak = max(peak, acc.bit_length() or 1)
        if reached is None and peak >= top:
            reached = read
    return acc, peak, reached


def _power_steps(base, exponent, modulus):
    """Square-and-multiply on locals: the power, the widest total charge
    of its three registers, and the first step at whose start that total
    had reached twice the widest residue's charge plus the exponent's
    (``None`` if no step started there)."""
    width = (modulus - 1).bit_length() or 1

    def charge(*values):
        return sum(value.bit_length() or 1 for value in values)

    base %= modulus
    result = 1 % modulus
    peak = charge(base, exponent, result)
    step, settled = 0, None
    while exponent > 0:
        if settled is None and peak >= 2 * width + charge(exponent):
            settled = step
        if exponent % 2 == 1:
            result = result * base % modulus
            peak = max(peak, charge(base, exponent, result))
        base = base * base % modulus
        peak = max(peak, charge(base, exponent, result))
        exponent //= 2
        step += 1
    return result, peak, settled


class TestClosedForms:
    """``_residue_peak`` and ``_power_peak`` against the loops they skip."""

    @given(value=long_bits, modulus=moduli)
    @DIFFERENTIAL_SETTINGS
    def test_residue_matches_the_loop(self, value, modulus):
        assert _residue_peak(value, modulus) == _residue_steps(value, modulus)[:2]

    @given(
        base=st.integers(0, 2**34), exponent=st.integers(0, 2**40), modulus=moduli
    )
    @DIFFERENTIAL_SETTINGS
    def test_power_matches_the_loop(self, base, exponent, modulus):
        assert _power_peak(base, exponent, modulus) == _power_steps(
            base, exponent, modulus
        )[:2]

    @pytest.mark.parametrize(
        "value, modulus, reached",
        [
            ("00101101", 11, 3),  # 11's widest residue, 4 bits, after 3 of 8
            ("111", 11, None),  # 1, 3, 7, 4: never 4 bits, though 1·111 is
            ("0110", 1, 0),  # every residue is 0, charged 1 bit
            ("0110", 2, 0),
            ("", 8, None),
        ],
    )
    def test_residue_examples(self, value, modulus, reached):
        assert _residue_steps(value, modulus)[2] == reached
        assert _residue_peak(value, modulus) == _residue_steps(value, modulus)[:2]

    @pytest.mark.parametrize(
        "base, exponent, modulus, settled",
        [
            (3, 9, 2, 0),  # settled before the first step
            (3, 5, 2**20 + 7, None),  # never settled
            # the last step starts at a total of 8, one short of settled
            # (2·4 + 1), and reaches 9
            (4, 8, 11, None),
            (3, 0, 11, None),  # no step
            (3, 9, 1, 0),
        ],
    )
    def test_power_examples(self, base, exponent, modulus, settled):
        assert _power_steps(base, exponent, modulus)[2] == settled
        assert _power_peak(base, exponent, modulus) == _power_steps(
            base, exponent, modulus
        )[:2]


class TestPowerTables:
    """Scan 2's per-run tables (``_powers``) and its records
    (``_records``) against the loops they skip."""

    @pytest.mark.parametrize("modulus", [3, 13, 4093])
    def test_every_twelve_bit_exponent(self, modulus):
        """Charges of at most 2, 4 and 12 bits; at 4093 the tail bound
        leaves some exponents to ``_power_peak``."""
        drawn = random.Random(modulus).randint(1, modulus - 1)
        for base in sorted({1, 2, modulus - 1, drawn}):
            power = _powers(base, modulus, 12)
            for exponent in range(1 << 12):
                assert power(exponent) == _power_steps(base, exponent, modulus)[
                    :2
                ], (base, exponent)

    @given(case=powers_of(), exponent=st.integers(0, 2**40 - 1))
    # digit 0, whose table entry (35) is below the tail bound (62): the
    # steps after bit 6 peak at 99, above bitlen(e) + 35 = 75
    @example(case=(bertrand_prime(2**32), 1234567891), exponent=2**39 + 64)
    @example(case=(bertrand_prime(2**32), 2), exponent=2**40 - 1)
    @DIFFERENTIAL_SETTINGS
    def test_forty_bit_exponents(self, case, exponent):
        modulus, base = case
        assert _powers(base, modulus, 40)(exponent) == _power_steps(
            base, exponent, modulus
        )[:2]

    @given(value=long_bits, p1=primes, case=powers_of())
    # longer than bitlen(p1) − 2 bits, reduced to 1: with x = 1 the power
    # peaks at 3 bits and ``acc`` at 9
    @example(value="1111111011", p1=1021, case=(4093, 1))
    @DIFFERENTIAL_SETTINGS
    def test_records_match_the_helpers(self, value, p1, case):
        p2, x = case
        e, residue_peak, _ = _residue_steps(value, p1)
        term, power_peak, _ = _power_steps(x, e, p2)
        assert _records(p1, x, p2)(value) == (
            e, term, max(residue_peak, power_peak)
        )


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - the type is what we compare
        return None, type(exc)


class TestAgainstRegisterReadingReference:
    @given(
        values=st.lists(
            st.one_of(long_bits, st.text(alphabet="012", max_size=4)),
            max_size=4,
        ),
        modulus=moduli,
        base=st.integers(0, 2**34),
        exponent=st.integers(0, 2**34),
        max_bits=st.one_of(st.none(), st.integers(0, 200)),
    )
    @DIFFERENTIAL_SETTINGS
    def test_helpers_charge_like_the_reference(
        self, values, modulus, base, exponent, max_bits
    ):
        def run(residue, mod_pow):
            tracker = ResourceTracker(ResourceBudget(max_internal_bits=max_bits))
            sink = RingBufferSink()
            tracker.attach_sink(sink)
            mem = InternalMemory(tracker)
            terms = []

            def fold():
                for value in values:
                    e = residue(value, modulus, mem)
                    terms.append(mod_pow(base, exponent + e, modulus, mem))

            _, error = _outcome(fold)
            registers = {name: mem[name] for name in mem}
            return terms, error, sink.events(), tracker.report(), registers

        assert run(_residue_of_string, _mod_pow_charged) == run(
            _residue_reference, _mod_pow_reference
        )

    @given(
        first=bit_words,
        second=bit_words,
        seed=st.integers(min_value=0, max_value=2**32),
        max_bits=st.one_of(st.none(), st.integers(0, 160)),
    )
    @DIFFERENTIAL_SETTINGS
    def test_machine_charges_like_the_reference(self, first, second, seed, max_bits):
        inst = Instance(
            tuple(first[: len(second)]), tuple(second[: len(first)])
        )
        budget = ResourceBudget(max_scans=2, max_internal_bits=max_bits, max_tapes=1)

        def machine(sink):
            result = multiset_equality_fingerprint(
                inst, random.Random(seed), budget=budget, sink=sink
            )
            return (
                result.accepted,
                result.p1,
                result.x,
                result.sum_first,
                result.sum_second,
                result.report,
            )

        real_sink, reference_sink = RingBufferSink(), RingBufferSink()
        assert _outcome(machine, real_sink) == _outcome(
            _fingerprint_reference, inst, random.Random(seed), budget, reference_sink
        )
        assert real_sink.events() == reference_sink.events()

    def test_helpers_without_a_sink_charge_like_the_reference(self):
        """No sink: the deferred loops against the reference's stores.

        Budgets straddle the loop's widest total, so the helpers defer
        in some examples and decline in others; the explicit examples
        make sure both happen, and each example checks that the helper
        deferred exactly when no store could be denied and the value
        is a 0-1 string.
        """
        branches = set()

        @given(
            value=st.one_of(long_bits, st.text(alphabet="012", max_size=4)),
            modulus=moduli,
            base=st.integers(0, 2**34),
            exponent=st.integers(0, 2**34),
            held=st.integers(0, 2**20),
            helper=st.sampled_from(["residue", "mod_pow"]),
            slack=st.one_of(st.none(), st.integers(-3, 3)),
        )
        @example("0110", 11, 3, 9, 5, "residue", None)  # defers
        @example("0110", 11, 3, 9, 5, "mod_pow", 0)  # defers: just fits
        @example("0110", 11, 3, 9, 5, "mod_pow", -1)  # declines: budget
        @example("0120", 11, 3, 9, 5, "residue", None)  # declines: value
        @example("111", 11, 4, 8, 5, "residue", None)  # peak 3, below 11's 4
        @example("0110", 11, 4, 8, 5, "mod_pow", None)  # peak after the exit test
        @DIFFERENTIAL_SETTINGS
        def check(value, modulus, base, exponent, held, helper, slack):
            width = (modulus - 1).bit_length() or 1
            if helper == "residue":
                widest = width
            else:
                widest = 2 * width + (exponent.bit_length() or 1)
            held_bits = held.bit_length() or 1
            max_bits = None
            if slack is not None:
                max_bits = held_bits + max(0, widest + slack)
            deferrable = (max_bits is None or held_bits + widest <= max_bits) and (
                helper == "mod_pow" or set(value) <= set("01")
            )

            def run(residue, mod_pow):
                tracker = ResourceTracker(ResourceBudget(max_internal_bits=max_bits))
                mem = InternalMemory(tracker)
                commits = []
                commit_peak = mem.commit_peak

                def recording_commit(values, peak_bits, stores, last_delta):
                    commits.append(values)
                    commit_peak(values, peak_bits, stores, last_delta)

                mem.commit_peak = recording_commit
                mem["held"] = held

                def call():
                    if helper == "residue":
                        return residue(value, modulus, mem)
                    return mod_pow(base, exponent, modulus, mem)

                result, error = _outcome(call)
                registers = {name: mem[name] for name in mem}
                return (
                    (result, error, tracker.report(), tracker.current_internal_bits,
                     mem.used_bits, registers),
                    bool(commits),
                )

            real, deferred = run(_residue_of_string, _mod_pow_charged)
            reference, _ = run(_residue_reference, _mod_pow_reference)
            assert real == reference
            assert deferred == deferrable
            branches.add(deferred)

        check()
        assert branches == {True, False}

    @pytest.mark.parametrize(
        "m, n, trials, kind, accepted",
        [
            (32, 16, 64, "equal", 64),
            (32, 16, 64, "near-miss", 0),
            # tiny shapes, where false positives occur and so the totals
            # depend on every p1 and x the trials draw
            (1, 2, 256, "near-miss", 62),
        ],
    )
    def test_monte_carlo_totals_are_pinned(self, m, n, trials, kind, accepted):
        summary = monte_carlo_fingerprint_trials(m, n, trials, kind=kind, seed=3)
        assert (summary.trials, summary.accepted) == (trials, accepted)


class TestSinkFreeRuns:
    """Without a sink scan 2 and the helpers may defer their stores; with
    a ring buffer they cannot, so the traced run is the per-store
    reference."""

    def test_untraced_run_matches_the_traced_run(self, commits):
        """Budgets around the peak: scan 2 defers in some examples and
        not in others, and the explicit examples make sure both happen."""
        deferred = set()

        @given(
            first=bit_words,
            second=bit_words,
            seed=st.integers(min_value=0, max_value=2**32),
            slack=st.one_of(st.none(), st.integers(-12, 12)),
        )
        @example(["0110", "1", "001"], ["1", "001", "0110"], 0, None)  # defers
        @example(["0110", "1", "001"], ["1", "001", "0110"], 0, -1)  # denied
        @DIFFERENTIAL_SETTINGS
        def check(first, second, seed, slack):
            inst = Instance(
                tuple(first[: len(second)]), tuple(second[: len(first)])
            )
            # tight budgets: around the peak of an unbudgeted traced run
            peak = multiset_equality_fingerprint(
                inst,
                random.Random(seed),
                budget=ResourceBudget(),
                sink=RingBufferSink(),
            ).report.peak_internal_bits
            max_bits = None if slack is None else max(0, peak + slack)
            budget = ResourceBudget(
                max_scans=2, max_internal_bits=max_bits, max_tapes=1
            )

            def run(sink):
                try:
                    return multiset_equality_fingerprint(
                        inst, random.Random(seed), budget=budget, sink=sink
                    ), None
                except Exception as exc:  # noqa: BLE001 - compared below
                    return None, (type(exc), exc.args)

            commits.clear()
            untraced = run(None)
            deferred.add(SCAN_COMMIT in commits)
            assert untraced == run(RingBufferSink())

        check()
        assert deferred == {True, False}

    @pytest.mark.parametrize("m, n", [*FULL_SWEEP, *E1_SHAPES])
    @pytest.mark.parametrize("sink", [None, TallySink])
    def test_default_budget_defers_scan_two(self, commits, m, n, sink):
        """At every audit cell and E1 shape, ``fingerprint_space_budget``
        admits both scans' registers at their widest, whatever p1 and x
        are drawn, so each scan commits once and scan 2 calls no helper.

        The name predates scan 1's commit; it pins both scans now."""
        params = FingerprintParameters.for_shape(m, n)
        width1 = params.k.bit_length()  # p1 ≤ k
        width2 = (params.p2 - 1).bit_length()
        inst = random_equal_instance(m, n, random.Random(f"{m}:{n}"))
        budget = fingerprint_space_budget(inst.size)
        # scan 1, with nothing held: count ≤ 2m records, n_max ≤ N bits
        assert (2 * m).bit_length() + inst.size.bit_length() <= budget
        # held: count, n_max, p1, p2 and x; scan 2: the sums, pw_base and
        # pw_result below p2, acc and pw_exp below p1, and idx ≤ 2m
        held = (2 * m).bit_length() + n.bit_length() + width1 + 2 * width2
        widest = 4 * width2 + 2 * width1 + (2 * m).bit_length()
        assert held + widest <= budget
        result = multiset_equality_fingerprint(
            inst, random.Random(m), sink=sink and sink()
        )
        assert result.accepted
        assert commits == [SCAN1_COMMIT, SCAN_COMMIT]


class _RecordingTally(TallySink):
    """A tally that keeps ``(events, last)`` after every delivery."""

    def __init__(self):
        super().__init__()
        self.deliveries = []
        self.loops = 0

    def emit(self, event):
        super().emit(event)
        self.deliveries.append((self.events, self.last))

    def emit_loop(self, count, last):
        super().emit_loop(count, last)
        self.loops += 1
        self.deliveries.append((self.events, self.last))


def _assert_tally_matches_ring(tally, ring):
    """Count, denials, and every ``last`` the tally held, at its place.

    A helper's ``free`` replaces the last event a loop left, so a wrong
    last event shows only in the deliveries recorded after the loop.
    """
    events = ring.events()
    assert ring.dropped == 0
    assert tally.events == len(events)
    assert tally.denied == sum(event.kind == "denied" for event in events)
    for count, last in tally.deliveries:
        assert last == events[count - 1]


class TestTallyRuns:
    """With a tally attached the helpers may take their loops whole; a
    ring buffer receives every store, so its run is the reference."""

    def test_helpers_with_a_tally_match_the_ring(self):
        whole = set()

        @given(
            value=st.one_of(long_bits, st.text(alphabet="012", max_size=4)),
            modulus=moduli,
            base=st.integers(0, 2**34),
            exponent=st.integers(0, 2**34),
            held=st.integers(0, 2**20),
            helper=st.sampled_from(["residue", "mod_pow"]),
            slack=st.one_of(st.none(), st.integers(-3, 3)),
        )
        @example("", 11, 3, 9, 5, "residue", None)  # one store
        @example("0110", 11, 2, 9, 5, "mod_pow", None)  # pw_base ends 2^16 mod 11
        @example("0110", 11, 3, 0, 5, "mod_pow", None)  # exponent 0: no loop
        @example("0110", 1, 3, 9, 5, "residue", None)
        @example("0110", 1, 3, 9, 5, "mod_pow", None)
        @example("0111", 2, 3, 9, 5, "residue", None)
        @example("0111", 2, 3, 9, 5, "mod_pow", None)
        @example("0110", 11, 3, 9, 5, "mod_pow", -1)  # a store is denied
        @DIFFERENTIAL_SETTINGS
        def check(value, modulus, base, exponent, held, helper, slack):
            def call(mem):
                if helper == "residue":
                    return _residue_of_string(value, modulus, mem)
                return _mod_pow_charged(base, exponent, modulus, mem)

            def run(sink, max_bits=None):
                tracker = ResourceTracker(ResourceBudget(max_internal_bits=max_bits))
                tracker.attach_sink(sink)
                mem = InternalMemory(tracker)
                mem["held"] = held
                result, error = _outcome(call, mem)
                registers = {name: mem[name] for name in mem}
                return result, error, tracker.report(), registers

            # budgets around the peak of an unbudgeted run; ``held`` fits
            peak = run(RingBufferSink())[2].peak_internal_bits
            held_bits = held.bit_length() or 1
            max_bits = None if slack is None else max(held_bits, peak + slack)
            tally, ring = _RecordingTally(), RingBufferSink()
            assert run(tally, max_bits) == run(ring, max_bits)
            _assert_tally_matches_ring(tally, ring)
            whole.add(tally.loops > 0)

        check()
        assert whole == {True, False}

    def test_machine_with_a_tally_matches_the_ring(self, commits):
        """Scan 2 takes its loop whole in some examples and not in
        others; the explicit examples make sure both happen."""
        deferred = set()

        @given(
            first=bit_words,
            second=bit_words,
            seed=st.integers(min_value=0, max_value=2**32),
            slack=st.one_of(st.none(), st.integers(-12, 12)),
        )
        @example([], [], 0, None)
        @example(["0", "1"], ["1", "0"], 0, None)
        @example(["0110", "1", "001"], ["1", "001", "0110"], 0, None)  # defers
        @example(["0110", "1", "001"], ["1", "001", "0110"], 0, -1)  # denied
        @DIFFERENTIAL_SETTINGS
        def check(first, second, seed, slack):
            inst = Instance(
                tuple(first[: len(second)]), tuple(second[: len(first)])
            )
            peak = multiset_equality_fingerprint(
                inst,
                random.Random(seed),
                budget=ResourceBudget(),
                sink=RingBufferSink(),
            ).report.peak_internal_bits
            max_bits = None if slack is None else max(0, peak + slack)
            budget = ResourceBudget(
                max_scans=2, max_internal_bits=max_bits, max_tapes=1
            )

            def run(sink):
                try:
                    return multiset_equality_fingerprint(
                        inst, random.Random(seed), budget=budget, sink=sink
                    ), None
                except Exception as exc:  # noqa: BLE001 - compared below
                    return None, (type(exc), exc.args)

            tally, ring = _RecordingTally(), RingBufferSink()
            commits.clear()
            tallied = run(tally)
            deferred.add(SCAN_COMMIT in commits)
            assert tallied == run(ring)
            _assert_tally_matches_ring(tally, ring)

        check()
        assert deferred == {True, False}


def _instance(kind, m, n, rng):
    """An instance of ``kind``, or ``None`` where (m, n) has none."""
    if kind == "yes":
        return random_equal_instance(m, n, rng)
    if m == 0 or n == 0:
        return None
    if kind == "no":
        return random_unequal_instance(m, n, rng)
    if kind == "near-miss":
        return near_miss_instance(m, n, rng)
    # CHECK-φ (Lemma 22): m a power of two dividing 2^n, with room for a
    # second value in each interval for a no-instance
    room = 2**n // m if is_power_of_two(m) and m <= 2**n else 0
    if kind == "check-phi yes" and room:
        return CheckPhiFamily(m, n).random_yes(rng)
    if kind == "check-phi no" and room >= 2:
        return CheckPhiFamily(m, n).random_no(rng)
    return None


class TestClaimedBudgetOnEveryKind:
    """The fingerprint under its claimed co-RST(2, O(log N), 1) budget,
    enforced, and the one-pass foil within (1, 0, 1), on every kind of
    instance: neither rejects a yes-instance, and the fingerprint rejects
    only a true no."""

    @given(
        m=st.integers(0, 33),
        n=st.integers(0, 6),
        kind=st.sampled_from(
            ["yes", "no", "near-miss", "check-phi yes", "check-phi no"]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=0, n=0, kind="yes", seed=0)
    @example(m=1, n=0, kind="yes", seed=0)
    @example(m=4, n=12, kind="yes", seed=0)  # the audit's smallest cell
    @example(m=4, n=12, kind="no", seed=0)
    @example(m=4, n=12, kind="near-miss", seed=0)
    @example(m=4, n=12, kind="check-phi yes", seed=0)
    @example(m=4, n=12, kind="check-phi no", seed=0)
    @example(m=128, n=64, kind="near-miss", seed=0)  # E1's widest shape
    @STANDARD_SETTINGS
    def test_within_budget_and_decides(self, m, n, kind, seed):
        inst = _instance(kind, m, n, random.Random(seed))
        assume(inst is not None)
        yes = MULTISET_EQUALITY(inst)
        budget = ResourceBudget(
            max_scans=2,
            max_internal_bits=fingerprint_space_budget(inst.size),
            max_tapes=1,
        )
        tally = TallySink()
        tallied = multiset_equality_fingerprint(
            inst, random.Random(seed), budget=budget, sink=tally
        )
        assert tally.denied == 0
        assert tallied.accepted or not yes
        # the ring buffer takes every store: the per-store path's run
        assert tallied == multiset_equality_fingerprint(
            inst, random.Random(seed), budget=budget, sink=RingBufferSink()
        )

        foil = one_pass_multiset_test(inst, sink=TallySink())
        assert foil.report.within(
            ResourceBudget(max_scans=1, max_internal_bits=0, max_tapes=1)
        )
        assert foil.accepted or not yes


class TestMonteCarloArguments:
    """Bad trial arguments fail before any trial runs."""

    @pytest.fixture(autouse=True)
    def no_trials(self, monkeypatch):
        import repro.algorithms.fingerprint as fingerprint

        def derive_lane_rng(*args, **kwargs):
            raise AssertionError("trial run before the arguments were checked")

        monkeypatch.setattr(fingerprint, "derive_lane_rng", derive_lane_rng)

    def test_unknown_kind(self):
        with pytest.raises(EncodingError, match="unknown trial kind 'bogus'"):
            monte_carlo_fingerprint_trials(4, 4, 4, kind="bogus")

    def test_near_miss_needs_a_bit_to_flip(self):
        with pytest.raises(EncodingError, match="near-miss"):
            monte_carlo_fingerprint_trials(4, 0, 4, kind="near-miss")
