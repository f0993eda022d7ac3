"""Tests for the randomized-contract checkers and the Theorem 13 protocol."""

import hashlib
import random
from fractions import Fraction

import pytest

from repro.errors import MachineError, ReproError
from repro.machines import coin_flip_machine, guess_bit_machine, parity_machine
from repro.machines.randomized import (
    check_co_half_zero_rtm,
    check_half_zero_rtm,
    estimate_acceptance_probability,
)
from repro.problems import (
    encode_instance,
    random_equal_instance,
    random_unequal_instance,
)
from repro.queries.xpath.protocol import (
    CoRFilter,
    set_equality_protocol,
    t_tilde,
)


class TestRTMContracts:
    def test_deterministic_machine_is_valid_rtm(self):
        machine = parity_machine()
        report = check_half_zero_rtm(machine, ["11", "0000"], ["1", "001"])
        assert report.holds
        assert report.checked == 4

    def test_coin_machine_fails_the_no_side(self):
        # the coin machine accepts everything with probability 1/2:
        # fine on yes-words, fatal on no-words (Pr must be 0)
        machine = coin_flip_machine()
        report = check_half_zero_rtm(machine, ["0"], ["1"])
        assert not report.holds
        assert report.violations[0].expected == "no"
        assert report.violations[0].probability == Fraction(1, 2)

    def test_guess_bit_machine_on_matched_samples(self):
        # guess-bit accepts any nonempty word with probability exactly 1/2:
        # a valid RTM for the trivial "nonempty" property, invalid for
        # problems where some word must be rejected outright
        machine = guess_bit_machine()
        assert check_half_zero_rtm(machine, ["0", "1"], [""]).holds

    def test_co_contract(self):
        machine = coin_flip_machine()
        # co side: yes needs probability 1 — the coin machine fails there,
        # but passes the no side (1/2 ≤ 1/2)
        report = check_co_half_zero_rtm(machine, ["0"], ["1"])
        assert not report.holds
        assert all(v.expected == "yes" for v in report.violations)
        assert check_co_half_zero_rtm(machine, [], ["1", "0"]).holds


class TestMonteCarloEstimate:
    @pytest.mark.parametrize(
        "factory, word, trials, seed, accepted",
        [
            (coin_flip_machine, "0101", 96, 5, 46),
            (coin_flip_machine, "01" * 16, 10_000, 0, 5010),
            (guess_bit_machine, "0101", 100, 7, 48),
        ],
        ids=["coin_flip_96", "coin_flip_10000", "guess_bit_100"],
    )
    def test_estimates_are_pinned(self, factory, word, trials, seed, accepted):
        """Each block of 32 trials draws from its own rng, keyed by the
        seed and the block's index, so these counts pin the keys."""
        estimate = estimate_acceptance_probability(
            factory(), word, trials, seed=seed
        )
        assert (estimate.trials, estimate.accepted) == (trials, accepted)

    def test_equal_seeds_draw_equal_streams(self):
        machine = coin_flip_machine()
        assert estimate_acceptance_probability(
            machine, "0101", 96, seed="5"
        ) == estimate_acceptance_probability(machine, "0101", 96, seed=5)

    def test_trials_validated(self):
        with pytest.raises(MachineError, match="trials"):
            estimate_acceptance_probability(coin_flip_machine(), "01", 0)


class TestTheorem13Protocol:
    def test_filter_contract_validated(self):
        with pytest.raises(ReproError):
            CoRFilter(rejection_probability=0.3)

    def test_exact_filter_one_run(self):
        rng = random.Random(0)
        exact = CoRFilter(rejection_probability=1.0)
        yes = random_equal_instance(5, 5, rng)
        assert t_tilde(yes, exact, rng)
        no = random_unequal_instance(5, 5, rng)
        if set(no.first) != set(no.second):
            assert not t_tilde(no, exact, rng)

    def test_no_false_positives_at_any_q(self):
        rng = random.Random(1)
        no = encode_instance(["00", "01"], ["00", "11"])
        for q in (0.5, 0.7, 1.0):
            f = CoRFilter(rejection_probability=q)
            for _ in range(50):
                assert not set_equality_protocol(
                    no, rng, filter_t=f, amplification=4
                ).accepted

    def test_yes_acceptance_rises_with_amplification(self):
        rng = random.Random(2)
        worst = CoRFilter(rejection_probability=0.5)
        yes = random_equal_instance(5, 5, rng)
        rates = {}
        for k in (1, 3):
            rates[k] = sum(
                set_equality_protocol(
                    yes, rng, filter_t=worst, amplification=k
                ).accepted
                for _ in range(300)
            )
        assert rates[3] > rates[1]
        assert rates[3] / 300 >= 0.5  # three runs clear 1/2, per the note

    def test_amplification_validated(self):
        with pytest.raises(ReproError):
            set_equality_protocol(
                "0#0#", random.Random(0), amplification=0
            )

    def test_default_amplification_meets_half(self):
        """The module default (3) satisfies the ≥ 1/2 contract even at the
        worst-case filter."""
        rng = random.Random(3)
        worst = CoRFilter(rejection_probability=0.5)
        yes = random_equal_instance(4, 4, rng)
        accepted = sum(
            set_equality_protocol(yes, rng, filter_t=worst).accepted
            for _ in range(400)
        )
        assert accepted / 400 >= 0.5

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "895482fcdac2a73d"),
            (1, "b01020c3bf99be85"),
            (2, "da01139abcc88558"),
            (3, "6a55f1edbe6b5ed7"),
            (4, "41fd5053144a2307"),
        ],
    )
    def test_coin_order_is_pinned(self, seed, digest):
        """The end-to-end benchmark's schedule draws the same coins.

        Every T̃ run filters the forward document, then the swapped one,
        and each filter call that finds no match draws one coin.  400
        calls on 6×6 instances, yes and no alternating, amplification
        cycling 1–4: the (accepted, runs) sequence and the rng's next
        draw hash to pinned digests, so a change in which coins are
        drawn, or in their order, shows.
        """
        inputs = random.Random(f"protocol-inputs:{seed}")
        yes = random_equal_instance(6, 6, inputs)
        while True:
            no = random_unequal_instance(6, 6, inputs)
            if set(no.first) != set(no.second):
                break
        coins = random.Random(f"protocol-coins:{seed}")
        worst = CoRFilter(rejection_probability=0.5)
        outcomes = []
        for i in range(400):
            result = set_equality_protocol(
                yes if i % 2 == 0 else no,
                coins,
                filter_t=worst,
                amplification=(1, 2, 3, 4)[(i // 2) % 4],
            )
            outcomes.append((result.accepted, result.t_tilde_runs))
        record = repr((outcomes, coins.random())).encode()
        assert hashlib.sha256(record).hexdigest()[:16] == digest
