"""Tests for Definition 19 / Remark 20: sortedness and the permutation φ."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.lowerbounds import (
    erdos_szekeres_bound,
    phi_one_based,
    phi_permutation,
    phi_sortedness_bound,
    sortedness,
    sortedness_bruteforce,
)
from repro.lowerbounds.permutations import verify_phi


class TestSortedness:
    def test_identity_and_reverse(self):
        assert sortedness(list(range(10))) == 10
        assert sortedness(list(reversed(range(10)))) == 10

    def test_empty_and_singleton(self):
        assert sortedness([]) == 0
        assert sortedness([5]) == 1

    def test_known_value(self):
        # [0,2,1,3]: LIS = 3 (0,2,3), LDS = 2
        assert sortedness([0, 2, 1, 3]) == 3

    @given(st.permutations(list(range(8))))
    def test_matches_bruteforce(self, perm):
        assert sortedness(perm) == sortedness_bruteforce(perm)

    @given(st.permutations(list(range(16))))
    def test_erdos_szekeres_holds(self, perm):
        assert sortedness(perm) >= erdos_szekeres_bound(16)

    def test_erdos_szekeres_bound_values(self):
        assert erdos_szekeres_bound(0) == 0
        assert erdos_szekeres_bound(1) == 1
        assert erdos_szekeres_bound(16) == 4
        assert erdos_szekeres_bound(17) == 5


class TestPhi:
    def test_small_cases(self):
        assert phi_permutation(1) == [0]
        assert phi_permutation(2) == [0, 1]
        assert phi_permutation(4) == [0, 2, 1, 3]
        assert phi_permutation(8) == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_one_based_view(self):
        assert phi_one_based(4) == [1, 3, 2, 4]

    def test_rejects_non_powers(self):
        with pytest.raises(ReproError):
            phi_permutation(6)
        with pytest.raises(ReproError):
            phi_sortedness_bound(12)

    @pytest.mark.parametrize("log_m", range(2, 13))
    def test_phi_is_permutation_with_low_sortedness(self, log_m):
        m = 2**log_m
        assert verify_phi(m)

    @pytest.mark.parametrize("log_m", range(2, 11))
    def test_remark20_bound_exact(self, log_m):
        m = 2**log_m
        assert sortedness(phi_permutation(m)) <= 2 * math.sqrt(m) - 1

    def test_phi_beats_random_permutations(self):
        # φ is near the Erdős–Szekeres floor; random permutations average
        # around 2√m, so φ should never be *worse* than typical randoms by
        # a large factor.
        m = 1024
        rng = random.Random(7)
        phi_s = sortedness(phi_permutation(m))
        randoms = []
        for _ in range(10):
            p = list(range(m))
            rng.shuffle(p)
            randoms.append(sortedness(p))
        assert phi_s <= max(randoms)
        assert phi_s <= 2 * math.sqrt(m) - 1

    def test_self_inverse(self):
        # bit-reversal is an involution, so φ sorted by reversed bits is
        # its own inverse as a permutation
        from repro._util import inverse_permutation

        for m in (4, 8, 16, 64):
            phi = phi_permutation(m)
            assert inverse_permutation(phi) == phi
