"""Number-theoretic substrate for the fingerprinting upper bound (Theorem 8a).

The randomized multiset-equality algorithm needs:

* a uniformly random prime ``p1 <= k`` where ``k = m^3 · n · log(m^3 · n)``,
* a (deterministic) prime ``p2`` with ``3k < p2 <= 6k`` (Bertrand's postulate),
* modular exponentiation / polynomial evaluation over ``F_{p2}``.

Everything is implemented from scratch: a segmented sieve for small ranges, a
deterministic Miller–Rabin for 64-bit-and-beyond primality, and helpers for
sampling primes with rejection sampling exactly as the paper describes
("choose a random number ≤ k and test if it is prime; repeat").
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "primes": (
            "is_prime",
            "next_prime",
            "prev_prime",
            "primes_up_to",
            "primes_in_range",
            "random_prime_at_most",
            "bertrand_prime",
            "prime_count_upper",
        ),
        "modular": (
            "mod_pow",
            "mod_inverse",
            "poly_eval_mod",
            "power_sum_mod",
            "crt_pair",
        ),
    },
)
