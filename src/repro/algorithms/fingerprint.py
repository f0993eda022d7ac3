"""Theorem 8(a): MULTISET-EQUALITY ∈ co-RST(2, O(log N), 1).

The algorithm, verbatim from the paper (with one engineering note below):

1. one forward scan determines the input parameters m, n, N;
2. choose a prime ``p1 ≤ k := m³·n·log(m³·n)`` uniformly at random;
3. fix a prime ``p2`` with ``3k < p2 ≤ 6k`` (Bertrand's postulate);
4. choose ``x ∈ {1, …, p2−1}`` uniformly at random;
5. with ``e_i = v_i mod p1`` and ``e'_i = v'_i mod p1``, accept iff
   ``Σ x^{e_i} ≡ Σ x^{e'_i} (mod p2)``.

Equal multisets are always accepted; unequal ones are accepted with
probability ≤ 1/3 + O(1/m) ≤ 1/2 for sufficiently large inputs.

Engineering note — *prefix injectivity*: the paper assumes all strings have
the same length n, under which the map string → integer is injective.  To
stay correct on mixed-length inputs ("01" and "1" are different strings but
the same integer) every value is interpreted as the integer ``1·v`` (a 1
bit prepended).  On uniform-length inputs this changes nothing except an
additive constant in k.

The tape implementation uses exactly **two sequential scans** (one forward,
one backward — the backward scan reads values in reverse order, which is
fine because only multiset sums are accumulated) of a **single** external
tape, and O(log N) internal bits, all enforced by a
:class:`~repro.extmem.tracker.ResourceBudget`.

:func:`monte_carlo_fingerprint_trials` runs the error-rate experiment
(E1) as one in-process loop of independent trials, each drawing from a
stream keyed on ``(seed, trial index)`` alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional, Tuple

from .._util import bits_needed, ceil_log2, normalize_seed
from ..errors import EncodingError
from ..extmem import (
    InternalMemory,
    RecordTape,
    ResourceBudget,
    ResourceReport,
    ResourceTracker,
)
from ..numbertheory import bertrand_prime, random_prime_at_most
from ..problems.definitions import InstanceLike, as_instance


@dataclass(frozen=True)
class FingerprintParameters:
    """The derived parameters of one fingerprinting run."""

    m: int
    n: int  # max value length (pre-prefix)
    k: int  # prime range for p1
    p2: int  # the fixed Bertrand prime, 3k < p2 ≤ 6k

    @classmethod
    def for_shape(cls, m: int, n: int) -> "FingerprintParameters":
        if m < 1:
            raise EncodingError("fingerprint parameters need m >= 1")
        n_eff = max(1, n) + 1  # +1 for the injectivity prefix bit
        base = m**3 * n_eff
        k = base * max(1, ceil_log2(base))
        return cls(m=m, n=n, k=k, p2=bertrand_prime(k))


@dataclass(frozen=True)
class FingerprintResult:
    """Outcome of a fingerprinting run with full transcript."""

    accepted: bool
    parameters: Optional[FingerprintParameters]
    p1: Optional[int]
    x: Optional[int]
    sum_first: Optional[int]
    sum_second: Optional[int]
    report: ResourceReport


def fingerprint_space_budget(input_size: int) -> int:
    """An explicit O(log N) internal-bit budget sufficient for the machine.

    At most a dozen registers each holding a number < p2 ≤ 6k, where
    ``k ≤ N⁴·log(N⁴)`` crudely, plus counters below N.  The returned budget
    is ``c·log N`` with c small and explicit — experiments verify the
    machine's measured peak stays under it across decades of N.
    """
    log_n = max(1, ceil_log2(max(2, input_size)))
    # bits(6k) ≤ bits(6·N⁴·4·log N) ≤ 4·log N + log log N + 6
    value_bits = 4 * log_n + ceil_log2(log_n + 1) + 6
    registers = 12
    return registers * value_bits + 4 * log_n + 64


# Register mirrors: the machines below keep each register's current value
# in a local and read operands from it, because reads are free in the
# model and a ``mem[...]`` load costs a Python frame.  Every change is a
# ``mem[name] = value`` store, in the order the register-reading
# formulation makes it, so charges and events are unchanged
# (``tests/test_fingerprint.py`` pins both against that formulation).
#
# Deferred loops: when ``mem.has_headroom`` says no store of a loop needs
# to be seen on its own (no sink, or a tally that only counts them, and
# no possible denial), the loop runs on locals, finds the peak of its
# registers' total, and ``mem.commit_peak`` leaves the registers, the
# current total and the peak exactly where the per-store loop would.
# With a tally attached it also takes the loop's store count and its last
# store's delta, for the tally's event count and last event; both are
# worked out in closed form, and only while a sink is attached, so a
# sink-free run does no extra work.  ``_residue_peak`` and ``_power_peak``
# find each value and its peak in closed form; the helpers' deferred
# branches call them.  Scan 2's deferred loop raises one x to many
# exponents mod one p2, so ``_powers`` builds fixed-base windows (after
# Brickell, Gordon, McCurley and Wilson) and peak tables once per run:
# a power is a product of table entries and its peak a lookup, and
# ``_records`` calls the two closed forms only for the records the tables
# cannot settle.  Scan 1 commits its two registers once.  The per-store
# loops stay the definition.


def _residue_peak(value: str, modulus: int) -> Tuple[int, int]:
    """``(1·value) mod modulus`` and the widest charge of ``acc`` on the
    way, as the per-store loop of :func:`_residue_of_string` finds them.

    A prefix ``1·value[:j]`` with ``j ≤ bitlen(modulus) − 2`` is below
    ``2^(bitlen(modulus) − 1) ≤ modulus``, so the loop never reduces it:
    one ``int`` is that register, and its bit length is the peak so far.
    From there the loop steps one bit at a time until the peak reaches
    the charge of ``modulus − 1``, which no residue can pass.
    """
    top = (modulus - 1).bit_length() or 1
    j = min(len(value), max(0, modulus.bit_length() - 2))
    acc = int("1" + value[:j], 2)
    peak = j + 1
    if peak < top:
        above = 1 << peak  # the least value wider than the peak
        for ch in value[j:]:
            acc = (acc + acc + (ch == "1")) % modulus
            if acc >= above:
                peak = acc.bit_length()
                if peak == top:
                    break
                above = 1 << peak
    return int("1" + value, 2) % modulus, peak


def _power_peak(base: int, exponent: int, modulus: int) -> Tuple[int, int]:
    """``base^exponent mod modulus`` and the widest total charge of
    ``pw_base``, ``pw_exp`` and ``pw_result`` on the way, as the per-store
    loop of :func:`_mod_pow_charged` finds them.

    After any store of a step the total is at most twice the charge of
    ``modulus − 1`` plus the charge of the exponent the step started
    from, and the exponent only shrinks.  So once the peak reaches that
    bound no later store can pass it, and ``pow`` finishes the value.
    """
    widest = 2 * ((modulus - 1).bit_length() or 1)
    base %= modulus
    result = 1 % modulus
    base_bits = base.bit_length() or 1
    result_bits = 1
    exp_bits = exponent.bit_length() or 1
    peak = base_bits + exp_bits + result_bits
    while exponent > 0:
        if peak >= widest + exp_bits:
            return result * pow(base, exponent, modulus) % modulus, peak
        if exponent % 2 == 1:
            result = result * base % modulus
            result_bits = result.bit_length() or 1
            if base_bits + exp_bits + result_bits > peak:
                peak = base_bits + exp_bits + result_bits
        base = base * base % modulus
        base_bits = base.bit_length() or 1
        if base_bits + exp_bits + result_bits > peak:
            peak = base_bits + exp_bits + result_bits
        exponent //= 2  # the exponent only shrinks: no new peak
        exp_bits -= 1
    return result, peak


#: Bits per window of scan 2's fixed-base power tables.
WINDOW = 6


def _powers(base: int, modulus: int, width: int) -> Callable[[int], Tuple[int, int]]:
    """``power(e)``, equal to ``_power_peak(base, e, modulus)`` for every
    0 ≤ e < 2^width (width ≥ 1), from tables built once.

    ``windows[i][d]`` is base^(d·2^(WINDOW·i)) mod modulus, so a power is
    the product of one entry per window of the exponent's digits.  With
    B_j the charge of base^(2^j) and R(d) that of base^d, step j of the
    loop starts with the exponent charged bitlen(e) − j and stores the
    result at R(e mod 2^(j+1)), beside B_j on a set bit, and then the
    base at B_(j+1).  ``exact[e]`` is the peak for e < 2^WINDOW; for
    larger e the set-up and the first WINDOW steps peak at bitlen(e) +
    ``low[e mod 2^WINDOW]``.  No later step passes bitlen(e) − WINDOW +
    twice the charge of ``modulus − 1``, so once ``low`` reaches that
    bound the peak is settled; otherwise ``_power_peak`` finds it.
    """
    size = 1 << WINDOW
    windows = []
    step = base
    for _ in range(-(-width // WINDOW)):  # ⌈width / WINDOW⌉ windows
        row = [1 % modulus]
        for _ in range(size - 1):
            row.append(row[-1] * step % modulus)
        windows.append(row)
        step = row[-1] * step % modulus
    first, rest = windows[0], windows[1:]
    charges = [power.bit_length() or 1 for power in first]
    squares = [charges[1 << j] for j in range(WINDOW)]
    squares.append((first[-1] * base % modulus).bit_length() or 1)
    # ``low`` over e mod 2^j after j steps, less bitlen(e)
    low = [squares[0] + charges[0]]
    exact = [low[0] + 1]
    for j in range(WINDOW):
        clear = squares[j + 1] - j
        set_ = max(squares[j], squares[j + 1]) - j
        low = [p if p > r + clear else r + clear for r, p in zip(charges, low)] + [
            p if p > r + set_ else r + set_ for r, p in zip(charges[len(low):], low)
        ]
        exact += [j + 1 + peak for peak in low[len(low) // 2:]]
    settled = 2 * ((modulus - 1).bit_length() or 1) - WINDOW
    mask = size - 1

    def power(e: int) -> Tuple[int, int]:
        if e < size:
            return first[e], exact[e]
        peak = low[e & mask]
        if peak < settled:
            return _power_peak(base, e, modulus)
        term = first[e & mask]
        digits = e >> WINDOW
        for row in rest:
            term *= row[digits & mask]
            digits >>= WINDOW
        return term % modulus, e.bit_length() + peak

    return power


def _records(p1: int, x: int, p2: int) -> Callable[[str], Tuple[int, int, int]]:
    """``record(value)``: e = (1·value) mod p1, x^e mod p2 and the widest
    total of the registers either helper holds on the way.

    A value of at most bitlen(p1) − 2 bits is never reduced, and ``acc``
    peaks at e's charge, below the power's set-up total, which charges e
    too.  A longer value's ``acc`` peaks at most at bitlen(p1 − 1), so
    ``_residue_peak`` runs only when the power peaks below that.
    """
    short = p1.bit_length() - 2
    top = (p1 - 1).bit_length() or 1
    power = _powers(x, p2, top)

    def record(value: str) -> Tuple[int, int, int]:
        e = int("1" + value, 2)
        if len(value) <= short:
            term, peak = power(e)
        else:
            e %= p1
            term, peak = power(e)
            if peak < top:
                peak = max(peak, _residue_peak(value, p1)[1])
        return e, term, peak

    return record


def _residue_of_string(value: str, modulus: int, mem: InternalMemory) -> int:
    """e = (1·value) mod p1 computed bit-by-bit (one pass, O(log p1) bits)."""
    # a non-binary value declines: mid-value, the per-store loop raises
    # with ``acc`` still stored
    if (
        mem.has_headroom({"acc": (modulus - 1).bit_length() or 1})
        and type(value) is str
        and not value.strip("01")
    ):
        acc, peak = _residue_peak(value, modulus)
        stores = delta = 0
        if mem.tracker.sink is not None:
            # the prefix bit's store and one per bit; the last adds the
            # charge of ``acc`` less that of the residue before the last
            # bit (an empty value's only store fills an empty register)
            stores, delta = 1 + len(value), 1
            if value:
                before = int("1" + value[:-1], 2) % modulus
                delta = (acc.bit_length() or 1) - (before.bit_length() or 1)
        mem.commit_peak({"acc": acc}, peak, stores, delta)
    else:
        mem["acc"] = acc = 1 % modulus  # the injectivity prefix bit
        for ch in value:
            if ch not in "01":
                raise EncodingError(f"non-binary character {ch!r} in value")
            mem["acc"] = acc = (acc * 2 + (1 if ch == "1" else 0)) % modulus
    mem.free("acc")
    return acc


def _mod_pow_charged(base: int, exponent: int, modulus: int, mem: InternalMemory) -> int:
    """Square-and-multiply with every intermediate charged to internal memory."""
    width = (modulus - 1).bit_length() or 1
    exp_bits = exponent.bit_length() or 1
    if mem.has_headroom({"pw_base": width, "pw_exp": exp_bits, "pw_result": width}):
        stores = delta = 0
        if mem.tracker.sink is not None:
            # three set-up stores, the last filling the empty
            # ``pw_result``; then each bit stores ``pw_base`` and
            # ``pw_exp``, and ``pw_result`` on a one bit, the last taking
            # ``pw_exp`` from 1 to 0 at no change of charge
            stores, delta = 3, 1
            if exponent > 0:
                stores += 2 * exp_bits + bin(exponent).count("1")
                delta = 0
        result, peak = _power_peak(base, exponent, modulus)
        # each exponent bit squares ``pw_base`` once and halves ``pw_exp``
        # (a loop that does not run leaves both as the set-up stored them)
        if exponent > 0:
            base, exponent = pow(base, 1 << exp_bits, modulus), 0
        mem.commit_peak(
            {"pw_base": base % modulus, "pw_exp": exponent, "pw_result": result},
            peak,
            stores,
            delta,
        )
    else:
        mem["pw_base"] = base = base % modulus
        mem["pw_exp"] = exponent
        mem["pw_result"] = result = 1 % modulus
        while exponent > 0:
            if exponent % 2 == 1:
                mem["pw_result"] = result = result * base % modulus
            mem["pw_base"] = base = base * base % modulus
            mem["pw_exp"] = exponent = exponent // 2
    for name in ("pw_base", "pw_exp", "pw_result"):
        mem.free(name)
    return result


def multiset_equality_fingerprint(
    instance: InstanceLike,
    rng: random.Random,
    *,
    budget: Optional[ResourceBudget] = None,
    sink=None,
) -> FingerprintResult:
    """Run the Theorem 8(a) machine on an instance.

    The default budget is ``(2 scans, fingerprint_space_budget(N) bits,
    1 tape)`` — the co-RST(2, O(log N), 1) envelope, which is also what
    ``budget=None`` selects.  Pass another :class:`ResourceBudget` to
    experiment with other envelopes; a permissive ``ResourceBudget()``
    measures without enforcing.  ``sink`` (any
    :class:`~repro.observability.sinks.EventSink`) receives the run's full
    accounting event stream, with phase marks ``scan1`` / ``params`` /
    ``scan2``.
    """
    inst = as_instance(instance)
    size = inst.size
    if budget is None:
        budget = ResourceBudget(
            max_scans=2,
            max_internal_bits=fingerprint_space_budget(size),
            max_tapes=1,
        )
    tracker = ResourceTracker(budget)
    if sink is not None:
        tracker.attach_sink(sink)
    mem = InternalMemory(tracker)
    tape = RecordTape(
        list(inst.first) + list(inst.second), tracker=tracker, name="input"
    )

    # ---- Scan 1 (forward): determine m, n, N -----------------------------
    tracker.mark_phase("scan1")
    # Decided before the zero stores, over the simulator's bounds on what
    # the scan will learn: at most len(tape) records of at most N bits.
    deferred = mem.has_headroom(
        {"count": len(tape).bit_length(), "n_max": size.bit_length()}
    )
    mem["count"] = count = 0
    mem["n_max"] = n_max = 0
    if deferred:
        records = tape.read_all()
        if records:
            # both registers only grow, so their total peaks at the end
            count = len(records)
            n_max = max(map(len, records))
            stores = delta = 0
            if tracker.sink is not None:
                # a ``count`` store per record and an ``n_max`` store per
                # length raise; the last is the last record's raise, if
                # it made one, else its ``count`` store
                maxima = list(accumulate(map(len, records), max, initial=0))
                stores = count + len(set(maxima)) - 1
                if maxima[-2] < n_max:
                    delta = n_max.bit_length() - (maxima[-2].bit_length() or 1)
                else:
                    delta = count.bit_length() - ((count - 1).bit_length() or 1)
            mem.commit_peak(
                {"count": count, "n_max": n_max},
                count.bit_length() + (n_max.bit_length() or 1),
                stores,
                delta,
            )
    else:
        for value in tape.scan():
            mem["count"] = count = count + 1
            if len(value) > n_max:
                mem["n_max"] = n_max = len(value)
    if count % 2 != 0:
        raise EncodingError("odd number of values on the input tape")
    m = count // 2
    if m == 0:
        return FingerprintResult(
            accepted=True,
            parameters=None,
            p1=None,
            x=None,
            sum_first=None,
            sum_second=None,
            report=tracker.report(),
        )

    # ---- Steps 2–4: choose p1, p2, x in internal memory -------------------
    tracker.mark_phase("params")
    params = FingerprintParameters.for_shape(m, n_max)
    mem["p1"] = p1 = random_prime_at_most(params.k, rng)
    mem["p2"] = p2 = params.p2
    mem["x"] = x = rng.randint(1, p2 - 1)

    # ---- Scan 2 (backward): accumulate Σ x^{e'_i} then Σ x^{e_i} ----------
    tracker.mark_phase("scan2")
    # Decided before the scan stores anything, over its seven registers at
    # their widest: residues below p1, sums and powers below p2, idx ≤ 2m.
    width1 = (p1 - 1).bit_length()
    width2 = (p2 - 1).bit_length()
    deferred = mem.has_headroom(
        {
            "sum_first": width2,
            "sum_second": width2,
            "idx": (2 * m).bit_length(),
            "acc": width1,
            "pw_base": width2,
            "pw_exp": width1,
            "pw_result": width2,
        }
    )
    mem["sum_first"] = sum_first = 0
    mem["sum_second"] = sum_second = 0
    mem["idx"] = idx = 0  # number of records consumed from the right
    # After scan 1 the head sits just past the last record; walking left is
    # the single head reversal of the whole computation, charged before
    # the first record is read.
    records = tape.scan_backward()
    if deferred:
        # The whole scan on locals, committed once.  The tape holds only
        # 0-1 strings (``Instance`` validates every value before the
        # machine sees it), so no record needs the helpers' check.  Per
        # record the registers' total peaks while ``acc`` or the power's
        # three registers are held, or after the ``idx`` store, which
        # comes after the sum store and charges at least as much.
        held = peak = 3  # the three zero registers
        stores = 0
        tally = tracker.sink is not None
        record = _records(p1, x, p2)
        for value in records:
            e, term, record_peak = record(value)
            if held + record_peak > peak:
                peak = held + record_peak
            if idx < m:  # the last m records are the primed half
                sum_second = (sum_second + term) % p2
            else:
                sum_first = (sum_first + term) % p2
            idx += 1
            held = (
                (sum_first.bit_length() or 1)
                + (sum_second.bit_length() or 1)
                + idx.bit_length()
            )
            if held > peak:
                peak = held
            if tally:
                # per record the helpers' stores and frees (as they count
                # them), the sum store and the ``idx`` store
                stores += 10 + len(value)
                if e > 0:
                    stores += 2 * e.bit_length() + bin(e).count("1")
        mem.commit_peak(
            {"sum_first": sum_first, "sum_second": sum_second, "idx": idx},
            peak,
            stores,
            # the last event is the last ``idx`` store, 2m − 1 → 2m
            (2 * m).bit_length() - (2 * m - 1).bit_length(),
        )
    else:
        for value in records:
            e = _residue_of_string(value, p1, mem)
            term = _mod_pow_charged(x, e, p2, mem)
            if idx < m:  # the last m records are the primed half
                mem["sum_second"] = sum_second = (sum_second + term) % p2
            else:
                mem["sum_first"] = sum_first = (sum_first + term) % p2
            mem["idx"] = idx = idx + 1

    result = FingerprintResult(
        accepted=sum_first == sum_second,
        parameters=params,
        p1=p1,
        x=x,
        sum_first=sum_first,
        sum_second=sum_second,
        report=tracker.report(),
    )
    mem.clear()
    return result


def amplified_multiset_equality(
    instance: InstanceLike,
    rng: random.Random,
    *,
    rounds: int = 10,
) -> bool:
    """Probability amplification: accept iff all ``rounds`` runs accept.

    Equal multisets are still always accepted; unequal multisets survive
    with probability ≤ 2^{-rounds} · (amplified from ≤ 1/2 per round).
    """
    if rounds < 1:
        raise EncodingError(f"rounds must be >= 1, got {rounds}")
    return all(
        multiset_equality_fingerprint(instance, rng).accepted
        for _ in range(rounds)
    )


def fingerprint_trial_with_range(
    instance: InstanceLike, rng: random.Random, k: int
) -> bool:
    """One fingerprint trial with an *explicit* prime range k (ablation).

    The paper sets k = m³·n·log(m³·n) so that the residue map is collision
    free with probability 1 − O(1/m) *and* the polynomial degree stays
    below p2/3.  Shrinking k keeps completeness (equal multisets are still
    always accepted) but inflates the false-positive rate — the E16
    ablation measures exactly that.
    """
    inst = as_instance(instance)
    if inst.m == 0:
        return True
    p1 = random_prime_at_most(k, rng)
    p2 = bertrand_prime(k)
    x = rng.randint(1, p2 - 1)
    sums = [0, 0]
    for half, values in enumerate((inst.first, inst.second)):
        for v in values:
            # validate like the tape path does, so malformed values raise
            # EncodingError here too instead of a bare ValueError
            if any(ch not in "01" for ch in v):
                raise EncodingError(f"non-binary value {v!r} in instance")
            e = int("1" + v, 2) % p1
            sums[half] = (sums[half] + pow(x, e, p2)) % p2
    return sums[0] == sums[1]


# -- Monte Carlo trial sweeps ----------------------------------------------


def derive_lane_rng(seed: object, lane: int) -> random.Random:
    """The random stream of trial ``lane`` of a Monte Carlo sweep.

    A function of ``(seed, lane)`` alone, string-keyed so it is stable
    across Python versions; the seed goes through
    :func:`~repro._util.normalize_seed`, so ``7`` and ``"7"`` draw the
    same trials.
    """
    return random.Random(f"batch:{normalize_seed(seed)}:lane:{lane}")


@dataclass(frozen=True)
class TrialSummary:
    """Aggregate outcome of a Monte Carlo fingerprint sweep."""

    m: int
    n: int
    kind: str
    trials: int
    accepted: int


def monte_carlo_fingerprint_trials(
    m: int,
    n: int,
    trials: int,
    *,
    kind: str = "near-miss",
    seed: object = 0,
) -> TrialSummary:
    """The Theorem 8(a) error-rate experiment: ``trials`` independent runs.

    Trial ``lane`` draws its instance, then its primes, from
    :func:`derive_lane_rng` ``(seed, lane)``, and runs the full tape
    machine under its claimed budget.  ``kind`` selects the instance
    population — ``"equal"`` (completeness: every trial must accept) or
    ``"near-miss"`` (soundness: acceptances are false positives).
    """
    if trials < 1:
        raise EncodingError(f"trials must be >= 1, got {trials}")
    if kind not in ("equal", "near-miss"):
        raise EncodingError(f"unknown trial kind {kind!r}")
    if kind == "near-miss" and (m < 1 or n < 1):
        raise EncodingError("near-miss trials require m >= 1 and n >= 1")
    from ..problems import near_miss_instance, random_equal_instance

    make = random_equal_instance if kind == "equal" else near_miss_instance
    accepted = 0
    for lane in range(trials):
        rng = derive_lane_rng(seed, lane)
        accepted += multiset_equality_fingerprint(make(m, n, rng), rng).accepted
    return TrialSummary(m=m, n=n, kind=kind, trials=trials, accepted=accepted)


def fingerprint_parameters(instance: InstanceLike) -> FingerprintParameters:
    """Expose the (m, n, k, p2) a run on this instance would use."""
    inst = as_instance(instance)
    if inst.m == 0:
        raise EncodingError("empty instance has no fingerprint parameters")
    n_max = max(len(v) for v in inst.first + inst.second)
    return FingerprintParameters.for_shape(inst.m, n_max)
