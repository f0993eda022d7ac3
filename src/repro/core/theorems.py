"""Registry of the paper's numbered results, each with an executable check.

``verify("theorem-8a")`` runs a scaled-down version of the corresponding
experiment and returns a :class:`TheoremCheck` with the claim, what was
measured, and a pass flag.  The full-scale versions live in
``benchmarks/``; these registry checks are deliberately small so
``verify_all()`` finishes in seconds and can run inside the test suite.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from ..errors import ReproError


@dataclass(frozen=True)
class TheoremCheck:
    """Outcome of one registry check."""

    result_id: str
    statement: str
    passed: bool
    measured: str


_CheckFn = Callable[[random.Random], TheoremCheck]
REGISTRY: "Dict[str, tuple]" = {}


def _register(result_id: str, statement: str):
    def wrap(fn: Callable[[random.Random, str, str], TheoremCheck]):
        REGISTRY[result_id] = (statement, fn)
        return fn

    return wrap


def verify(result_id: str, seed: int = 0) -> TheoremCheck:
    """Run the registered check for one result."""
    if result_id not in REGISTRY:
        raise ReproError(
            f"unknown result {result_id!r}; known: {sorted(REGISTRY)}"
        )
    statement, fn = REGISTRY[result_id]
    return fn(random.Random(seed), result_id, statement)


def verify_all(seed: int = 0) -> List[TheoremCheck]:
    """Run every registered check."""
    return [verify(result_id, seed) for result_id in sorted(REGISTRY)]


# ---------------------------------------------------------------------------


@_register(
    "lemma-3",
    "Every run of an (r,s,t)-bounded TM has length ≤ N·2^{O(r(t+s))}.",
)
def _check_lemma3(rng, result_id, statement):
    from ..machines import equality_machine, run_deterministic
    from ..problems import random_word
    from .bounds import lemma3_bound

    machine = equality_machine()
    worst_ratio = 0.0
    for n in (4, 8, 16):
        w = random_word(n, rng)
        run = run_deterministic(machine, f"{w}#{w}")
        stats = run.statistics
        r = stats.external_scans(machine.external_tapes)
        s = stats.internal_space(machine.external_tapes)
        bound = lemma3_bound(2 * n + 1, r, s, machine.external_tapes)
        if stats.length > bound:
            return TheoremCheck(result_id, statement, False, "bound violated")
        worst_ratio = max(worst_ratio, stats.length / bound)
    return TheoremCheck(
        result_id, statement, True, f"max length/bound ratio {worst_ratio:.4f}"
    )


@_register(
    "theorem-6",
    "(MULTI)SET-EQUALITY, CHECK-SORT ∉ RST(o(log N), O(N^¼/log N), O(1)): "
    "the Lemma 21 attack constructs an accepted no-instance for any "
    "too-weak machine.",
)
def _check_theorem6(rng, result_id, statement):
    from ..listmachine import lemma21_attack
    from ..listmachine.examples import single_scan_parity_nlm
    from ..problems import CheckPhiFamily

    m = 2
    fam = CheckPhiFamily(m, 3)
    yes_inputs = []
    for choices in itertools.product(
        *[fam.intervals.enumerate_interval(j) for j in range(m)]
    ):
        inst = fam.instance_from_choices(list(choices))
        yes_inputs.append(tuple(inst.first) + tuple(inst.second))
    alphabet = frozenset(v for inp in yes_inputs for v in inp)
    nlm = single_scan_parity_nlm(alphabet, 2 * m)
    outcome = lemma21_attack(nlm, yes_inputs, fam.phi, r=1)
    return TheoremCheck(
        result_id,
        statement,
        outcome.success,
        f"fooling input {outcome.fooling_input!r}" if outcome.success else outcome.detail,
    )


@_register(
    "corollary-7",
    "The three problems are in ST(O(log N), O(1), 2): tape merge sort "
    "solves them with logarithmically many reversals.",
)
def _check_corollary7(rng, result_id, statement):
    from .._util import ceil_log2
    from ..algorithms import check_sort_deterministic
    from ..problems import random_checksort_instance

    scans = {}
    for m in (16, 128):
        inst = random_checksort_instance(m, 8, rng, yes=True)
        result = check_sort_deterministic(inst)
        if not result.accepted:
            return TheoremCheck(result_id, statement, False, "wrong answer")
        scans[m] = result.report.scans
    ok = all(s <= 14 * (ceil_log2(m) + 2) + 40 for m, s in scans.items())
    return TheoremCheck(result_id, statement, ok, f"scans: {scans}")


@_register(
    "theorem-8a",
    "MULTISET-EQUALITY ∈ co-RST(2, O(log N), 1): two scans, O(log N) "
    "bits, no false negatives, false positives ≤ 1/2.",
)
def _check_theorem8a(rng, result_id, statement):
    from ..algorithms import multiset_equality_fingerprint
    from ..problems import random_equal_instance, random_unequal_instance

    for _ in range(20):
        yes = random_equal_instance(6, 8, rng)
        res = multiset_equality_fingerprint(yes, rng)
        if not res.accepted or res.report.scans > 2 or res.report.tapes_used > 1:
            return TheoremCheck(result_id, statement, False, "completeness/cost")
    false_pos = sum(
        multiset_equality_fingerprint(
            random_unequal_instance(6, 8, rng), rng
        ).accepted
        for _ in range(60)
    )
    ok = false_pos / 60 <= 0.5
    return TheoremCheck(
        result_id, statement, ok, f"false-positive rate {false_pos}/60"
    )


@_register(
    "theorem-8b",
    "All three problems ∈ NST(3, O(log N), 2): certificates exist exactly "
    "for yes-instances and the verifier is sound.",
)
def _check_theorem8b(rng, result_id, statement):
    from ..algorithms import nondeterministic_accepts
    from ..problems import (
        CHECK_SORT,
        MULTISET_EQUALITY,
        SET_EQUALITY,
        random_checksort_instance,
        random_equal_instance,
        random_unequal_instance,
    )

    for _ in range(10):
        samples = [
            random_equal_instance(4, 4, rng),
            random_unequal_instance(4, 4, rng),
            random_checksort_instance(4, 4, rng, yes=True),
            random_checksort_instance(4, 4, rng, yes=False),
        ]
        for inst in samples:
            if nondeterministic_accepts(inst) != MULTISET_EQUALITY(inst):
                return TheoremCheck(result_id, statement, False, "multiset")
            if nondeterministic_accepts(
                inst, problem="set-equality"
            ) != SET_EQUALITY(inst):
                return TheoremCheck(result_id, statement, False, "set")
            if nondeterministic_accepts(
                inst, problem="check-sort"
            ) != CHECK_SORT(inst):
                return TheoremCheck(result_id, statement, False, "checksort")
    return TheoremCheck(result_id, statement, True, "40 instances, 3 problems")


@_register(
    "proposition-5",
    "ST(r,s,t) ⊆ RST(r,s,t) ⊆ NST(r,s,t): every deterministic witness also "
    "witnesses the randomized and nondeterministic classes.",
)
def _check_proposition5(rng, result_id, statement):
    from .bounds import GrowthRate
    from .classes import Containment, NST, RST, ST

    const, log = GrowthRate.const(), GrowthRate.log()
    # Corollary 7's deterministic witness must propagate upward:
    for problem in ("SET-EQUALITY", "CHECK-SORT"):
        chain = [
            ST(log, const, 2).contains(problem),
            RST(log, const, 2).contains(problem),
            NST(log, const, 2).contains(problem),
        ]
        if chain != [Containment.YES] * 3:
            return TheoremCheck(result_id, statement, False, f"{problem}: {chain}")
    return TheoremCheck(result_id, statement, True, "ST witnesses propagate")


@_register(
    "corollary-9",
    "Separations: ST ⊊ RST ⊊ NST and RST ≠ co-RST in the sublogarithmic "
    "regime (witnessed by the class answers for MULTISET-EQUALITY).",
)
def _check_corollary9(rng, result_id, statement):
    from .bounds import GrowthRate
    from .classes import Containment, CoRST, NST, RST, ST

    const, log = GrowthRate.const(), GrowthRate.log()
    # in the o(log N) regime (constant scans) with O(log N) space:
    in_rst = RST(const, log).contains("MULTISET-EQUALITY")
    in_co = CoRST(const, log).contains("MULTISET-EQUALITY")
    in_nst = NST(const, log).contains("MULTISET-EQUALITY")
    in_st = ST(const, log).contains("MULTISET-EQUALITY")
    ok = (
        in_st == Containment.NO
        and in_rst == Containment.NO
        and in_co == Containment.YES
        and in_nst == Containment.YES
    )
    return TheoremCheck(
        result_id,
        statement,
        ok,
        f"ST:{in_st.value} RST:{in_rst.value} co-RST:{in_co.value} "
        f"NST:{in_nst.value}",
    )


@_register(
    "corollary-10",
    "SORTING ∉ LasVegas-RST(o(log N), O(N^¼/log N), O(1)) — via the "
    "CHECK-SORT reduction: a sorter plus one comparison scan decides "
    "CHECK-SORT.",
)
def _check_corollary10(rng, result_id, statement):
    from ..algorithms import sort_instance_strings
    from ..problems import CHECK_SORT, encode_instance, random_words

    # the reduction direction that the corollary uses: sorting ⇒ checksort
    words = random_words(12, 6, rng)
    sorted_words, _ = sort_instance_strings(words)
    inst = encode_instance(words, sorted_words)
    ok = CHECK_SORT(inst)
    return TheoremCheck(
        result_id, statement, ok, "sorter output passes CHECK-SORT"
    )


@_register(
    "theorem-11",
    "Relational algebra: every query streams in O(log N) reversals (a); "
    "the symmetric difference query decides SET-EQUALITY (b).",
)
def _check_theorem11(rng, result_id, statement):
    from ..problems import SET_EQUALITY, random_equal_instance, random_unequal_instance
    from ..queries.relational import (
        StreamingEvaluator,
        set_equality_database,
        symmetric_difference_query,
    )
    from ..queries.relational.streaming import streaming_scan_budget

    query = symmetric_difference_query()
    for make_yes in (True, False):
        inst = (
            random_equal_instance(8, 6, rng)
            if make_yes
            else random_unequal_instance(8, 6, rng)
        )
        db = set_equality_database(inst)
        ev = StreamingEvaluator(db)
        out = ev.evaluate(query)
        if out.is_empty != SET_EQUALITY(inst):
            return TheoremCheck(result_id, statement, False, "wrong answer")
        if ev.report().scans > streaming_scan_budget(query, db.total_size()):
            return TheoremCheck(result_id, statement, False, "budget exceeded")
    return TheoremCheck(result_id, statement, True, "Q′ decides SET-EQUALITY")


@_register(
    "theorem-12",
    "An XQuery query whose evaluation decides SET-EQUALITY on the XML "
    "encoding exists (the paper's query Q).",
)
def _check_theorem12(rng, result_id, statement):
    from ..problems import random_equal_instance, random_unequal_instance
    from ..queries.xml import instance_to_document, serialize
    from ..queries.xquery import evaluate_xquery, theorem12_query

    query = theorem12_query()
    yes = random_equal_instance(5, 5, rng)
    no = random_unequal_instance(5, 5, rng)
    no_set = set(no.first) != set(no.second)
    out_yes = serialize(evaluate_xquery(query, instance_to_document(yes))[0])
    out_no = serialize(evaluate_xquery(query, instance_to_document(no))[0])
    ok = out_yes == "<result><true/></result>" and (
        (out_no == "<result/>") == no_set
    )
    return TheoremCheck(result_id, statement, ok, f"{out_yes} / {out_no}")


@_register(
    "theorem-13",
    "The Figure 1 XPath query selects X − Y; filtering (two directions) "
    "decides SET-EQUALITY.",
)
def _check_theorem13(rng, result_id, statement):
    from ..problems import random_equal_instance, random_unequal_instance
    from ..queries.xml import instance_to_document
    from ..queries.xpath import figure1_query, matches

    query = figure1_query()
    for make_yes in (True, False):
        inst = (
            random_equal_instance(5, 5, rng)
            if make_yes
            else random_unequal_instance(5, 5, rng)
        )
        truth = set(inst.first) == set(inst.second)
        fires = matches(query, instance_to_document(inst)) or matches(
            query, instance_to_document(inst.swapped())
        )
        if (not fires) != truth:
            return TheoremCheck(result_id, statement, False, "filter wrong")
    return TheoremCheck(result_id, statement, True, "both directions checked")


@_register(
    "lemma-16",
    "TM runs induce list-machine block traces: reversals match, block "
    "growth obeys the (t+1)-per-reversal law.",
)
def _check_lemma16(rng, result_id, statement):
    from ..listmachine.simulate_tm import (
        block_trace,
        blocks_respect_lemma30,
        verify_block_reconstruction,
    )
    from ..machines import equality_machine

    machine = equality_machine()
    for word in ("0101#0101", "0110#0111"):
        trace = block_trace(machine, word)
        turns = sum(1 for e in trace.events if e.kind == "turn")
        actual = sum(
            trace.run.statistics.reversals_per_tape[: machine.external_tapes]
        )
        if turns != actual or not blocks_respect_lemma30(trace, machine):
            return TheoremCheck(result_id, statement, False, word)
        if not verify_block_reconstruction(trace, machine, word):
            return TheoremCheck(
                result_id, statement, False, f"reconstruction failed on {word}"
            )
    return TheoremCheck(
        result_id, statement, True, "traces consistent; blocks reconstruct"
    )


@_register(
    "remark-20",
    "sortedness(φ_m) ≤ 2√m − 1 for the reverse-binary permutation; every "
    "permutation has sortedness ≥ ⌈√m⌉.",
)
def _check_remark20(rng, result_id, statement):
    import math

    from ..lowerbounds import erdos_szekeres_bound, phi_permutation, sortedness

    values = {}
    for log_m in (4, 6, 8):
        m = 2**log_m
        s = sortedness(phi_permutation(m))
        values[m] = s
        if s > 2 * math.sqrt(m) - 1 or s < erdos_szekeres_bound(m):
            return TheoremCheck(result_id, statement, False, f"m={m}: {s}")
    return TheoremCheck(result_id, statement, True, f"sortedness: {values}")


@_register(
    "theorem-8a-bitlevel",
    "The fingerprint machine at full fidelity: character-per-cell symbol "
    "tape, two scans, O(log N) bits — identical transcripts to the "
    "record-level machine under the same randomness.",
)
def _check_theorem8a_bitlevel(rng, result_id, statement):
    import random as _random

    from ..algorithms import (
        multiset_equality_fingerprint,
        multiset_equality_fingerprint_bitlevel,
    )
    from ..problems import random_equal_instance, random_unequal_instance

    for _ in range(10):
        seed = rng.randrange(2**32)
        inst = (
            random_equal_instance(5, 7, rng)
            if rng.random() < 0.5
            else random_unequal_instance(5, 7, rng)
        )
        bit = multiset_equality_fingerprint_bitlevel(
            inst.encode(), _random.Random(seed)
        )
        rec = multiset_equality_fingerprint(inst, _random.Random(seed))
        if bit.accepted != rec.accepted or bit.sum_first != rec.sum_first:
            return TheoremCheck(result_id, statement, False, "transcripts differ")
        if bit.report.scans > 2 or bit.report.tapes_used > 1:
            return TheoremCheck(result_id, statement, False, "envelope")
    return TheoremCheck(result_id, statement, True, "10 identical transcripts")


@_register(
    "lemma-21",
    "The list-machine lower bound survives randomization: the attack also "
    "fools a machine with |C| = 2 that accepts all yes-inputs with "
    "probability 1.",
)
def _check_lemma21(rng, result_id, statement):
    import itertools

    from ..listmachine import acceptance_probability, lemma21_attack
    from ..listmachine.examples import randomized_feature_parity_nlm
    from ..problems import CheckPhiFamily

    fam = CheckPhiFamily(2, 3)
    yes_inputs = []
    for choices in itertools.product(
        *[fam.intervals.enumerate_interval(j) for j in range(2)]
    ):
        inst = fam.instance_from_choices(list(choices))
        yes_inputs.append(tuple(inst.first) + tuple(inst.second))
    alphabet = frozenset(v for inp in yes_inputs for v in inp)
    victim = randomized_feature_parity_nlm(alphabet, 4)
    outcome = lemma21_attack(victim, yes_inputs, fam.phi, choice_length=6)
    if not outcome.success:
        return TheoremCheck(result_id, statement, False, outcome.detail)
    p = acceptance_probability(victim, list(outcome.fooling_input))
    return TheoremCheck(
        result_id, statement, p > 0, f"Pr(accept fooling input) = {p}"
    )


@_register(
    "lemmas-30-31",
    "Run-shape bounds: list length ≤ (t+1)^r·m, cell size ≤ 11·max(t,2)^r, "
    "run length ≤ k + k(t+1)^{r+1}m.",
)
def _check_lemmas3031(rng, result_id, statement):
    from ..listmachine import check_run_shape, run_deterministic
    from ..listmachine.examples import single_scan_parity_nlm, tandem_compare_nlm

    words = ("00", "01", "10", "11")
    for nlm, values in (
        (tandem_compare_nlm(frozenset(words), 4), ["00", "01", "10", "11"] * 2),
        (single_scan_parity_nlm(frozenset(words), 6), ["01"] * 6),
    ):
        run = run_deterministic(nlm, values)
        report = check_run_shape(run, nlm, run.scan_count(nlm))
        if not report.all_within:
            return TheoremCheck(result_id, statement, False, str(report))
    return TheoremCheck(result_id, statement, True, "all bounds hold")


@_register(
    "lemma-32",
    "Skeleton counts are bounded and independent of the value length n.",
)
def _check_lemma32(rng, result_id, statement):
    from ..listmachine.examples import single_scan_parity_nlm
    from ..lowerbounds.counting import skeletons_independent_of_value_length

    def make_alphabet(n):
        return frozenset(
            {"0" * n, "0" * (n - 1) + "1", "1" + "0" * (n - 1), "1" * n}
        )

    counts = skeletons_independent_of_value_length(
        lambda a: single_scan_parity_nlm(a, 4), make_alphabet, [2, 5, 9], r=1
    )
    ok = len(set(counts.values())) == 1
    return TheoremCheck(result_id, statement, ok, f"counts by n: {counts}")


@_register(
    "lemma-34",
    "Composition: crossing two same-skeleton accepting runs at an "
    "uncompared pair preserves skeleton and verdict.",
)
def _check_lemma34(rng, result_id, statement):
    from ..listmachine.composition import verify_composition_lemma
    from ..listmachine.examples import single_scan_parity_nlm

    words = frozenset({"00", "01", "10", "11"})
    nlm = single_scan_parity_nlm(words, 4)
    witness = verify_composition_lemma(
        nlm,
        ("01", "10", "01", "10"),
        ("11", "10", "11", "10"),
        0,
        2,
        ["c"] * 10,
    )
    ok = witness.skeleton_preserved and witness.verdict_preserved
    return TheoremCheck(
        result_id, statement, ok, f"u = {witness.u}, accepted = {witness.accepted}"
    )


@_register(
    "lemmas-37-38",
    "Merge lemma: per-list position sequences decompose into ≤ t^r "
    "monotone pieces; ≤ t^{2r}·sortedness(φ) pairs (i, m+φ(i)) compared.",
)
def _check_lemmas3738(rng, result_id, statement):
    from ..listmachine import (
        compared_phi_pairs,
        merge_lemma_holds,
        run_deterministic,
        skeleton_of_run,
    )
    from ..listmachine.examples import tandem_compare_nlm
    from ..lowerbounds import phi_permutation, sortedness

    words = frozenset({"00", "01", "10", "11"})
    m = 4
    nlm = tandem_compare_nlm(words, m)
    values = ["00", "01", "10", "11", "11", "10", "01", "00"]
    run = run_deterministic(nlm, values)
    r = run.scan_count(nlm)
    if not merge_lemma_holds(run, nlm, r):
        return TheoremCheck(result_id, statement, False, "merge lemma failed")
    phi = phi_permutation(m)
    compared = compared_phi_pairs(skeleton_of_run(run), m, phi)
    bound = nlm.t ** (2 * r) * sortedness(phi)
    return TheoremCheck(
        result_id,
        statement,
        len(compared) <= bound,
        f"{len(compared)} compared ≤ {bound}",
    )


@_register(
    "corollary-10-lasvegas",
    "The Corollary 10 reduction is a (1/2, 0)-RTM: a flaky Las Vegas "
    "sorter yields CHECK-SORT with false negatives only.",
)
def _check_corollary10_lv(rng, result_id, statement):
    from ..algorithms import LasVegasSorter, check_sort_via_sorter
    from ..problems import random_checksort_instance

    sorter = LasVegasSorter(failure_probability=0.5)
    yes = random_checksort_instance(6, 5, rng, yes=True)
    no = random_checksort_instance(6, 5, rng, yes=False)
    yes_acc = sum(
        check_sort_via_sorter(yes, sorter, rng).accepted for _ in range(60)
    )
    no_acc = sum(
        check_sort_via_sorter(no, sorter, rng).accepted for _ in range(60)
    )
    ok = no_acc == 0 and yes_acc >= 15
    return TheoremCheck(
        result_id, statement, ok, f"yes {yes_acc}/60, no {no_acc}/60"
    )


@_register(
    "theorem-13-protocol",
    "The T̃ construction: no false positives at any filter; three T̃ runs "
    "clear acceptance probability 1/2 at the worst-case filter.",
)
def _check_t13_protocol(rng, result_id, statement):
    from ..problems import random_equal_instance, random_unequal_instance
    from ..queries.xpath.protocol import CoRFilter, set_equality_protocol

    worst = CoRFilter(rejection_probability=0.5)
    yes = random_equal_instance(4, 4, rng)
    no = random_unequal_instance(4, 4, rng)
    no_acc = sum(
        set_equality_protocol(no, rng, filter_t=worst).accepted
        for _ in range(40)
    )
    yes_acc = sum(
        set_equality_protocol(yes, rng, filter_t=worst).accepted
        for _ in range(120)
    )
    ok = no_acc == 0 and yes_acc / 120 >= 0.45
    return TheoremCheck(
        result_id, statement, ok, f"yes {yes_acc}/120, no {no_acc}/40"
    )


@_register(
    "corollary-7-short",
    "The Appendix-E reduction maps CHECK-φ to the SHORT variants: linear "
    "size, answer-preserving, O(1) reversals.",
)
def _check_short_reduction(rng, result_id, statement):
    from ..problems import (
        CHECK_SORT,
        MULTISET_EQUALITY,
        CheckPhiFamily,
        check_phi_to_short,
    )
    from ..problems.reductions import check_phi_to_short_on_tapes, verify_length_linear

    fam = CheckPhiFamily(8, 16)
    for make_yes in (True, False):
        inst = fam.random_yes(rng) if make_yes else fam.random_no(rng)
        out, layout = check_phi_to_short(inst, fam.phi)
        if MULTISET_EQUALITY(out) != fam.is_yes(inst):
            return TheoremCheck(result_id, statement, False, "answer flip")
        if CHECK_SORT(out) != fam.is_yes(inst):
            return TheoremCheck(result_id, statement, False, "checksort flip")
        if not verify_length_linear(inst, out, layout):
            return TheoremCheck(result_id, statement, False, "size blowup")
        _, _, tracker = check_phi_to_short_on_tapes(inst, fam.phi)
        if tracker.report().reversals > 2:
            return TheoremCheck(result_id, statement, False, "too many scans")
    return TheoremCheck(result_id, statement, True, "all three properties")
