"""Package exports resolve on first use; each measured path loads only
the modules it runs.

Every package ``__init__`` resolves its exports through PEP 562
``__getattr__`` (:mod:`repro._exports`), so a command loads, and so
compiles, only the submodules it calls.  ``sys.modules`` only grows,
so every check of what a path loads runs in a fresh interpreter.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parents[2]

#: Every package's ``__all__`` as it was when the packages still
#: imported their submodules eagerly: resolving names on first use
#: added no export and dropped none.
EXPORTS = {
    "repro": "__version__",
    "repro.algorithms": """
        amplified_multiset_equality build_certificate Certificate
        check_sort_deterministic check_sort_via_sorter DONT_KNOW
        fingerprint_parameters fingerprint_space_budget
        FingerprintParameters FingerprintResult
        las_vegas_success_amplification LasVegasResult LasVegasSorter
        ModularSumSketch multiset_equality_deterministic
        multiset_equality_fingerprint
        multiset_equality_fingerprint_bitlevel nondeterministic_accepts
        one_pass_multiset_test set_equality_deterministic
        sets_disjoint_deterministic sort_instance_strings
        tape_merge_sort verify_certificate XorSumSketch
    """,
    "repro.cache": """
        CacheKey canonical_json compose_key digest_of recompute_payload
        ResultStore SCHEMA_VERSION verify_entries
    """,
    "repro.core": """
        ClassKind ComplexityClass Containment CoRST GrowthRate
        LasVegasRST lemma3_bound NST REGISTRY RST ST TheoremCheck verify
        verify_all
    """,
    "repro.extmem": """
        BLANK InternalMemory RecordTape ResourceBudget ResourceReport
        ResourceTracker SymbolTape
    """,
    "repro.listmachine": """
        acceptance_probability AttackOutcome Cell check_run_shape Choice
        compared_pairs compared_phi_pairs compose_inputs
        CompositionWitness find_good_choice_sequence ind_string
        initial_configuration Inp LA lemma21_attack
        lemma30_cell_size_bound lemma30_list_length_bound
        lemma31_run_length_bound lemma32_skeleton_bound
        lemma38_bound_holds LMConfiguration LMRun local_view LocalView
        merge_lemma_holds monotone_cover_size Movement NLM
        occurring_position_sequence positions_in_cell RA
        render_configuration render_run render_skeleton
        run_deterministic run_with_choices SimulatingListMachine
        Skeleton skeleton_of_run StateTok successor Token
        verify_cell_contents verify_cells_partition
    """,
    "repro.lowerbounds": """
        erdos_szekeres_bound lemma21_hypotheses lemma22_thresholds
        LowerBoundParameters minimal_m_for_machine phi_one_based
        phi_permutation phi_sortedness_bound sortedness
        sortedness_bruteforce theorem6_applies
    """,
    "repro.machines": """
        acceptance_probability check_co_half_zero_rtm
        check_half_zero_rtm choice_alphabet coin_flip_machine
        Configuration copy_machine copy_reverse_machine enumerate_runs
        equality_machine FastRun guess_bit_machine L MachineBuilder
        majority_machine N parity_machine R RTMReport RTMViolation Run
        run_deterministic run_with_choices RunStatistics StepState
        Transition TuringMachine
    """,
    "repro.numbertheory": """
        bertrand_prime crt_pair is_prime mod_inverse mod_pow next_prime
        poly_eval_mod power_sum_mod prev_prime prime_count_upper
        primes_in_range primes_up_to random_prime_at_most
    """,
    "repro.observability": """
        append_history AuditRun compare_bench ContractCheck
        ContractOutcome CONTRACTS ContractSpec EngineProbe EVENT_KINDS
        EventSink FULL_SWEEP history_record iter_ledger JsonlFileSink
        KIND_DENIED KIND_INTERNAL KIND_PHASE KIND_REVERSAL KIND_STEP
        KIND_TAPE LEDGER_SCHEMA LedgerWriter load_ledger QUICK_SWEEP
        render_comparison render_summary replay_jsonl ResourceEvent
        RingBufferSink run_contract_audit SETUP_PHASE Span
        strip_nondeterministic strip_record summarize_ledgers TallySink
        Tracer write_audit_json
    """,
    "repro.problems": """
        ALL_PROBLEMS check_phi_problem check_phi_to_short CHECK_SORT
        CheckPhiFamily decode_instance DISJOINT_SETS encode_instance
        Instance instance_size IntervalFamily MULTISET_EQUALITY
        near_miss_instance Problem random_checksort_instance
        random_equal_instance random_unequal_instance random_word
        random_words SET_EQUALITY short_block_length short_variant
        sort_strings
    """,
    "repro.queries.relational": """
        AttrEquals AttrEqualsAttr Database Difference evaluate Expr
        NaturalJoin parse_algebra Predicate Product Projection Relation
        RelationRef Rename Schema Selection set_equality_database
        StreamingEvaluator symmetric_difference_query Union
    """,
    "repro.queries.xml": """
        Document document_to_instance Element EndTag
        instance_to_document Node parse parse_tokens serialize StartTag
        Text TextNode Token tokenize
    """,
    "repro.queries.xpath": """
        Axis Comparison evaluate_xpath figure1_query FIGURE1_TEXT
        LocationPath matches Not parse_xpath PathPredicate Step
    """,
    "repro.queries.xquery": """
        AndExpr ElementConstructor EmptySequence evaluate_xquery ForExpr
        GeneralComparison IfExpr OrExpr parse_xquery PathExpr Quantified
        TextLiteral theorem12_query THEOREM12_TEXT VarRef XQExpr
    """,
}


def fresh(script: str) -> str:
    """The last line ``script`` prints in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout.splitlines()[-1]


def export_faults():
    """``[package, name, fault]`` for every export that misresolves.

    Each package's names are resolved first, then every direct submodule
    is imported: a name must resolve to a non-module that one of those
    submodules defines, must still do so after the imports, and must be
    in ``dir(package)``.
    """
    faults = []
    for package_name in EXPORTS:
        package = importlib.import_module(package_name)
        values = {name: getattr(package, name) for name in package.__all__}
        submodules = [
            importlib.import_module(f"{package_name}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        listed = dir(package)
        for name, value in values.items():
            if isinstance(value, types.ModuleType):
                faults.append([package_name, name, "a module"])
            if getattr(package, name) is not value:
                faults.append([package_name, name, "rebound by an import"])
            if not any(vars(sub).get(name) is value for sub in submodules):
                faults.append([package_name, name, "no submodule defines it"])
            if name not in listed:
                faults.append([package_name, name, "not in dir()"])
    return faults


def fresh_export_faults(*, walk_first):
    """:func:`export_faults` in a fresh interpreter, which first imports
    every ``repro`` module when ``walk_first`` is set."""
    script = "\n".join([
        "import importlib, json, pkgutil, sys",
        "import repro",
        f"if {walk_first!r}:",
        "    for info in pkgutil.walk_packages(repro.__path__, 'repro.'):",
        "        importlib.import_module(info.name)",
        "sys.path.insert(0, '.')",
        "from tests.test_imports import export_faults",
        "print(json.dumps(export_faults()))",
    ])
    return json.loads(fresh(script))


class TestExports:
    def test_every_package_exports_what_it_did(self):
        packages = {
            info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.ispkg
            and getattr(importlib.import_module(info.name), "__all__", None)
        }
        assert packages | {"repro"} == set(EXPORTS)
        for package_name, names in EXPORTS.items():
            package = importlib.import_module(package_name)
            assert set(package.__all__) == set(names.split()), package_name

    def test_every_export_resolves_to_its_definition(self):
        """In a fresh interpreter, so that each name is looked up before
        its submodule is imported."""
        assert fresh_export_faults(walk_first=False) == []

    def test_every_export_resolves_after_every_submodule_is_imported(self):
        """Importing a submodule first binds the package attribute of its
        name to the module: ``repro.lowerbounds.sortedness`` and
        ``repro.queries.relational.evaluate`` must still be the
        functions."""
        assert fresh_export_faults(walk_first=True) == []

    @pytest.mark.parametrize("package_name", sorted(EXPORTS))
    def test_an_unknown_name_raises_attribute_error(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match="no_such_export"):
            package.no_such_export
        assert getattr(package, "transduce", None) is None
        assert "no_such_export" not in dir(package)


def _algorithms_except_fingerprint():
    import repro.algorithms

    return [
        f"repro.algorithms.{info.name}"
        for info in pkgutil.iter_modules(repro.algorithms.__path__)
        if info.name != "fingerprint"
    ]


#: (the path's calls, modules it must not load) per measured path.
PATHS = {
    "xpath_protocol": (
        [
            "from repro.problems import random_equal_instance, random_unequal_instance",
            "from repro.queries.xpath.protocol import CoRFilter, set_equality_protocol",
            "rng = random.Random(0)",
            "co_r = CoRFilter(rejection_probability=0.5)",
            "for inst in (random_equal_instance(6, 6, rng),"
            " random_unequal_instance(6, 6, rng)):",
            "    set_equality_protocol(inst, rng, filter_t=co_r, amplification=2)",
        ],
        [
            "repro.extmem",
            "repro.algorithms",
            "repro.observability",
            "repro.lowerbounds",
            "repro.numbertheory",
            "repro.queries.xml.tokens",
        ],
    ),
    "fingerprint_mc": (
        [
            "from repro.algorithms.fingerprint import monte_carlo_fingerprint_trials",
            "for kind in ('near-miss', 'equal'):",
            "    monte_carlo_fingerprint_trials(128, 64, 4, kind=kind, seed=kind)",
        ],
        [
            "repro.queries",
            "repro.lowerbounds",
            "repro.numbertheory.modular",
            "repro.problems.reductions",
            "repro.observability.sinks",
            "repro.observability.trace",
            *_algorithms_except_fingerprint(),
        ],
    ),
    "quick_audit": (
        [
            "import tempfile",
            "from repro.observability.audit import run_contract_audit, write_audit_json",
            "run = run_contract_audit(quick=True)",
            "assert run.ok",
            "with tempfile.TemporaryDirectory() as tmp:",
            "    write_audit_json(run, tmp + '/audit.json')",
        ],
        [
            "repro.machines",
            "repro.listmachine",
            "repro.core",
            "repro.cache",
            "repro.observability.trace",
            "repro.observability.ledger",
            "repro.observability.report",
            "repro.algorithms.setequality",
            "repro.algorithms.nondet_verify",
            "repro.algorithms.fingerprint_bitlevel",
            "repro.problems.reductions",
            "repro.lowerbounds.parameters",
            "repro.numbertheory.modular",
            "repro.queries.relational.parser",
            "repro.queries.xml.document",
            "repro.queries.xml.encode",
            "repro.queries.xpath",
            "repro.queries.xquery",
        ],
    ),
}


class TestImportFootprint:
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_each_measured_path_loads_only_what_it_runs(self, path):
        """A fresh interpreter that runs one benchmark path has loaded no
        module on that path's list."""
        calls, absent = PATHS[path]
        script = "\n".join([
            "import random, sys",
            *calls,
            f"print(sorted(set({absent!r}) & set(sys.modules)))",
        ])
        assert fresh(script) == "[]"
