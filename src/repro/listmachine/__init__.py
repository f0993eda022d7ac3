"""Nondeterministic list machines (Sections 5–7 and Appendices B–D).

A list machine (Definition 14) replaces tapes with *lists* into which new
cells can be inserted; cells hold strings over the machine's alphabet
A = I ∪ C ∪ A ∪ {⟨, ⟩}.  In every step where some head moves or turns, the
string ``y = a⟨x_{1,p1}⟩…⟨x_{t,pt}⟩⟨c⟩`` — current state, the contents of
all cells under heads, and the nondeterministic choice — is written behind
*every* head (Definition 24).  This makes the flow of information explicit:
the *skeleton* of a run (Definition 28) records which input *positions*
met in a local view, and the lower bound follows from three facts made
executable here:

* runs are short and lists stay small (Lemmas 30–31, :mod:`.bounds`);
* there are few skeletons (Lemma 32, :mod:`.bounds`);
* information can only merge t^r monotone ways (Lemmas 37–38,
  :mod:`.analysis`), so some pair (i, m+φ(i)) is never compared, and the
  composition lemma (Lemma 34, :mod:`.composition`) then splices two
  accepting runs into an accepting run on a **no**-instance.

:mod:`.examples` ships concrete machines; :mod:`.simulate_tm` contains the
block-trace side of the simulation lemma (Lemma 16).
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "nlm": (
            "NLM",
            "Cell",
            "Token",
            "Inp",
            "Choice",
            "StateTok",
            "LA",
            "RA",
            "Movement",
        ),
        "config": ("LMConfiguration", "initial_configuration", "successor"),
        "run": (
            "LMRun",
            "run_with_choices",
            "run_deterministic",
            "acceptance_probability",
            "find_good_choice_sequence",
        ),
        "skeleton": (
            "LocalView",
            "local_view",
            "ind_string",
            "skeleton_of_run",
            "Skeleton",
            "compared_pairs",
            "positions_in_cell",
        ),
        "analysis": (
            "occurring_position_sequence",
            "monotone_cover_size",
            "compared_phi_pairs",
            "merge_lemma_holds",
            "lemma38_bound_holds",
        ),
        "bounds": (
            "lemma30_list_length_bound",
            "lemma30_cell_size_bound",
            "lemma31_run_length_bound",
            "lemma32_skeleton_bound",
            "check_run_shape",
        ),
        "composition": (
            "compose_inputs",
            "CompositionWitness",
            "lemma21_attack",
            "AttackOutcome",
        ),
        "render": ("render_run", "render_skeleton", "render_configuration"),
        "simulating_machine": (
            "SimulatingListMachine",
            "verify_cells_partition",
            "verify_cell_contents",
        ),
    },
)
