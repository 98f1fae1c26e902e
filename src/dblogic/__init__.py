"""Workbench for a deterministic Bayesian conditional logic.

The pieces fit together as follows: `syntax` declares the language and
sequents and holds the one formula evaluator; `proof` checks derivations in
the classical, full and weakened systems and `library` ships machine-checked
derivations for the standard theorems; `construction` builds the free
partial models stage by stage, states the beta laws once and verifies each
stage against them; `model` evaluates formulas and sequents semantically on
a stage, the one model; `probability` extends exact classical probabilities
over the whole language (directly, or through an infinitesimal perturbation
when zero cells are present) and demonstrates how the Bayesian identity
survives while the classical triviality argument fails.
"""

from .syntax import (
    Atom, Cond, Formula, Implies, Language, Meta, Not, ParseError, Sequent,
    SubstitutionError, conj, disj, iff, indep,
)
from .proof import (
    Derivation, DerivationError, System, apply_cut, apply_derived_rule,
    apply_struct, check_derivation, classical_leaf_check, instantiate_axiom,
    parse_derivation_file,
)
from .library import TheoremEntry, library_language, proofs_dir, theorem_library
from .construction import (
    BudgetExceeded, ConstructionError, Stage, advance, build_faithful,
    build_for_formulas, canonical_assignment, classify_case, dump_stage,
    load_stage, new_stage0, partition_data, select_condition, verify_stage,
)
from .model import ConditionalAssignment, entails
from .ratfunc import EPS, Poly, RatFunc
from .probability import (
    ClassicalProbability, Extension, RationalValuation, ZeroBlockError,
    bayes_identity, check_multiplicativity, epsilon_extension,
    extend_probability, extend_step, lemma1_check, lemma2_check,
    lewis_collapse_demo, lewis_separation, limit_at_zero, p0_from_pi,
    parse_probability_file,
)

__version__ = "0.1.0"
