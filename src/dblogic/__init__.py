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

``import dblogic`` loads none of these modules.  Each exported name (and
each submodule name) is resolved on first access through the module
``__getattr__`` of PEP 562, so ``dblogic.verify_stage`` imports
`construction` then, and ``dblogic check`` never imports `construction`,
`model`, `probability` or `ratfunc`.
"""

from importlib import import_module

_EXPORTS = {  # submodule: the names the package exports from it
    "syntax": "Atom Cond Formula Implies Language Meta Not ParseError Sequent SubstitutionError "
              "conj disj iff indep",
    "proof": "Derivation DerivationError System apply_cut apply_derived_rule apply_struct "
             "check_derivation classical_leaf_check instantiate_axiom parse_derivation_file",
    "library": "TheoremEntry library_language proofs_dir theorem_library",
    "construction": "BudgetExceeded ConstructionError Stage advance build_faithful "
                    "build_for_formulas canonical_assignment classify_case dump_stage "
                    "load_stage new_stage0 partition_data select_condition verify_stage",
    "model": "ConditionalAssignment entails",
    "ratfunc": "EPS Poly RatFunc",
    "probability": "ClassicalProbability Extension RationalValuation ZeroBlockError "
                   "bayes_identity check_multiplicativity epsilon_extension extend_probability "
                   "extend_step lemma1_check lemma2_check lewis_collapse_demo lewis_separation "
                   "limit_at_zero p0_from_pi parse_probability_file",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})
