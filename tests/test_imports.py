"""Each command loads only the modules it runs, and the package exports
the same names as when it imported every module eagerly."""

import os
import subprocess
import sys

import pytest

import dblogic

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dblogic.__file__)))
SHIPPED = os.path.join(SRC, "dblogic", "proofs", "3_1_1.dseq")
TABLE = "a /\\ b : 1/2\na /\\ !b : 0\n!a /\\ b : 1/4\n!a /\\ !b : 1/4\n"

EXPORTS = [
    "Atom", "BudgetExceeded", "ClassicalProbability", "Cond", "ConditionalAssignment",
    "ConstructionError", "Derivation", "DerivationError", "EPS", "Extension", "Formula",
    "Implies", "Language", "Meta", "Not", "ParseError", "Poly", "RatFunc",
    "RationalValuation", "Sequent", "Stage", "SubstitutionError", "System",
    "TheoremEntry", "ZeroBlockError", "advance", "apply_cut", "apply_derived_rule",
    "apply_struct", "bayes_identity", "build_faithful", "build_for_formulas",
    "canonical_assignment", "check_derivation", "check_multiplicativity",
    "classical_leaf_check", "classify_case", "conj", "disj", "dump_stage", "entails",
    "epsilon_extension", "extend_probability", "extend_step", "iff", "indep",
    "instantiate_axiom", "lemma1_check", "lemma2_check", "lewis_collapse_demo",
    "lewis_separation", "library_language", "limit_at_zero", "load_stage", "new_stage0",
    "p0_from_pi", "parse_derivation_file", "parse_probability_file", "partition_data",
    "proofs_dir", "select_condition", "theorem_library", "verify_stage",
]
SUBMODULES = ["construction", "library", "model", "probability", "proof", "ratfunc",
              "syntax"]

CHECK = ["dblogic", "dblogic.cli", "dblogic.proof", "dblogic.syntax"]
MODEL = sorted(CHECK + ["dblogic.construction", "dblogic.model"])
PROB = sorted(MODEL + ["dblogic.probability", "dblogic.ratfunc"])


def _fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter that finds this package."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


LOADED = "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'dblogic'))"


@pytest.mark.parametrize("call, loaded", [
    ("import dblogic", ["dblogic"]),
    (f"cli.cmd_check([{SHIPPED!r}], None, out=io.StringIO())", CHECK),
    ("cli.cmd_model(['a', 'b'], ['(b | a)', 'a |- a'], 'targeted', 32, 0, None, None,"
     " None, out=io.StringIO())", MODEL),
    (f"cli.cmd_prob(['a', 'b'], {TABLE!r}, ['(b | a)'], 8, 0, False, None,"
     " out=io.StringIO())", PROB),
], ids=["import", "check", "model", "prob"])
def test_each_command_loads_only_the_modules_it_runs(call, loaded):
    if call.startswith("cli."):
        call = f"import io; from dblogic import cli; assert {call} == 0"
    assert _fresh(f"{call}; {LOADED}").strip() == repr(loaded)


def test_the_export_surface_is_unchanged():
    assert sorted(dblogic.__all__) == EXPORTS
    for name in EXPORTS:
        assert any(getattr(dblogic, name) is vars(getattr(dblogic, m)).get(name)
                   for m in SUBMODULES), name
    star = {}
    exec("from dblogic import *", star)
    assert sorted(n for n in star if n != "__builtins__") == EXPORTS
    assert set(EXPORTS + SUBMODULES) <= set(dir(dblogic))


def test_submodules_resolve_after_a_bare_import():
    assert _fresh("import dblogic; print(dblogic.construction.__name__,"
                  " dblogic.ratfunc.RatFunc.__module__)").split() == [
        "dblogic.construction", "dblogic.ratfunc"]


def test_an_unknown_name_raises_the_usual_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'dblogic' has no attribute 'nope'$"):
        dblogic.nope
