import random

import pytest

from dblogic.construction import advance, canonical_assignment, new_stage0
from dblogic.library import library_language, theorem_library
from dblogic.model import (
    ConditionalAssignment, StageModel, TableModel, check_beta_axioms,
    check_soundness, entails, extend_assignment,
)
from dblogic.proof import System
from dblogic.syntax import Cond, Language

L1 = Language(["a"])
L2 = Language(["a", "b"])
LIB_LANG = library_language()


@pytest.fixture(scope="module")
def m1():
    s0 = new_stage0(["a"])
    return StageModel(advance(s0, 1))


@pytest.fixture(scope="module")
def m2():
    s0 = new_stage0(["a", "b"])
    return StageModel(advance(s0, 0b1010))  # condition = "a holds"


def test_beta_axioms_pass_on_total_single_atom_model(m1):
    rep = check_beta_axioms(m1)
    assert rep.ok(include_extra=True)
    for name in ("beta1", "beta2", "beta3", "beta4", "beta5w"):
        passed, skipped = rep.checks[name]
        assert passed > 0 and name not in rep.failures()
        assert skipped == 0  # f is total here


def test_beta1_counterexample_on_tampered_model(m1):
    tampered = TableModel.from_model(m1).override(1, 1, 0)
    rep = check_beta_axioms(tampered)
    assert "beta1" in rep.failures()


def test_trivial_condition_rows(m1):
    for b in range(4):
        assert m1.f(b, 0) == b
        assert m1.f(b, m1.full) == b


def test_evaluate_examples(m1):
    h = canonical_assignment(m1.stage)
    asg = extend_assignment(m1, h)
    assert asg.value(L1.parse("T")) == m1.full
    assert asg.value(L1.parse("(a | a)")) == m1.full
    assert asg.value(L1.parse("(a | !a)")) == 0


def test_evaluate_reports_blocking_condition(m2):
    h = canonical_assignment(m2.stage)
    asg = extend_assignment(m2, h)
    f = L2.parse("(a | b)")  # the b-chain was never processed
    assert asg.value(f) is None
    assert asg.blocking_condition(f) == h["b"]


def test_extend_assignment_definitional_cases(m1):
    asg = extend_assignment(m1, {"a": 0})
    assert asg.value(L1.parse("!a")) == m1.full
    asg2 = extend_assignment(m1, {"a": m1.full})
    assert asg2.value(L1.parse("(a | a)")) == asg2.value(L1.parse("a"))
    with pytest.raises(KeyError):
        extend_assignment(m1, {"a": 1}).value(L2.parse("b"))


def test_uniqueness_of_extension(m1):
    rng = random.Random(5)
    atom_map = {"a": 2}
    a1 = extend_assignment(m1, atom_map)
    a2 = extend_assignment(m1, atom_map)

    def rand_formula(d):
        if d == 0 or rng.random() < 0.3:
            return L1.parse("a")
        from dblogic.syntax import Implies, Not
        k = rng.random()
        if k < 0.4:
            return Not(rand_formula(d - 1))
        if k < 0.8:
            return Implies(rand_formula(d - 1), rand_formula(d - 1))
        return Cond(rand_formula(d - 1), rand_formula(d - 1))

    for _ in range(200):
        f = rand_formula(5)
        assert a1.value(f) == a2.value(f)


def test_entails_b1_exhaustive(m1):
    r = entails(m1, L1.parse_sequent("a -> a |- !a, (a | a)"))
    assert r.verdict == "holds" and r.skipped == 0


def test_entails_b1_two_variable_instance(m1):
    lang = Language(["a", "x"])
    seq = lang.parse_sequent("a -> x |- !a, (x | a)")
    r = entails(m1, seq)
    assert r.verdict == "holds" and r.checked == 16


def test_non_theorems_fail_with_witness():
    m0 = StageModel(new_stage0(["a", "b"]))
    r1 = entails(m0, L2.parse_sequent("|- a, !a"))
    assert r1.verdict == "fails"
    assert 0 < r1.witness["a"] < m0.full
    r2 = entails(m0, L2.parse_sequent("a \\/ b |- a, b"))
    assert r2.verdict == "fails"
    # the witness really falsifies: antecedent full, both succedents proper
    av, bv = r2.witness["a"], r2.witness["b"]
    assert (av | bv) == m0.full and av != m0.full and bv != m0.full


def test_trivial_sequents():
    m0 = StageModel(new_stage0(["a", "b"]))
    assert entails(m0, L2.parse_sequent("T |- T")).verdict == "holds"


def test_soundness_sweep_library_on_total_model(m1):
    rows = [(e.tid, e.statement) for e in theorem_library(LIB_LANG)
            if e.derivation.system is System.DBL_STAR]
    out = check_soundness(m1, rows)
    for row in out:
        assert row.result.verdict == "holds", (row.label, row.result)


def test_soundness_sweep_sampled_on_two_atom_stage(m2):
    rows = [(e.tid, e.statement) for e in theorem_library(LIB_LANG)
            if e.derivation.system is System.DBL_STAR]
    out = check_soundness(m2, rows, samples=300, seed=11)
    for row in out:
        assert row.result.is_sound(), (row.label, row.result)


def test_star_conclusion_fails_semantically(m2):
    # the quarantined collapse consequence has a counter-assignment
    star = next(e for e in theorem_library(LIB_LANG) if e.tid == "3.1.17.star")
    h = canonical_assignment(m2.stage)
    amap = {"x": m2.stage.embed_from(0, 0b1100), "y": h["a"]}
    asg = ConditionalAssignment(m2, amap)
    vals = [asg.value(f) for f in star.statement.succedent]
    assert all(v is not None and v != m2.full for v in vals)


def test_equivalence_theorems_respected_by_evaluation(m1):
    # for every library theorem |- A <-> B, evaluation agrees with the
    # equivalence under every assignment where both sides are defined
    pairs = []
    for e in theorem_library(LIB_LANG):
        if e.derivation.system is not System.DBL_STAR:
            continue
        if len(e.statement.antecedent) == 0 and len(e.statement.succedent) == 1:
            from dblogic.syntax import _match_iff
            m = _match_iff(e.statement.succedent[0])
            if m:
                pairs.append((e.tid, *m))
    assert pairs
    names = sorted({n for _, a, b in pairs
                    for n in LIB_LANG.theta})
    for tid, fa, fb in pairs:
        for code in range(4 ** len(names)):
            c = code
            amap = {}
            for n in names:
                amap[n] = c % 4
                c //= 4
            asg = ConditionalAssignment(m1, amap)
            va, vb = asg.value(fa), asg.value(fb)
            if va is not None and vb is not None:
                assert va == vb, (tid, amap)


def test_stage_verifier_and_model_checker_share_the_law_table():
    from dblogic.construction import BETA_LAWS, build_faithful, verify_stage
    laws = {name for name, _, _ in BETA_LAWS}
    stages, _ = build_faithful(["a", "b"], max_atoms=32, verify=False)
    for s in stages[1:]:
        stage_rep = verify_stage(s)
        model_rep = check_beta_axioms(StageModel(s))
        assert laws <= set(stage_rep.checks)
        assert set(model_rep.checks) == laws
        assert stage_rep.ok() and model_rep.ok(), (s.index, stage_rep.failures(),
                                                   model_rep.failures())


def test_beta6_identity_from_beta2_beta4(m2):
    rep = check_beta_axioms(m2)
    passed, skipped = rep.checks["beta6"]
    assert "beta6" not in rep.failures() and passed > 0
