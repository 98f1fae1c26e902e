import random
import re
import time

import pytest

from dblogic.construction import (
    CheckReport, advance, build_faithful, build_for_formulas, canonical_assignment,
    check_beta_laws, new_stage0, verify_stage,
)
from dblogic.library import library_language, theorem_library
from dblogic.model import ConditionalAssignment, entails
from dblogic.proof import System
from dblogic.syntax import Atom, Cond, Language, Sequent, iff

from stage_reference import level_images

L1 = Language(["a"])
L2 = Language(["a", "b"])
LIB_LANG = library_language()


@pytest.fixture(scope="module")
def m1():
    s0 = new_stage0(["a"])
    s1 = advance(s0, 1)
    assert verify_stage(s1).ok()
    return s1


@pytest.fixture(scope="module")
def m2():
    s0 = new_stage0(["a", "b"])
    s1 = advance(s0, 0b1010)  # condition = "a holds"
    assert verify_stage(s1).ok()
    return s1


def test_beta_axioms_pass_on_total_single_atom_model(m1):
    rep = stage_rows_report(m1)
    assert rep.ok(include_extra=True)
    for name in ("beta1", "beta2", "beta3", "beta4", "beta5w"):
        passed, skipped = rep.checks[name]
        assert passed > 0 and name not in rep.failures()
        assert skipped == 0  # f is total here


def test_beta1_counterexample_on_tampered_model(m1):
    tampered = Table.of_stage(m1).override(1, 1, 0)
    rep = tampered.report()
    assert "beta1" in rep.failures()


def test_trivial_condition_rows(m1):
    for b in range(4):
        assert m1.apply_f(b, 0) == b
        assert m1.apply_f(b, m1.full) == b


def test_evaluate_examples(m1):
    h = canonical_assignment(m1)
    asg = ConditionalAssignment(m1, h)
    assert asg.value(L1.parse("T")) == m1.full
    assert asg.value(L1.parse("(a | a)")) == m1.full
    assert asg.value(L1.parse("(a | !a)")) == 0


def test_evaluate_reports_blocking_condition(m2):
    h = canonical_assignment(m2)
    asg = ConditionalAssignment(m2, h)
    f = L2.parse("(a | b)")  # the b-chain was never processed
    assert asg.value(f) is None
    assert asg.blocking_condition(f) == h["b"]


def test_extend_assignment_definitional_cases(m1):
    asg = ConditionalAssignment(m1, {"a": 0})
    assert asg.value(L1.parse("!a")) == m1.full
    asg2 = ConditionalAssignment(m1, {"a": m1.full})
    assert asg2.value(L1.parse("(a | a)")) == asg2.value(L1.parse("a"))
    with pytest.raises(KeyError):
        ConditionalAssignment(m1, {"a": 1}).value(L2.parse("b"))


def test_uniqueness_of_extension(m1):
    rng = random.Random(5)
    atom_map = {"a": 2}
    a1 = ConditionalAssignment(m1, atom_map)
    a2 = ConditionalAssignment(m1, atom_map)

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
    m0 = new_stage0(["a", "b"])
    r1 = entails(m0, L2.parse_sequent("|- a, !a"))
    assert r1.verdict == "fails"
    assert 0 < r1.witness["a"] < m0.full
    r2 = entails(m0, L2.parse_sequent("a \\/ b |- a, b"))
    assert r2.verdict == "fails"
    # the witness really falsifies: antecedent full, both succedents proper
    av, bv = r2.witness["a"], r2.witness["b"]
    assert (av | bv) == m0.full and av != m0.full and bv != m0.full


def test_entails_rejects_fewer_than_one_sample():
    m0 = new_stage0(["a", "b"])
    for samples in (0, -3):
        with pytest.raises(ValueError, match=f"^samples must be at least 1, got {samples}$"):
            entails(m0, L2.parse_sequent("|- a, !a"), samples=samples)
    r = entails(m0, L2.parse_sequent("a |- a"), samples=1)
    assert (r.verdict, r.checked, r.skipped) == ("undecided", 1, 0)


def test_trivial_sequents():
    m0 = new_stage0(["a", "b"])
    assert entails(m0, L2.parse_sequent("T |- T")).verdict == "holds"


def test_soundness_sweep_library_on_total_model(m1):
    rows = [(e.tid, e.statement) for e in theorem_library(LIB_LANG)
            if e.derivation.system is System.DBL_STAR]
    for label, seq in rows:
        r = entails(m1, seq)
        assert r.verdict == "holds", (label, r)


def test_soundness_sweep_sampled_on_two_atom_stage(m2):
    rows = [(e.tid, e.statement) for e in theorem_library(LIB_LANG)
            if e.derivation.system is System.DBL_STAR]
    for label, seq in rows:
        r = entails(m2, seq, samples=300, seed=11)
        assert r.verdict != "fails", (label, r)


def test_star_conclusion_fails_semantically(m2):
    # the quarantined collapse consequence has a counter-assignment
    star = next(e for e in theorem_library(LIB_LANG) if e.tid == "3.1.17.star")
    h = canonical_assignment(m2)
    amap = {"x": m2.embed_from(0, 0b1100), "y": h["a"]}
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
            from dblogic.syntax import _sugar
            m = _sugar(e.statement.succedent[0])
            if m and m[0] == "<->":
                pairs.append((e.tid, m[1], m[2]))
            elif m and m[0] == "><":   # psi >< phi is (psi | phi) <-> psi
                pairs.append((e.tid, Cond(m[1], m[2]), m[1]))
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
    from dblogic.construction import BETA_LAWS
    laws = {name for name, _, _ in BETA_LAWS}
    top, _ = build_faithful(["a", "b"], max_atoms=32)
    for s in top.levels[1:]:
        stage_rep = verify_stage(s)
        assert laws <= set(stage_rep.checks)
        assert stage_rep.ok(), (s.index, stage_rep.failures())
        if s.size > 12:  # the reference enumerates every row
            continue
        rows_rep = stage_rows_report(s)
        assert set(rows_rep.checks) == laws
        assert rows_rep.ok(), (s.index, rows_rep.failures())


def test_beta6_identity_from_beta2_beta4(m2):
    rep = stage_rows_report(m2)
    passed, skipped = rep.checks["beta6"]
    assert "beta6" not in rep.failures() and passed > 0


# -- pair laws: generator checks against every pair --------------------------

PAIR_LAWS = {"beta2", "beta2-eq", "beta6"}


def brute_pair_failures(f, cond, pool):
    """The pair laws that fail for condition `cond` on some pair B, C of
    `pool`: the old all-pairs semantics, skipping pairs with an undefined
    row."""
    val = {b: f(b, cond) for b in pool}

    def get(m):
        if m not in val:
            val[m] = f(m, cond)
        return val[m]

    failed = set()
    for i, b in enumerate(pool):
        fb = val[b]
        for c in pool[i:]:
            fc, fu, fi = val[c], get(b | c), get(b & c)
            if None in (fb, fc, fu, fi):
                continue
            if fu & ~(fb | fc):
                failed.add("beta2")
            if fu != fb | fc:
                failed.add("beta2-eq")
            if fi != fb & fc:
                failed.add("beta6")
    return failed


def all_rows_report(f, full, conditions, rows_of):
    """`check_beta_laws` on every row: for each condition A (the given ones,
    0 and full) the pool is every B with f(B, A) possibly defined,
    `rows_of(A)`, and the generators are its minimal nonzero members."""
    def pools(cond):
        rows = rows_of(cond)
        gens = []
        for x in sorted(rows, key=int.bit_count):
            if x and all(g & ~x for g in gens):
                gens.append(x)
        return rows, gens

    rep = CheckReport()
    check_beta_laws(f, full, [*conditions, 0, full], pools, rep)
    return rep


def stage_rows(s, cond):
    """The rows of f(., cond) on a stage: every image of an element of the
    level where cond's chain was last processed (none for 0 and full)."""
    found = s.chain_for(cond)
    return [] if found is None else level_images(s, found[0].processed_at)


def stage_rows_report(s):
    return all_rows_report(s.apply_f, s.full, s.defined_conditions(),
                           lambda cond: stage_rows(s, cond))


class Table:
    """An explicit, possibly tampered operator table on a small algebra:
    f(B, A) is defined exactly at the keys (B, A) of `rows`."""

    def __init__(self, size, rows):
        self.size, self.full, self.rows = size, (1 << size) - 1, rows

    @classmethod
    def of_stage(cls, s):
        n = 1 << s.size
        return cls(s.size, {(b, a): v for a in range(n) for b in range(n)
                            if (v := s.apply_f(b, a)) is not None})

    def f(self, b, a):
        return self.rows.get((b, a))

    def override(self, b, a, value):
        return Table(self.size, {**self.rows, (b, a): value})

    def conditions(self):
        return sorted({a for _, a in self.rows if a not in (0, self.full)})

    def rows_of(self, cond):
        return sorted({b for b, a in self.rows if a == cond})

    def report(self):
        return all_rows_report(self.f, self.full, self.conditions(), self.rows_of)


def _where(counterexample):
    return int(re.search(r"A=(0x[0-9a-f]+)", counterexample).group(1), 16)


def _small_stages():
    """Every faithful {a} and {a,b} stage and the targeted (b|a), (a|b)
    stages whose rows can be enumerated."""
    out = []
    for theta in (["a"], ["a", "b"]):
        top, _ = build_faithful(theta, max_atoms=32)
        out += top.levels[1:]
    for text in ("(b | a)", "(a | b)"):
        stage = build_for_formulas(["a", "b"], [L2.parse(text)])
        out.append(stage)
    return [s for s in out if s.size <= 12]


def test_generator_checks_agree_with_all_pairs_on_stages():
    stages = _small_stages()
    assert [s.size for s in stages] == [2, 6, 10, 8, 8]
    for s in stages:
        conds = s.defined_conditions() + [0, s.full]
        brute = set().union(*(brute_pair_failures(s.apply_f, a, stage_rows(s, a))
                              for a in conds))
        stage_rep, rows_rep = verify_stage(s), stage_rows_report(s)
        assert not brute
        assert stage_rep.ok() and rows_rep.ok()
        for rep in (stage_rep, rows_rep):
            assert rep.checks["beta2-eq"][0] > 0 and rep.checks["beta6"][0] > 0


@pytest.fixture(scope="module")
def tables():
    return [Table.of_stage(s) for s in _small_stages() if s.size <= 8]


def test_generator_checks_agree_with_all_pairs_on_tampered_tables(tables):
    rng = random.Random(20)
    seen = set()
    for _ in range(240):
        base = rng.choice(tables)
        b, a = rng.choice(sorted(base.rows))
        value = rng.choice([v for v in range(base.full + 1) if v != base.rows[(b, a)]])
        t = base.override(b, a, value)
        rep = t.report()
        brute = brute_pair_failures(t.f, a, t.rows_of(a))
        failed = set(rep.failures())
        assert rep.ok() == (not (failed - PAIR_LAWS) and not brute)
        for law in failed & PAIR_LAWS:       # every reported failure is real
            assert _where(rep.failures()[law]) == a and law in brute, (law, b, a, value)
        assert ("beta2-eq" in failed) == ("beta2-eq" in brute)
        if "beta2-eq" not in brute:
            assert ("beta6" in failed) == ("beta6" in brute)
        seen.add(frozenset(failed & PAIR_LAWS))
    # the draws reach tampers that only beta6, only the join equality, or
    # also the join inclusion catch
    assert {frozenset({"beta6"}), frozenset({"beta2-eq"}),
            frozenset({"beta2", "beta2-eq"})} <= seen


def test_overlapping_generator_images_fail_only_beta6(tables):
    t = tables[-1]                              # the targeted (a|b) stage
    a = t.conditions()[0]
    gens = [1 << i for i in range(t.size)]      # the chain was processed here
    x, y = [g for g in gens if t.f(g, a)][:2]
    image = {g: t.f(g, a) for g in gens}
    image[x] |= image[y]                        # overlap, then extend by joins
    for b in range(1 << t.size):
        joined = 0
        for g in gens:
            if g & b:
                joined |= image[g]
        t = t.override(b, a, joined)
    rep = t.report()
    assert "beta6" in rep.failures()
    assert not {"beta2", "beta2-eq"} & set(rep.failures())
    assert brute_pair_failures(t.f, a, t.rows_of(a)) == {"beta6"}


def test_changed_non_generator_row_fails_beta2_eq(tables):
    t = tables[-1]
    a = t.conditions()[0]
    b = 0b11                                    # the union of two generators
    t = t.override(b, a, t.f(b, a) ^ 1)
    rep = t.report()
    assert rep.failures()["beta2-eq"].endswith(f"at A={a:#x} B={b:#x}")
    assert "beta2-eq" in brute_pair_failures(t.f, a, t.rows_of(a))


def test_row_that_is_no_union_of_generators_is_skipped():
    # rows 0, 1, 3 and 6 under the condition 1: the generators are 1 and 6,
    # and 3 is no union of them, so beta2-eq is skipped there instead of
    # being read off the generator 6 that only overlaps it
    rep = Table(3, {(b, 1): b for b in (0, 1, 3, 6)}).report()
    assert rep.checks["beta2-eq"] == (3, 1) and "beta2-eq" not in rep.failures()


def test_value_and_entails_hash_no_formula():
    # a <-> (a <-> ... b) shares each level's subformula, so a structural
    # hash walks 2**24 paths; the memo and entails go by node id instead
    a, f = Atom("a"), Atom("b")
    for _ in range(24):
        f = iff(a, f)
    m = new_stage0(["a", "b"])
    t0 = time.perf_counter()
    h = canonical_assignment(m)
    value = ConditionalAssignment(m, h).value(f)
    r = entails(m, Sequent((), (f,)))
    elapsed = time.perf_counter() - t0
    # no assert names f: printing it would walk the same 2**24 paths
    assert value == h["b"]                        # the 24 copies of a cancel
    assert (r.verdict, r.witness, r.checked) == ("fails", {"a": 0, "b": 0}, 0)
    assert elapsed < 0.5
