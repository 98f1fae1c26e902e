"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is property-based or exact-arithmetic oracle equivalence at
desk scale; no tolerances are involved anywhere because every claimed
identity is exact.
"""

import time
from fractions import Fraction as F
from random import Random

from dblogic.construction import (
    advance, build_faithful, build_for_formulas, canonical_assignment,
    new_stage0, verify_stage,
)
from dblogic.library import GROUP_ANNOTATIONS, library_language, theorem_library
from dblogic.model import ConditionalAssignment, entails
from dblogic.probability import (
    ClassicalProbability, bayes_identity, default_lewis_deltas,
    epsilon_extension, extend_probability, lemma1_check, lemma2_check,
    lewis_collapse_demo, lewis_separation, limit_at_zero,
)
from dblogic.proof import System, check_derivation
from dblogic.ratfunc import RatFunc
from dblogic.syntax import Atom, Cond, Implies, Language, Not, conj

L2 = Language(["a", "b"])
LIB_LANG = library_language()


def _ok(n, text):
    print(f"ACCEPTANCE {n:02d} PASS - {text}")


def _classical_layers(atom_names, max_depth):
    """All classical core trees up to the given depth, canonicalized: children
    are drawn from one representative per truth-table class, so every
    semantic situation of the full enumeration is covered."""
    reps = {}
    theta = list(atom_names)

    def rows(f):
        out = 0
        for code in range(1 << len(theta)):
            env = {n: bool((code >> i) & 1) for i, n in enumerate(theta)}

            def ev(g):
                if isinstance(g, Atom):
                    return env[g.name]
                if isinstance(g, Not):
                    return not ev(g.body)
                return (not ev(g.left)) or ev(g.right)

            if ev(f):
                out |= 1 << code
        return out

    current = [Atom(n) for n in theta]
    candidates = list(current)
    for f in current:
        reps.setdefault(rows(f), f)
    for _ in range(max_depth):
        pool = list(reps.values())
        fresh = [Not(f) for f in pool] + [Implies(f, g) for f in pool for g in pool]
        candidates.extend(fresh)
        for f in fresh:
            reps.setdefault(rows(f), f)
    return candidates, rows


# -- 1. theorem library --------------------------------------------------------

def test_acceptance_01_theorem_library():
    t0 = time.time()
    entries = theorem_library(LIB_LANG)
    tids = {e.tid for e in entries}
    for required in [f"3.1.{i}" for i in (1, 3, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17)]:
        assert required in tids
    assert {"3.1.2.a", "3.1.2.b", "3.1.4", "3.1.5.and", "3.1.10.a",
            "3.1.17.star", "vcu.ax2", "vcu.ax4", "vcu.ax5", "vcu.ax6",
            "vcu.cr"} <= tids
    groups = {}
    for e in entries:
        res = check_derivation(e.derivation, LIB_LANG)
        assert res.conclusion == e.statement, e.tid
        assert res.flags == e.expected_flags, e.tid
        groups.setdefault(e.group, set()).update(res.flags)
    for g, flags in groups.items():
        assert frozenset(flags) == GROUP_ANNOTATIONS[g], g
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _ok(1, f"{len(entries)} library derivations check with matching flags "
           f"in {elapsed:.2f}s (< 5s)")


# -- 2. stage verification -------------------------------------------------------

def test_acceptance_02_stage_verification():
    t0 = time.time()
    total = 0
    for theta in (["a"], ["a", "b"]):
        stages = build_faithful(theta, max_atoms=32)[0].levels
        assert all(s.size <= 32 for s in stages)
        for s in stages[1:]:
            rep = verify_stage(s)
            assert rep.ok(), (theta, s.index, rep.failures())
            assert rep.checks["cardinality"][0] >= 1
            assert rep.checks["partition-identities"][0] >= 1
            for axiom in ("beta1", "beta2", "beta3", "beta4", "beta6"):
                assert rep.checks[axiom][0] > 0, (theta, s.index, axiom)
            total += 1
    # targeted one-advance build for the pair conditional, same guarantees
    stage = build_for_formulas(["a", "b"], [L2.parse("(b | a)")])
    rep = verify_stage(stage)
    assert rep.ok()
    total += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _ok(2, f"{total} advances verified with zero violations in {elapsed:.1f}s (< 60s)")


# -- 3. soundness sweep ----------------------------------------------------------

def test_acceptance_03_soundness_sweep():
    rows = [(e.tid, e.statement) for e in theorem_library(LIB_LANG)
            if e.derivation.system is System.DBL_STAR]
    assert len(rows) >= 25
    s1 = advance(new_stage0(["a"]), 1)
    for label, seq in rows:  # exhaustive over the 4-element algebra
        r = entails(s1, seq)
        assert r.verdict == "holds", (label, r)
    s2 = advance(new_stage0(["a", "b"]), 0b1010)
    skips = 0
    for label, seq in rows:
        r = entails(s2, seq, samples=1000, seed=0)
        assert r.verdict != "fails", (label, r)
        skips += r.skipped
    _ok(3, f"{len(rows)} weak-system theorems hold exhaustively on the 1-atom "
           f"stage-1 model and under 1000 samples each on the 2-atom stage-1 "
           f"model ({skips} skips reported)")


# -- 4. non-theorems --------------------------------------------------------------

def test_acceptance_04_non_theorems():
    m0 = new_stage0(["a", "b"])
    r1 = entails(m0, L2.parse_sequent("|- a, !a"))
    assert r1.verdict == "fails" and r1.witness is not None
    a = r1.witness["a"]
    assert a != m0.full and m0.complement(a) != m0.full
    r2 = entails(m0, L2.parse_sequent("a \\/ b |- a, b"))
    assert r2.verdict == "fails" and r2.witness is not None
    av, bv = r2.witness["a"], r2.witness["b"]
    assert (av | bv) == m0.full and av != m0.full and bv != m0.full
    _ok(4, f"both excluded-middle style sequents are falsified with concrete "
           f"assignments (a={a:#x}; a={av:#x}, b={bv:#x})")


# -- 5. classical completeness at stage 0 ------------------------------------------

def test_acceptance_05_stage0_classical_completeness():
    s0 = new_stage0(["a", "b"])
    asg = ConditionalAssignment(s0, canonical_assignment(s0))
    candidates, rows = _classical_layers(["a", "b"], 4)
    assert len(candidates) > 400  # 16 truth classes saturate the layers
    checked = 0
    for f in candidates:
        v = asg.value(f)
        assert v == rows(f), f  # the stage-0 value is exactly the truth rows
        assert (v == s0.full) == (rows(f) == (1 << (1 << 2)) - 1)
        checked += 1
    _ok(5, f"{checked} canonicalized classical formulas of depth <= 4: "
           f"full value iff truth-table tautology, zero discrepancies")


# -- 6. probability exactness -------------------------------------------------------

def test_acceptance_06_probability_exactness():
    deltas = default_lewis_deltas(L2)
    stage = build_for_formulas(["a", "b"], deltas, max_atoms=32, skip_unaffordable=True)
    pis = [ClassicalProbability.uniform(["a", "b"]),
           ClassicalProbability(["a", "b"], [F(1, 8), F(1, 4), F(1, 8), F(1, 2)])]
    transitions = 0
    for pi in pis:
        ext = extend_probability(pi, stage)
        for v in ext.valuations:
            assert v.measure(v.stage.full) == 1
        for v0, v1 in zip(ext.valuations, ext.valuations[1:]):
            l1 = lemma1_check(v0, v1)
            assert l1.ok() and l1.checked == v0.stage.size
            l2 = lemma2_check(v0, v1)
            assert l2.ok()
            transitions += 1
    _ok(6, f"pushforward equality exact on points at {transitions} "
           f"transitions; block identities and conditional multiplicativity "
           f"exact on points; full measure 1 at every stage")


# -- 7. Bayes identity ---------------------------------------------------------------

def test_acceptance_07_bayes_identity():
    rng = Random(99)
    pis = [ClassicalProbability.uniform(["a", "b"])]
    for _ in range(5):
        raw = [rng.randint(1, 12) for _ in range(4)]
        s = sum(raw)
        pis.append(ClassicalProbability(["a", "b"], [F(r, s) for r in raw]))
    assert all(pi.strictly_positive for pi in pis)

    candidates, rows = _classical_layers(["a", "b"], 2)
    reps = {}
    for f in candidates:
        reps.setdefault(rows(f), f)
    # every depth<=2 formula denotes the same element as its class
    # representative at stage 0, so checking representatives covers them all
    s0 = new_stage0(["a", "b"])
    asg0 = ConditionalAssignment(s0, canonical_assignment(s0))
    for f in candidates:
        assert asg0.value(f) == asg0.value(reps[rows(f)])

    pairs = 0
    for phi in reps.values():
        for psi in reps.values():
            stage = build_for_formulas(["a", "b"], [Cond(psi, phi)])
            for pi in pis:
                ext = extend_probability(pi, stage)
                lhs, rhs, eq = bayes_identity(ext, phi, psi)
                assert eq, (phi, psi, lhs, rhs)
            pairs += 1
    # the worked value, checked against the direct cell-sum oracle
    stage = build_for_formulas(["a", "b"], [L2.parse("(b | a)")])
    uni = pis[0]
    ext = extend_probability(uni, stage)
    oracle = uni.of(conj(Atom("a"), Atom("b"))) / uni.of(Atom("a"))
    assert oracle == F(1, 2)
    assert ext.prob(L2.parse("(b | a)")) == F(1, 2)
    _ok(7, f"Bayes identity exact for {pairs} class pairs of depth <= 2 "
           f"formulas under 6 distributions; worked value P((b|a)) = 1/2 "
           f"matches the direct quotient")


# -- 8. non-distortion ----------------------------------------------------------------

def test_acceptance_08_non_distortion():
    rng = Random(99)
    pis = [ClassicalProbability.uniform(["a", "b"])]
    for _ in range(5):
        raw = [rng.randint(1, 12) for _ in range(4)]
        s = sum(raw)
        pis.append(ClassicalProbability(["a", "b"], [F(r, s) for r in raw]))
    stage = build_for_formulas(["a", "b"], [L2.parse("(b | a)")])
    candidates, rows = _classical_layers(["a", "b"], 3)
    checked = 0
    for pi in pis:
        ext = extend_probability(pi, stage)
        for f in candidates:
            assert ext.prob(f) == pi.of(f), f
            checked += 1
    _ok(8, f"{checked} (formula, distribution) pairs: the extension restricted "
           f"to classical formulas equals the base probability exactly")


# -- 9. the separation -------------------------------------------------------------------

def test_acceptance_09_lewis_separation():
    pi = ClassicalProbability(["a", "b"], [F(1, 8), F(1, 4), F(1, 8), F(1, 2)])
    # cells in code order: (!a!b, a!b, !ab, ab) = (1/8, 1/4, 1/8, 1/2)
    assert pi.of(L2.parse("a /\\ b")) == F(1, 2)
    assert pi.of(L2.parse("a /\\ !b")) == F(1, 4)
    deltas = default_lewis_deltas(L2)
    stage = build_for_formulas(["a", "b"], deltas, max_atoms=32, skip_unaffordable=True)
    rep = lewis_separation(extend_probability(pi, stage), L2.parse("b"), deltas=deltas)
    by_delta = {e.delta: e for e in rep.entries}
    e = by_delta[L2.parse("(b | a)")]
    # frozen oracles: extending the conditioned table gives the plain Bayes
    # quotient under it (= 1); conditioning the extension gives 14/15
    assert e.extension_of_conditioned == 1
    assert e.conditioned_extension == F(14, 15)
    assert e.is_witness()
    assert rep.witnesses()
    demo = lewis_collapse_demo(pi, L2.parse("b"), Atom("a"))
    assert demo.inside == 1 and demo.outside == 0
    assert demo.forced == pi.of(Atom("a")) == F(3, 4)
    assert demo.bayes == F(4, 5)
    assert demo.collapses
    _ok(9, f"strict separation at the documented instance "
           f"(1 != 14/15 on (b|a)); the commuting assumption provably forces "
           f"P(a|b) = P(a) (3/4 vs the true 4/5)")


# -- 10. perturbed mode -------------------------------------------------------------------

def test_acceptance_10_epsilon_mode():
    pi = ClassicalProbability(["a", "b"], [F(0), F(1, 3), F(1, 3), F(1, 3)])
    assert sum(1 for w in pi.table if w == 0) == 1
    deltas = [L2.parse("(b | a)"), L2.parse("(a | b)"), L2.parse("(!b | a)")]
    stage = build_for_formulas(["a", "b"], deltas, max_atoms=32, skip_unaffordable=True)
    ext = epsilon_extension(pi, stage)
    candidates, _ = _classical_layers(["a", "b"], 3)
    for f in candidates[:200]:
        w = ext.prob(f)
        assert limit_at_zero(w) == pi.of(f), f
    probes = deltas + [L2.parse("a"), L2.parse("T"), L2.parse("F"),
                       L2.parse("((b | a)) /\\ a")]
    for f in probes:
        w = ext.prob(f)
        assert w is not None
        lim = limit_at_zero(w)
        assert 0 <= lim <= 1, f
    assert isinstance(ext.prob(L2.parse("(b | a)")), RatFunc)
    _ok(10, "one-zero-cell table runs the whole pipeline on polynomial "
            "fractions; classical limits reproduce the table exactly and all "
            "limits lie in [0, 1]")
