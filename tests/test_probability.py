from fractions import Fraction as F
from random import Random

import pytest

from dblogic.construction import (
    Stage, advance, build_faithful, build_for_formulas, new_stage0,
)
from dblogic.probability import (
    ClassicalProbability, RationalValuation, ZeroBlockError, bayes_identity,
    check_multiplicativity, default_lewis_deltas, epsilon_extension,
    extend_probability, extend_step, lemma1_check, lemma2_check,
    lewis_collapse_demo, lewis_separation, limit_at_zero, p0_from_pi,
    parse_probability_file,
)
from dblogic.ratfunc import RatFunc
from dblogic.syntax import Atom, Cond, Implies, Language, Not, conj

from probability_reference import reference_extension, reference_lemma1, reference_lemma2

L1 = Language(["a"])
L2 = Language(["a", "b"])


def cells_ab(ab, a_nb, na_b, na_nb):
    """Cell table in code order (bit0 = a, bit1 = b)."""
    return [F(na_nb), F(a_nb), F(na_b), F(ab)]


# the documented separation instance: (a/\b, a/\!b, !a/\b, !a/\!b)
PI_DOC = ClassicalProbability(["a", "b"], cells_ab(F(1, 2), F(1, 4), F(1, 8), F(1, 8)))


def test_classical_probability_validation():
    with pytest.raises(ValueError):
        ClassicalProbability(["a"], [F(1, 2), F(49, 100)])  # sums to 0.99
    with pytest.raises(ValueError):
        ClassicalProbability(["a"], [F(3, 2), F(-1, 2)])
    pi = ClassicalProbability(["a"], [F(2, 3), F(1, 3)])
    assert pi.strictly_positive


def test_direct_sigma_measure():
    assert PI_DOC.of(L2.parse("b")) == F(5, 8)
    assert PI_DOC.of(L2.parse("a /\\ b")) == F(1, 2)
    assert PI_DOC.of(L2.parse("T")) == 1
    assert PI_DOC.of(L2.parse("F")) == 0


def test_p0_from_pi_single_atom():
    pi = ClassicalProbability.from_atom_weights(["a"], [F(2, 3), F(1, 3)])
    s0 = new_stage0(["a"])
    v0 = p0_from_pi(pi, s0)
    assert v0.weights == (F(2, 3), F(1, 3))


def test_extend_step_hand_values():
    # P1((u,v)) = (2/3 * 1/3) / (1/3) = 2/3 ; P1((v,u)) = (2/9) / (2/3) = 1/3
    pi = ClassicalProbability.from_atom_weights(["a"], [F(2, 3), F(1, 3)])
    s0 = new_stage0(["a"])
    s1 = advance(s0, 1, verify=False)
    v1 = extend_step(p0_from_pi(pi, s0), s1)
    assert v1.weights == (F(2, 3), F(1, 3))
    assert v1.measure(s1.full) == 1
    assert v1.measure(0) == 0
    assert v1.measure(2) == F(1, 3)
    # pushforward: P1(mu({u})) = P0({u})
    assert v1.measure(s1.embed(1)) == F(2, 3)


def test_measure_rejects_foreign_elements():
    pi = ClassicalProbability.uniform(["a"])
    v0 = p0_from_pi(pi, new_stage0(["a"]))
    for bad in (1 << 7, 1 << 2, -1):
        with pytest.raises(ValueError):
            v0.measure(bad)
    assert v0.measure(0) == 0 and type(v0.measure(0)) is F


def _bitwise_measure(val, mask):
    """Reference measure: one weight add per bit of the mask."""
    out = F(0)
    for i, w in enumerate(val.weights):
        if (mask >> i) & 1:
            out = out + w
    return out


def _assert_measure_matches_bitwise(val, masks):
    for m in masks:
        got, want = val.measure(m), _bitwise_measure(val, m)
        assert got == want and type(got) is type(want) and str(got) == str(want)


def test_measure_tables_join_chunks_of_fraction_weights():
    stage = advance(new_stage0(["a", "b", "c"]), 0b10101010, verify=False)
    assert stage.size == 32  # four 8-point tables are joined
    rng = Random(5)
    val = RationalValuation(stage, tuple(F(rng.randint(0, 9), rng.randint(1, 9))
                                         for _ in range(stage.size)))
    masks = [stage.full, 1, 1 << (stage.size - 1), 0xFF << 8]
    masks += [rng.getrandbits(stage.size) for _ in range(300)]
    _assert_measure_matches_bitwise(val, masks)


def test_measure_tables_on_rational_function_weights():
    pi = ClassicalProbability(["a", "b"], cells_ab(F(0), F(1, 2), F(1, 4), F(1, 4)))
    stage, _ = build_for_formulas(["a", "b"], [L2.parse("(b | a)"), L2.parse("(a | b)")],
                                  verify=False)
    ext = epsilon_extension(pi, stage)
    top = ext.top
    assert top.stage.size > 8 and all(isinstance(w, RatFunc) for w in top.weights)
    rng = Random(7)
    masks = [top.stage.full] + [rng.getrandbits(top.stage.size) for _ in range(40)]
    _assert_measure_matches_bitwise(top, masks)
    _assert_measure_matches_bitwise(ext.valuations[1], range(1 << ext.valuations[1].stage.size))


def test_lemmas_reject_swapped_child_weights():
    # a wrong extension: two unequal weights of the child swapped.  Every
    # such swap breaks lemma 1 or lemma 2, and some break only the
    # cross-multiplied product identity of lemma 2.
    pi = ClassicalProbability(["a", "b"], cells_ab(F(0), F(1, 2), F(1, 4), F(1, 4)))
    stage, _ = build_for_formulas(["a", "b"], [L2.parse("(b | a)")], verify=False)
    v0, v1 = epsilon_extension(pi, stage).valuations
    assert lemma1_check(v0, v1).ok() and lemma2_check(v0, v1).ok()
    only_lemma2 = 0
    n = len(v1.weights)
    for i in range(n):
        for j in range(i + 1, n):
            if v1.weights[i] == v1.weights[j]:
                continue
            w = list(v1.weights)
            w[i], w[j] = w[j], w[i]
            bad = RationalValuation(v1.stage, tuple(w))
            l1, l2 = lemma1_check(v0, bad), lemma2_check(v0, bad)
            assert not (l1.ok() and l2.ok()), (i, j)
            only_lemma2 += l1.ok()
    assert only_lemma2 > 0


def _towers():
    """Targeted (b|a), (a|b) and both, and the faithful {a,b} tower up to
    32 points: stages of 8, 8, 32 and 6, 10, 32 points."""
    tops = [build_for_formulas(["a", "b"], [L2.parse(t) for t in ts], verify=False)[0]
            for ts in (["(b | a)"], ["(a | b)"], ["(b | a)", "(a | b)"])]
    stages, _ = build_faithful(["a", "b"], max_atoms=32, verify=False)
    return tops + [stages[-1]]


def _differential_tables():
    rng = Random(17)
    raw = [rng.randint(1, 9) for _ in range(4)]
    direct = [PI_DOC, ClassicalProbability.uniform(["a", "b"]),
              ClassicalProbability(["a", "b"], [F(r, sum(raw)) for r in raw])]
    zero_cells = [cells_ab(F(0), F(1, 2), F(1, 4), F(1, 4)),
                  cells_ab(F(1, 3), F(0), F(2, 3), F(0))]
    return direct, [ClassicalProbability(["a", "b"], c) for c in zero_cells]


def test_valuations_agree_with_per_point_reference():
    # weights and measures of the numerator/denominator valuation against
    # the per-point Fraction/RatFunc extension: value, type and printed form
    direct, zero_cells = _differential_tables()
    rng = Random(23)
    for top in _towers():
        runs = [(extend_probability(pi, top), pi) for pi in direct]
        runs += [(epsilon_extension(pi, top), pi.epsilon_perturbed()) for pi in zero_cells]
        for ext, table in runs:
            want = reference_extension(table, top)
            assert len(ext.valuations) == len(want)
            for got, ref in zip(ext.valuations, want):
                n = got.stage.size
                assert [(type(w), str(w)) for w in got.weights] == \
                    [(type(w), str(w)) for w in ref.weights]
                assert got.weights == ref.weights
                masks = (range(1 << n) if n <= 8
                         else [got.stage.full] + [rng.getrandbits(n) for _ in range(300)])
                for m in masks:
                    g, r = got.measure(m), ref.measure(m)
                    assert g == r and type(g) is type(r) and str(g) == str(r), (n, m)


def _tampered(val: RationalValuation) -> list[RationalValuation]:
    """Wrong valuations of `val`'s stage: a doubled denominator, the whole
    weight of each point moved onto the next point, and, up to 8 points,
    every swap of two unequal weights."""
    nums, den, n = list(val.nums), val.den, len(val.nums)
    variants = []
    for i in range(n):
        moved = list(nums)
        moved[(i + 1) % n] = moved[(i + 1) % n] + nums[i]
        moved[i] = nums[i] - nums[i]
        variants.append(moved)
    if n <= 8:
        for i in range(n):
            for j in range(i + 1, n):
                if nums[i] != nums[j]:
                    swapped = list(nums)
                    swapped[i], swapped[j] = nums[j], nums[i]
                    variants.append(swapped)
    return ([RationalValuation(val.stage, nums=nums, den=den + den)]
            + [RationalValuation(val.stage, nums=v, den=den) for v in variants])


def test_lemma_point_checks_agree_with_element_loops():
    # the verdicts of the point checks against the element loops they
    # replaced (every element up to 16 points, 2000 seeded ones above), on
    # every transition of the four towers, honest and tampered
    direct, zero_cells = _differential_tables()
    cases = rejected = 0
    for top in _towers():
        exts = [extend_probability(pi, top) for pi in direct]
        exts += [epsilon_extension(pi, top) for pi in zero_cells]
        for ext in exts:
            for v0, v1 in zip(ext.valuations, ext.valuations[1:]):
                assert lemma1_check(v0, v1).ok() and lemma2_check(v0, v1).ok()
                for val in [v1] + _tampered(v1):
                    got = (lemma1_check(v0, val).ok(), lemma2_check(v0, val).ok())
                    want = (reference_lemma1(v0, val).ok(), reference_lemma2(v0, val).ok())
                    assert got == want, (v1.stage.size, val.nums, val.den)
                    cases += 1
                    rejected += not all(got)
    assert cases > 900 and rejected > 850, (cases, rejected)


def test_lemma1_rejects_a_doubled_denominator():
    stage, _ = build_for_formulas(["a", "b"], [L2.parse("(b | a)")], verify=False)
    zero_cell = ClassicalProbability(["a", "b"], cells_ab(F(0), F(1, 2), F(1, 4), F(1, 4)))
    for pi, extend in ((PI_DOC, extend_probability), (zero_cell, epsilon_extension)):
        v0, v1 = extend(pi, stage).valuations
        assert lemma1_check(v0, v1).ok()
        bad = RationalValuation(v1.stage, nums=v1.nums, den=v1.den + v1.den)
        rep = lemma1_check(v0, bad)
        assert rep.violations[0] == "full space does not weigh 1"
        assert "pushforward differs at 0x1" in rep.violations


def test_lemma1_rejects_blocks_that_do_not_partition():
    # the point check is exact only over a partition, so lemma 1 confirms
    # one before checking points
    stage, _ = build_for_formulas(["a", "b"], [L2.parse("(b | a)")], verify=False)
    v0, v1 = extend_probability(PI_DOC, stage).valuations
    b = list(stage.blocks)
    for blocks, where in (([0, b[0] | b[1]] + b[2:], "block 0"),
                          ([b[0], b[1] | b[0]] + b[2:], "block 1"),
                          (b[:-1] + [b[-1] & (b[-1] - 1)], "partition"),
                          (b[:-1], "partition")):
        bad = Stage(stage.theta, stage.index, stage.points, stage.parent, blocks,
                    stage.transition, stage.chains)
        rep = lemma1_check(v0, RationalValuation(bad, nums=v1.nums, den=v1.den))
        assert len(rep.violations) == 1 and where in rep.violations[0]
        assert rep.checked == 0


def test_uniform_pair_weights_symmetric():
    s0 = new_stage0(["a"])
    s1 = advance(s0, 1, verify=False)
    v1 = extend_step(p0_from_pi(ClassicalProbability.uniform(["a"]), s0), s1)
    assert v1.weights == (F(1, 2), F(1, 2))


def test_zero_denominator_advises_epsilon_mode():
    pi = ClassicalProbability.from_atom_weights(["a"], [F(1), F(0)])
    s0 = new_stage0(["a"])
    s1 = advance(s0, 2, verify=False)  # condition {v} with weight 0
    with pytest.raises(ZeroBlockError):
        extend_step(p0_from_pi(pi, s0), s1)


def test_lemma_checks_exhaustive():
    stage, _ = build_for_formulas(["a", "b"], [L2.parse("(b | a)")], verify=False)
    for pi in (ClassicalProbability.uniform(["a", "b"]), PI_DOC):
        ext = extend_probability(pi, stage)
        for v0, v1 in zip(ext.valuations, ext.valuations[1:]):
            assert lemma1_check(v0, v1).ok()
            assert lemma2_check(v0, v1).ok()
        assert ext.top.measure(stage.full) == 1


def test_prob_of_formula_worked_value():
    # uniform pi over two atoms: the one-advance build gives P((b|a)) = 1/2,
    # independently P(a /\ b)/P(a) on the cells = (1/4)/(1/2) = 1/2
    stage, _ = build_for_formulas(["a", "b"], [L2.parse("(b | a)")], verify=False)
    uni = ClassicalProbability.uniform(["a", "b"])
    ext = extend_probability(uni, stage)
    assert ext.prob(L2.parse("(b | a)")) == F(1, 2)
    assert uni.of(conj(Atom("a"), Atom("b"))) / uni.of(Atom("a")) == F(1, 2)
    assert ext.prob(L2.parse("F")) == 0


def test_classical_formulas_not_distorted():
    # all classical formulas up to depth 3: the extension agrees with the
    # direct cell sum, for uniform and seeded strictly positive tables
    import random
    rng = random.Random(42)
    stage, _ = build_for_formulas(["a", "b"], [L2.parse("(b | a)")], verify=False)
    pis = [ClassicalProbability.uniform(["a", "b"]), PI_DOC]
    for _ in range(3):
        raw = [rng.randint(1, 9) for _ in range(4)]
        s = sum(raw)
        pis.append(ClassicalProbability(["a", "b"], [F(r, s) for r in raw]))
    layer = [Atom("a"), Atom("b")]
    seen = list(layer)
    for _ in range(3):
        nxt = [Not(f) for f in seen] + [Implies(f, g) for f in layer for g in seen]
        seen = seen + nxt
        layer = nxt
    formulas = seen[:400]
    for pi in pis:
        ext = extend_probability(pi, stage)
        for f in formulas:
            assert ext.prob(f) == pi.of(f)


def test_bayes_identity_all_depth2_classical_pairs():
    # phi, psi over all classical depth<=2 shapes; per-condition targeted
    # models keep the build small
    depth1 = [Atom("a"), Atom("b"), Not(Atom("a")), Not(Atom("b")),
              Implies(Atom("a"), Atom("b")), Implies(Atom("b"), Atom("a"))]
    import random
    rng = random.Random(7)
    pis = [ClassicalProbability.uniform(["a", "b"])]
    for _ in range(5):
        raw = [rng.randint(1, 9) for _ in range(4)]
        s = sum(raw)
        pis.append(ClassicalProbability(["a", "b"], [F(r, s) for r in raw]))
    for phi in depth1:
        for psi in depth1:
            stage, _ = build_for_formulas(["a", "b"], [Cond(psi, phi)], verify=False)
            for pi in pis:
                ext = extend_probability(pi, stage)
                lhs, rhs, eq = bayes_identity(ext, phi, psi)
                assert eq, (phi, psi, lhs, rhs)


def test_bayes_uniform_quarter():
    stage, _ = build_for_formulas(["a", "b"], [L2.parse("(b | a)")], verify=False)
    ext = extend_probability(ClassicalProbability.uniform(["a", "b"]), stage)
    lhs, rhs, eq = bayes_identity(ext, Atom("a"), Atom("b"))
    assert (lhs, rhs, eq) == (F(1, 4), F(1, 4), True)


def test_multiplicativity_certified_pairs():
    stage, _ = build_for_formulas(["a", "b"], [L2.parse("(b | a)")], verify=False)
    ext = extend_probability(ClassicalProbability.uniform(["a", "b"]), stage)
    pairs = [
        (L2.parse("(b | a)"), L2.parse("a")),      # inter-independence
        (L2.parse("b"), L2.parse("T")),
        (L2.parse("b"), L2.parse("F")),
    ]
    assert all(ok for _, _, ok in check_multiplicativity(ext, pairs))


def test_additivity_of_extension():
    stage, _ = build_for_formulas(["a", "b"], [L2.parse("(b | a)")], verify=False)
    ext = extend_probability(PI_DOC, stage)
    import random
    rng = random.Random(3)
    pool = [L2.parse(t) for t in
            ["a", "b", "!a", "(b | a)", "(a | a)", "a /\\ b", "b -> a"]]
    from dblogic.syntax import disj
    for _ in range(40):
        f, g = rng.choice(pool), rng.choice(pool)
        vals = [ext.prob(x) for x in (conj(f, g), disj(f, g), f, g)]
        assert None not in vals
        assert vals[0] + vals[1] == vals[2] + vals[3]


def test_epsilon_mode_single_zero_cell():
    # one zero cell: pipeline completes with polynomial fractions; classical
    # limits reproduce the table exactly and stay within [0, 1]
    pi = ClassicalProbability(["a", "b"], cells_ab(F(0), F(1, 3), F(1, 3), F(1, 3)))
    assert not pi.strictly_positive
    stage, _ = build_for_formulas(["a", "b"], [L2.parse("(b | a)")], verify=False)
    ext = epsilon_extension(pi, stage)
    assert isinstance(ext.prob(L2.parse("a")), RatFunc)
    # perturbed cell: P_e(a /\ b) = e/4
    pe = ext.pi
    assert pe.of(L2.parse("a /\\ b")) == RatFunc.make(
        __import__("dblogic.ratfunc", fromlist=["Poly"]).Poly.make([0, F(1, 4)]),
        __import__("dblogic.ratfunc", fromlist=["Poly"]).Poly.const(1))
    classicals = [L2.parse(t) for t in ["a", "b", "a /\\ b", "a \\/ b", "!a", "T", "F", "a -> b"]]
    for f in classicals:
        assert limit_at_zero(ext.prob(f)) == pi.of(f)
    probes = classicals + [L2.parse("(b | a)"), L2.parse("(!b | a)")]
    for f in probes:
        lim = limit_at_zero(ext.prob(f))
        assert 0 <= lim <= 1
    assert limit_at_zero(ext.prob(L2.parse("T"))) == 1


def test_epsilon_mode_strictly_positive_agrees_with_direct():
    stage, _ = build_for_formulas(["a", "b"], [L2.parse("(b | a)")], verify=False)
    direct = extend_probability(PI_DOC, stage)
    eps = epsilon_extension(PI_DOC, stage)
    for t in ["a", "b", "a /\\ b", "(b | a)", "(a | b) -> a" if False else "b -> a"]:
        f = L2.parse(t)
        assert limit_at_zero(eps.prob(f)) == direct.prob(f)


def test_lemma_checks_hold_in_epsilon_mode():
    pi = ClassicalProbability(["a", "b"], cells_ab(F(0), F(1, 3), F(1, 3), F(1, 3)))
    stage, _ = build_for_formulas(["a", "b"], [L2.parse("(b | a)")], verify=False)
    ext = epsilon_extension(pi, stage)
    for v0, v1 in zip(ext.valuations, ext.valuations[1:]):
        assert lemma1_check(v0, v1).ok()
        assert lemma2_check(v0, v1).ok()


def test_lewis_separation_documented_instance():
    deltas = default_lewis_deltas(L2)
    stage, _ = build_for_formulas(["a", "b"], deltas, max_atoms=32,
                                  verify=False, skip_unaffordable=True)
    rep = lewis_separation(stage, PI_DOC, L2.parse("b"), deltas=deltas, lang=L2)
    by_delta = {e.delta: e for e in rep.entries}
    # frozen by hand: extending pi_b sees (b|a) as certain (the Bayes quotient
    # under pi_b), conditioning the extension gives 14/15
    e = by_delta[L2.parse("(b | a)")]
    assert e.extension_of_conditioned == 1
    assert e.conditioned_extension == F(14, 15)
    assert e.is_witness()
    assert rep.witnesses()
    # classical deltas never separate
    for entry in rep.entries:
        pass
    # the collapse demo: assuming commutation forces P(psi|phi) = P(psi)
    assert rep.demo.inside == 1 and rep.demo.outside == 0
    assert rep.demo.forced == PI_DOC.of(rep.demo.psi)
    assert rep.demo.bayes == F(4, 5)
    assert rep.demo.collapses


def test_lewis_classical_deltas_do_not_separate():
    stage, _ = build_for_formulas(["a", "b"], [L2.parse("(b | a)")], verify=False)
    classicals = [Cond(x, L2.parse("T")) for x in
                  (Atom("a"), Atom("b"), Not(Atom("a")), conj(Atom("a"), Atom("b")))]
    rep = lewis_separation(stage, PI_DOC, L2.parse("b"), deltas=classicals, lang=L2)
    for e in rep.entries:
        assert e.equal is True, e


def test_lewis_conditioning_on_top_is_identity():
    stage, _ = build_for_formulas(["a", "b"], [L2.parse("(b | a)")], verify=False)
    phi = L2.parse("a \\/ !a")
    with pytest.raises(ValueError):
        lewis_separation(stage, PI_DOC, phi, lang=L2)  # P(phi)=1 is excluded


def test_collapse_demo_values():
    d = lewis_collapse_demo(PI_DOC, L2.parse("b"), L2.parse("a"))
    assert d.inside == 1 and d.outside == 0
    assert d.forced == F(3, 4) and d.bayes == F(4, 5)
    assert d.collapses


def test_probability_file_parsing():
    text = """
    # cells over two atoms
    a /\\ b : 1/2
    a /\\ !b : 1/4
    !a /\\ b : 1/8
    !a /\\ !b : 1/8
    """
    pi = parse_probability_file(text, L2)
    assert pi.table == PI_DOC.table
    partial = "a /\\ b : 1/2\n!a /\\ b : 1/2\n"
    pi2 = parse_probability_file(partial, L2)
    assert not pi2.strictly_positive
    with pytest.raises(ValueError):
        parse_probability_file(partial, L2, strict_positive=True)
    with pytest.raises(ValueError):
        parse_probability_file("a : 1/2\n", L2)  # not a complete conjunction
