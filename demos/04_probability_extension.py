"""Extend exact classical probabilities over the conditional language.

Weights never leave the rationals: each advance multiplies and divides cell
weights by block weights, the embedding preserves every measure, and the
Bayesian identity P((psi|phi)) P(phi) = P(phi /\\ psi) comes out as an exact
equality, not an approximation.
"""

from fractions import Fraction as F

from dblogic import (
    ClassicalProbability, Language, advance, bayes_identity,
    check_multiplicativity, epsilon_extension, extend_probability,
    extend_step, lemma1_check, lemma2_check, limit_at_zero, new_stage0,
    p0_from_pi, build_for_formulas, verify_stage,
)

print("== one atom, pi(a) = 1/3 ==")
pi = ClassicalProbability.from_atom_weights(["a"], [F(2, 3), F(1, 3)])
s0 = new_stage0(["a"])
s1 = advance(s0, 1)
assert verify_stage(s1).ok()
v0 = p0_from_pi(pi, s0)
v1 = extend_step(v0, s1)
print("stage-0 weights:", v0.weights)
print("stage-1 weights:", v1.weights, " (sum", v1.measure(s1.full), ")")
print("pushforward of {u}:", v1.measure(s1.embed(1)), "= stage-0 weight", v0.measure(1))
print("lemma checks:", lemma1_check(v0, v1).ok(), lemma2_check(v0, v1).ok())

print()
print("== two atoms, uniform ==")
lang = Language(["a", "b"])
stage = build_for_formulas(["a", "b"], [lang.parse("(b | a)")])
uni = ClassicalProbability.uniform(["a", "b"])
ext = extend_probability(uni, stage)
print("P((b|a)) =", ext.prob(lang.parse("(b | a)")), " (direct quotient:",
      uni.of(lang.parse("a /\\ b")) / uni.of(lang.parse("a")), ")")
lhs, rhs, eq = bayes_identity(ext, lang.parse("a"), lang.parse("b"))
print(f"Bayes identity: {lhs} = {rhs} -> {eq}")
pairs = [(lang.parse("(b | a)"), lang.parse("a")),
         (lang.parse("b"), lang.parse("T"))]
print("multiplicativity on certified pairs:",
      [ok for _, _, ok in check_multiplicativity(ext, pairs)])

print()
print("== zero cells: the perturbed mode ==")
pz = ClassicalProbability(["a", "b"], [F(0), F(1, 3), F(1, 3), F(1, 3)])
exe = epsilon_extension(pz, stage)
w = exe.prob(lang.parse("(b | a)"))
print("P_e((b|a)) as a rational function:", w)
print("limit at 0+:", limit_at_zero(w))
for text in ["a", "a /\\ b", "b -> a"]:
    f = lang.parse(text)
    print(f"classical {text}: limit {limit_at_zero(exe.prob(f))} = table value {pz.of(f)}")

print()
print("== direct vs perturbed on a strictly positive table (compared, not asserted) ==")
doc = ClassicalProbability(["a", "b"], [F(1, 8), F(1, 4), F(1, 8), F(1, 2)])
d = extend_probability(doc, stage)
e = epsilon_extension(doc, stage)
for text in ["(b | a)", "a /\\ b"]:
    f = lang.parse(text)
    print(f"{text}: direct {d.prob(f)}  perturbed-limit {limit_at_zero(e.prob(f))}")
