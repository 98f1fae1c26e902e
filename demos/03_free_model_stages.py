"""Walk the staged free-model construction on one atom, then two.

Stage 0 over a single atom has points u = "a false" and v = "a true".  The
ranked selection picks b0 = {u}; the advance replaces the points by the
ordered pairs (u,v) and (v,u) and makes conditioning on both sides total, so
the construction halts immediately: a complete four-element conditional
algebra.  Points print as in a stage dump: stage-0 points by their valuation
bits, later points as x.y, the indices of the pair's two parent points.
"""

from random import Random

from dblogic import (
    Language, StageModel, advance, build_faithful, build_for_formulas,
    canonical_assignment, check_beta_axioms, entails, extend_assignment,
    new_stage0, select_condition, verify_stage,
)

print("== one atom ==")
s0 = new_stage0(["a"])
print("stage 0 points:", *s0.points)
b0 = select_condition(s0)
print("ranked choice b0 =", f"{b0:#x}")
s1 = advance(s0, b0)
print("stage 1 points:", *(f"{x}.{y}" for x, y in s1.points))
print("f rows (condition -> values for B = 0..3):")
for a in range(4):
    print(f"  f(., {a}) =", [s1.apply_f(b, a) for b in range(4)])
print("next selection:", select_condition(s1), "(None means the operator is total)")

rep = verify_stage(s1, rng=Random(0))
print("stage checks:", "ok" if rep.ok() else rep.failures())

m = StageModel(s1)
beta = check_beta_axioms(m)
print("conditional-model laws:", "all pass" if beta.ok() else beta.failures())
p5, s5 = beta.checks["beta5"]
c5 = beta.counterexamples.get("beta5")
print(f"full symmetry (not guaranteed, measured only): "
      f"{p5} pass / {s5} skipped / counterexample: {c5}")

lang = Language(["a"])
asg = extend_assignment(m, canonical_assignment(s1))
for text in ["T", "(a | a)", "(a | !a)"]:
    print(f"value of {text}:", asg.value(lang.parse(text)))
print("introspection sequent:",
      entails(m, lang.parse_sequent("|- !a, (a | a)")).verdict)

print()
print("== two atoms ==")
lang2 = Language(["a", "b"])
stage, _ = build_for_formulas(["a", "b"], [lang2.parse("(b | a)")])
print(f"targeted build for (b | a): {stage.size} points after {stage.index} advance")
h = canonical_assignment(stage)
asg2 = extend_assignment(StageModel(stage), h)
v = asg2.value(lang2.parse("(b | a)"))
print(f"(b | a) denotes {bin(v).count('1')} of {stage.size} points")
blocked = asg2.value(lang2.parse("(a | b)"))
print("(a | b) is", "defined" if blocked is not None else
      f"undefined (blocking condition {asg2.blocking_condition(lang2.parse('(a | b)')):#x})")

stages, halted = build_faithful(["a", "b"], max_atoms=32, verify=False)
print("faithful growth under a 32-point budget:",
      [s.size for s in stages], "halted:", halted)
