"""Why the extension escapes the classical triviality argument.

The collapse argument needs conditioning to commute with the extension:
extending pi conditioned on phi should equal conditioning the extended
probability on phi.  Here both sides are computed exactly and they differ on
genuine conditionals -- which is precisely the loophole.  Assuming they agree
forces P(psi|phi) = P(psi) by the total-probability chain, collapsing all
dependence; that forced collapse is reproduced arithmetically below.
"""

from fractions import Fraction as F

from dblogic import ClassicalProbability, Language, build_for_formulas
from dblogic.probability import (
    default_lewis_deltas, extend_probability, lewis_collapse_demo,
    lewis_separation,
)

lang = Language(["a", "b"])
# cells (a/\b, a/\!b, !a/\b, !a/\!b) = (1/2, 1/4, 1/8, 1/8)
pi = ClassicalProbability(["a", "b"], [F(1, 8), F(1, 4), F(1, 8), F(1, 2)])
phi = lang.parse("b")

deltas = default_lewis_deltas(lang)
stage = build_for_formulas(["a", "b"], deltas, max_atoms=32, skip_unaffordable=True)
print(f"model: {stage.size} points after {stage.index} advances")

report = lewis_separation(extend_probability(pi, stage), phi, deltas=deltas)
decided = [e for e in report.entries if e.equal is not None]
print(f"compared {len(decided)} conditionals (skipped "
      f"{len(report.entries) - len(decided)} beyond the point budget)")
print()
print("extend-then-evaluate vs condition-the-extension:")
for e in report.witnesses():
    print(f"  {lang.format(e.delta, 'sugared'):16s} "
          f"{e.extension_of_conditioned}  !=  {e.conditioned_extension}")

agree = [e for e in decided if e.equal]
print(f"\n{len(agree)} conditionals agree (classical content is never distorted),"
      f" {len(report.witnesses())} separate")

print()
print("the forced collapse if the two sides were assumed equal:")
d = lewis_collapse_demo(pi, phi, lang.parse("a"))
print(f"  P(a | a /\\ b) = {d.inside},  P(a | !a /\\ b) = {d.outside}")
print(f"  total probability then forces P(a|b) = "
      f"{d.inside} * P(a) + {d.outside} * P(!a) = {d.forced}")
print(f"  but the true quotient is P(a /\\ b)/P(b) = {d.bayes}")
print(f"  collapse exhibited: {d.collapses}")
