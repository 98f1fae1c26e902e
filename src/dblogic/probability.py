"""Exact probabilities over the staged construction.

A classical probability is a table of exact rationals over the complete
conjunctions of the declared atoms.  It induces a weight on every stage-0
point; each advance extends the weights to the new pair points by

    P'(w, w') = P(w) P(w') / P(block of w'),

an exact rational computation that pushes forward along the embedding
(measures of images are preserved) and makes conditioning on the processed
element multiplicative.  A probability with zero cells is first nudged onto
the interior of the simplex with an infinitesimal parameter; weights then
live in the field of rational functions and the extension value is the limit
at 0+.

A stage's weights are stored as numerators over one common denominator:
ints in the direct mode, integer-coefficient polynomials in the perturbed
mode.  Advances, subset sums and the lemma identities work on numerators
without dividing, so they take no gcd; values are normalized to a Fraction
or a RatFunc only where they leave a valuation.

The separation demonstration at the end contrasts extending a conditioned
probability with conditioning the extension: the two disagree on genuine
conditionals, which is exactly how the logic escapes the classical
triviality argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence

from .construction import Stage, canonical_assignment
from .model import ConditionalAssignment, StageModel
from .ratfunc import EPS, Poly, RatFunc
from .syntax import (
    Atom, Cond, Formula, Implies, Language, Not, conj, evaluate, is_classical,
    truth_columns,
)

__all__ = [
    "ClassicalProbability", "RationalValuation", "ZeroBlockError",
    "p0_from_pi", "extend_step", "extend_probability", "Extension",
    "lemma1_check", "lemma2_check", "LemmaReport",
    "bayes_identity", "check_multiplicativity",
    "epsilon_extension", "lewis_separation", "lewis_collapse_demo",
    "LewisReport", "LewisEntry", "CollapseDemo", "default_lewis_deltas",
    "parse_probability_file",
]

Weight = Fraction | RatFunc


def limit_at_zero(w: Weight) -> Fraction:
    """Value of a weight as the perturbation parameter goes to 0+."""
    return w.limit0() if isinstance(w, RatFunc) else w


class ZeroBlockError(ZeroDivisionError):
    """A partition block has probability zero; use the perturbed mode."""


class ClassicalProbability:
    """Exact probability on the complete conjunctions over the atom set."""

    def __init__(self, theta: Sequence[str], table: Sequence[Weight]):
        self.theta = tuple(theta)
        if len(table) != 1 << len(self.theta):
            raise ValueError("table must cover every complete conjunction")
        self.table = tuple(table)
        total = self.table[0]
        for w in self.table[1:]:
            total = total + w
        if not (total == 1):
            raise ValueError(f"probabilities must sum to 1 exactly (got {total})")
        self.exact_rational = all(isinstance(w, Fraction) for w in self.table)
        if self.exact_rational and any(w < 0 for w in self.table):
            raise ValueError("probabilities must be nonnegative")
        self.strictly_positive = self.exact_rational and all(w > 0 for w in self.table)

    @classmethod
    def uniform(cls, theta: Sequence[str]) -> "ClassicalProbability":
        n = 1 << len(tuple(theta))
        return cls(theta, [Fraction(1, n)] * n)

    @classmethod
    def from_atom_weights(cls, theta: Sequence[str],
                          weights: Sequence[Fraction]) -> "ClassicalProbability":
        return cls(theta, [Fraction(w) for w in weights])

    def rows(self, f: Formula) -> int:
        """Bitmask of the truth rows of a classical formula (row code = one
        bit per atom, matching the stage-0 point order)."""
        return evaluate(f, truth_columns(self.theta), (1 << len(self.table)) - 1)[0]

    def of(self, f: Formula) -> Weight:
        """Probability of a classical formula, summed over its truth rows."""
        rows = self.rows(f)
        out: Weight = Fraction(0)
        for code in range(len(self.table)):
            if (rows >> code) & 1:
                out = out + self.table[code]
        return out

    def conditioned(self, phi: Formula) -> "ClassicalProbability":
        """Classical conditioning: rescale inside phi, zero outside."""
        rows = self.rows(phi)
        denom = self.of(phi)
        if denom == 0:
            raise ZeroDivisionError("conditioning on a null proposition")
        table = [self.table[c] / denom if (rows >> c) & 1 else Fraction(0)
                 for c in range(len(self.table))]
        return ClassicalProbability(self.theta, table)

    def epsilon_perturbed(self) -> "ClassicalProbability":
        """Interior perturbation: cell |-> e/#cells + (1-e) * cell."""
        n = len(self.table)
        table = [EPS / n + (1 - EPS) * w for w in self.table]
        return ClassicalProbability(self.theta, table)


def parse_probability_file(text: str, lang: Language,
                           strict_positive: bool = False) -> ClassicalProbability:
    """Lines ``conjunction : p/q`` over the complete conjunctions; missing
    lines default to zero (rejected under `strict_positive`)."""
    theta = lang.theta
    table: list[Fraction | None] = [None] * (1 << len(theta))
    columns = truth_columns(theta)
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        left, sep, right = line.rpartition(":")
        if not sep:
            raise ValueError(f"missing ':' in {line!r}")
        f = lang.parse(left.strip())
        rows, _ = evaluate(f, columns, (1 << len(table)) - 1)
        if bin(rows).count("1") != 1:
            raise ValueError(f"{left.strip()!r} does not denote a single complete conjunction")
        code = rows.bit_length() - 1
        if table[code] is not None:
            raise ValueError(f"duplicate cell {left.strip()!r}")
        table[code] = Fraction(right.strip())
    cells = [w if w is not None else Fraction(0) for w in table]
    pi = ClassicalProbability(theta, cells)
    if strict_positive and not pi.strictly_positive:
        raise ValueError("distribution has zero cells; drop --strict-positive "
                         "to run the perturbed mode")
    return pi


# ---------------------------------------------------------------------------
# Staged extension
# ---------------------------------------------------------------------------

_CHUNK = 8  # points per subset-sum table
_CHUNK_FULL = (1 << _CHUNK) - 1

Num = int | Poly  # a numerator or common denominator of a valuation


def _others(factors: Sequence[Num], one: Num) -> list[Num]:
    """For each factor, the product of all the others."""
    out = []
    for i in range(len(factors)):
        prod = one
        for j, f in enumerate(factors):
            if j != i:
                prod = prod * f
        out.append(prod)
    return out


def _common_denominator(weights: Sequence[Weight]) -> tuple[tuple[Num, ...], Num]:
    """Integer numerators over one integer denominator for rational weights;
    integer-coefficient polynomial numerators over one such polynomial when
    any weight is a rational function."""
    if not any(isinstance(w, RatFunc) for w in weights):
        fs = [Fraction(w) for w in weights]
        den = lcm(*(f.denominator for f in fs))
        return tuple(f.numerator * (den // f.denominator) for f in fs), den
    rs = [RatFunc.of(w) for w in weights]
    dens = list(dict.fromkeys(r.den for r in rs))
    other = dict(zip(dens, _others(dens, Poly.const(1))))
    den = other[dens[0]] * dens[0]
    nums = [r.num * other[r.den] for r in rs]
    scale = lcm(*(Fraction(c).denominator for p in nums + [den] for c in p.coeffs))
    return (tuple(Poly.make([(c * scale).numerator for c in p.coeffs]) for p in nums),
            Poly.make([(c * scale).numerator for c in den.coeffs]))


class RationalValuation:
    """Exact weights on the points of one stage, kept as numerators over one
    common denominator: Python ints in direct mode, integer-coefficient
    polynomials in the perturbed mode.  Sums of weights are sums of
    numerators, and the identities of the lemma checks compare numerators
    cross-multiplied, so neither needs a gcd.  Values are normalized only
    where they leave the valuation, in `measure` and `weights`, to a
    Fraction or a RatFunc in normal form.

    ``RationalValuation(stage, weights)`` puts the weights over a common
    denominator; ``RationalValuation(stage, nums=..., den=...)`` takes
    numerators and the denominator as they are."""

    def __init__(self, stage: Stage, weights: Sequence[Weight] | None = None, *,
                 nums: Sequence[Num] = (), den: Num = 1):
        if weights is not None:
            nums, den = _common_denominator(weights)
        self.stage = stage
        self.nums = tuple(nums)
        self.den = den

    def _value(self, num: Num) -> Weight:
        if isinstance(self.den, Poly):
            return RatFunc.make(num, self.den)
        return Fraction(num, self.den)

    @cached_property
    def weights(self) -> tuple[Weight, ...]:
        return tuple(self._value(n) for n in self.nums)

    @cached_property
    def _tables(self) -> tuple[tuple[Num, ...], ...]:
        """One subset-sum table of numerators per chunk of `_CHUNK` points:
        entry b of table k sums the points k*_CHUNK + i for the bits i of b."""
        zero = Poly(()) if isinstance(self.den, Poly) else 0
        tables = []
        for k in range(0, len(self.nums), _CHUNK):
            w = self.nums[k:k + _CHUNK]
            t: list[Num] = [zero] * (1 << len(w))
            for b in range(1, len(t)):
                low = b & -b
                t[b] = t[b ^ low] + w[low.bit_length() - 1]
            tables.append(tuple(t))
        return tuple(tables)

    def numerator(self, mask: int) -> Num:
        """Numerator, over `den`, of the weight of an element."""
        if not 0 <= mask <= self.stage.full:
            raise ValueError("element does not belong to the valuation's stage")
        tables = self._tables
        out = tables[0][mask & _CHUNK_FULL]
        mask >>= _CHUNK
        for table in tables[1:]:
            if not mask:
                break
            part = mask & _CHUNK_FULL
            if part:
                out = out + table[part]
            mask >>= _CHUNK
        return out

    def measure(self, mask: int) -> Weight:
        num = self.numerator(mask)
        return self._value(num) if mask else Fraction(0)


def p0_from_pi(pi: ClassicalProbability, stage0: Stage) -> RationalValuation:
    """Stage-0 weights: each point carries its complete conjunction's cell."""
    if stage0.index != 0:
        raise ValueError("stage-0 valuation needs the initial stage")
    if tuple(pi.theta) != tuple(stage0.theta):
        raise ValueError("atom sets differ")
    return RationalValuation(stage0, tuple(pi.table[bits] for bits in stage0.points))


def extend_step(val: RationalValuation, next_stage: Stage) -> RationalValuation:
    """One advance of the weights: P'(x,y) = P(x)P(y)/P(block of y).

    With P(x) = n_x/D and N_B the numerator of block B, that is
    n_x n_y / (D N_B(y)), kept as the numerator n_x n_y prod_{B != B(y)} N_B
    over the denominator D prod_B N_B, the products taken over the blocks
    that hold some y; nothing is divided."""
    parent = next_stage.parent
    if val.stage is not parent and val.stage.index != next_stage.index - 1:
        raise ValueError("valuation stage mismatch")
    t = next_stage.transition
    block_of = {}
    for p_mask, g_mask in zip(t.pi, t.gamma):
        for i in range(parent.size):
            if (p_mask >> i) & 1:
                block_of[i] = p_mask
            elif (g_mask >> i) & 1:
                block_of[i] = g_mask
    blocks = list(dict.fromkeys(block_of[y] for _, y in next_stage.points))
    block_num = [val.numerator(b) for b in blocks]
    if not all(block_num):
        raise ZeroBlockError(
            "a partition block has probability zero; use the perturbed mode")
    one = Poly.const(1) if isinstance(val.den, Poly) else 1
    other = dict(zip(blocks, _others(block_num, one)))
    den = val.den * block_num[0] * other[blocks[0]]
    nums = [val.nums[x] * val.nums[y] * other[block_of[y]] for x, y in next_stage.points]
    return RationalValuation(next_stage, nums=nums, den=den)


@dataclass
class Extension:
    """A probability pushed through every advance of a stage tower, together
    with the canonical assignment for formula probabilities."""

    pi: ClassicalProbability
    stages: list[Stage]
    valuations: list[RationalValuation]
    assignment: ConditionalAssignment

    @property
    def top(self) -> RationalValuation:
        return self.valuations[-1]

    def prob(self, f: Formula) -> Weight | None:
        v = self.assignment.value(f)
        return None if v is None else self.top.measure(v)


def extend_probability(pi: ClassicalProbability, stage: Stage) -> Extension:
    levels = stage.tower()
    vals = [p0_from_pi(pi, levels[0])]
    for nxt in levels[1:]:
        vals.append(extend_step(vals[-1], nxt))
    asg = ConditionalAssignment(StageModel(stage), canonical_assignment(stage))
    return Extension(pi, levels, vals, asg)


# ---------------------------------------------------------------------------
# Lemma checks (exact, zero tolerance)
# ---------------------------------------------------------------------------

@dataclass
class LemmaReport:
    name: str
    checked: int
    violations: list[str]

    def ok(self) -> bool:
        return not self.violations


def lemma1_check(parent_val: RationalValuation,
                 child_val: RationalValuation) -> LemmaReport:
    """Pushforward equality: the embedding preserves the weight of every
    element, and the whole space keeps weight one.  Checked on numerators:
    Nc(full) == Dc, and Nc(mu(m)) Dp == Np(m) Dc for each parent point m.

    The point checks are exact for every element.  The child's blocks, one
    per parent point, are nonempty, disjoint and cover the child's points
    (confirmed here first), so mu(m) is the disjoint union of the blocks of
    m's points, and both sides of the identity are sums over m's points.
    `checked` counts the parent points."""
    parent = parent_val.stage
    child = child_val.stage
    dp, dc = parent_val.den, child_val.den
    rep = LemmaReport("lemma1", 0, [])
    union = 0
    for i, blk in enumerate(child.blocks):
        if not blk or blk & union:
            rep.violations.append(f"block {i} is empty or overlaps an earlier block")
            return rep
        union |= blk
    if len(child.blocks) != parent.size or union != child.full:
        rep.violations.append("blocks do not partition the child's points")
        return rep
    if not (child_val.numerator(child.full) == dc):
        rep.violations.append("full space does not weigh 1")
    for i, blk in enumerate(child.blocks):
        if not (child_val.numerator(blk) * dp == parent_val.numerator(1 << i) * dc):
            rep.violations.append(f"pushforward differs at {1 << i:#x}")
            break
        rep.checked += 1
    return rep


def lemma2_check(parent_val: RationalValuation,
                 child_val: RationalValuation) -> LemmaReport:
    """Block proportionality and multiplicativity of conditioning on the
    processed element, checked as exact identities on numerators:
    (P(Pi)+P(Gamma)) P(b) == P(Pi) and (P(Pi)+P(Gamma)) P(~b) == P(Gamma)
    for every block, and P(side & A) == P(side) P(f(A, side)) for both
    sides of the processed element at each child point A.

    The point checks are exact for every A.  `advance` records the
    condition's chain as processed at the child's own stage, so f(A, side) is
    (A & side) | T(A & side), with T the pair swap: a union of disjoint
    parts, one per point of A, since T maps mu(b) onto ~mu(b).  Both sides
    of the identity are then sums over A's points.  `checked` counts the
    blocks and the child points."""
    parent = parent_val.stage
    child = child_val.stage
    t = child.transition
    dp, dc = parent_val.den, child_val.den
    rep = LemmaReport("lemma2", 0, [])
    pb = parent_val.numerator(t.b_mask)
    pnb = parent_val.numerator(parent.complement(t.b_mask))
    for i, (p_mask, g_mask) in enumerate(zip(t.pi, t.gamma)):
        wp = parent_val.numerator(p_mask)
        wg = parent_val.numerator(g_mask)
        if not (pb and pnb):
            rep.violations.append("zero-weight condition side")
            break
        if not ((wp + wg) * pb == wp * dp):
            rep.violations.append(f"block {i}: P(Pi)+P(Gamma) != P(Pi)/P(b)")
            break
        if not ((wp + wg) * pnb == wg * dp):
            rep.violations.append(f"block {i}: P(Pi)+P(Gamma) != P(Gamma)/P(~b)")
            break
        rep.checked += 1
    mu_b = child.embed(t.b_mask)
    sides = [(side, child_val.numerator(side)) for side in (mu_b, child.complement(mu_b))]
    for a in (1 << x for x in range(child.size)):
        for side, n_side in sides:
            fa = child.apply_f(a, side)
            if not (child_val.numerator(side & a) * dc == n_side * child_val.numerator(fa)):
                rep.violations.append(f"conditioning not multiplicative at A={a:#x}")
                return rep
        rep.checked += 1
    return rep


# ---------------------------------------------------------------------------
# Probabilistic identities on formulas
# ---------------------------------------------------------------------------

def bayes_identity(ext: Extension, phi: Formula, psi: Formula
                   ) -> tuple[Weight, Weight, bool]:
    """lhs = P((psi|phi)) * P(phi), rhs = P(phi /\\ psi), exact equality."""
    p_cond = ext.prob(Cond(psi, phi))
    p_phi = ext.prob(phi)
    p_and = ext.prob(conj(phi, psi))
    if p_cond is None or p_phi is None or p_and is None:
        raise ValueError("undefined evaluation in the Bayes identity")
    lhs = p_cond * p_phi
    return lhs, p_and, lhs == p_and


def check_multiplicativity(ext: Extension,
                           pairs: Sequence[tuple[Formula, Formula]]
                           ) -> list[tuple[Formula, Formula, bool]]:
    """P(phi /\\ psi) = P(phi) P(psi) for certified independent pairs,
    checked on numerators: N(phi /\\ psi) D == N(phi) N(psi)."""
    top = ext.top
    out = []
    for phi, psi in pairs:
        masks = [ext.assignment.value(f) for f in (conj(phi, psi), phi, psi)]
        if None in masks:
            raise ValueError("undefined evaluation in a multiplicativity pair")
        n_and, n_phi, n_psi = (top.numerator(m) for m in masks)
        out.append((phi, psi, n_and * top.den == n_phi * n_psi))
    return out


def epsilon_extension(pi: ClassicalProbability, stage: Stage) -> Extension:
    """Run the pipeline with perturbed weights (rational functions); formula
    probabilities are recovered as limits at 0+."""
    if not pi.exact_rational:
        raise ValueError("perturb an exact-rational distribution")
    return extend_probability(pi.epsilon_perturbed(), stage)


# ---------------------------------------------------------------------------
# The separation demonstration
# ---------------------------------------------------------------------------

@dataclass
class LewisEntry:
    delta: Formula
    extension_of_conditioned: Fraction | None  # extend pi_phi, then evaluate
    conditioned_extension: Fraction | None     # extend pi, then condition
    equal: bool | None

    def is_witness(self) -> bool:
        return self.equal is False


@dataclass
class CollapseDemo:
    """The classical chain: if conditioning commuted with the extension for
    both sides of psi, the total-probability step would force
    P(psi|phi) = P(psi)."""

    phi: Formula
    psi: Formula
    inside: Fraction          # P(psi | psi /\ phi), always 1 here
    outside: Fraction         # P(psi | !psi /\ phi), always 0 here
    forced: Fraction          # inside*P(psi) + outside*P(!psi) = P(psi)
    bayes: Fraction           # P(psi /\ phi) / P(phi)
    collapses: bool           # forced != bayes: the assumption is untenable


@dataclass
class LewisReport:
    phi: Formula
    entries: list[LewisEntry]
    demo: CollapseDemo | None  # None when no atom psi fits the demo

    def witnesses(self) -> list[LewisEntry]:
        return [e for e in self.entries if e.is_witness()]


def default_lewis_deltas(lang: Language) -> list[Formula]:
    """All conditionals (psi'|phi') with classical psi', phi' of depth <= 1."""
    base: list[Formula] = [Atom(n) for n in lang.theta]
    depth1 = list(base)
    depth1 += [Not(a) for a in base]
    depth1 += [Implies(a, b) for a in base for b in base]
    return [Cond(p, q) for p in depth1 for q in depth1]


def lewis_collapse_demo(pi: ClassicalProbability, phi: Formula,
                        psi: Formula) -> CollapseDemo:
    p_phi = pi.of(phi)
    p_psi = pi.of(psi)
    p_in = pi.of(conj(psi, conj(psi, phi))) / pi.of(conj(psi, phi))
    p_out = pi.of(conj(psi, conj(Not(psi), phi))) / pi.of(conj(Not(psi), phi))
    forced = p_in * p_psi + p_out * (1 - p_psi)
    bayes = pi.of(conj(psi, phi)) / p_phi
    return CollapseDemo(phi, psi, p_in, p_out, forced, bayes, forced != bayes)


def lewis_separation(stage: Stage, pi: ClassicalProbability, phi: Formula,
                     deltas: Sequence[Formula] | None = None,
                     lang: Language | None = None) -> LewisReport:
    """Compare, over a family of conditionals, the extension of the
    conditioned probability with the conditioning of the extension."""
    lang = lang or Language(stage.theta)
    if not pi.strictly_positive:
        raise ValueError("the base distribution must be strictly positive")
    if not is_classical(phi):
        raise ValueError("the conditioning proposition must be classical")
    p_phi = pi.of(phi)
    if not (0 < p_phi < 1):
        raise ValueError("need 0 < P(phi) < 1")
    if deltas is None:
        deltas = default_lewis_deltas(lang)
    main = extend_probability(pi, stage)
    conditioned = pi.conditioned(phi)
    side_a_ext = (extend_probability(conditioned, stage)
                  if conditioned.strictly_positive
                  else epsilon_extension(conditioned, stage))
    entries: list[LewisEntry] = []
    for d in deltas:
        a_raw = side_a_ext.prob(d)
        num = main.prob(conj(d, phi))
        if a_raw is None or num is None:
            entries.append(LewisEntry(d, None, None, None))
            continue
        a_val = limit_at_zero(a_raw)
        b_val = num / p_phi
        entries.append(LewisEntry(d, a_val, b_val, a_val == b_val))
    # psi: the first atom whose probability phi changes and that splits phi
    # (0 < P(psi /\ phi) < P(phi)), since the demo conditions on both
    # psi /\ phi and !psi /\ phi.  When phi changes no atom, every atom
    # splits it (pi is strictly positive) and the first one is taken.
    atoms = [Atom(n) for n in lang.theta]
    changed = [a for a in atoms if pi.of(conj(a, phi)) / p_phi != pi.of(a)]
    fits = [a for a in changed if 0 < pi.of(conj(a, phi)) < p_phi] if changed else atoms
    demo = lewis_collapse_demo(pi, phi, fits[0]) if fits else None
    return LewisReport(phi, entries, demo)
