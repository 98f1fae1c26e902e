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
at 0+.  An extension runs over a tower as the builders return it, checked
by the exact lemma checks below, not by `verify_stage`.

A stage's weights are stored as numerators over one common denominator:
ints in the direct mode, integer-coefficient polynomials in the perturbed
mode.  Each advance divides them by their common gcd once; subset sums
and the lemma identities work on numerators and take no gcd; a subset sum
is built when it is first read.  Values are normalized to a Fraction or a
RatFunc only where they leave a valuation, and by `bayes_identity` only
once all three values of its triple are defined.

The separation demonstration at the end contrasts extending a conditioned
probability with conditioning the extension: the two disagree on genuine
conditionals, which is exactly how the logic escapes the classical
triviality argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Sequence

from .construction import Stage, canonical_assignment
from .model import ConditionalAssignment
from .ratfunc import Poly, RatFunc, cancel, limit0
from .syntax import (
    Atom, Cond, Formula, Implies, Language, Not, conj, evaluate, is_classical,
    truth_columns,
)

__all__ = [
    "ClassicalProbability", "RationalValuation", "ZeroBlockError",
    "p0_from_pi", "extend_step", "extend_probability", "Extension",
    "lemma1_check", "lemma2_check", "LemmaReport",
    "bayes_identity", "check_multiplicativity",
    "epsilon_extension", "lewis_preconditions", "lewis_separation", "lewis_collapse_demo",
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
        # Only a table without RatFunc cells is summed.  The workbench builds
        # RatFunc tables only in `epsilon_perturbed`, whose cells
        # w + (1/n - w) e over an exact table checked here sum to 1 + 0 e by
        # construction, and summing them costs a RatFunc add per cell.
        if not any(isinstance(w, RatFunc) for w in self.table):
            total = sum(self.table)
            if total != 1:
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
        """Interior perturbation of an exact-rational table (ValueError
        otherwise), in normal form: w |-> e/n + (1-e) w = w + (1/n - w) e."""
        if not self.exact_rational:
            raise ValueError("perturb an exact-rational distribution")
        n = len(self.table)
        table = [RatFunc(Poly.make([w, Fraction(1, n) - w]), Poly.const(1))
                 for w in self.table]
        return ClassicalProbability(self.theta, table)


def parse_probability_file(text: str, lang: Language,
                           strict_positive: bool = False) -> ClassicalProbability:
    """Lines ``conjunction : p/q`` over the complete conjunctions; missing
    lines default to zero (rejected under `strict_positive`).  A bad line is
    a `ValueError` that starts ``line N:``."""
    theta = lang.theta
    table: list[Fraction | None] = [None] * (1 << len(theta))
    columns = truth_columns(theta)
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        left, sep, right = line.rpartition(":")
        try:
            if not sep:
                raise ValueError(f"missing ':' in {line!r}")
            rows, _ = evaluate(lang.parse(left.strip()), columns, (1 << len(table)) - 1)
            if bin(rows).count("1") != 1:
                raise ValueError(f"{left.strip()!r} does not denote a single complete conjunction")
            code = rows.bit_length() - 1
            if table[code] is not None:
                raise ValueError(f"duplicate cell {left.strip()!r}")
            table[code] = Fraction(right.strip())
        except ZeroDivisionError:
            raise ValueError(f"line {n}: zero denominator in {right.strip()!r}") from None
        except ValueError as e:
            raise type(e)(f"line {n}: {e}") from None
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
    den, *nums = cancel([other[dens[0]] * dens[0], *(r.num * other[r.den] for r in rs)])
    return tuple(nums), den


class RationalValuation:
    """Exact weights on the points of one stage, kept as numerators over one
    common denominator: Python ints in direct mode, integer-coefficient
    polynomials in the perturbed mode.  Sums of weights are sums of
    numerators, and the identities of the lemma checks compare numerators
    cross-multiplied, so neither needs a gcd; a sum is built when it is
    first read (`numerator`).  Values are normalized only where they leave
    the valuation, in `measure` and `weights`, to a Fraction or a RatFunc.

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
    def _sums(self) -> list[dict[int, Num]]:
        """One subset-sum memo of numerators per chunk of `_CHUNK` points,
        entry b of memo k the sum of points k*_CHUNK + i for the bits i of b,
        holding the empty sum and the single points at first."""
        zero = Poly(()) if isinstance(self.den, Poly) else 0
        return [{0: zero, **{1 << i: n for i, n in enumerate(self.nums[k:k + _CHUNK])}}
                for k in range(0, len(self.nums), _CHUNK)]

    def numerator(self, mask: int) -> Num:
        """Numerator, over `den`, of the weight of an element.  A chunk's
        entry that is not cached yet drops its lowest bit until it reaches a
        cached one, then adds the dropped points back, caching each sum."""
        if not 0 <= mask <= self.stage.full:
            raise ValueError("element does not belong to the valuation's stage")
        out = None
        for k, sums in enumerate(self._sums):
            b, mask = mask & _CHUNK_FULL, mask >> _CHUNK
            if b:
                path = []
                while (s := sums.get(b)) is None:
                    path.append(b)
                    b &= b - 1
                for b in reversed(path):
                    s = sums[b] = s + self.nums[k * _CHUNK + (b & -b).bit_length() - 1]
                out = s if out is None else out + s
        return self._sums[0][0] if out is None else out

    def measure(self, mask: int) -> Weight:
        return self._value(self.numerator(mask)) if mask else Fraction(0)

    def limit0(self, mask: int) -> Fraction:
        """`limit_at_zero(self.measure(mask))`, read off the numerator and
        `den` as they are, without normalizing the quotient first."""
        num = self.numerator(mask)
        if isinstance(self.den, Poly):
            return limit0(num, self.den)
        return Fraction(num, self.den)


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
    that hold some y, all divided by their common gcd."""
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
    if isinstance(den, Poly):
        den, *nums = cancel([den, *nums])
    else:
        g = gcd(den, *nums)
        den, nums = den // g, [n // g for n in nums]
    return RationalValuation(next_stage, nums=nums, den=den)


@dataclass
class Extension:
    """A probability pushed through every advance of a stage tower, together
    with the canonical assignment for formula probabilities."""

    pi: ClassicalProbability
    valuations: list[RationalValuation]
    assignment: ConditionalAssignment

    @property
    def top(self) -> RationalValuation:
        return self.valuations[-1]

    def prob(self, f: Formula) -> Weight | None:
        v = self.assignment.value(f)
        return None if v is None else self.top.measure(v)


def _valuations(pi: ClassicalProbability, stage: Stage) -> list[RationalValuation]:
    """`pi` pushed up the tower of `stage`, one `extend_step` per level."""
    vals = [p0_from_pi(pi, stage.levels[0])]
    for nxt in stage.levels[1:]:
        vals.append(extend_step(vals[-1], nxt))
    return vals


def extend_probability(pi: ClassicalProbability, stage: Stage) -> Extension:
    """Extend `pi` up the tower of `stage`, one `extend_step` per level."""
    asg = ConditionalAssignment(stage, canonical_assignment(stage))
    return Extension(pi, _valuations(pi, stage), asg)


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
    for every block, Nc(full) == Dc, and P(side & A) == P(side) P(f(A, side))
    for both sides of the processed element at each child point A.

    The point checks are exact for every A.  `advance` records the
    condition's chain as processed at the child's own stage, so f(A, side) is
    (A & side) | T(A & side), with T the pair swap: a union of disjoint
    parts, one per point of A, since T maps mu(b) onto ~mu(b).  Both sides
    of the identity are then sums over A's points.  Only the mu(b) side is
    checked: at a point x the two sides' differences lhs - rhs, the mu(b)
    one at x and the ~mu(b) one at T(x), add up to
    (Nc(x) + Nc(T(x))) (Dc - Nc(full)), which is 0 once Nc(full) == Dc.
    `checked` counts the blocks and the child points."""
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
    if not (child_val.numerator(child.full) == dc):
        rep.violations.append("full space does not weigh 1")
        return rep
    mu_b = child.embed(t.b_mask)
    n_mu_b = child_val.numerator(mu_b)
    for a in (1 << x for x in range(child.size)):
        fa = child.apply_f(a, mu_b)
        if not (child_val.numerator(mu_b & a) * dc == n_mu_b * child_val.numerator(fa)):
            rep.violations.append(f"conditioning not multiplicative at A={a:#x}")
            break
        rep.checked += 1
    return rep


# ---------------------------------------------------------------------------
# Probabilistic identities on formulas
# ---------------------------------------------------------------------------

def bayes_identity(ext: Extension, phi: Formula, psi: Formula
                   ) -> tuple[Weight, Weight, bool]:
    """lhs = P((psi|phi)) * P(phi), rhs = P(phi /\\ psi), exact equality.
    The three values are read first, (psi|phi) before the others, and
    measured only when all are defined, else a ValueError."""
    values = [ext.assignment.value(Cond(psi, phi))]
    if values[0] is not None:
        values += [ext.assignment.value(f) for f in (phi, conj(phi, psi))]
    if None in values:
        raise ValueError("undefined evaluation in the Bayes identity")
    p_cond, p_phi, p_and = map(ext.top.measure, values)
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


def lewis_preconditions(pi: ClassicalProbability, phi: Formula) -> Fraction:
    """P(phi), once the separation demonstration's preconditions hold: `pi`
    strictly positive, `phi` classical and 0 < P(phi) < 1.  A ValueError
    names the first that fails; `cmd_prob` calls this before it builds."""
    if not pi.strictly_positive:
        raise ValueError("the base distribution must be strictly positive")
    if not is_classical(phi):
        raise ValueError("the conditioning proposition must be classical")
    p_phi = pi.of(phi)
    if not (0 < p_phi < 1):
        raise ValueError("need 0 < P(phi) < 1")
    return p_phi


def lewis_separation(ext: Extension, phi: Formula,
                     deltas: Sequence[Formula] | None = None) -> LewisReport:
    """Compare, over a family of conditionals, the extension of the
    conditioned probability with the conditioning of the extension `ext`
    (the direct extension of its `pi` up its stage).

    Both sides read each delta's value on the one canonical assignment of
    the stage, evaluated once.  Side A weighs it with `pi` conditioned on
    phi, perturbed and pushed up the same tower, and takes the limit at 0+
    straight off the numerator over the common denominator, with no gcd
    (`RationalValuation.limit0`).  Side B weighs its meet with phi's value,
    which is the value of the sugar delta /\\ phi, under `ext`."""
    pi, asg, top = ext.pi, ext.assignment, ext.top
    stage = asg.stage
    p_phi = lewis_preconditions(pi, phi)
    if deltas is None:
        deltas = default_lewis_deltas(Language(stage.theta))
    # P(phi) < 1 on a strictly positive pi, so conditioning zeroes a cell
    side_a = _valuations(pi.conditioned(phi).epsilon_perturbed(), stage)[-1]
    phi_v = asg.value(phi)
    entries: list[LewisEntry] = []
    for d in deltas:
        v = asg.value(d)
        if v is None:
            entries.append(LewisEntry(d, None, None, None))
            continue
        a_val = side_a.limit0(v)
        b_val = top.measure(v & phi_v) / p_phi
        entries.append(LewisEntry(d, a_val, b_val, a_val == b_val))
    # psi: the first atom whose probability phi changes and that splits phi
    # (0 < P(psi /\ phi) < P(phi)), since the demo conditions on both
    # psi /\ phi and !psi /\ phi.  When phi changes no atom, every atom
    # splits it (pi is strictly positive) and the first one is taken.
    atoms = [Atom(n) for n in stage.theta]
    changed = [a for a in atoms if pi.of(conj(a, phi)) / p_phi != pi.of(a)]
    fits = [a for a in changed if 0 < pi.of(conj(a, phi)) < p_phi] if changed else atoms
    demo = lewis_collapse_demo(pi, phi, fits[0]) if fits else None
    return LewisReport(phi, entries, demo)
