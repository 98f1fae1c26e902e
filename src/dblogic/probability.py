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

The separation demonstration at the end contrasts extending a conditioned
probability with conditioning the extension: the two disagree on genuine
conditionals, which is exactly how the logic escapes the classical
triviality argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from random import Random
from typing import Iterable, Sequence

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


def _parts(w: Weight) -> tuple[Poly, Poly]:
    """Numerator and denominator of a weight as polynomials."""
    if isinstance(w, RatFunc):
        return w.num, w.den
    return Poly.const(w), Poly.const(1)


def _is_product(c: Weight, a: Weight, b: Weight) -> bool:
    """Exactly c == a * b.  With a rational function among them, compare
    c.num a.den b.den with a.num b.num c.den, so that the product is never
    normalized (no polynomial gcd)."""
    if not any(isinstance(w, RatFunc) for w in (a, b, c)):
        return c == a * b
    (an, ad), (bn, bd), (cn, cd) = _parts(a), _parts(b), _parts(c)
    return cn * ad * bd == an * bn * cd


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


@dataclass(frozen=True)
class RationalValuation:
    """Exact weights on the points of one stage."""

    stage: Stage
    weights: tuple[Weight, ...]

    @cached_property
    def _tables(self) -> tuple[tuple[Weight, ...], ...]:
        """One subset-sum table per chunk of `_CHUNK` points: entry b of
        table k weighs the points k*_CHUNK + i for the bits i of b."""
        tables = []
        for k in range(0, len(self.weights), _CHUNK):
            w = self.weights[k:k + _CHUNK]
            t: list[Weight] = [Fraction(0)] * (1 << len(w))
            for b in range(1, len(t)):
                low = b & -b
                t[b] = t[b ^ low] + w[low.bit_length() - 1]
            tables.append(tuple(t))
        return tuple(tables)

    def measure(self, mask: int) -> Weight:
        if not 0 <= mask <= self.stage.full:
            raise ValueError("element does not belong to the valuation's stage")
        out: Weight | None = None
        for table in self._tables:
            if not mask:
                break
            part = mask & _CHUNK_FULL
            if part:
                out = table[part] if out is None else out + table[part]
            mask >>= _CHUNK
        return Fraction(0) if out is None else out


def p0_from_pi(pi: ClassicalProbability, stage0: Stage) -> RationalValuation:
    """Stage-0 weights: each point carries its complete conjunction's cell."""
    if stage0.index != 0:
        raise ValueError("stage-0 valuation needs the initial stage")
    if tuple(pi.theta) != tuple(stage0.theta):
        raise ValueError("atom sets differ")
    return RationalValuation(stage0, tuple(pi.table[a.bits] for a in stage0.atoms))


def extend_step(val: RationalValuation, next_stage: Stage) -> RationalValuation:
    """One advance of the weights: P'(w,w') = P(w)P(w')/P(block of w')."""
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
    block_weight: dict[int, Weight] = {}
    for m in set(t.pi) | set(t.gamma):
        block_weight[m] = val.measure(m)
    weights = []
    for point in next_stage.atoms:
        x = parent.atom_index[point.first]
        y = parent.atom_index[point.second]
        denom = block_weight[block_of[y]]
        if denom == 0:
            raise ZeroBlockError(
                "a partition block has probability zero; use the perturbed mode")
        weights.append(val.weights[x] * val.weights[y] / denom)
    return RationalValuation(next_stage, tuple(weights))


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
    levels: list[Stage] = []
    s: Stage | None = stage
    while s is not None:
        levels.append(s)
        s = s.parent
    levels.reverse()
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
    seed: int | None = None

    def ok(self) -> bool:
        return not self.violations


def lemma1_check(parent_val: RationalValuation, child_val: RationalValuation,
                 exhaustive_limit: int = 16, samples: int = 2000,
                 seed: int = 0) -> LemmaReport:
    """Pushforward equality: the weight of every element is preserved by the
    embedding; in particular the whole space keeps weight one."""
    parent = parent_val.stage
    child = child_val.stage
    rep = LemmaReport("lemma1", 0, [])
    if not (child_val.measure(child.full) == 1):
        rep.violations.append("full space does not weigh 1")
    if parent.size <= exhaustive_limit:
        elems: Iterable[int] = range(1 << parent.size)
    else:
        rng = Random(seed)
        rep.seed = seed
        elems = (rng.getrandbits(parent.size) for _ in range(samples))
    for m in elems:
        if not (child_val.measure(child.embed(m)) == parent_val.measure(m)):
            rep.violations.append(f"pushforward differs at {m:#x}")
            break
        rep.checked += 1
    return rep


def lemma2_check(parent_val: RationalValuation, child_val: RationalValuation,
                 exhaustive_limit: int = 16, samples: int = 2000,
                 seed: int = 0) -> LemmaReport:
    """Block proportionality and multiplicativity of conditioning on the
    processed element, checked as exact identities."""
    parent = parent_val.stage
    child = child_val.stage
    t = child.transition
    rep = LemmaReport("lemma2", 0, [])
    pb = parent_val.measure(t.b_mask)
    pnb = parent_val.measure(parent.complement(t.b_mask))
    for i, (p_mask, g_mask) in enumerate(zip(t.pi, t.gamma)):
        wp = parent_val.measure(p_mask)
        wg = parent_val.measure(g_mask)
        if pb == 0 or pnb == 0:
            rep.violations.append("zero-weight condition side")
            break
        if not (wp + wg == wp / pb):
            rep.violations.append(f"block {i}: P(Pi)+P(Gamma) != P(Pi)/P(b)")
            break
        if not (wp + wg == wg / pnb):
            rep.violations.append(f"block {i}: P(Pi)+P(Gamma) != P(Gamma)/P(~b)")
            break
        rep.checked += 1
    mu_b = child.embed(t.b_mask)
    sides = [mu_b, child.complement(mu_b)]
    if child.size <= exhaustive_limit:
        elems: Iterable[int] = range(1 << child.size)
    else:
        rng = Random(seed)
        rep.seed = seed
        elems = (rng.getrandbits(child.size) for _ in range(samples))
    for a in elems:
        for side in sides:
            fa = child.apply_f(a, side)
            if not _is_product(child_val.measure(side & a),
                               child_val.measure(side), child_val.measure(fa)):
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
    """P(phi /\\ psi) = P(phi) P(psi) for certified independent pairs."""
    out = []
    for phi, psi in pairs:
        p_and = ext.prob(conj(phi, psi))
        p_phi = ext.prob(phi)
        p_psi = ext.prob(psi)
        if p_and is None or p_phi is None or p_psi is None:
            raise ValueError("undefined evaluation in a multiplicativity pair")
        out.append((phi, psi, _is_product(p_and, p_phi, p_psi)))
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
