"""Machine-checked theorem library for the conditional logic.

Every entry is a closed derivation built from the axiom schemas, CUT, STRUCT,
classical leaves and the admissible derived rules.  Theorems whose proofs
need only b1..b4 (plus the weak symmetry axioms) are carried out in the
weakened system; theorems that genuinely need the symmetric-independence
axiom are carried out in the full system, where the weak axioms are not
available and are re-derived from b5 on the fly.

The library also contains the counterpart sequents of the classical
counterfactual system VCU and, quarantined behind an explicit flag, the
derivation showing that collapsing iterated conditionals into conjunctive
conditions trivializes the logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .proof import (
    AxiomNode, CutNode, Derivation, Node, RuleNode, StructNode, System,
    TautNode, apply_cut, apply_derived_rule, apply_struct, instantiate_axiom,
)
from .syntax import (
    Atom, Cond, Formula, Implies, Language, Not, Sequent, conj, disj, iff,
    indep,
)

__all__ = ["TheoremEntry", "theorem_library", "library_language", "export_library", "proofs_dir"]


@dataclass(frozen=True)
class TheoremEntry:
    tid: str
    title: str
    statement: Sequent
    derivation: Derivation
    expected_flags: frozenset[str]
    group: str


# paper-style side-condition annotation per theorem group; a group's union of
# per-entry flags must equal its annotation (star marks the quarantined leaf)
GROUP_ANNOTATIONS: dict[str, frozenset[str]] = {
    "3.1.1": frozenset(),
    "3.1.2": frozenset({"b5"}),
    "3.1.3": frozenset({"b5.weak.A"}),
    "3.1.4": frozenset({"b5.weak.A"}),
    "3.1.5": frozenset({"b5.weak.A"}),
    "3.1.6": frozenset({"b5.weak.A"}),
    "3.1.7": frozenset(),
    "3.1.8": frozenset(),
    "3.1.9": frozenset({"b5.weak.A"}),
    "3.1.10": frozenset({"b5.weak.A"}),
    "3.1.11": frozenset(),
    "3.1.12": frozenset({"b5.weak.A"}),
    "3.1.13": frozenset({"b5.weak.A"}),
    "3.1.14": frozenset({"b5"}),
    "3.1.15": frozenset({"b5"}),
    "3.1.16": frozenset({"b5"}),
    "3.1.17": frozenset({"b5", "star"}),
    "vcu": frozenset({"b5.weak.A"}),
}


class Prover:
    """Derivation builder with incremental conclusion tracking.  A classical
    leaf is recorded with its target, unchecked: `check_derivation` checks
    every leaf, and every consumer of a built derivation runs it.  Nodes are
    hash-consed, so a node built again is the one already registered, and
    its conclusion is not computed again."""

    def __init__(self, lang: Language, system: System, allow_star: bool = False):
        self.lang = lang
        self.system = system
        self.allow_star = allow_star
        self._concl: dict[Node, Sequent] = {}

    def concl(self, node: Node) -> Sequent:
        return self._concl[node]

    def _register(self, node: Node, concl: Sequent) -> Node:
        self._concl[node] = concl
        return node

    def ax(self, sid: str, **binding: Formula) -> Node:
        node = AxiomNode(sid, tuple(sorted(binding.items())))
        if node in self._concl:
            return node
        return self._register(node, instantiate_axiom(sid, binding, self.system, self.allow_star))

    def taut(self, target: Sequent) -> Node:
        return self._register(TautNode(target), target)

    def struct(self, premise: Node, target: Sequent) -> Node:
        pc = self.concl(premise)
        if pc == target:
            return premise
        node = StructNode(premise, target)
        return self._register(node, apply_struct(pc, target, self.lang))

    def cut(self, left: Node, right: Node, f: Formula) -> Node:
        lc = self.concl(left)
        if not lc.succedent or lc.succedent[-1] != f:
            rest = tuple(x for x in lc.succedent if x != f)
            left = self.struct(left, Sequent(lc.antecedent, rest + (f,)))
            lc = self.concl(left)
        node = CutNode(left, right, f)
        if node in self._concl:
            return node
        return self._register(node, apply_cut(lc, self.concl(right), f))

    def rule(self, name: str, args: tuple[Formula, ...], premises: tuple[Node, ...]) -> Node:
        node = RuleNode(name, args, premises)
        if node in self._concl:
            return node
        macro = apply_derived_rule(name, [self.concl(p) for p in premises], args)
        return self._register(node, macro)

    def classically(self, target: Sequent, *helpers: Node) -> Node:
        """Target follows propositionally from the helper conclusions.

        Builds a classical leaf whose antecedent lists every helper's (single)
        succedent formula plus the target antecedent, cuts the helpers in, and
        restores the target by STRUCT.  Every helper antecedent must already
        be present in the target antecedent (or be removable as T).
        """
        assert len(target.succedent) <= 1
        hfs = []
        for h in helpers:
            hc = self.concl(h)
            assert len(hc.succedent) == 1, "helper must have a single succedent formula"
            hfs.append(hc.succedent[0])
        leaf = self.taut(Sequent(tuple(hfs) + target.antecedent, target.succedent))
        node = leaf
        for h, hf in zip(helpers, hfs):
            node = self.cut(h, node, hf)
        return self.struct(node, target)

    def em(self, pos: Node, neg: Node, f: Formula, target: Sequent) -> Node:
        """Resolve the case formula `f` between a positive branch concluding
        ``... |- ..., f, ...`` and a negative branch with `f` as antecedent."""
        return self.struct(self.cut(pos, neg, f), target)


# ---------------------------------------------------------------------------
# Theorem builders.  Arguments are concrete formulas; every builder returns a
# node whose conclusion is the theorem's sequent for those arguments.
# ---------------------------------------------------------------------------

def thm_full_universe(pr: Prover, phi: Formula, psi: Formula) -> Node:
    """phi |- psi >< phi : a tautology is independent of everything."""
    return pr.classically(
        Sequent((phi,), (indep(psi, phi),)),
        pr.ax("b3", phi=phi, psi=psi),
        pr.ax("b3", phi=phi, psi=Not(psi)),
        pr.ax("b4", phi=phi, psi=psi),
    )


def thm_cond_on_top(pr: Prover, psi: Formula) -> Node:
    """|- (psi | T) <-> psi"""
    t = pr.lang.top
    full = thm_full_universe(pr, t, psi)
    return pr.struct(full, Sequent((), (indep(psi, t),)))


def x_flip_fwd(pr: Prover, phi: Formula, psi: Formula) -> Node:
    """psi >< phi |- psi >< !phi (axiom in the weak system, derived from b5
    and b4 otherwise)."""
    if pr.system is System.DBL_STAR:
        return pr.ax("b5.weak.A.2", phi=phi, psi=psi)
    s1 = pr.ax("b5", phi=phi, psi=psi)
    s2 = pr.classically(Sequent((indep(phi, psi),), (indep(Not(phi), psi),)),
                        pr.ax("b4", phi=psi, psi=phi))
    s3 = pr.ax("b5", phi=psi, psi=Not(phi))
    return pr.cut(pr.cut(s1, s2, indep(phi, psi)), s3, indep(Not(phi), psi))


def x_flip_bwd(pr: Prover, phi: Formula, psi: Formula) -> Node:
    """psi >< !phi |- psi >< phi"""
    if pr.system is System.DBL_STAR:
        return pr.ax("b5.weak.A.1", phi=phi, psi=psi)
    s1 = pr.ax("b5", phi=Not(phi), psi=psi)
    s2 = pr.classically(Sequent((indep(Not(phi), psi),), (indep(phi, psi),)),
                        pr.ax("b4", phi=psi, psi=phi))
    s3 = pr.ax("b5", phi=psi, psi=phi)
    return pr.cut(pr.cut(s1, s2, indep(Not(phi), psi)), s3, indep(phi, psi))


def thm_empty_universe(pr: Prover, phi: Formula, psi: Formula) -> Node:
    """!phi |- psi >< phi : a contradiction is independent of everything."""
    base = thm_full_universe(pr, Not(phi), psi)
    return pr.cut(base, x_flip_bwd(pr, phi, psi), indep(psi, Not(phi)))


def thm_cond_on_bot(pr: Prover, psi: Formula) -> Node:
    """|- (psi | F) <-> psi"""
    bot = pr.lang.bot
    emp = thm_empty_universe(pr, bot, psi)
    nn = pr.taut(Sequent((), (Not(bot),)))
    return pr.cut(nn, emp, Not(bot))


def _lift(pr: Prover, phi: Formula, a: Formula, b: Formula,
          ant: tuple[Formula, ...] = (), *helpers: Node) -> Node:
    """ant |- !phi, (a|phi) -> (b|phi), by b1 and b2, whenever phi -> (a -> b)
    follows classically from `ant` and the helper conclusions."""
    imp = Implies(a, b)
    c1 = pr.cut(pr.classically(Sequent(ant, (Implies(phi, imp),)), *helpers),
                pr.ax("b1", phi=phi, psi=imp), Implies(phi, imp))
    s = pr.classically(Sequent((Cond(imp, phi),), (Implies(Cond(a, phi), Cond(b, phi)),)),
                       pr.ax("b2", phi=phi, psi=a, eta=b))
    return pr.cut(c1, s, Cond(imp, phi))


def thm_left_equiv(pr: Prover, phi: Formula, psi: Formula, eta: Formula) -> Node:
    """psi <-> eta |- !phi, (psi|phi) <-> (eta|phi)"""
    e = iff(psi, eta)
    hA = _lift(pr, phi, psi, eta, (Implies(psi, eta),))
    hB = _lift(pr, phi, eta, psi, (Implies(eta, psi),))
    dA = pr.cut(pr.taut(Sequent((e,), (Implies(psi, eta),))), hA, Implies(psi, eta))
    dB = pr.cut(pr.taut(Sequent((e,), (Implies(eta, psi),))), hB, Implies(eta, psi))
    iA = Implies(Cond(psi, phi), Cond(eta, phi))
    iB = Implies(Cond(eta, phi), Cond(psi, phi))
    r = pr.rule("andR", (), (
        pr.struct(dA, Sequent((e,), (iA, Not(phi)))),
        pr.struct(dB, Sequent((e,), (iB, Not(phi)))),
    ))
    return pr.struct(r, Sequent((e,), (Not(phi), iff(Cond(psi, phi), Cond(eta, phi)))))


def thm_left_equiv_cor(pr: Prover, phi: Formula, psi: Formula, eta: Formula) -> Node:
    """psi <-> eta |- (psi|phi) <-> (eta|phi)"""
    e = iff(psi, eta)
    tgt = iff(Cond(psi, phi), Cond(eta, phi))
    main = thm_left_equiv(pr, phi, psi, eta)
    d_neg = pr.classically(Sequent((Not(phi), e), (tgt,)),
                           thm_empty_universe(pr, phi, psi),
                           thm_empty_universe(pr, phi, eta))
    return pr.em(main, d_neg, Not(phi), Sequent((e,), (tgt,)))


def cond_equiv(pr: Prover, phi: Formula, a: Formula, b: Formula) -> Node:
    """|- (a|phi) <-> (b|phi) whenever a <-> b is a classical tautology."""
    lec = thm_left_equiv_cor(pr, phi, a, b)
    return pr.cut(pr.taut(Sequent((), (iff(a, b),))), lec, iff(a, b))


def neg_commute(pr: Prover, phi: Formula, x: Formula) -> Node:
    """|- (!x|phi) <-> !(x|phi) : negation commutes with the conditional."""
    return pr.classically(
        Sequent((), (iff(Cond(Not(x), phi), Not(Cond(x, phi))),)),
        pr.ax("b4", phi=phi, psi=x))


def thm_subuniv_and(pr: Prover, phi: Formula, psi: Formula, eta: Formula) -> Node:
    """|- (psi /\\ eta | phi) <-> ((psi|phi) /\\ (eta|phi))"""
    P = Cond(conj(psi, eta), phi)
    Q = conj(Cond(psi, phi), Cond(eta, phi))
    # Q -> P via b2 on psi -> !eta and b4
    inner = Implies(Not(Not(psi)), Not(eta))  # conj(psi,eta) == Not(inner)
    dirA = pr.classically(
        Sequent((), (Implies(Q, P),)),
        pr.ax("b2", phi=phi, psi=psi, eta=Not(eta)),
        cond_equiv(pr, phi, Implies(psi, Not(eta)), inner),
        neg_commute(pr, phi, inner),
        neg_commute(pr, phi, eta),
    )
    # P -> Q via the two projections, with the empty-condition branch resolved
    p1 = _lift(pr, phi, conj(psi, eta), psi)
    p2 = _lift(pr, phi, conj(psi, eta), eta)
    i1 = Implies(P, Cond(psi, phi))
    i2 = Implies(P, Cond(eta, phi))
    r = pr.rule("andR", (), (
        pr.struct(p1, Sequent((), (i1, Not(phi)))),
        pr.struct(p2, Sequent((), (i2, Not(phi)))),
    ))
    moved = pr.struct(r, Sequent((), (Not(phi), conj(i1, i2))))
    pos = pr.cut(moved, pr.classically(Sequent((conj(i1, i2),), (Implies(P, Q),))), conj(i1, i2))
    neg = pr.classically(Sequent((Not(phi),), (Implies(P, Q),)),
                         thm_empty_universe(pr, phi, psi),
                         thm_empty_universe(pr, phi, eta),
                         thm_empty_universe(pr, phi, conj(psi, eta)))
    dirB = pr.em(pos, neg, Not(phi), Sequent((), (Implies(P, Q),)))
    return pr.classically(Sequent((), (iff(P, Q),)), dirB, dirA)


def thm_subuniv_or(pr: Prover, phi: Formula, psi: Formula, eta: Formula) -> Node:
    """|- (psi \\/ eta | phi) <-> ((psi|phi) \\/ (eta|phi))"""
    P = Cond(disj(psi, eta), phi)
    Q = disj(Cond(psi, phi), Cond(eta, phi))
    nn = conj(Not(psi), Not(eta))
    return pr.classically(
        Sequent((), (iff(P, Q),)),
        cond_equiv(pr, phi, disj(psi, eta), Not(nn)),
        neg_commute(pr, phi, nn),
        thm_subuniv_and(pr, phi, Not(psi), Not(eta)),
        neg_commute(pr, phi, psi),
        neg_commute(pr, phi, eta),
    )


def thm_subuniv_imp(pr: Prover, phi: Formula, psi: Formula, eta: Formula) -> Node:
    """|- (psi -> eta | phi) <-> ((psi|phi) -> (eta|phi))"""
    P = Cond(Implies(psi, eta), phi)
    Q = Implies(Cond(psi, phi), Cond(eta, phi))
    nn = conj(psi, Not(eta))
    return pr.classically(
        Sequent((), (iff(P, Q),)),
        cond_equiv(pr, phi, Implies(psi, eta), Not(nn)),
        neg_commute(pr, phi, nn),
        thm_subuniv_and(pr, phi, psi, Not(eta)),
        neg_commute(pr, phi, eta),
    )


def thm_cond_intro(pr: Prover, phi: Formula, psi: Formula) -> Node:
    """psi |- (psi|phi) : a theorem stays true in every sub-universe."""
    s1 = pr.taut(Sequent((psi,), (Implies(phi, psi),)))
    c1 = pr.cut(s1, pr.ax("b1", phi=phi, psi=psi), Implies(phi, psi))
    s3 = pr.classically(Sequent((Not(phi), psi), (Cond(psi, phi),)),
                        thm_empty_universe(pr, phi, psi))
    return pr.em(c1, s3, Not(phi), Sequent((psi,), (Cond(psi, phi),)))


def thm_top_cond(pr: Prover, phi: Formula) -> Node:
    """|- (T|phi) <-> T"""
    t = pr.lang.top
    intro = thm_cond_intro(pr, phi, t)
    dropped = pr.struct(intro, Sequent((), (Cond(t, phi),)))
    return pr.classically(Sequent((), (iff(Cond(t, phi), t),)), dropped)


def thm_bot_cond(pr: Prover, phi: Formula) -> Node:
    """|- (F|phi) <-> F"""
    t, b = pr.lang.top, pr.lang.bot
    return pr.classically(Sequent((), (iff(Cond(b, phi), b),)),
                          neg_commute(pr, phi, t),
                          thm_top_cond(pr, phi))


def thm_inference(pr: Prover, phi: Formula, psi: Formula) -> Node:
    """|- ((psi|phi) /\\ phi) <-> (phi /\\ psi) : the conditional is an inference."""
    W = Cond(psi, phi)
    dir1 = pr.classically(Sequent((), (Implies(conj(W, phi), conj(phi, psi)),)),
                          pr.ax("b3", phi=phi, psi=psi))
    dir2 = pr.classically(Sequent((), (Implies(conj(phi, psi), conj(W, phi)),)),
                          pr.ax("b3", phi=phi, psi=Not(psi)),
                          pr.ax("b4", phi=phi, psi=psi))
    return pr.classically(Sequent((), (iff(conj(W, phi), conj(phi, psi)),)), dir1, dir2)


def thm_introspection(pr: Prover, phi: Formula) -> Node:
    """|- !phi, (phi|phi) : a non-empty proposition sees itself as true."""
    return pr.cut(pr.taut(Sequent((), (Implies(phi, phi),))),
                  pr.ax("b1", phi=phi, psi=phi), Implies(phi, phi))


def thm_inter_indep(pr: Prover, phi: Formula, psi: Formula) -> Node:
    """|- (psi|phi) >< phi : a proposition is independent of its sub-universe."""
    W = Cond(psi, phi)
    e1 = thm_subuniv_and(pr, phi, W, phi)
    e2 = pr.cut(thm_inference(pr, phi, psi),
                thm_left_equiv_cor(pr, phi, conj(W, phi), conj(phi, psi)),
                iff(conj(W, phi), conj(phi, psi)))
    e3 = thm_subuniv_and(pr, phi, phi, psi)
    d1 = pr.classically(Sequent((Cond(phi, phi),), (indep(W, phi),)), e1, e2, e3)
    d2 = thm_empty_universe(pr, phi, W)
    c = pr.cut(thm_introspection(pr, phi), d1, Cond(phi, phi))
    return pr.em(c, d2, Not(phi), Sequent((), (indep(W, phi),)))


def thm_indep_neg(pr: Prover, phi: Formula, psi: Formula) -> Node:
    """psi >< phi |- !psi >< phi"""
    return pr.classically(Sequent((indep(psi, phi),), (indep(Not(psi), phi),)),
                          neg_commute(pr, phi, psi))


def thm_indep_conj(pr: Prover, phi: Formula, psi: Formula, eta: Formula) -> Node:
    """psi >< phi, eta >< phi |- (psi /\\ eta) >< phi"""
    return pr.classically(
        Sequent((indep(psi, phi), indep(eta, phi)), (indep(conj(psi, eta), phi),)),
        thm_subuniv_and(pr, phi, psi, eta))


def thm_indep_equiv(pr: Prover, phi: Formula, psi: Formula, eta: Formula) -> Node:
    """psi <-> eta, psi >< phi |- eta >< phi"""
    return pr.classically(
        Sequent((iff(psi, eta), indep(psi, phi)), (indep(eta, phi),)),
        thm_left_equiv_cor(pr, phi, psi, eta))


def thm_narcissistic(pr: Prover, phi: Formula) -> Node:
    """phi >< phi |- !phi, phi : only tautologies and contradictions are
    independent of themselves."""
    s = pr.taut(Sequent((indep(phi, phi), Cond(phi, phi)), (phi,)))
    return pr.cut(thm_introspection(pr, phi), s, Cond(phi, phi))


def thm_indep_proof(pr: Prover, phi: Formula, psi: Formula) -> Node:
    """psi >< phi, phi \\/ psi |- phi, psi"""
    b1i = pr.ax("b1", phi=Not(phi), psi=psi)  # phi \/ psi is literally !phi -> psi
    c1 = pr.cut(b1i, pr.taut(Sequent((Not(Not(phi)),), (phi,))), Not(Not(phi)))
    w = x_flip_fwd(pr, phi, psi)
    s = pr.taut(Sequent((indep(psi, Not(phi)), Cond(psi, Not(phi))), (psi,)))
    c2 = pr.cut(w, s, indep(psi, Not(phi)))
    c3 = pr.cut(c1, c2, Cond(psi, Not(phi)))
    return pr.struct(c3, Sequent((indep(psi, phi), disj(phi, psi)), (phi, psi)))


def thm_regularity(pr: Prover, eta: Formula, phi: Formula, psi: Formula) -> Node:
    """phi >< eta, psi >< eta, (phi /\\ eta) -> (psi /\\ eta) |- !eta, phi -> psi"""
    d1 = x_flip_fwd(pr, eta, phi)
    d4 = pr.cut(x_flip_fwd(pr, eta, psi), thm_indep_neg(pr, Not(eta), psi),
                indep(psi, Not(eta)))
    d5 = thm_indep_conj(pr, Not(eta), phi, Not(psi))
    d6 = pr.cut(d1, d5, indep(phi, Not(eta)))
    d7 = pr.cut(d4, d6, indep(Not(psi), Not(eta)))
    d8 = thm_indep_neg(pr, Not(eta), conj(phi, Not(psi)))
    d9 = pr.cut(d7, d8, indep(conj(phi, Not(psi)), Not(eta)))
    equiv = iff(Not(conj(phi, Not(psi))), Implies(phi, psi))
    d11 = thm_indep_equiv(pr, Not(eta), Not(conj(phi, Not(psi))), Implies(phi, psi))
    d12 = pr.cut(pr.taut(Sequent((), (equiv,))), d11, equiv)
    d13 = pr.cut(d9, d12, indep(Not(conj(phi, Not(psi))), Not(eta)))
    big = thm_indep_proof(pr, Not(eta), Implies(phi, psi))
    c1 = pr.cut(d13, big, indep(Implies(phi, psi), Not(eta)))
    d14 = pr.taut(Sequent((Implies(conj(phi, eta), conj(psi, eta)),),
                          (disj(Not(eta), Implies(phi, psi)),)))
    c2 = pr.cut(d14, c1, disj(Not(eta), Implies(phi, psi)))
    return pr.struct(c2, Sequent(
        (indep(phi, eta), indep(psi, eta), Implies(conj(phi, eta), conj(psi, eta))),
        (Not(eta), Implies(phi, psi))))


def _right_equiv_half(pr: Prover, phi: Formula, psi: Formula, eta: Formula) -> Node:
    """psi <-> eta |- !psi, (phi|psi) -> (phi|eta)   (needs b5)"""
    e = iff(psi, eta)
    U, V = Cond(phi, psi), Cond(phi, eta)
    grow = Implies(conj(U, psi), conj(V, psi))
    aP = pr.classically(Sequent((e,), (grow,)),
                        thm_inference(pr, psi, phi),
                        thm_inference(pr, eta, phi))
    b = thm_inter_indep(pr, psi, phi)
    c3 = pr.cut(thm_inter_indep(pr, eta, phi), pr.ax("b5", phi=eta, psi=V), indep(V, eta))
    c4 = thm_indep_equiv(pr, V, eta, psi)
    c5 = pr.cut(c3, c4, indep(eta, V))
    c6 = pr.cut(pr.taut(Sequent((e,), (iff(eta, psi),))), c5, iff(eta, psi))
    c7 = pr.ax("b5", phi=V, psi=psi)
    c = pr.cut(c6, c7, indep(psi, V))
    reg = thm_regularity(pr, psi, U, V)
    k1 = pr.cut(b, reg, indep(U, psi))
    k2 = pr.cut(c, k1, indep(V, psi))
    k3 = pr.cut(aP, k2, grow)
    return pr.struct(k3, Sequent((e,), (Not(psi), Implies(U, V))))


def thm_right_equiv(pr: Prover, phi: Formula, psi: Formula, eta: Formula) -> Node:
    """psi <-> eta |- (phi|psi) <-> (phi|eta)   (needs b5)"""
    e = iff(psi, eta)
    U, V = Cond(phi, psi), Cond(phi, eta)
    tgt = iff(U, V)
    dfwd = _right_equiv_half(pr, phi, psi, eta)
    raw = _right_equiv_half(pr, phi, eta, psi)  # eta<->psi |- !eta, V -> U
    fixed_ant = pr.cut(pr.taut(Sequent((e,), (iff(eta, psi),))), raw, iff(eta, psi))
    dbwd_raw = pr.cut(fixed_ant, pr.taut(Sequent((e, Not(eta)), (Not(psi),))), Not(eta))
    dbwd = pr.struct(dbwd_raw, Sequent((e,), (Not(psi), Implies(V, U))))
    r = pr.rule("andR", (), (
        pr.struct(dfwd, Sequent((e,), (Implies(U, V), Not(psi)))),
        pr.struct(dbwd, Sequent((e,), (Implies(V, U), Not(psi)))),
    ))
    D = pr.struct(r, Sequent((e,), (tgt, Not(psi))))
    e3 = pr.cut(pr.taut(Sequent((e, Not(psi)), (Not(eta),))),
                thm_empty_universe(pr, eta, phi), Not(eta))
    eP = pr.classically(Sequent((Not(psi), e), (tgt,)),
                        e3, thm_empty_universe(pr, psi, phi))
    return pr.em(D, eP, Not(psi), Sequent((e,), (tgt,)))


def thm_reduction(pr: Prover, phi: Formula, psi: Formula) -> Node:
    """|- (phi | (psi|phi)) <-> phi   (needs b5)"""
    b = thm_inter_indep(pr, phi, psi)
    s = pr.ax("b5", phi=phi, psi=Cond(psi, phi))
    return pr.cut(b, s, indep(Cond(psi, phi), phi))


def thm_markov3(pr: Prover, p1: Formula, p2: Formula, p3: Formula) -> Node:
    """(p3|p2) >< p1 |- !(p1 /\\ p2), (p3|p2) <-> (p3 | p1 /\\ p2)   (needs b5)"""
    W = Cond(p3, p2)
    K = conj(p1, p2)
    V = Cond(p3, K)
    m1a = pr.ax("b5", phi=p1, psi=W)
    m1c = pr.cut(thm_inter_indep(pr, p2, p3), pr.ax("b5", phi=p2, psi=W), indep(W, p2))
    m1d = thm_indep_conj(pr, W, p1, p2)
    m1e = pr.cut(m1c, m1d, indep(p2, W))
    m1f = pr.cut(m1a, m1e, indep(p1, W))
    m1 = pr.cut(m1f, pr.ax("b5", phi=W, psi=K), indep(K, W))  # W><p1 |- W><K
    h1 = thm_inference(pr, p2, p3)
    h2 = thm_inference(pr, K, p3)
    impA = Implies(conj(W, K), conj(V, K))
    impB = Implies(conj(V, K), conj(W, K))
    mA = pr.classically(Sequent((), (impA,)), h1, h2)
    mB = pr.classically(Sequent((), (impB,)), h1, h2)
    nineK = thm_inter_indep(pr, K, p3)
    regA = thm_regularity(pr, K, W, V)
    kA = pr.cut(mA, pr.cut(m1, pr.cut(nineK, regA, indep(V, K)), indep(W, K)), impA)
    regB = thm_regularity(pr, K, V, W)
    kB = pr.cut(mB, pr.cut(m1, pr.cut(nineK, regB, indep(V, K)), indep(W, K)), impB)
    ant = indep(W, p1)
    r = pr.rule("andR", (), (
        pr.struct(kA, Sequent((ant,), (Implies(W, V), Not(K)))),
        pr.struct(kB, Sequent((ant,), (Implies(V, W), Not(K)))),
    ))
    return pr.struct(r, Sequent((ant,), (Not(K), iff(W, V))))


def thm_link(pr: Prover, phi: Formula, psi: Formula, eta: Formula) -> Node:
    """|- (((eta|psi)|phi) /\\ (phi/\\psi)) <-> ((eta|phi/\\psi) /\\ (phi/\\psi))"""
    K = conj(phi, psi)
    A = Cond(Cond(eta, psi), phi)
    V = Cond(eta, K)
    tgt = iff(conj(A, K), conj(V, K))
    return pr.classically(Sequent((), (tgt,)),
                          thm_inference(pr, phi, Cond(eta, psi)),
                          thm_inference(pr, psi, eta),
                          thm_inference(pr, K, eta))


def _star_half(pr: Prover, phi: Formula, psi: Formula) -> Node:
    """|- !(psi /\\ phi), phi -> psi, psi >< phi under the quarantined collapse
    axiom."""
    W = Cond(psi, phi)
    kappa = conj(psi, phi)
    lam = conj(Not(psi), phi)
    A = Cond(W, psi)
    B = Cond(W, Not(psi))
    Pk = Cond(psi, kappa)
    Pl = Cond(psi, lam)
    s1 = pr.classically(
        Sequent((), (iff(W, disj(conj(A, psi), conj(B, Not(psi)))),)),
        thm_inference(pr, psi, W),
        thm_inference(pr, Not(psi), W))
    s2 = pr.ax("star", eta=psi, psi=phi, phi=psi)       # |- A <-> (psi | psi /\ phi)
    s3 = pr.ax("star", eta=psi, psi=phi, phi=Not(psi))  # |- B <-> (psi | !psi /\ phi)
    dP = pr.classically(Sequent((Cond(kappa, kappa),), (iff(Pk, pr.lang.top),)),
                        thm_subuniv_and(pr, kappa, psi, kappa),
                        cond_equiv(pr, kappa, conj(psi, kappa), kappa))
    d = pr.cut(thm_introspection(pr, kappa), dP, Cond(kappa, kappa))
    cP = pr.classically(Sequent((Cond(lam, lam),), (iff(Pl, pr.lang.bot),)),
                        thm_subuniv_and(pr, lam, psi, lam),
                        cond_equiv(pr, lam, conj(psi, lam), pr.lang.bot),
                        thm_bot_cond(pr, lam))
    c = pr.cut(thm_introspection(pr, lam), cP, Cond(lam, lam))
    t0 = pr.classically(Sequent((iff(Pk, pr.lang.top), iff(Pl, pr.lang.bot)),
                                (indep(psi, phi),)),
                        s1, s2, s3)
    t1 = pr.cut(d, t0, iff(Pk, pr.lang.top))
    t2 = pr.cut(c, t1, iff(Pl, pr.lang.bot))
    # t2: |- !lam, !kappa, psi><phi  (antecedent empty)
    t3 = pr.cut(t2, pr.taut(Sequent((Not(lam),), (Implies(phi, psi),))), Not(lam))
    return pr.struct(t3, Sequent((), (Not(kappa), Implies(phi, psi), indep(psi, phi))))


def thm_star_triviality(pr: Prover, phi: Formula, psi: Formula) -> Node:
    """|- !(phi /\\ psi), phi <-> psi, phi >< psi : assuming the collapse axiom,
    overlapping non-equivalent propositions come out independent."""
    K = conj(phi, psi)
    h1 = _star_half(pr, phi, psi)   # |- !(psi/\phi), phi -> psi, psi><phi
    h1a = pr.cut(h1, pr.ax("b5", phi=phi, psi=psi), indep(psi, phi))
    h1c = pr.cut(h1a, pr.taut(Sequent((Not(conj(psi, phi)),), (Not(K),))), Not(conj(psi, phi)))
    H1 = pr.struct(h1c, Sequent((), (Implies(phi, psi), Not(K), indep(phi, psi))))
    h2 = _star_half(pr, psi, phi)   # |- !(phi/\psi), psi -> phi, phi><psi
    H2 = pr.struct(h2, Sequent((), (Implies(psi, phi), Not(K), indep(phi, psi))))
    r = pr.rule("andR", (), (H1, H2))
    return pr.struct(r, Sequent((), (Not(K), iff(phi, psi), indep(phi, psi))))


# -- VCU counterparts --------------------------------------------------------


def _self_defeat(pr: Prover, phi: Formula, tgt: Formula, helper: Node) -> Node:
    """|- tgt, an implication from (phi|!phi), by cases on !phi: where !phi
    is not empty, (phi /\\ !phi | !phi) is the empty conditional, so
    (phi|!phi) is F; where it is, tgt follows from !!phi and `helper`."""
    base = Not(phi)
    D = pr.classically(Sequent((Cond(base, base),), (tgt,)),
                       thm_subuniv_and(pr, base, phi, base),
                       cond_equiv(pr, base, conj(phi, base), pr.lang.bot),
                       thm_bot_cond(pr, base))
    v1 = pr.cut(thm_introspection(pr, base), D, Cond(base, base))
    other = pr.classically(Sequent((Not(base),), (tgt,)), helper)
    return pr.em(v1, other, Not(base), Sequent((), (tgt,)))


def thm_vcu_ax2(pr: Prover, phi: Formula, psi: Formula) -> Node:
    """|- (phi|!phi) -> (phi|psi)"""
    tgt = Implies(Cond(phi, Not(phi)), Cond(phi, psi))
    c1 = pr.cut(pr.taut(Sequent((Not(Not(phi)),), (phi,))), thm_cond_intro(pr, psi, phi), phi)
    return _self_defeat(pr, phi, tgt, c1)


def thm_vcu_ax5(pr: Prover, phi: Formula, psi: Formula) -> Node:
    """|- (phi /\\ psi) -> (psi|phi)"""
    return pr.classically(
        Sequent((), (Implies(conj(phi, psi), Cond(psi, phi)),)),
        thm_inference(pr, phi, psi))


def thm_vcu_ax6(pr: Prover, phi: Formula) -> Node:
    """|- (phi|!phi) -> ((phi|!phi) | !(phi|!phi))"""
    X = Cond(phi, Not(phi))
    tgt = Implies(X, Cond(X, Not(X)))
    q1 = pr.classically(Sequent((Not(Not(phi)),), (X,)),
                        thm_empty_universe(pr, Not(phi), phi))
    q2 = pr.cut(q1, thm_cond_intro(pr, Not(X), X), X)
    return _self_defeat(pr, phi, tgt, q2)


def thm_vcu_cr(pr: Prover, phi: Formula, xi1: Formula, xi2: Formula, psi0: Formula) -> Node:
    """|- ((xi1|phi) /\\ (xi2|phi)) -> (psi0|phi) from the tautology
    (xi1 /\\ xi2) -> psi0 (counterfactual-rule counterpart, n = 2)."""
    chi = conj(xi1, xi2)
    premise = pr.taut(Sequent((), (Implies(chi, psi0),)))
    tgt = Implies(Cond(chi, phi), Cond(psi0, phi))
    empty = pr.classically(Sequent((Not(phi),), (tgt,)),
                           thm_empty_universe(pr, phi, chi),
                           thm_empty_universe(pr, phi, psi0),
                           premise)
    lift = pr.em(_lift(pr, phi, chi, psi0, (), premise), empty, Not(phi), Sequent((), (tgt,)))
    return pr.classically(
        Sequent((), (Implies(conj(Cond(xi1, phi), Cond(xi2, phi)), Cond(psi0, phi)),)),
        lift, thm_subuniv_and(pr, phi, xi1, xi2))


# ---------------------------------------------------------------------------
# The library
# ---------------------------------------------------------------------------

def library_language() -> Language:
    return Language(("x", "y", "z"))


def _entry(tid: str, title: str, pr: Prover, node: Node, flags: Iterable[str]) -> TheoremEntry:
    """The entry's group: its tid if that is a group, else its parent."""
    group = tid if tid in GROUP_ANNOTATIONS else tid.rpartition(".")[0]
    return TheoremEntry(tid, title, pr.concl(node),
                        Derivation(node, pr.system, pr.allow_star),
                        frozenset(flags), group)


def theorem_library(lang: Language | None = None) -> list[TheoremEntry]:
    """All library derivations over the default three-atom language; their
    classical leaves are unchecked until `check_derivation` (see `Prover`)."""
    lang = lang or library_language()
    x, y, z = (Atom(n) for n in lang.theta[:3])
    weak = Prover(lang, System.DBL_STAR)
    full = Prover(lang, System.DBL)
    quarantined = Prover(lang, System.DBL, allow_star=True)
    WA = "b5.weak.A"

    return [
        _entry("3.1.1", "full universe", weak, thm_full_universe(weak, x, y), ()),
        _entry("3.1.1.top", "conditioning on T is identity", weak, thm_cond_on_top(weak, y), ()),
        _entry("3.1.2.a", "b5 implies the forward weak axiom", full, x_flip_fwd(full, x, y), ("b5",)),
        _entry("3.1.2.b", "b5 implies the backward weak axiom", full, x_flip_bwd(full, x, y), ("b5",)),
        _entry("3.1.3", "empty universe", weak, thm_empty_universe(weak, x, y), (WA,)),
        _entry("3.1.3.bot", "conditioning on F is identity", weak, thm_cond_on_bot(weak, y), (WA,)),
        _entry("3.1.4", "left equivalences", weak, thm_left_equiv(weak, x, y, z), ()),
        _entry("3.1.4.cor", "left equivalences, total form", weak,
               thm_left_equiv_cor(weak, x, y, z), (WA,)),
        _entry("3.1.5.neg", "sub-universe negation", weak, neg_commute(weak, x, y), ()),
        _entry("3.1.5.and", "sub-universe conjunction", weak, thm_subuniv_and(weak, x, y, z), (WA,)),
        _entry("3.1.5.or", "sub-universe disjunction", weak, thm_subuniv_or(weak, x, y, z), (WA,)),
        _entry("3.1.5.imp", "sub-universe implication", weak, thm_subuniv_imp(weak, x, y, z), (WA,)),
        _entry("3.1.6", "theorems enter sub-universes", weak, thm_cond_intro(weak, x, y), (WA,)),
        _entry("3.1.6.top", "(T|x) is T", weak, thm_top_cond(weak, x), (WA,)),
        _entry("3.1.6.bot", "(F|x) is F", weak, thm_bot_cond(weak, x), (WA,)),
        _entry("3.1.7", "inference property", weak, thm_inference(weak, x, y), ()),
        _entry("3.1.8", "introspection", weak, thm_introspection(weak, x), ()),
        _entry("3.1.9", "inter-independence", weak, thm_inter_indep(weak, x, y), (WA,)),
        _entry("3.1.10.a", "independence survives negation", weak, thm_indep_neg(weak, x, y), ()),
        _entry("3.1.10.b", "independence survives conjunction", weak,
               thm_indep_conj(weak, x, y, z), (WA,)),
        _entry("3.1.10.c", "independence respects equivalence", weak,
               thm_indep_equiv(weak, x, y, z), (WA,)),
        _entry("3.1.11", "narcissistic independence", weak, thm_narcissistic(weak, x), ()),
        _entry("3.1.12", "independence and proof", weak, thm_indep_proof(weak, x, y), (WA,)),
        _entry("3.1.13", "independence and regularity", weak, thm_regularity(weak, z, x, y), (WA,)),
        _entry("3.1.14", "right equivalences", full, thm_right_equiv(full, x, y, z), ("b5",)),
        _entry("3.1.15", "reduction rule", full, thm_reduction(full, x, y), ("b5",)),
        _entry("3.1.16", "Markov property, chain length 3", full, thm_markov3(full, x, y, z), ("b5",)),
        _entry("3.1.17", "iterated conditional meets its condition", weak, thm_link(weak, x, y, z), ()),
        _entry("3.1.17.star", "collapse axiom forces triviality", quarantined,
               thm_star_triviality(quarantined, x, y), ("b5", "star")),
        _entry("vcu.ax2", "VCU Ax.2 counterpart", weak, thm_vcu_ax2(weak, x, y), (WA,)),
        _entry("vcu.ax4", "VCU Ax.4 is an axiom here", weak, weak.ax("b3", phi=x, psi=y), ()),
        _entry("vcu.ax5", "VCU Ax.5 counterpart", weak, thm_vcu_ax5(weak, x, y), ()),
        _entry("vcu.ax6", "VCU Ax.6 counterpart", weak, thm_vcu_ax6(weak, x), (WA,)),
        _entry("vcu.cr", "VCU CR counterpart, n=2", weak, thm_vcu_cr(weak, z, x, y, disj(x, y)), (WA,)),
    ]


def export_library(directory) -> list[str]:
    """Write every library derivation to `directory` in the line-oriented
    file format; returns the file names.  The shipped files under
    `proofs_dir()` are exactly this output; regenerate them with

        PYTHONPATH=src python3 -c "from dblogic.library import export_library, proofs_dir; export_library(proofs_dir())"
    """
    import os

    from .proof import format_derivation

    lang = library_language()
    os.makedirs(directory, exist_ok=True)
    names = []
    for entry in theorem_library(lang):
        fname = entry.tid.replace(".", "_") + ".dseq"
        text = (f"# {entry.tid}: {entry.title}\n"
                f"# concludes: {lang.format_sequent(entry.statement, style='sugared')}\n"
                + format_derivation(entry.derivation, lang, label=entry.tid))
        with open(os.path.join(directory, fname), "w") as fh:
            fh.write(text)
        names.append(fname)
    return names


def proofs_dir() -> str:
    """Location of the shipped derivation files."""
    import os

    return os.path.join(os.path.dirname(__file__), "proofs")
