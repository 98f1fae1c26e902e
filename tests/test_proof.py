import copy
import dataclasses
import operator
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dblogic import proof
from dblogic.library import Prover, library_language, theorem_library
from dblogic.proof import (
    AXIOM_SCHEMAS, AxiomNode, CutNode, Derivation, DerivationError, RuleNode,
    StructNode, System, TautNode, apply_cut, apply_derived_rule, apply_struct,
    check_derivation, classical_leaf_check, format_derivation,
    instantiate_axiom, is_tautology, parse_derivation_file,
)
from dblogic.syntax import (
    Atom, Cond, Implies, Language, Meta, Not, Sequent, disj, indep, metas,
)

import leaf_reference as ref
import substitute_reference

L = Language(["a", "b", "c"])
A, B, C = Atom("a"), Atom("b"), Atom("c")


def seq(text):
    return L.parse_sequent(text)


# -- axiom instantiation -------------------------------------------------------


def test_instantiate_b1():
    s = instantiate_axiom("b1", {"phi": A, "psi": B}, System.DBL)
    assert s == seq("a -> b |- !a, (b | a)")


def test_instantiate_b5_desugared():
    s = instantiate_axiom("b5", {"phi": A, "psi": B}, System.DBL)
    assert s == Sequent((indep(B, A),), (indep(A, B),))
    assert s == seq("b >< a |- a >< b")


def test_b5_not_admissible_in_dbl_star():
    with pytest.raises(DerivationError):
        instantiate_axiom("b5", {"phi": A, "psi": B}, System.DBL_STAR)


def test_weak_axioms_not_admissible_in_dbl():
    with pytest.raises(DerivationError):
        instantiate_axiom("b5.weak.A.1", {"phi": A, "psi": B}, System.DBL)


def test_star_requires_quarantine():
    with pytest.raises(DerivationError):
        instantiate_axiom("star", {"phi": A, "psi": B, "eta": C}, System.DBL)
    s = instantiate_axiom("star", {"phi": A, "psi": B, "eta": C}, System.DBL, allow_star=True)
    assert s.antecedent == ()


def test_unbound_metavariable():
    with pytest.raises(Exception):
        instantiate_axiom("b1", {"phi": A}, System.DBL)


_BOUND = st.sampled_from([A, B, Not(A), L.top, L.parse("(b | a)"), L.parse("a -> (b | a)"),
                          Meta("psi"), Cond(Meta("phi"), B)])


@st.composite
def _axiom_bindings(draw):
    """A schema id and a binding of its metavariables, up to two of them
    dropped and up to two names added; a value may hold a metavariable or
    repeat another value."""
    sid = draw(st.sampled_from(sorted(AXIOM_SCHEMAS)))
    s = AXIOM_SCHEMAS[sid]
    names = sorted(frozenset().union(*map(metas, s.antecedent + s.succedent)))
    dropped = draw(st.sets(st.sampled_from(names), max_size=2))
    added = draw(st.sets(st.sampled_from(["phi", "psi", "eta", "chi"]), max_size=2))
    return sid, {n: draw(_BOUND) for n in sorted((set(names) - dropped) | added)}


def _instantiated(instantiate, sid, binding, system, allow_star):
    try:
        return instantiate(sid, binding, system, allow_star)
    except DerivationError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(_axiom_bindings())
def test_instantiate_axiom_agrees_with_the_recursive_reference(call):
    # the same formulas by identity, or the same error, under every system
    sid, binding = call
    for system in System:
        for allow_star in (False, True):
            want = _instantiated(substitute_reference.instantiate_axiom, sid, binding,
                                 system, allow_star)
            got = _instantiated(instantiate_axiom, sid, binding, system, allow_star)
            if isinstance(want, str):
                assert got == want
            else:
                for side in ("antecedent", "succedent"):
                    g, w = getattr(got, side), getattr(want, side)
                    assert len(g) == len(w) and all(map(operator.is_, g, w))


# -- CUT -----------------------------------------------------------------------


def test_cut_removes_formula_once_each_side():
    left = seq("|- a -> b")
    right = seq("a -> b |- !a, (b | a)")
    out = apply_cut(left, right, L.parse("a -> b"))
    assert out == seq("|- !a, (b | a)")


def test_cut_minimal():
    assert apply_cut(seq("|- a"), seq("a |- b"), A) == seq("|- b")


def test_cut_position_violation():
    with pytest.raises(DerivationError):
        apply_cut(seq("|- a"), seq("c |- b"), A)
    with pytest.raises(DerivationError):
        apply_cut(seq("|- a, b"), seq("a |- c"), A)  # a not last on the left


# -- STRUCT --------------------------------------------------------------------


def test_struct_drops_top_and_bot():
    assert apply_struct(seq("T |- a, F"), seq("|- a"), L) == seq("|- a")


def test_struct_weaken_contract_permute():
    assert apply_struct(seq("a |- b"), seq("a, c |- b, b"), L) == seq("a, c |- b, b")


def test_struct_cannot_drop_plain_antecedent():
    with pytest.raises(DerivationError):
        apply_struct(seq("a |- b"), seq("|- b"), L)


def _rebuilt(f):
    """`f` rebuilt node by node with fresh constructor calls, which
    hash-consing answers with the nodes of `f` themselves."""
    if isinstance(f, Atom):
        return Atom(f.name)
    if isinstance(f, Not):
        return Not(_rebuilt(f.body))
    if isinstance(f, Implies):
        return Implies(_rebuilt(f.left), _rebuilt(f.right))
    return Cond(_rebuilt(f.then), _rebuilt(f.given))


def _struct_reference(premise, target):
    """Set inclusion as frozensets, {T} removable on the left, {F} on the right."""
    return (frozenset(premise.antecedent) <= frozenset(target.antecedent) | {L.top}
            and frozenset(premise.succedent) <= frozenset(target.succedent) | {L.bot})


_STRUCT_POOL = [A, B, Not(A), L.top, L.bot, L.parse("(b | a)"), L.parse("(a | b)"),
                L.parse("a -> b"), L.parse("!(b | a)")]
_side = st.lists(st.tuples(st.sampled_from(_STRUCT_POOL), st.booleans())
                 .map(lambda t: _rebuilt(t[0]) if t[1] else t[0]), max_size=4).map(tuple)


@settings(max_examples=400, deadline=None)
@given(_side, _side, _side, _side)
def test_struct_agrees_with_frozenset_reference(pa, ps, ta, ts):
    # `apply_struct` tests membership by `==`; equal formulas rebuilt with
    # fresh constructors must count as members, and T/F stay removable
    premise, target = Sequent(pa, ps), Sequent(ta, ts)
    try:
        accepted = apply_struct(premise, target, L) is target
    except DerivationError:
        accepted = False
    assert accepted == _struct_reference(premise, target)


# -- classical leaf -------------------------------------------------------------


def test_leaf_accepts_classical_tautology_sequent():
    assert classical_leaf_check(seq("x -> y |- z -> (x -> y)".replace("x", "a").replace("y", "b").replace("z", "c")))


def test_leaf_abstracts_conditionals():
    assert classical_leaf_check(seq("|- ((b | a)) \\/ !((b | a))"))
    # distinct conditionals are distinct placeholder atoms
    assert not classical_leaf_check(seq("|- ((b | a)) \\/ !((b | c))"))


def test_leaf_rejects_non_tautology():
    assert not classical_leaf_check(seq("a |- b"))


def test_leaf_rejects_multi_succedent():
    with pytest.raises(DerivationError):
        classical_leaf_check(seq("|- a, !a"))


def test_leaf_empty_succedent():
    assert classical_leaf_check(seq("a, !a |-"))
    assert not classical_leaf_check(seq("a |-"))


_LEAF_NAMES = [f"p{i}" for i in range(22)]


@st.composite
def _leaf_sequents(draw):
    """A sequent over a random formula DAG: each new node takes earlier
    nodes as children, so subterms are shared and conditionals nest and
    repeat; a copy by `dataclasses.replace` is the earlier node itself, and
    a fold over every earlier node makes tables of any width."""
    pool = [Atom(_LEAF_NAMES[0])]

    def pick():
        return pool[-1 - draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.sampled_from([0, 4, 16, 64]))):
        kind = draw(st.sampled_from("aaaaaannniiiicccccccrrMmf"))
        if kind == "a":
            pool.append(Atom(_LEAF_NAMES[len(pool) % len(_LEAF_NAMES)]))
        elif kind == "M":
            pool.append(Cond(Meta("phi"), pick()))
        elif kind == "m":
            pool.append(Meta("phi"))
        elif kind == "n":
            pool.append(Not(pick()))
        elif kind == "i":
            pool.append(Implies(pick(), pick()))
        elif kind == "c":
            pool.append(Cond(pick(), pick()))
        elif kind == "r":
            pool.append(dataclasses.replace(pick()))
        else:
            pool.append(_any_of(pool))
    ant = tuple(pick() for _ in range(draw(st.integers(0, 3))))
    if draw(st.integers(0, 3)) == 0:
        ant += (_any_of(pool),)
    suc = tuple(pick() for _ in range(draw(st.integers(0, 2))))
    if ant and draw(st.booleans()):
        suc = (dataclasses.replace(draw(st.sampled_from(ant))),) + suc[1:]
    return Sequent(ant, suc)


def _leaf_outcome(check, target):
    try:
        return check(target)
    except DerivationError as e:
        return str(e)


@settings(max_examples=400, deadline=None)
@given(_leaf_sequents())
def test_leaf_check_matches_reference(target):
    assert _leaf_outcome(classical_leaf_check, target) == \
        _leaf_outcome(ref.classical_leaf_check, target)


def test_tautology_keeps_iff_sharing():
    # `<->` shares both sides by reference; a copy that unshares them costs
    # 2**depth nodes.  a <-> ... <-> a with k copies of a is a tautology
    # exactly when k is even.
    def nested(depth):
        text = "a"
        for _ in range(depth):
            text = f"a <-> ({text})"
        return L.parse(text)

    t0 = time.perf_counter()
    assert not is_tautology(nested(24))
    assert is_tautology(nested(23))
    assert time.perf_counter() - t0 < 0.5


def _distinct_conditionals(n, depth=60):
    """n pairwise distinct conditionals that agree on a chain of `depth`
    negations and differ only below it."""
    out = []
    for k in range(n):
        code = A
        for bit in range(8):
            code = Implies(B if (k >> bit) & 1 else A, code)
        for _ in range(depth):
            code = Not(code)
        out.append(Cond(code, C))
    return out


def _any_of(fs):
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = disj(f, out)
    return out


def test_truth_table_limit_counts_atoms_and_conditionals():
    # the atoms inside a conditional are hidden by its placeholder
    conds = _distinct_conditionals(16)
    wide = _any_of([A, B, C] + conds[:15])  # 18 variables are decided
    assert classical_leaf_check(Sequent((), (Implies(wide, wide),)))
    assert not classical_leaf_check(Sequent((wide,), (conds[0],)))
    with pytest.raises(DerivationError, match=r"too many variables for a truth table \(19\)"):
        classical_leaf_check(Sequent((), (_any_of([A, B, C] + conds),)))


def test_wide_leaf_is_rejected_after_a_bounded_scan():
    # the scan stops once the table is too wide, so 200 conditionals cost
    # no more than 19
    f = _any_of(_distinct_conditionals(200))
    t0 = time.perf_counter()
    with pytest.raises(DerivationError, match="too many variables"):
        check_derivation(Derivation(TautNode(Sequent((), (f,))), System.DBL), L)
    assert time.perf_counter() - t0 < 0.1


def test_deep_iff_under_a_conditional_is_fast():
    # one placeholder for the whole conditional: nothing walks its 2**24 paths
    text = "b"
    for _ in range(24):
        text = f"a <-> ({text})"
    f = L.parse(f"(({text}) | b) -> b")
    t0 = time.perf_counter()
    assert not is_tautology(f)
    assert time.perf_counter() - t0 < 0.5


def _row_value(g, env):
    """Independent per-row truth value of a classical formula."""
    if isinstance(g, Atom):
        return env[g.name]
    if isinstance(g, Not):
        return not _row_value(g.body, env)
    return (not _row_value(g.left, env)) or _row_value(g.right, env)


def _random_classical(rng, names, d):
    if d == 0 or rng.random() < 0.3:
        return Atom(rng.choice(names))
    if rng.random() < 0.5:
        return Not(_random_classical(rng, names, d - 1))
    return Implies(_random_classical(rng, names, d - 1), _random_classical(rng, names, d - 1))


def test_leaf_agrees_with_truth_tables_small():
    # all abstracted formulas over <= 4 placeholder atoms: compare against an
    # independent evaluator on a pseudorandom formula sample
    rng = random.Random(7)
    names = ["p", "q", "r", "s"]

    def brute_taut(f):
        for m in range(16):
            env = {n: bool((m >> i) & 1) for i, n in enumerate(names)}
            if not _row_value(f, env):
                return False
        return True

    from dblogic.proof import is_tautology
    for _ in range(200):
        f = _random_classical(rng, names, 4)
        assert is_tautology(f) == brute_taut(f)


def test_one_evaluator_agrees_with_row_reference():
    # the shared evaluator behind taut leaves, classical probabilities and
    # stage-0 assignments gives each formula its set of true rows
    from dblogic.construction import canonical_assignment, new_stage0
    from dblogic.model import ConditionalAssignment
    from dblogic.probability import ClassicalProbability
    from dblogic.proof import is_tautology
    rng = random.Random(29)
    names = ["a", "b", "c"]
    uniform = ClassicalProbability.uniform(names)
    s0 = new_stage0(names)
    asg = ConditionalAssignment(s0, canonical_assignment(s0))
    for _ in range(200):
        f = _random_classical(rng, names, 5)
        rows = sum(1 << r for r in range(8)
                   if _row_value(f, {n: bool((r >> i) & 1) for i, n in enumerate(names)}))
        assert is_tautology(f) == (rows == 0xFF)
        assert uniform.of(f) == Fraction(bin(rows).count("1"), 8)
        assert asg.value(f) == rows


# -- derived rules ---------------------------------------------------------------


def test_negL():
    assert apply_derived_rule("negL", [seq("c |- a, b")]) == seq("c, !a |- b")


def test_andR():
    assert apply_derived_rule("andR", [seq("|- a"), seq("|- b")]) == seq("|- a /\\ b")


def test_rejected_rules():
    for name in ("orL", "impR", "negR"):
        with pytest.raises(DerivationError):
            apply_derived_rule(name, [seq("a |- b")])


def test_derived_rule_expansion_matches_macro():
    # premises are fabricated via identity leaves + STRUCT weakening, then the
    # macro node is checked: its expansion must conclude exactly the macro's
    # conclusion (100 pseudorandom instances per rule)
    rng = random.Random(13)
    pool = [A, B, C, Not(A), L.parse("a -> b"), L.parse("(b | a)"), L.parse("b /\\ c")]

    def rand_ctx():
        return tuple(rng.choice(pool) for _ in range(rng.randrange(0, 3)))

    def premise_with_succ_first(phi):
        ant = rand_ctx() + (phi,)
        suc = (phi,) + rand_ctx()
        return StructNode(TautNode(Sequent((phi,), (phi,))), Sequent(ant, suc))

    def premise_with_ant_last(phi):
        ant = rand_ctx() + (phi,)
        suc = (phi,) + rand_ctx()
        node = StructNode(TautNode(Sequent((phi,), (phi,))), Sequent(ant, suc))
        return node

    for _ in range(100):
        phi, psi = rng.choice(pool), rng.choice(pool)
        for name in ("I", "andL", "orR", "andR", "impL", "negL"):
            if name == "I":
                node = RuleNode("I", (phi,), ())
            elif name == "andL":
                node = RuleNode("andL", (psi,), (premise_with_ant_last(phi),))
            elif name == "orR":
                node = RuleNode("orR", (psi,), (premise_with_succ_first(phi),))
            elif name == "andR":
                node = RuleNode("andR", (), (premise_with_succ_first(phi), premise_with_succ_first(psi)))
            elif name == "impL":
                node = RuleNode("impL", (), (premise_with_succ_first(phi), premise_with_ant_last(psi)))
            else:
                node = RuleNode("negL", (), (premise_with_succ_first(phi),))
            d = Derivation(node, System.DBL_STAR)
            res = check_derivation(d, L)
            prem_concls = [check_derivation(Derivation(p, System.DBL_STAR), L).conclusion
                           for p in node.premises]
            assert res.conclusion == apply_derived_rule(name, prem_concls, node.args)


# -- whole-derivation checking ----------------------------------------------------


def b1_via_cut():
    # |- !a, (b|a)  from  |- a -> b  (taut is not a tautology here, use a->a)
    taut = TautNode(seq("|- a -> a"))
    ax = AxiomNode.make("b1", phi=A, psi=A)
    return CutNode(taut, ax, L.parse("a -> a"))


def test_check_small_derivation():
    d = Derivation(b1_via_cut(), System.DBL_STAR)
    res = check_derivation(d, L)
    assert res.conclusion == seq("|- !a, (a | a)")
    assert "b1" in res.axioms_used
    assert res.flags == frozenset()


def test_nested_macros_check_despite_transient_expansions():
    # each andR expansion is a transient tree; a memo keyed on the ids of
    # freed nodes would hand a stale conclusion to the next expansion
    leaves = [A, B, C, Not(A), Not(B), Not(C), L.parse("a -> b"), L.parse("b -> c")]
    node = RuleNode("I", (leaves[0],), ())
    for phi in leaves[1:]:
        node = RuleNode("andR", (), (node, RuleNode("I", (phi,), ())))
    for _ in range(50):
        res = check_derivation(Derivation(node, System.DBL_STAR), L)
        assert res.conclusion.antecedent == tuple(leaves)


def test_check_reports_failing_node_path():
    bad = StructNode(TautNode(seq("|- a -> a")), seq("|- b"))
    with pytest.raises(DerivationError) as e:
        check_derivation(Derivation(bad, System.DBL), L)
    assert "root" in str(e.value)


def test_axiom_filtering_by_system():
    node = AxiomNode.make("b5", phi=A, psi=B)
    check_derivation(Derivation(node, System.DBL), L)
    with pytest.raises(DerivationError):
        check_derivation(Derivation(node, System.DBL_STAR), L)
    with pytest.raises(DerivationError):
        check_derivation(Derivation(AxiomNode.make("b1", phi=A, psi=B), System.CLASSICAL), L)


def test_file_round_trip():
    d = Derivation(b1_via_cut(), System.DBL_STAR)
    text = format_derivation(d, L, label="intro")
    lang2, parsed = parse_derivation_file(text)
    assert lang2.theta == L.theta
    res = check_derivation(parsed["intro"], L)
    assert res.conclusion == seq("|- !a, (a | a)")


def test_deep_struct_chain_round_trips():
    # 1 500 nodes, each the premise of the next: checked and printed on
    # explicit stacks, and read back to the same derivation
    text = "theta: x, y\nsystem: dbl*\nn0: I[x]\n" + "".join(
        f"n{i}: struct[x |- x] n{i - 1}\n" for i in range(1, 1500)) + "qed: n1499 t\n"
    lang, parsed = parse_derivation_file(text)
    res = check_derivation(parsed["t"], lang)
    assert res.conclusion == lang.parse_sequent("x |- x")
    assert res.nodes == 1501                    # the chain and the I leaf's expansion
    again = format_derivation(parsed["t"], lang, label="t")
    assert again == "theta: x, y\nsystem: dbl*\nn1: I[x]\n" + "".join(
        f"n{i + 1}: struct[x |- x] n{i}\n" for i in range(1, 1500)) + "qed: n1500 t\n"
    lang2, reparsed = parse_derivation_file(again)
    assert reparsed["t"].root is parsed["t"].root
    root = parsed["t"].root
    assert repr(root).count("StructNode(premise=") == 1499
    assert pickle.loads(pickle.dumps(root)) is root
    assert check_derivation(reparsed["t"], lang2).conclusion == res.conclusion


def test_derivation_nodes_are_interned():
    # equal nodes are one object however they were built, so a node memo is
    # keyed by the node and equal subderivations are checked once
    leaf = TautNode(seq("a |- a"))
    assert TautNode(seq("a |- a")) is leaf
    assert AxiomNode.make("b3", phi=A, psi=B) is AxiomNode("b3", (("phi", A), ("psi", B)))
    rule = RuleNode("orR", (B,), (AxiomNode.make("b3", phi=A, psi=B),))
    for node in (leaf, CutNode(leaf, leaf, A), rule):
        assert copy.copy(node) is node and copy.deepcopy(node) is node
        assert not hasattr(node, "__dict__")   # fields in slots only
        assert dataclasses.replace(node) is node and pickle.loads(pickle.dumps(node)) is node
    # the text of the dataclass repr, tuples of nodes and bindings included
    assert repr(rule) == (
        "RuleNode(name='orR', args=(Atom(name='b'),), premises=(AxiomNode(schema_id='b3', "
        "binding=(('phi', Atom(name='a')), ('psi', Atom(name='b')))),))")
    for cls in (AxiomNode, TautNode, CutNode, StructNode, RuleNode):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    # a macro's expansion, built twice, is one object
    premise = TautNode(seq("|- a"))
    one = proof._derive_rule("orR", [premise], [seq("|- a")], [B])[1]
    assert proof._derive_rule("orR", [premise], [seq("|- a")], [B])[1] is one
    # two leaves built apart are one node, checked once
    twice = CutNode(TautNode(seq("|- a -> a")), StructNode(TautNode(seq("|- a -> a")),
                                                            seq("a -> a |- a -> a")),
                    L.parse("a -> a"))
    assert twice.left is twice.right.premise
    assert check_derivation(Derivation(twice, System.DBL_STAR), L).nodes == 3


def test_file_rejects_unknown_node():
    with pytest.raises(ValueError):
        parse_derivation_file("theta: a\nn1: frobnicate[x]\nqed: n1\n")


def _taut_nodes_reached(root, expansions):
    """The distinct `TautNode`s reachable from `root` and from the macro
    expansions the checker made."""
    seen, leaves, stack = set(), 0, [root, *expansions]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, TautNode):
            leaves += 1
        elif isinstance(node, CutNode):
            stack += [node.left, node.right]
        elif isinstance(node, StructNode):
            stack.append(node.premise)
        elif isinstance(node, RuleNode):
            stack += node.premises
    return leaves


def test_each_library_leaf_is_checked_once(monkeypatch):
    calls, tables, expansions = [], [], []
    leaf_check, evaluate, derive = proof.classical_leaf_check, proof.evaluate, proof._derive_rule
    monkeypatch.setattr(proof, "classical_leaf_check",
                        lambda t: calls.append(t) or leaf_check(t))
    # every truth table is evaluated through `proof.evaluate`, whatever name
    # a caller imported the leaf check under
    monkeypatch.setattr(proof, "evaluate",
                        lambda *a, **k: tables.append(a[0]) or evaluate(*a, **k))
    monkeypatch.setattr(proof, "_derive_rule",
                        lambda *a: expansions.append(derive(*a)) or expansions[-1])
    lang = library_language()
    entries = theorem_library(lang)
    assert calls == [] and tables == []  # building records leaves, checking decides them
    for e in entries:
        calls.clear()
        expansions.clear()
        check_derivation(e.derivation, lang)
        reached = _taut_nodes_reached(e.derivation.root, [x for _, x in expansions])
        assert len(calls) == reached, e.tid
    assert tables  # the watcher sees the checker's truth tables


def test_prover_leaf_that_is_no_tautology_fails_at_its_path():
    pr = Prover(L, System.DBL_STAR)
    node = pr.cut(pr.taut(seq("|- a -> a")), pr.taut(seq("a -> a |- b")), L.parse("a -> a"))
    with pytest.raises(DerivationError) as e:
        check_derivation(Derivation(node, pr.system), L)
    assert e.value.path == "root.right"
    assert e.value.message == "not a classical tautology under abstraction"
