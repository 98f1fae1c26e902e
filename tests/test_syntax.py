import dataclasses
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dblogic.syntax import (
    Atom, Cond, Implies, Language, Meta, Not, ParseError, Sequent,
    SubstitutionError, atoms, conj, depth, iff, indep, is_classical, metas,
    substitute, disj,
)

AB = Language(["a", "b"])


def test_parse_implication():
    assert AB.parse("a -> b") == Implies(Atom("a"), Atom("b"))


def test_parse_independence_sugar():
    # a >< b  ==  (a | b) <-> a, fully expanded
    assert AB.parse("a >< b") == indep(Atom("a"), Atom("b"))
    assert AB.parse("a >< b") == AB.parse("((a | b) -> a) /\\ (a -> (a | b))")


def test_parse_top_is_first_atom_implication():
    assert AB.parse("T") == Implies(Atom("a"), Atom("a"))
    assert AB.parse("F") == Not(Implies(Atom("a"), Atom("a")))
    # two parses of T under the same atom set are identical trees
    assert AB.parse("T") == AB.parse("T")


def test_parse_dangling_operator_fails():
    with pytest.raises(ParseError):
        AB.parse("a -> ")


def test_parse_unknown_atom_fails():
    with pytest.raises(ParseError):
        AB.parse("a -> c")


def test_parse_unbalanced_parens_fails():
    with pytest.raises(ParseError):
        AB.parse("(a -> b")
    with pytest.raises(ParseError):
        AB.parse("a)")


def test_parse_lexical_error():
    with pytest.raises(ParseError):
        AB.parse("a & b")


def test_conditional_requires_parens():
    assert AB.parse("(b | a)") == Cond(Atom("b"), Atom("a"))
    with pytest.raises(ParseError):
        AB.parse("b | a")


def test_precedence():
    # ! > /\ > \/ > -> > <->
    f = AB.parse("!a /\\ b \\/ a -> b <-> a")
    expected = iff(Implies(disj(conj(Not(Atom("a")), Atom("b")), Atom("a")), Atom("b")), Atom("a"))
    assert f == expected


def test_implication_right_associative():
    assert AB.parse("a -> b -> a") == Implies(Atom("a"), Implies(Atom("b"), Atom("a")))


def test_format_core_examples():
    assert AB.format(Not(Atom("a"))) == "!a"
    assert AB.format(Cond(Atom("b"), Atom("a"))) == "(b | a)"
    assert AB.format(disj(Atom("a"), Atom("b"))) == "!a -> b"


def test_format_sugared_examples():
    assert AB.format(disj(Atom("a"), Atom("b")), style="sugared") == "a \\/ b"
    assert AB.format(AB.top, style="sugared") == "T"
    assert AB.format(indep(Atom("a"), Atom("b")), style="sugared") == "a >< b"


def test_sequent_parsing():
    s = AB.parse_sequent("a, a -> b |- b, !a")
    assert s == Sequent((Atom("a"), Implies(Atom("a"), Atom("b"))), (Atom("b"), Not(Atom("a"))))
    assert AB.parse_sequent("|- a") == Sequent((), (Atom("a"),))
    assert AB.parse_sequent("a |-") == Sequent((Atom("a"),), ())
    assert AB.format_sequent(s) == "a, a -> b |- b, !a"


def test_substitute_axiom_schema():
    schema = Implies(Meta("phi"), Implies(Meta("psi"), Meta("phi")))
    out = substitute(schema, {"phi": Atom("a"), "psi": Atom("b")})
    assert out == AB.parse("a -> (b -> a)")


def test_substitute_identity_and_unbound():
    assert substitute(Meta("phi"), {"phi": Cond(Atom("b"), Atom("a"))}) == Cond(Atom("b"), Atom("a"))
    with pytest.raises(SubstitutionError):
        substitute(Implies(Meta("phi"), Meta("psi")), {"phi": Atom("a")})


def test_helpers():
    f = AB.parse("(b | a) /\\ !a")
    assert atoms(f) == {"a", "b"}
    assert not is_classical(f)
    assert is_classical(AB.parse("!a -> b"))
    assert depth(Atom("a")) == 0
    assert depth(Not(Atom("a"))) == 1


def _tree_names(f, kind):
    """Leaf names by walking `f` as a tree: every shared node again."""
    if isinstance(f, kind):
        return {f.name}
    if isinstance(f, (Atom, Meta)):
        return set()
    return set().union(*(_tree_names(getattr(f, fl.name), kind)
                         for fl in dataclasses.fields(f)))


def _nested_iff(n):
    # each level holds the one below twice, shared: 2**n tree paths
    f = Meta("psi")
    for _ in range(n):
        f = iff(Cond(Atom("a"), Meta("phi")), f)
    return f


def test_leaf_names_visit_shared_nodes_once():
    small = _nested_iff(6)
    for walk, kind in ((atoms, Atom), (metas, Meta)):
        assert walk(small) == _tree_names(small, kind)
    deep = _nested_iff(24)
    parsed = AB.parse("a <-> (" * 24 + "b" + ")" * 24)
    t0 = time.perf_counter()
    assert atoms(deep) == {"a"} and metas(deep) == {"phi", "psi"}
    assert atoms(parsed) == {"a", "b"}
    assert time.perf_counter() - t0 < 0.1


# -- round trip property ------------------------------------------------------

def formula_strategy(lang: Language, max_depth: int = 5):
    base = st.sampled_from([Atom(n) for n in lang.theta] + [lang.top, lang.bot])

    def extend(children):
        return st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda t: Implies(*t)),
            st.tuples(children, children).map(lambda t: Cond(*t)),
            st.tuples(children, children).map(lambda t: conj(*t)),
            st.tuples(children, children).map(lambda t: disj(*t)),
            st.tuples(children, children).map(lambda t: iff(*t)),
            st.tuples(children, children).map(lambda t: indep(*t)),
        )

    return st.recursive(base, extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(formula_strategy(AB))
def test_round_trip_core(f):
    assert AB.parse(AB.format(f, "core")) == f


@settings(max_examples=300, deadline=None)
@given(formula_strategy(AB))
def test_round_trip_sugared(f):
    assert AB.parse(AB.format(f, "sugared")) == f


@settings(max_examples=100, deadline=None)
@given(formula_strategy(AB))
def test_trees_are_core_only(f):
    # sugar never appears in the tree: every node is one of the four cores
    from dblogic.syntax import subformulas
    for g in subformulas(f):
        assert isinstance(g, (Atom, Not, Implies, Cond))
