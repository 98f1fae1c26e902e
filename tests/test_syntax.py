import copy
import dataclasses
import operator
import os
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dblogic.syntax import (
    Atom, Cond, Implies, Language, Meta, Not, ParseError, SchemaProgram,
    Sequent, SubstitutionError, atoms, conj, iff, indep, is_classical, metas,
    _tokenize, substitute, disj,
)
from dblogic.library import proofs_dir
from dblogic.proof import AXIOM_SCHEMAS

import parser_reference as ref
import printer_reference
import substitute_reference

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
    assert not is_classical(deep) and is_classical(parsed)
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
    todo = [f]
    while todo:
        g = todo.pop()
        assert isinstance(g, (Atom, Not, Implies, Cond))
        if not isinstance(g, Atom):
            todo.extend(getattr(g, fl.name) for fl in dataclasses.fields(g))


def near_miss_strategy(lang: Language):
    """DAGs over atoms, metavariables, T and F, built with the sugar
    constructors and with shapes one step off each sugar: a conjunction
    whose second side is no negation, conjunctions of implications that
    are each other's converse on one side only, a ``<->`` whose left side
    is a conditional of another formula than its right side, and a ``<->``
    built from deep copies of its sides, which are the sides themselves."""
    base = st.sampled_from([Atom(n) for n in lang.theta] + [lang.top, lang.bot]
                           + [Meta("phi"), Meta("psi")])
    shapes = {
        "not": lambda a, b: Not(a),
        "imp": Implies, "cond": Cond, "or": disj, "and": conj, "iff": iff,
        "indep": indep,
        "and?": lambda a, b: Not(Implies(Not(Not(a)), b)),
        "iff?": lambda a, b: conj(Implies(a, b), Implies(b, b)),
        "iff?'": lambda a, b: conj(Implies(a, b), Implies(a, a)),
        "indep?": lambda a, b: iff(Cond(b, a), a),
        "iff copy": lambda a, b: conj(Implies(a, b),
                                      Implies(copy.deepcopy(b), copy.deepcopy(a))),
    }

    def extend(children):
        return st.tuples(st.sampled_from(sorted(shapes)), children, children).map(
            lambda t: shapes[t[0]](t[1], t[2]))

    return st.recursive(base, extend, max_leaves=12)


@settings(max_examples=1000, deadline=None)
@given(near_miss_strategy(AB), st.sampled_from(["core", "sugared"]))
def test_printer_agrees_with_reference(f, style):
    assert AB.format(f, style) == printer_reference.format_formula(AB, f, style)


def _substituted(substitute, schemas, binding):
    """The schemas substituted one by one, or the first `SubstitutionError`
    text."""
    try:
        return tuple(substitute(s, binding) for s in schemas)
    except SubstitutionError as e:
        return str(e)


@settings(max_examples=200, deadline=None)
@given(st.lists(near_miss_strategy(AB), min_size=1, max_size=3),
       st.dictionaries(st.sampled_from(["phi", "psi", "eta"]), near_miss_strategy(AB),
                       max_size=3))
def test_substitute_agrees_with_the_recursive_reference(schemas, binding):
    # the same objects, or the same first error in reading order; one
    # program over several schemas shares their nodes
    want = _substituted(substitute_reference.substitute, schemas, binding)
    try:
        together = SchemaProgram(schemas).fill(binding)
    except SubstitutionError as e:
        together = str(e)
    for got in (_substituted(substitute, schemas, binding), together):
        if isinstance(want, str):
            assert got == want
        else:
            assert type(got) is tuple and len(got) == len(want)
            assert all(map(operator.is_, got, want))


# -- differential tests against the recursive-descent reference --------------

TOKENS = ["|-", "<->", "->", "/\\", "\\/", "><", "!", "(", ")", "|", ",",
          "T", "F", "a", "b", "c"]      # c is not declared in AB


def _outcome(parse, *args):
    """The result of `parse`, or its ParseError text."""
    try:
        return parse(*args)
    except ParseError as e:
        return ("ParseError", str(e))


def _agree(lang: Language, text: str) -> None:
    assert _outcome(lang.parse, text) == _outcome(ref.parse, lang, text), text
    assert _outcome(lang.parse_sequent, text) == _outcome(ref.parse_sequent, lang, text), text


def _shipped_texts():
    """(file name, theta line, formula texts, sequent texts) per shipped file."""
    for name in sorted(os.listdir(proofs_dir())):
        formulas, sequents, theta = [], [], None
        with open(os.path.join(proofs_dir(), name)) as fh:
            for raw in fh:
                head, _, body = raw.split("#", 1)[0].partition(":")
                op, _, tail = body.partition("[")
                bracket = tail.partition("]")[0]
                if head.strip() == "theta":
                    theta = [t.strip() for t in body.split(",")]
                elif op.strip() == "ax":
                    formulas += [p.partition("=")[2] for p in bracket.split(";")[1:]]
                elif op.strip() in ("taut", "struct"):
                    sequents.append(bracket)
                elif bracket:
                    formulas += bracket.split(";")
        yield name, theta, formulas, sequents


def test_parser_agrees_with_reference_on_shipped_files():
    files = texts = 0
    for name, theta, formulas, sequents in _shipped_texts():
        lang = Language(theta)
        for text in formulas:
            assert lang.parse(text) == ref.parse(lang, text), (name, text)
        for text in sequents:
            assert lang.parse_sequent(text) == ref.parse_sequent(lang, text), (name, text)
        files += 1
        texts += len(formulas) + len(sequents)
    assert files == 34 and texts > 5000


@settings(max_examples=300, deadline=None)
@given(formula_strategy(AB), st.sampled_from(["core", "sugared"]))
def test_parser_agrees_with_reference_on_printed_formulas(f, style):
    _agree(AB, AB.format(f, style))


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=12))
def test_parser_agrees_with_reference_on_token_sequences(tokens):
    _agree(AB, " ".join(tokens))


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="ab c!()|,-<>/\\TF&1_\t", max_size=16))
def test_tokenizer_agrees_with_reference(text):
    assert _outcome(_tokenize, text) == _outcome(ref.tokenize, text)


# -- the text memo ---------------------------------------------------------------

def test_text_memo_returns_the_parsed_objects():
    lang = Language(["a", "b"])
    f = lang.parse("(a | b) -> !a")
    assert lang.parse("(a | b) -> !a") is f
    s = lang.parse_sequent("(a | b) -> !a, b |- a \\/ b")
    assert s.antecedent[0] is f
    assert s.antecedent[1] is lang.parse("b")
    assert s.succedent[0] is lang.parse("a \\/ b")
    assert lang.parse_sequent(" a\t,b|-  ") == Sequent((lang.parse("a"), lang.parse("b")), ())


@pytest.mark.parametrize("text", ["a -> ", "a -> c", "a & b", "(a | b"])
def test_failed_texts_fail_again_with_the_same_error(text):
    lang = Language(["a", "b"])
    for parse in (lang.parse, lambda t: lang.parse_sequent("b |- " + t)):
        with pytest.raises(ParseError) as first:
            parse(text)
        with pytest.raises(ParseError) as second:
            parse(text)
        assert str(first.value) == str(second.value)


@pytest.mark.parametrize("text", [
    "|-", "a |-", "|- a", "a,,b |- c", "a, |- b", "a |- b |- c",
    "(a , b) |- c", "(a |- b)", "a |-> b", ", |- a", "a |- ,", "  |-  ",
])
def test_sequent_split_edge_cases_agree_with_reference(text):
    lang = Language(["a", "b", "c"])
    for _ in range(2):
        _agree(lang, text)


MEMO = Language(["a", "b"])


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=12), st.sampled_from([" ", ""]))
def test_memo_hits_agree_with_reference(tokens, sep):
    # MEMO lives across examples, and the second round reads the memo
    text = sep.join(tokens)
    for _ in range(2):
        _agree(MEMO, text)


# -- the group memo ---------------------------------------------------------------

GROUPS = Language(["a", "b"])    # one Language for every example: its group memo fills
GROUP_FORMULAS = formula_strategy(GROUPS)
_JOINS = [" -> ", " /\\ ", " \\/ ", " <-> ", " >< "]
# each breaks a text just inside one of its brackets: an unclosed "(", a
# stray ")", a "," or "|-" in brackets, an unknown atom
_BREAKS = ["(", ")", "a, ", "b |- ", "c -> "]


@st.composite
def grouped_texts(draw):
    """Printed formulas in brackets, some of them repeated or joined inside
    brackets of their own, joined by operators; then the same text broken
    just inside one of its brackets."""
    style = draw(st.sampled_from(["core", "sugared"]))
    formulas = draw(st.lists(GROUP_FORMULAS, min_size=1, max_size=3))
    groups = [f"({GROUPS.format(f, style)})" for f in formulas]
    pick = st.sampled_from(groups)
    nested = draw(st.lists(st.tuples(pick, st.sampled_from(_JOINS + [" | "]), pick).map(
        lambda t: f"({''.join(t)})"), max_size=2))
    parts = draw(st.lists(st.sampled_from(groups + nested), min_size=1, max_size=6))
    joins = st.sampled_from(_JOINS + [", ", " |- "] if draw(st.booleans()) else _JOINS)
    text = parts[0] + "".join(draw(joins) + p for p in parts[1:])
    i = draw(st.sampled_from([i for i, ch in enumerate(text) if ch == "("])) + 1
    return text, text[:i] + draw(st.sampled_from(_BREAKS)) + text[i:]


@settings(max_examples=300, deadline=None)
@given(grouped_texts())
def test_group_memo_agrees_with_reference(texts):
    # the broken text reads after the whole one, whose groups the memo holds
    for text in texts:
        _agree(GROUPS, text)


def test_a_repeated_group_is_read_once(monkeypatch):
    reads = []
    shift_reduce = Language._shift_reduce

    def spy(self, tokens, sequent):
        reads.append(list(tokens))
        return shift_reduce(self, tokens, sequent)

    monkeypatch.setattr(Language, "_shift_reduce", spy)
    lang = Language(["a", "b"])
    text = " -> ".join(["(a | !b -> a)"] * 50)
    assert lang.parse(text) is ref.parse(lang, text)
    group = Cond(Atom("a"), Implies(Not(Atom("b")), Atom("a")))
    assert reads == [["(", "a", "|", "!", "b", "->", "a", ")", None],
                     [group, "->"] * 49 + [group, None]]
    # the memo belongs to the Language: another text reads no group again
    reads.clear()
    assert lang.parse_sequent("(a | !b -> a) |- (a | !b -> a)") == Sequent((group,), (group,))
    assert reads == [[group, None]]


def test_each_distinct_chunk_is_tokenized_once(monkeypatch):
    from dblogic import syntax
    chunks = []
    tokenize = syntax._tokenize
    monkeypatch.setattr(syntax, "_tokenize", lambda text: chunks.append(text) or tokenize(text))
    lang = Language(["a", "b"])
    texts = ["(a | !b) -> (a | !b)", "(a | !b) -> ( a|!b ) -> (a|\t!b)", "!((a | !b)) -> (b)"]
    f, g, h = (lang.parse(t) for t in texts)
    # whitespace inside brackets is a different key of the same formula
    assert f is ref.parse(lang, texts[0]) and g is ref.parse(lang, texts[1])
    assert h is ref.parse(lang, texts[2])
    assert g.left is g.right.left is g.right.right is f.left is f.right
    assert chunks == ["a | !b", " -> ", " a|!b ", "a|\t!b", "b", "!"]


@pytest.mark.parametrize("text", [
    "(y | x) & x", "((y | x) & x)", "(y | x & x) -> (y | x)", "x & (y | x)",
    "(y | x) -> (y & | x)", "(y | x) -> x, (y | x) -> x |- (y | x & x) -> y",
])
def test_a_lexical_error_past_a_read_group_is_the_first_error(text):
    lang = Language(["x", "y"])
    lang.parse_sequent("(y | x) -> x, x |- (y | x) -> y")    # the group memo holds (y | x)
    for _ in range(2):
        _agree(lang, text)
    assert _outcome(lang.parse, text)[0] == "ParseError"


# -- stack safety and sharing ---------------------------------------------------

def test_deep_negation_parses_without_recursion():
    f = AB.parse("!" * 1000 + "a")
    for _ in range(1000):
        assert isinstance(f, Not)
        f = f.body
    assert f == Atom("a")


def test_long_conjunction_parses_without_recursion():
    names = ["ab"[i % 2] for i in range(300)]
    f = AB.parse(" /\\ ".join(names))
    # left-associative: ((n0 /\ n1) /\ n2) ...; x /\ y is !(!!x -> !y)
    for name in reversed(names[1:]):
        assert isinstance(f, Not) and isinstance(f.body, Implies)
        left, right = f.body.left, f.body.right
        assert isinstance(right, Not) and right.body == Atom(name)
        assert isinstance(left, Not) and isinstance(left.body, Not)
        f = left.body.body
    assert f == Atom(names[0])


# 5 000 nodes deep where each bracket builds a node: the node table is never
# pruned, and every later full collection of the test process walks it
@pytest.mark.parametrize("opening, build, n", [
    ("(", lambda f: f, 20000),
    ("!(", Not, 5000),
    ("(a | ", lambda f: Cond(Atom("a"), f), 5000),
], ids=["parens", "negations", "conditionals"])
def test_deep_brackets_read_in_linear_time(opening, build, n):
    expected = Atom("b")
    for _ in range(n):
        expected = build(expected)
    cases = [
        (opening * n + "b" + ")" * n, expected),
        (opening * n, ("ParseError", "dangling operator or unexpected end of input")),
        (opening * n + "b" + ")" * (n - 1), ("ParseError", "expected ')', found end of input")),
        (opening * n + "b" + ")" * (n + 1), ("ParseError", "unexpected trailing token ')'")),
    ]
    for text, outcome in cases:
        lang = Language(["a", "b"])
        start = time.perf_counter()
        got = _outcome(lang.parse, text)
        assert time.perf_counter() - start < 1.0
        assert got == outcome


def test_equal_subformulas_are_one_node():
    lang = Language(["x", "z"])
    f = lang.parse("(x | z) -> (x | z)")
    assert f.left is f.right
    assert lang.parse("(x | z)") is f.left
    assert lang.parse("x -> x") is lang.top and lang.parse("!T") is lang.bot


def test_equal_formulas_are_one_object():
    # hash-consed: a structurally equal formula is the same object however
    # it was built, so `==` and `hash` go by identity
    one, two = Language(["a", "b"]), Language(["a", "b"])
    text = "(a | b) <-> !b /\\ T"
    f = one.parse(text)
    assert two.parse(text) is f
    a, b = Atom("a"), Atom("b")
    c, r = Cond(a, b), Not(Implies(Not(Not(Not(b))), Not(Implies(a, a))))
    assert Not(Implies(Not(Not(Implies(c, r))), Not(Implies(r, c)))) is f
    assert iff(Cond(a, b), conj(Not(b), Implies(a, a))) is f
    assert indep(a, b) is one.parse("a >< b") and disj(a, b) is two.parse("a \\/ b")
    binding = {"phi": one.parse("a /\\ b"), "psi": one.parse("(b | a)")}
    assert substitute(AXIOM_SCHEMAS["b5"].succedent[0], binding) is two.parse(
        "a /\\ b >< (b | a)")
    for g in (f, a, Meta("phi")):
        assert copy.copy(g) is g and copy.deepcopy(g) is g
        assert not hasattr(g, "__dict__")      # fields in slots only
        assert dataclasses.replace(g) is g and pickle.loads(pickle.dumps(g)) is g
    assert dataclasses.replace(c, given=a) is Cond(a, a)
    for cls in (Atom, Not, Implies, Cond, Meta):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    # one interned node changed would change every formula that shares it
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.then = b
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.name = "b"
    assert c.then is a and a.name == "a"


def _deep_shapes(n, a=Atom("a")):
    """Formulas nesting n operators over `a` and the atom b: `->` to the
    right and to the left, `/\\`, and conditionals in both places.  (`<->`
    writes each side twice in the core style, so its nesting would print
    2**n copies.)"""
    b = Atom("b")
    right, left, both, then, given = b, b, b, b, b
    for _ in range(n):
        right, left = Implies(a, right), Implies(left, a)
        both = conj(both, a)
        then, given = Cond(then, a), Cond(a, given)
    return [right, left, both, then, given]


@pytest.mark.parametrize("style", ["core", "sugared"])
def test_printer_is_the_reference_at_depth_200(style):
    for f in _deep_shapes(200):
        assert AB.format(f, style) == printer_reference.format_formula(AB, f, style)


@pytest.mark.parametrize("style", ["core", "sugared"])
def test_deep_formulas_print_without_recursion(style):
    # the printer's stack holds what the recursion limit would not; the
    # iterative parser reads the text back to the same object
    for f in _deep_shapes(3000):
        assert AB.parse(AB.format(f, style)) is f


def test_deep_schemas_substitute_without_recursion():
    # 3 000 stacked `!` over a metavariable, and the deep shapes built over
    # it, substitute to the formulas built over the atom
    phi, a = Meta("phi"), Atom("a")
    negations, expected = phi, a
    for _ in range(3000):
        negations, expected = Not(negations), Not(expected)
    schemas = [negations, *_deep_shapes(3000, phi)]
    for schema, f in zip(schemas, [expected, *_deep_shapes(3000)]):
        assert substitute(schema, {"phi": a}) is f


def test_deep_formulas_repr_and_pickle_without_recursion():
    a, b = Atom("a"), Atom("b")
    negations, chain = a, b
    for _ in range(1000):
        negations = Not(negations)
    for _ in range(3000):
        chain = Implies(a, chain)
    assert repr(negations) == "Not(body=" * 1000 + "Atom(name='a')" + ")" * 1000
    assert repr(chain) == ("Implies(left=Atom(name='a'), right=" * 3000
                           + "Atom(name='b')" + ")" * 3000)
    for f in (negations, chain):
        assert pickle.loads(pickle.dumps(f)) is f
    # at depth 3, the text of the dataclass repr
    assert repr(AB.parse("!(a | b -> a)")) == (
        "Not(body=Cond(then=Atom(name='a'), "
        "given=Implies(left=Atom(name='b'), right=Atom(name='a'))))")
