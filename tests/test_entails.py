"""`model.entails` decides a block of assignments at a time; it must give
what deciding one assignment after the other gives (`entails_reference`),
field by field: verdict, checked, skipped, witness and seed."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from dblogic.construction import build_faithful
from dblogic.model import MAX_BLOCK, entails
from dblogic.syntax import Atom, Cond, Implies, Language, Not, Sequent

import entails_reference

LANGS = {k: Language(["a", "b", "c"][:k]) for k in (1, 2, 3)}
AB_TOP, _ = build_faithful(["a", "b"], max_atoms=400)     # 4, 6, 10, 32, 384 points
ABC_TOP, _ = build_faithful(["a", "b", "c"], max_atoms=14)  # 8, 14 points
STAGE0, SIX, TEN = AB_TOP.levels[:3]


def _tampered(stage, b, a):
    """A copy of `stage` whose f row (b, a) is undefined."""
    assert stage.apply_f(b, a) is not None
    out = copy.copy(stage)
    out.apply_f = lambda b_, a_: None if (b_, a_) == (b, a) else stage.apply_f(b_, a_)
    return out


# the condition 7 of the six-point stage, its row at the element 5 undone
SIX_TAMPERED = _tampered(SIX, 5, SIX.defined_conditions()[0])

# (stage, atoms): the exhaustive ones enumerate at most 2**12 assignments,
# the rest draw the default 1 000
CASES = [(STAGE0, 1), (STAGE0, 2), (STAGE0, 3), (SIX, 1), (SIX, 2),
         (SIX_TAMPERED, 1), (SIX_TAMPERED, 2), (TEN, 1), (TEN, 2), (TEN, 3)]


def formulas(names, depth=4):
    """Formulas over `names` nested at most `depth` deep, conditionals too."""
    leaf = st.sampled_from([Atom(n) for n in names])
    if depth == 0:
        return leaf
    sub = formulas(names, depth - 1)
    return st.one_of(leaf, sub.map(Not), st.builds(Implies, sub, sub),
                     st.builds(Cond, sub, sub))


@st.composite
def problems(draw):
    """A stage, a sequent of 0-3 formulas a side and, for a third of them,
    an explicit sample count and seed."""
    stage, k = draw(st.sampled_from(CASES))
    side = st.lists(formulas(LANGS[k].theta), max_size=3).map(tuple)
    ante, succ = draw(side), draw(side)
    if draw(st.booleans()) and ante:            # a formula on both sides
        succ += (draw(st.sampled_from(ante)),)
    sampling = {}
    if draw(st.integers(0, 2)) == 0:
        sampling = {"samples": draw(st.integers(1, 300)), "seed": draw(st.integers(0, 99))}
    return stage, Sequent(ante, succ), sampling


def _agree(stage, s, **sampling):
    got = entails(stage, s, **sampling)
    assert got == entails_reference.entails(stage, s, **sampling)
    return got


@settings(max_examples=200, deadline=None)
@given(problems())
def test_entails_agrees_with_one_assignment_at_a_time(problem):
    stage, s, sampling = problem
    _agree(stage, s, **sampling)


@pytest.mark.parametrize("stage", [STAGE0, SIX, SIX_TAMPERED, TEN],
                         ids=["stage0", "six", "six-tampered", "ten"])
@pytest.mark.parametrize("text", [
    "|-",                                    # fails at once, witness {}
    "a |-",                                  # antecedent only
    "a, (b | a) |-",
    "a |- a",                                # a formula on both sides
    "(b | a), a |- b, (b | a)",
    "|- a, !a",
    "a \\/ b |- a, b",
    "!(b | a) -> a |- a -> (a | b)",
    "(a | b) |- !!(a | b)",
])
def test_entails_agrees_on_fixed_sequents(stage, text):
    s = LANGS[2].parse_sequent(text)
    _agree(stage, s)
    _agree(stage, s, samples=500, seed=3)


def test_undefined_slots_flow_through_negation_and_implication():
    # the tampered row is met only where a = 5 and b = 7: there (a | b) is
    # undefined, and so are !(a | b) and b -> !(a | b), so that assignment
    # is skipped, not checked
    s = LANGS[2].parse_sequent("b -> !(a | b) |- b -> !(a | b)")
    r, untouched = _agree(SIX_TAMPERED, s), _agree(SIX, s)
    assert r.verdict == untouched.verdict == "undecided"
    assert (r.checked, r.skipped) == (untouched.checked - 1, untouched.skipped + 1)


def test_counts_run_across_blocks_and_stop_at_the_first_failure():
    # 8-point stage 0 of {a, b, c}: two-byte slots, blocks of 256; the
    # first failing assignment is a = 254, b = 1, after 510 that hold
    s = LANGS[2].parse_sequent("a \\/ b |- a, b")
    r = _agree(ABC_TOP.levels[0], s)
    assert (r.verdict, r.witness, r.checked, r.skipped) == (
        "fails", {"a": 254, "b": 1}, 510, 0)


def test_blocks_stop_at_the_cap():
    # one atom on 14 points: 2**14 assignments in blocks of MAX_BLOCK
    s = LANGS[1].parse_sequent("a, (a | a) |- (a | a) -> a")
    stage = ABC_TOP.levels[1]
    assert stage.size == 14 and 1 << stage.size > MAX_BLOCK
    r = _agree(stage, s)
    assert r.checked + r.skipped == 1 << 14


@pytest.mark.parametrize("level, samples", [(3, MAX_BLOCK + 904), (3, 40), (4, 40)])
def test_wide_slots_when_sampling(level, samples):
    # 32 points: 8-byte slots, and two blocks for MAX_BLOCK + 904 draws;
    # 384 points: 49-byte slots, wider than any array item
    s = LANGS[2].parse_sequent("(a | b), a |- b, !(b | a)")
    _agree(AB_TOP.levels[level], s, samples=samples, seed=7)


def test_f_is_asked_only_on_open_assignments():
    # on the six-point stage `a` is full on one assignment in 64, so it
    # decides the rest before `(b | a)` is valued: a block asks f no more
    # often than deciding one assignment after the other does
    s = LANGS[2].parse_sequent("a, (b | a) |- (a | b)")
    asked = []
    stage = copy.copy(SIX)
    stage.apply_f = lambda b, a: asked.append((b, a)) or SIX.apply_f(b, a)
    got = entails(stage, s)
    block = len(asked)
    asked.clear()
    assert entails_reference.entails(stage, s) == got
    assert 0 < block <= len(asked)
