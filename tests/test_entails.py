"""`model.entails` decides a block of assignments at a time; it must give
what deciding one assignment after the other gives (`entails_reference`),
field by field: verdict, checked, skipped, witness and seed, on faithful,
targeted and tampered stages.  Its block `(B | A)` must give what
`Stage.apply_f` gives, slot by slot."""

import copy
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from dblogic.construction import Stage, build_faithful, build_for_formulas
from dblogic.model import MAX_BLOCK, _Slots, entails
from dblogic.syntax import Atom, Cond, Implies, Language, Not, Sequent

import entails_reference
from stage_reference import row_tampers, with_row

LANGS = {k: Language(["a", "b", "c"][:k]) for k in (1, 2, 3)}
AB_TOP, _ = build_faithful(["a", "b"], max_atoms=400)     # 4, 6, 10, 32, 384 points
ABC_TOP, _ = build_faithful(["a", "b", "c"], max_atoms=14)  # 8, 14 points
STAGE0, SIX, TEN = AB_TOP.levels[:3]

# the six-point stage with the fibre half of the row of f(., 7) at point 0
# joined with point 1: f(B, 7) is undefined where B holds 0 but not 1
SIX_TAMPERED = with_row(SIX, 7, 0, lambda rows: rows[0] | 0b10)

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
    # the tampered row leaves (a | b) undefined where b = 7 and a holds
    # point 0 but not point 1: there !(a | b) and b -> !(a | b) are
    # undefined too, so each of those assignments is skipped, not checked
    s = LANGS[2].parse_sequent("b -> !(a | b) |- b -> !(a | b)")
    r, untouched = _agree(SIX_TAMPERED, s), _agree(SIX, s)
    undone = sum(SIX_TAMPERED.apply_f(a, 7) is None for a in range(64))
    assert undone == 16 and all(SIX.apply_f(a, 7) is not None for a in range(64))
    assert r.verdict == untouched.verdict == "undecided"
    assert (r.checked, r.skipped) == (untouched.checked - undone, untouched.skipped + undone)


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


def _block_sizes(monkeypatch, stage, text, **sampling):
    """`entails`'s verdict and the size of each block it packed, one
    `_Slots.pack` call per atom name and block."""
    packed, pack = [], _Slots.pack
    monkeypatch.setattr(_Slots, "pack",
                        lambda self, values: packed.append(len(values)) or pack(self, values))
    s = LANGS[2].parse_sequent(text)
    got = entails(stage, s, **sampling)
    monkeypatch.setattr(_Slots, "pack", pack)   # the next call wraps it afresh
    assert got == entails_reference.entails(stage, s, **sampling)
    return got, packed[::2]


def test_blocks_grow_from_one_pass_to_the_next(monkeypatch):
    # six points, two atoms: 4 096 assignments.  A block holds 2**6 at
    # first, then as many as all earlier blocks: 7 passes for a sequent
    # that holds
    r, sizes = _block_sizes(monkeypatch, SIX, "a \\/ b |- b \\/ a")
    assert (r.verdict, r.checked, r.skipped) == ("holds", 4096, 0)
    assert sizes == [64, 64, 128, 256, 512, 1024, 2048]
    # an early failure stops in the block that holds it
    r, sizes = _block_sizes(monkeypatch, SIX, "(b | a) |- (a | b) -> b")
    assert (r.verdict, r.checked, r.skipped) == ("fails", 29, 426)
    assert sizes == [64, 64, 128, 256]
    # sampled draws are split the same way and map to the same assignments
    r, sizes = _block_sizes(monkeypatch, SIX, "a \\/ b |- b \\/ a", samples=1000, seed=3)
    assert (r.verdict, r.checked) == ("undecided", 1000)
    assert sizes == [64, 64, 128, 256, 488]


@pytest.mark.parametrize("level, samples", [(3, MAX_BLOCK + 904), (3, 40), (4, 40)])
def test_wide_slots_when_sampling(level, samples):
    # 32 points: 8-byte slots, and two blocks for MAX_BLOCK + 904 draws;
    # 384 points: 49-byte slots, wider than any array item
    s = LANGS[2].parse_sequent("(a | b), a |- b, !(b | a)")
    _agree(AB_TOP.levels[level], s, samples=samples, seed=7)


def test_entails_never_calls_apply_f():
    # entails reads the rows of f (`Stage.f_rows`), never `Stage.apply_f`;
    # the reference, which asks `apply_f` slot by slot, agrees with it
    asked_by_reference = 0
    for stage in (SIX, SIX_TAMPERED, TEN, AB_TOP.levels[3]):
        for text in ("a, (b | a) |- (a | b)", "(b | a), a |- b", "(a | (b | a)) |- !(a | b)"):
            asked = []
            counted = copy.copy(stage)
            counted.apply_f = lambda b, a: asked.append((b, a)) or stage.apply_f(b, a)
            s = LANGS[2].parse_sequent(text)
            got = entails(counted, s)
            assert asked == []
            assert entails_reference.entails(counted, s) == got
            asked_by_reference += len(asked)
    assert asked_by_reference


# -- the block (B | A) against Stage.apply_f, slot by slot ----------------------

TARGETED = [s for text in ("(b | a)", "(a | b)")
            for s in build_for_formulas(["a", "b"], [LANGS[2].parse(text)]).levels[1:]]
STAGES = list(AB_TOP.levels) + TARGETED              # 4, 6, 10, 32, 384 and 8 points


def _no_union_stage():
    """The 10-point stage with the lowest point of a block inside the chain
    processed at level 1 moved into a block outside it, its chains kept:
    f(., A) has no rows for that chain's mask and its complement."""
    blocks = list(TEN.blocks)
    chain = next(c for c in TEN.chains if c.processed_at < TEN.index)
    i = next(i for i, blk in enumerate(blocks) if blk & chain.mask)
    j = next(j for j, blk in enumerate(blocks) if not blk & chain.mask)
    low = blocks[i] & -blocks[i]
    blocks[i] ^= low
    blocks[j] |= low
    bad = Stage(TEN.theta, TEN.index, TEN.points, TEN.parent, blocks, TEN.transition, TEN.chains)
    assert bad.f_rows(chain.mask) is None and bad.f_rows(bad.full ^ chain.mask) is None
    return bad


NO_UNION = _no_union_stage()


@st.composite
def tampered_stages(draw):
    """A faithful or targeted stage, `SIX_TAMPERED`, the 10-point stage with
    a chain that is no union of its fibres, or one of those with one row
    changed by a `row_tampers` change (whose rows need not partition)."""
    stage = draw(st.sampled_from(STAGES + [SIX_TAMPERED, NO_UNION]))
    if stage.chains and draw(st.booleans()):
        i = draw(st.integers(0, 3 * stage.size * len(stage.defined_conditions()) - 1))
        a, p, _, change = next(islice(row_tampers(stage), i, None))
        stage = with_row(stage, a, p, change)
    return stage


@st.composite
def elements(draw, stage):
    """Random masks, the trivial and defined conditions, and unions of the
    fibres of some level, so that f is met defined and undefined."""
    fibres = draw(st.sampled_from(stage.fibres))
    union = st.lists(st.sampled_from(fibres), max_size=len(fibres)).map(lambda fs: sum(set(fs)))
    conditions = st.sampled_from([0, stage.full] + stage.defined_conditions())
    return draw(st.one_of(st.integers(0, stage.full), conditions, union))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_block_conditional_agrees_with_apply_f_slot_by_slot(data):
    stage = data.draw(tampered_stages())
    count = data.draw(st.integers(1, 24))
    slots = _Slots(stage, count)
    flag = 1 << stage.size
    # per slot: B, A, whether each input is flagged, whether the slot is open
    cases = data.draw(st.lists(st.tuples(elements(stage), elements(stage), st.booleans(),
                                         st.booleans(), st.booleans()),
                               min_size=count, max_size=count))
    b = slots.pack([x | flag * fb for x, _, fb, _, _ in cases])
    a = slots.pack([y | flag * fa for _, y, _, fa, _ in cases])
    open_ = slots.pack([flag * (not shut) for *_, shut in cases])
    out = slots.conditional(b, a, open_).to_bytes(slots.nbytes * count, "little")
    for i, (x, y, fb, fa, shut) in enumerate(cases):
        got = int.from_bytes(out[i * slots.nbytes:(i + 1) * slots.nbytes], "little")
        want = None if fb or fa or shut else stage.apply_f(x, y)
        if want is None:
            assert got & flag, (i, x, y)
        else:
            assert got == want, (i, x, y)


@st.composite
def tampered_problems(draw):
    """A tampered stage and a sequent, over {a, b} and exhaustive up to 6
    points, over {a} and exhaustive up to 10, so that A meets every
    condition, else over {a, b} and 1-60 draws."""
    stage = draw(tampered_stages())
    names = LANGS[1 if 6 < stage.size <= 10 else 2].theta
    side = st.lists(formulas(names, 3), max_size=3).map(tuple)
    sampling = {} if stage.size <= 10 else {"samples": draw(st.integers(1, 60)),
                                           "seed": draw(st.integers(0, 99))}
    return stage, Sequent(draw(side), draw(side)), sampling


@settings(max_examples=150, deadline=None)
@given(tampered_problems())
def test_entails_agrees_with_the_reference_on_tampered_stages(problem):
    stage, s, sampling = problem
    _agree(stage, s, **sampling)
