import random
from contextlib import contextmanager
from dataclasses import replace
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dblogic import construction
from dblogic.construction import (
    BudgetExceeded, ConstructionError, Stage, advance,
    build_faithful, build_for_formulas, canonical_assignment, classify_case,
    dump_stage, load_stage, new_stage0, partition_data,
    select_condition, verify_stage,
)
from dblogic.probability import default_lewis_deltas
from dblogic.syntax import Atom, Cond, Implies, Language, Not

from stage_reference import (
    reference_apply_f, reference_build_for_formulas, reference_swap,
    reference_verify_stage, row_tampers, walk_embed_from, walk_rank, walk_unembed_to,
)

L1 = Language(["a"])
L2 = Language(["a", "b"])


def verified(stage):
    """`stage`, after asserting that every level of its tower above stage 0
    passes `verify_stage`."""
    for level in stage.levels[1:]:
        assert verify_stage(level).ok(), (level.index, verify_stage(level).failures())
    return stage


def stage1_single_atom():
    s0 = new_stage0(["a"])
    return verified(advance(s0, select_condition(s0)))


# frozen by hand from the pair construction: points u=(0), v=(1); b0={u};
# stage 1 = {(u,v),(v,u)} with (u,v) first; f follows (id u T)(B & A)
HAND_F1 = {
    0: [0, 1, 2, 3],
    1: [0, 3, 0, 3],
    2: [0, 0, 3, 3],
    3: [0, 1, 2, 3],
}


def test_stage0_shapes():
    s0 = new_stage0(["a"])
    assert s0.points == (0, 1)
    assert 1 << s0.size == 4
    s0b = new_stage0(["a", "b"])
    assert s0b.size == 4 and 1 << s0b.size == 16
    with pytest.raises(ValueError):
        new_stage0([])


def test_faithful_b0_tiebreak_single_atom():
    s0 = new_stage0(["a"])
    assert select_condition(s0) == 1  # the {u} side


def test_stage1_f_table_matches_hand_enumeration():
    s1 = stage1_single_atom()
    assert s1.points == ((0, 1), (1, 0))
    for a in range(4):
        assert [s1.apply_f(b, a) for b in range(4)] == HAND_F1[a]


def test_single_atom_halts_after_one_stage():
    s1 = stage1_single_atom()
    assert select_condition(s1) is None
    top, halted = build_faithful(["a"])
    assert halted and [s.size for s in verified(top).levels] == [2, 2]


def test_case_classification():
    s0 = new_stage0(["a"])
    assert classify_case(s0, 1) == (1, None)
    s1 = verified(advance(s0, 1))
    mu_b = s1.embed(1)
    assert classify_case(s1, mu_b) == (0, 0)
    assert classify_case(s1, s1.complement(mu_b)) == (0, 0)


def test_partition_case1_single_atom():
    s0 = new_stage0(["a"])
    t = partition_data(s0, 1)
    assert t.case == 1 and t.pi == (1,) and t.gamma == (2,)


def test_partition_cardinality_two_atoms():
    s0 = new_stage0(["a", "b"])
    xi_a = 0b1010  # points with the a-bit set (bits index the point code)
    t = partition_data(s0, xi_a)
    total = 2 * sum(bin(p).count("1") * bin(g).count("1")
                    for p, g in zip(t.pi, t.gamma))
    assert total == 8
    s1 = verified(advance(s0, xi_a))
    assert s1.size == 8


def test_mu_is_boolean_morphism_single_atom():
    s0 = new_stage0(["a"])
    mu = advance(s0, 1).embed
    assert mu(1) == 0b01   # mu({u}) = {(u,v)}
    assert mu(2) == 0b10   # mu({v}) = {(v,u)}
    assert mu(0) == 0
    assert mu(3) == 0b11
    s1 = verified(advance(s0, 1))
    for a in range(4):
        for b in range(4):
            assert s1.embed(a & b) == s1.embed(a) & s1.embed(b)
            assert s1.embed(a | b) == s1.embed(a) | s1.embed(b)


def test_mu_b_corollaries():
    s0 = new_stage0(["a", "b"])
    s1 = verified(advance(s0, 0b1010))
    mu_b = s1.embed(0b1010)
    assert mu_b == (1 << (s1.size // 2)) - 1
    assert s1.complement(mu_b) == s1.swap_pairs(mu_b)


def test_trivial_conditions():
    s1 = stage1_single_atom()
    for b in range(4):
        assert s1.apply_f(b, 0) == b
        assert s1.apply_f(b, s1.full) == b


def test_idempotence_instances():
    s1 = stage1_single_atom()
    for a in (1, 2):
        for b in range(4):
            fb = s1.apply_f(b, a)
            assert s1.apply_f(fb, a) == fb
            assert s1.apply_f(fb, s1.complement(a)) == fb


def test_verify_stage_clean_and_fault_injection():
    s0 = new_stage0(["a", "b"])
    s1 = advance(s0, 0b1010)
    assert verify_stage(s1).ok()
    # swap one pair inside one partition block: covering identity must fail
    from dblogic.construction import Transition, _check_partition
    bad_pi = (0b1010 ^ 0b0010 | 0b0001,)   # replace one point by a wrong one
    with pytest.raises(ConstructionError):
        _check_partition(s0, 0b1010, bad_pi, (0b0101,))


def test_ranks():
    s0 = new_stage0(["a"])
    s1 = verified(advance(s0, 1))
    assert s1.rank(s1.embed(1)) == 0
    assert s1.rank(s1.embed(2)) == 0
    s0b = new_stage0(["a", "b"])
    s1b = verified(advance(s0b, 0b1010))
    # a genuinely new element (half of one block) first occurs at stage 1
    blk = s1b.blocks[1]
    low = blk & -blk
    assert s1b.rank(low) == 1
    assert s1b.rank(s1b.embed(0b0110)) == 0


def test_canonical_assignment():
    s0 = new_stage0(["a"])
    assert canonical_assignment(s0) == {"a": 2}
    s1 = verified(advance(s0, 1))
    assert canonical_assignment(s1) == {"a": 2}  # image of {v} is {(v,u)}


def test_targeted_build_one_advance():
    stage = verified(build_for_formulas(["a", "b"], [L2.parse("(b | a)")]))
    assert stage.index == 1 and stage.size == 8
    h = canonical_assignment(stage)
    assert stage.apply_f(h["b"], h["a"]) is not None


def test_builds_compute_each_partition_once(monkeypatch):
    calls = []
    original = construction.partition_data

    def counting_partition(stage, b_mask):
        calls.append(stage.index)
        return original(stage, b_mask)

    monkeypatch.setattr(construction, "partition_data", counting_partition)
    stage = build_for_formulas(["a", "b"], [L2.parse("(b | a)"), L2.parse("(a | b)")])
    assert stage.index == 2 and calls == [0, 1]
    calls.clear()
    top, halted = build_faithful(["a", "b"], max_atoms=32)
    # one partition per advance, plus the one over budget that ended the build
    assert not halted and calls == [s.index for s in top.levels]


def test_advance_rejects_partition_of_another_condition():
    s0 = new_stage0(["a", "b"])
    with pytest.raises(ValueError):
        advance(s0, 0b1010, tdata=partition_data(s0, 0b0110))


def test_targeted_build_zero_advances_for_top():
    stage = build_for_formulas(["a", "b"], [L2.parse("T")])
    assert stage.index == 0


def test_budget_exceeded_reports_blocker():
    deep = L2.parse("(a | ((b | a) | (a | b)))")
    with pytest.raises(BudgetExceeded):
        build_for_formulas(["a", "b"], [deep], max_atoms=8)


def test_coherence_rule_reuses_chain_orientation():
    s0 = new_stage0(["a", "b"])
    s1 = verified(advance(s0, 0b1010))
    mu_b = s1.embed(0b1010)
    # asking for the complement is normalized back to the chain's side
    assert select_condition(s1, target=s1.complement(mu_b)) == mu_b


def test_faithful_two_atoms_within_budget():
    stages = build_faithful(["a", "b"], max_atoms=32)[0].levels
    sizes = [s.size for s in stages]
    assert sizes[0] == 4 and all(x <= 32 for x in sizes)
    assert len(sizes) >= 3
    for s in stages[1:]:
        assert verify_stage(s).ok()


def test_dump_load_round_trip():
    stage = verified(build_for_formulas(["a", "b"], [L2.parse("(b | a)"), L2.parse("(a | b)")]))
    text = dump_stage(stage)
    back = load_stage(text)
    assert back.size == stage.size
    assert back.theta == stage.theta
    h = canonical_assignment(stage)
    probes = [0, h["a"], h["b"], stage.full, 0b1011, stage.embed(3)]
    conds = [0, stage.full] + stage.defined_conditions()
    for a in conds:
        for b in probes:
            assert back.apply_f(b, a) == stage.apply_f(b, a)


def test_load_stage_replays_every_level_and_rejects_tampering():
    stages = build_faithful(["a", "b"], max_atoms=32)[0].levels
    text = dump_stage(stages[-1])
    back = load_stage(text)
    assert dump_stage(back) == text
    assert [s.size for s in back.levels] == [s.size for s in stages]
    for orig, loaded in zip(stages, back.levels):
        assert verify_stage(loaded).checks == verify_stage(orig).checks
    lines = text.splitlines()
    assert lines[11] == "  blocks: 0x7 0x8 0x10 0x20"
    tampered = lines[:11] + ["  blocks: 0x37 0x8 0x10 0x20"] + lines[12:]
    with pytest.raises(ValueError, match="^line 12: expected blocks: 0x7 "):
        load_stage("\n".join(tampered))
    # trivial, out of the stage, not hex, a larger stage than declared, and
    # another condition of the declared size, whose replay differs later
    for n, bad, named in ((9, "  b: 0x0", 9), (9, "  b: 0xf", 9), (9, "  b: 0x10", 9),
                          (9, "  b: zz", 9), (17, "  b: 0x3", 17), (17, "  b: 0x1", 15)):
        with pytest.raises(ValueError, match=f"^line {named}: "):
            load_stage("\n".join(lines[:n - 1] + [bad] + lines[n:]))
    with pytest.raises(ValueError, match="^line 34: expected end of file"):
        load_stage(text + "chain: extra\n")
    with pytest.raises(ValueError, match="^line 33: expected chain: .*, got end of file"):
        load_stage("\n".join(lines[:-1]))


def test_generating_partition_bound_single_atom():
    # conjunctions sigma /\ (sigma'|beta) /\ (sigma''|!beta) over the stage-1
    # model: the number of distinct nonempty values is bounded by the number
    # of points
    s1 = stage1_single_atom()
    h = canonical_assignment(s1)
    beta = s1.complement(h["a"])  # the chosen condition chain is {u} = "not a"
    values = set()
    sigmas = [h["a"], s1.complement(h["a"])]
    for s in sigmas:
        for s2 in sigmas:
            for s3 in sigmas:
                v1 = s1.apply_f(s2, beta)
                v2 = s1.apply_f(s3, s1.complement(beta))
                assert v1 is not None and v2 is not None
                values.add(s & v1 & v2)
    values.discard(0)
    assert len(values) <= s1.size


# -- the per-point operator tables against the walk-based reference ---------

@pytest.fixture(scope="module")
def towers():
    """Faithful {a} and {a,b} towers and the targeted (b|a), (a|b) towers."""
    out = [list(build_faithful(theta, max_atoms=32)[0].levels)
           for theta in (["a"], ["a", "b"])]
    for text in ("(b | a)", "(a | b)"):
        stage = build_for_formulas(["a", "b"], [L2.parse(text)])
        out.append(list(stage.levels))
    return out


def _conditions(stage, rng):
    """0, full, every defined condition and up to three seeded non-chain
    masks (a 2-point stage has none)."""
    masks = (rng.getrandbits(stage.size) for _ in range(50))
    others = [m for m in masks if 0 < m < stage.full and stage.chain_for(m) is None]
    return [0, stage.full] + stage.defined_conditions() + others[:3]


def test_operator_tables_agree_with_the_walk_on_small_stages(towers):
    rng = random.Random(8)
    stages = [s for tower in towers for s in tower if s.size <= 10]
    assert sorted(s.size for s in stages) == [2, 2, 4, 4, 4, 6, 8, 8, 10]
    compared = 0
    for s in stages:
        assert s.defined_conditions() == [m for c in s.chains for m in (c.mask, s.full ^ c.mask)]
        for a in _conditions(s, rng):
            for b in range(1 << s.size):
                assert s.apply_f(b, a) == reference_apply_f(s, b, a), (s.index, b, a)
                compared += 1
    assert compared > 10_000


def test_operator_tables_agree_with_the_walk_on_32_points(towers):
    rng = random.Random(32)
    s = towers[1][-1]
    assert s.size == 32
    bs = [rng.getrandbits(32) for _ in range(300)]
    for level in range(s.index):     # images of lower-level elements
        size = s.levels[level].size
        bs += [s.embed_from(level, rng.getrandbits(size)) for _ in range(300)]
    defined = 0
    for a in _conditions(s, rng):
        for b in bs:
            got = s.apply_f(b, a)
            assert got == reference_apply_f(s, b, a), (b, a)
            defined += got is not None
    assert defined > 1000


def test_tables_agree_with_the_tower_walk(towers):
    rng = random.Random(9)
    checked = unions = 0
    for tower in towers:
        top = tower[-1]
        assert top.levels == tuple(tower)
        for s in tower:
            assert s.levels == tuple(tower[:s.index + 1])
            if s.index:
                assert s._swap == reference_swap(s)
                assert s.fibres[s.index - 1] == s.blocks
            for level in range(s.index + 1):
                size = tower[level].size
                assert s.fibres[level] == tuple(walk_embed_from(s, level, 1 << q)
                                                for q in range(size))
                masks = [rng.getrandbits(s.size) for _ in range(20)]
                masks += [s.embed_from(level, rng.getrandbits(size)) for _ in range(20)]
                for m in masks:
                    low = s.unembed_to(level, m)
                    assert low == walk_unembed_to(s, level, m), (s.index, level, m)
                    assert s.rank(m) == walk_rank(s, m), (s.index, m)
                    unions += low is not None
                    checked += 1
    assert checked == 760 and 380 < unions < 760


def test_apply_f_edge_cases():
    s = stage1_single_atom()
    assert [s.apply_f(b, a) for a in (0, s.full) for b in range(4)] == [0, 1, 2, 3] * 2
    assert new_stage0(["a", "b"]).apply_f(3, 1) is None         # no chain
    for bad in (-1, s.full + 1, 1 << 40):
        for a in (1, 2, 0, s.full):            # chain and trivial conditions
            with pytest.raises(ValueError, match=f"{bad:#x} is not an element of stage 1"):
                s.apply_f(bad, a)
        for b in (0, 1, s.full):               # a condition outside the stage
            with pytest.raises(ValueError, match=f"{bad:#x} is not an element of stage 1"):
                s.apply_f(b, bad)
    s0 = new_stage0(["a", "b"])
    with pytest.raises(ValueError, match="0x10 is not an element of stage 0"):
        s0.apply_f(1 << 4, 1)                                   # a condition on no chain


@contextmanager
def _row_changed(monkeypatch, s, a, p, change):
    """Stage s with the row of f(., a) at point p set to change(rows)."""
    rows_of = Stage._point_rows

    def tampered(self, level, a_mask):
        rows = rows_of(self, level, a_mask)
        if self is s and a_mask == a:
            rows[p] = change(rows)
        return rows

    with monkeypatch.context() as patch:
        patch.setattr(Stage, "_point_rows", tampered)
        s._f_tables.clear()
        try:
            yield
        finally:
            s._f_tables.clear()


def test_corrupted_operator_row_fails_verification(towers, monkeypatch):
    caught = cases = 0
    for s in towers[1][1:3]:               # the 6- and 10-point faithful stages
        assert verify_stage(s).ok()
        for a, p, how, change in row_tampers(s):
            if how == "complement":
                with _row_changed(monkeypatch, s, a, p, change):
                    cases += 1
                    caught += not verify_stage(s).ok()
    assert (caught, cases) == (52, 52)


def test_verify_totals_on_the_faithful_two_atom_stages(towers):
    totals = []
    for s in towers[1][1:]:
        rep = verify_stage(s)
        totals.append((sum(p for p, _ in rep.checks.values()),
                       sum(k for _, k in rep.checks.values())))
    assert totals == [(258, 6), (704, 16), (2_644, 48)]


def test_failed_stage_identities_count_no_pass(towers):
    s = towers[1][1]                       # the 6-point faithful stage, b = 0x1
    # b = 0x3 asks for 8 points, not 6; b = 0xe gives mu(b) the other half
    for b, failed, passed in ((0b0011, {"cardinality", "mu-b", "mu-b-swap"}, 0),
                              (0b1110, {"mu-b"}, 1)):
        t = replace(s.transition, b_mask=b, pi=(b,), gamma=(s.parent.full ^ b,))
        rep = verify_stage(Stage(s.theta, s.index, s.points, s.parent, s.blocks, t, s.chains))
        assert set(rep.failures()) == failed
        assert rep.checks["cardinality"] == (passed, 0)
        assert rep.checks["mu-b-corollaries"] == (passed, 0)


def test_chain_that_is_no_union_of_its_fibres_has_no_rows(towers):
    # the lowest point of a block inside an inherited chain moves into a block
    # outside it, and the chains are kept: f(., A) has no rows, and the
    # verifier reports that instead of raising
    s = towers[1][2]                       # the 10-point faithful stage
    cases = 0
    for c in s.chains:
        if c.processed_at == s.index:
            continue
        for i, j in permutations(range(len(s.blocks)), 2):
            if not s.blocks[i] & c.mask or s.blocks[j] & c.mask:
                continue
            blocks = list(s.blocks)
            low = blocks[i] & -blocks[i]
            blocks[i] ^= low
            blocks[j] |= low
            bad = Stage(s.theta, s.index, s.points, s.parent, blocks, s.transition, s.chains)
            assert bad.apply_f(0, c.mask) is None and bad.apply_f(bad.full, c.mask) is None
            assert "chains" in verify_stage(bad).failures()
            cases += 1
    assert cases == 9


def _block_tampers(s):
    """Per ordered pair of blocks, the stage with the lowest point of the
    first moved into the second; the chains of the parent are embedded
    through the changed blocks, as `advance` would have done."""
    for i, j in permutations(range(len(s.blocks)), 2):
        blocks = list(s.blocks)
        low = blocks[i] & -blocks[i]
        blocks[i] ^= low
        blocks[j] |= low
        image = lambda m: sum(blk for x, blk in enumerate(blocks) if m >> x & 1)
        chains = [c if c.processed_at == s.index else replace(c, mask=image(s.parent.chains[k].mask))
                  for k, c in enumerate(s.chains)]
        yield Stage(s.theta, s.index, s.points, s.parent, blocks, s.transition, chains)


def test_exact_verifier_agrees_with_the_sampling_reference(towers, monkeypatch):
    stages = [s for tower in towers for s in tower if s.size <= 10]
    verdicts = []
    for s in stages:
        assert verify_stage(s).ok() and reference_verify_stage(s).ok()
        if s.index == 0:
            continue
        for a, p, how, change in row_tampers(s):
            with _row_changed(monkeypatch, s, a, p, change):
                got, want = verify_stage(s).ok(), reference_verify_stage(s).ok()
            assert got == want, (how, s.size, a, p)
            verdicts.append(got)
        for bad in _block_tampers(s):
            got, want = verify_stage(bad).ok(), reference_verify_stage(bad).ok()
            assert got == want, ("blocks", s.size, bad.blocks)
            verdicts.append(got)
    assert len(verdicts) == 264 + 68
    assert 0 < verdicts.count(True) < len(verdicts)


# -- targeted build: the scan resumes after a skip ---------------------------

DELTAS = default_lewis_deltas(L2)
TARGETS = st.one_of(st.sampled_from(DELTAS), st.recursive(
    st.sampled_from([Atom("a"), Atom("b"), L2.top]),
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(children, children).map(lambda t: Implies(*t)),
        st.tuples(children, children).map(lambda t: Cond(*t))),
    max_leaves=6))


def _build_outcome(build, targets, max_atoms, skip):
    """The tower a build returns, level by level, or its BudgetExceeded text."""
    try:
        stage = build(["a", "b"], targets, max_atoms=max_atoms, skip_unaffordable=skip)
    except BudgetExceeded as e:
        return str(e)
    return [(s.index, s.points, s.blocks, s.chains, s.transition) for s in stage.levels]


@settings(max_examples=150, deadline=None)
@given(st.lists(TARGETS, max_size=8), st.booleans(), st.sampled_from([0, 4, 6, 8, 32]),
       st.booleans(), st.randoms(use_true_random=False))
def test_targeted_build_agrees_with_the_restarting_reference(targets, all_deltas, max_atoms,
                                                              skip, rng):
    if all_deltas:
        targets = targets + DELTAS
        rng.shuffle(targets)
    got = _build_outcome(build_for_formulas, targets, max_atoms, skip)
    want = _build_outcome(reference_build_for_formulas, targets, max_atoms, skip)
    assert got == want


def test_targeted_build_scans_each_stage_once_past_a_skip(monkeypatch):
    # the targets of a --lewis op at the workbench's 8-point budget: the
    # scan that restarted after each of the many skips made 583 calls here
    targets = [L2.parse("(a | a -> b)"), L2.parse("!a <-> a")] + DELTAS
    calls = []
    original = construction.evaluate

    def counting_evaluate(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(construction, "evaluate", counting_evaluate)
    stage = build_for_formulas(["a", "b"], targets, max_atoms=8, skip_unaffordable=True)
    assert stage.size == 6
    assert len(calls) == 67
