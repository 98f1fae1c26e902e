import random

import pytest

from dblogic import construction
from dblogic.construction import (
    BudgetExceeded, ConstructionError, Stage, advance,
    build_faithful, build_for_formulas, canonical_assignment, classify_case,
    dump_stage, load_stage, new_stage0, partition_data,
    select_condition, verify_stage,
)
from dblogic.syntax import Language

from stage_reference import (
    reference_apply_f, reference_swap, walk_embed_from, walk_rank, walk_unembed_to,
)

L1 = Language(["a"])
L2 = Language(["a", "b"])


def stage1_single_atom():
    s0 = new_stage0(["a"])
    return advance(s0, select_condition(s0))


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
    stages, halted = build_faithful(["a"])
    assert halted and [s.size for s in stages] == [2, 2]


def test_case_classification():
    s0 = new_stage0(["a"])
    assert classify_case(s0, 1) == (1, None)
    s1 = advance(s0, 1)
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
    s1 = advance(s0, xi_a)
    assert s1.size == 8


def test_mu_is_boolean_morphism_single_atom():
    s0 = new_stage0(["a"])
    mu = advance(s0, 1, verify=False).embed
    assert mu(1) == 0b01   # mu({u}) = {(u,v)}
    assert mu(2) == 0b10   # mu({v}) = {(v,u)}
    assert mu(0) == 0
    assert mu(3) == 0b11
    s1 = advance(s0, 1)
    for a in range(4):
        for b in range(4):
            assert s1.embed(a & b) == s1.embed(a) & s1.embed(b)
            assert s1.embed(a | b) == s1.embed(a) | s1.embed(b)


def test_mu_b_corollaries():
    s0 = new_stage0(["a", "b"])
    s1 = advance(s0, 0b1010)
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
    s1 = advance(s0, 1)
    assert s1.rank(s1.embed(1)) == 0
    assert s1.rank(s1.embed(2)) == 0
    s0b = new_stage0(["a", "b"])
    s1b = advance(s0b, 0b1010)
    # a genuinely new element (half of one block) first occurs at stage 1
    blk = s1b.blocks[1]
    low = blk & -blk
    assert s1b.rank(low) == 1
    assert s1b.rank(s1b.embed(0b0110)) == 0


def test_canonical_assignment():
    s0 = new_stage0(["a"])
    assert canonical_assignment(s0) == {"a": 2}
    s1 = advance(s0, 1)
    assert canonical_assignment(s1) == {"a": 2}  # image of {v} is {(v,u)}


def test_targeted_build_one_advance():
    stage, _ = build_for_formulas(["a", "b"], [L2.parse("(b | a)")])
    assert stage.index == 1 and stage.size == 8
    h = canonical_assignment(stage)
    assert stage.apply_f(h["b"], h["a"]) is not None


def test_targeted_build_verifies_each_stage_once(monkeypatch):
    calls = []

    def counting_verify(stage, rng=None):
        calls.append(stage.index)
        return construction.CheckReport()

    monkeypatch.setattr(construction, "verify_stage", counting_verify)
    stage, reports = build_for_formulas(["a", "b"], [L2.parse("(b | a)"), L2.parse("(a | b)")])
    assert stage.index == 2
    assert calls == [1, 2] and len(reports) == 2


def test_builds_compute_each_partition_once(monkeypatch):
    calls = []
    original = construction.partition_data

    def counting_partition(stage, b_mask):
        calls.append(stage.index)
        return original(stage, b_mask)

    monkeypatch.setattr(construction, "partition_data", counting_partition)
    stage, _ = build_for_formulas(["a", "b"], [L2.parse("(b | a)"), L2.parse("(a | b)")],
                                  verify=False)
    assert stage.index == 2 and calls == [0, 1]
    calls.clear()
    stages, halted = build_faithful(["a", "b"], max_atoms=32, verify=False)
    # one partition per advance, plus the one over budget that ended the build
    assert not halted and calls == [s.index for s in stages]


def test_advance_rejects_partition_of_another_condition():
    s0 = new_stage0(["a", "b"])
    with pytest.raises(ValueError):
        advance(s0, 0b1010, verify=False, tdata=partition_data(s0, 0b0110))


def test_targeted_build_zero_advances_for_top():
    stage, _ = build_for_formulas(["a", "b"], [L2.parse("T")])
    assert stage.index == 0


def test_budget_exceeded_reports_blocker():
    deep = L2.parse("(a | ((b | a) | (a | b)))")
    with pytest.raises(BudgetExceeded):
        build_for_formulas(["a", "b"], [deep], max_atoms=8)


def test_coherence_rule_reuses_chain_orientation():
    s0 = new_stage0(["a", "b"])
    s1 = advance(s0, 0b1010)
    mu_b = s1.embed(0b1010)
    # asking for the complement is normalized back to the chain's side
    assert select_condition(s1, target=s1.complement(mu_b)) == mu_b


def test_faithful_two_atoms_within_budget():
    stages, halted = build_faithful(["a", "b"], max_atoms=32, verify=False)
    sizes = [s.size for s in stages]
    assert sizes[0] == 4 and all(x <= 32 for x in sizes)
    assert len(sizes) >= 3
    for s in stages[1:]:
        assert verify_stage(s).ok()


def test_dump_load_round_trip():
    stage, _ = build_for_formulas(["a", "b"], [L2.parse("(b | a)"), L2.parse("(a | b)")])
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
    stages, _ = build_faithful(["a", "b"], max_atoms=32, verify=False)
    text = dump_stage(stages[-1])
    back = load_stage(text)
    assert dump_stage(back) == text
    assert [s.size for s in back.tower()] == [s.size for s in stages]
    for orig, loaded in zip(stages, back.tower()):
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
    out = [build_faithful(theta, max_atoms=32, verify=False)[0]
           for theta in (["a"], ["a", "b"])]
    for text in ("(b | a)", "(a | b)"):
        stage, _ = build_for_formulas(["a", "b"], [L2.parse(text)], verify=False)
        out.append(stage.tower())
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
        size = s.stage_at(level).size
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
        assert top.tower() == tower and top.levels == tuple(tower)
        for s in tower:
            assert [s.stage_at(level) for level in range(s.index + 1)] == tower[:s.index + 1]
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


def test_corrupted_operator_row_fails_verification(towers, monkeypatch):
    rows_of = Stage._point_rows
    caught = cases = 0
    for s in towers[1][1:3]:               # the 6- and 10-point faithful stages
        assert verify_stage(s).ok()
        for a in s.defined_conditions():
            for p in range(s.size):
                def corrupt(self, level, a_mask, s=s, a=a, p=p):
                    rows = rows_of(self, level, a_mask)
                    if self is s and a_mask == a:
                        rows[p] ^= self.full << self.size   # complement the row
                    return rows
                monkeypatch.setattr(Stage, "_point_rows", corrupt)
                s._f_tables.clear()
                cases += 1
                caught += not verify_stage(s).ok()
                monkeypatch.setattr(Stage, "_point_rows", rows_of)
                s._f_tables.clear()
    assert (caught, cases) == (52, 52)


def test_verify_totals_on_the_faithful_two_atom_stages(towers):
    totals = []
    for s in towers[1][1:]:
        rep = verify_stage(s)
        totals.append((sum(p for p, _ in rep.checks.values()),
                       sum(k for _, k in rep.checks.values())))
    assert totals == [(1_086, 12), (142_148, 596), (297_226, 566)]
