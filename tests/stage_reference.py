"""Test-only references for the stage tables, walking the tower one stage at
a time through the `parent` links and `blocks` rather than reading `levels`
and `fibres`.

`reference_apply_f` is the walk-based operator the per-point tables
replaced: it un-embeds both arguments to the level where the condition's
chain was last processed, applies f(B, A) = (id u T)(B & A) there and embeds
the result back up.  `reference_swap` is T built from nested pair objects,
looked up by value, as the stage's swap table was before points became
index pairs.  `reference_verify_stage` is the element-sampling stage verifier
that `construction.verify_stage` replaced, with every level of at most 10
points checked exhaustively.  `reference_build_for_formulas` is the targeted
build that starts its scan over from the first formula after every skip.
`row_tampers` lists changed rows of f and `with_row` puts one into a copy
of a stage, for the tests that hold the verifier and `entails` to their
references on stages whose rows are wrong."""

import copy

from random import Random
from typing import Sequence

from dblogic.construction import (
    BudgetExceeded, CheckReport, ConstructionError, Stage, _bits, _check_partition,
    advance, canonical_assignment, check_beta_laws, new_stage0, partition_data,
    select_condition,
)
from dblogic.syntax import Formula, evaluate

_VERIFY_LIMIT = 10
_VERIFY_SAMPLES = 10_000
_ENUM_LIMIT = 12


def walk_embed_from(stage: Stage, level: int, mask: int) -> int:
    if stage.index <= level:
        return mask
    return stage.embed(walk_embed_from(stage.parent, level, mask))


def walk_unembed(stage: Stage, mask: int) -> int | None:
    """Pre-image under the last embedding, or None if no union of blocks."""
    out, rest = 0, mask
    for i, block in enumerate(stage.blocks):
        if block & mask and block & mask == block:
            out |= 1 << i
            rest &= ~block
    return out if rest == 0 else None


def walk_unembed_to(stage: Stage, level: int, mask: int) -> int | None:
    while stage.index > level and mask is not None:
        mask = walk_unembed(stage, mask)
        stage = stage.parent
    return mask


def walk_rank(stage: Stage, mask: int) -> int:
    while stage.index > 0:
        prev = walk_unembed(stage, mask)
        if prev is None:
            return stage.index
        mask, stage = prev, stage.parent
    return 0


def level_images(stage: Stage, level: int) -> list[int] | None:
    """Every current-stage image of a level-`level` element, or None when
    that level has more than _ENUM_LIMIT points."""
    size = stage.levels[level].size
    if size > _ENUM_LIMIT:
        return None
    return [stage.embed_from(level, m) for m in range(1 << size)]


def reference_swap(stage: Stage) -> tuple[int, ...]:
    """T as point indices: the point (x, y) goes to the point (y, x), both
    spelled out down to stage-0 valuation bits."""
    def spelled(s: Stage) -> list:
        if s.parent is None:
            return list(s.points)
        below = spelled(s.parent)
        return [(below[x], below[y]) for x, y in s.points]

    objects = spelled(stage)
    where = {p: i for i, p in enumerate(objects)}
    return tuple(where[second, first] for first, second in objects)


def reference_apply_f(stage: Stage, b_mask: int, a_mask: int) -> int | None:
    if a_mask == 0 or a_mask == stage.full:
        return b_mask
    found = stage.chain_for(a_mask)
    if found is None:
        return None
    level = found[0].processed_at
    b_low = walk_unembed_to(stage, level, b_mask)
    if b_low is None:
        return None
    a_low = walk_unembed_to(stage, level, a_mask)
    inter = b_low & a_low
    low = stage
    while low.index > level:
        low = low.parent
    return walk_embed_from(stage, level, inter | low.swap_pairs(inter))


def reference_verify_stage(stage: Stage, rng: Random | None = None) -> CheckReport:
    """The sampling stage verifier the exact one replaced, unchanged but for
    its limit: every element of a level of at most _VERIFY_LIMIT points,
    _VERIFY_SAMPLES seeded ones of a larger level (the trivial conditions
    on 64 seeded elements, and an unchecked tally at stage 0)."""
    if rng is None:
        rng = Random(0)
    rep = CheckReport()

    if stage.index == 0:
        rep.record("trivial-conditions", 1 << min(stage.size, _VERIFY_LIMIT))
        return rep

    parent = stage.parent
    tdata = stage.transition

    # cardinality and partition identities (exact, always)
    if stage.size != tdata.next_size:
        rep.record("cardinality", 0, 0,
                   f"|atoms|={stage.size} expected {tdata.next_size}")
    rep.record("cardinality", 1)
    try:
        _check_partition(parent, tdata.b_mask, tdata.pi, tdata.gamma)
        rep.record("partition-identities", 1)
    except ConstructionError as e:
        rep.record("partition-identities", 0, 0, str(e))

    mu_b = stage.embed(tdata.b_mask)
    if mu_b != (1 << (stage.size // 2)) - 1:
        rep.record("mu-b", 0, 0, "mu(b) is not the positive half")
    if stage.complement(mu_b) != stage.swap_pairs(mu_b):
        rep.record("mu-b-swap", 0, 0, "~mu(b) differs from T(mu(b))")
    rep.record("mu-b-corollaries", 2)

    # alpha1: blocks nonempty, disjoint, covering, and each image the union
    # of its points' blocks -- together exactly an injective Boolean morphism
    union = 0
    ok = True
    for i, blk in enumerate(stage.blocks):
        if blk == 0:
            rep.record("alpha1", 0, 0, f"empty block for parent atom {i}")
            ok = False
        if blk & union:
            rep.record("alpha1", 0, 0, f"block {i} overlaps earlier blocks")
            ok = False
        union |= blk
    if union != stage.full:
        rep.record("alpha1", 0, 0, "blocks do not cover the new universe")
        ok = False
    rep.record("alpha1-block-partition", len(stage.blocks) if ok else 0)

    if parent.size <= _VERIFY_LIMIT:
        elems = range(1 << parent.size)
    else:
        elems = [rng.getrandbits(parent.size) for _ in range(_VERIFY_SAMPLES)]
    good = 0
    for a in elems:
        union = 0
        for i in _bits(a):
            union |= stage.blocks[i]
        if stage.embed(a) != union:
            rep.record("alpha1", 0, 0, f"image is not the union of its blocks at A={a:#x}")
            break
        good += 1
    rep.record("alpha1-morphism", good)

    # alpha2: f commutes with the embedding on the inherited domain (exact)
    good = skipped = 0
    for cond in parent.defined_conditions() + [0, parent.full]:
        chain_info = parent.chain_for(cond)
        level = chain_info[0].processed_at if chain_info else parent.index
        elems = level_images(parent, level)
        if elems is None:
            size = parent.levels[level].size
            elems = [parent.embed_from(level, rng.getrandbits(size))
                     for _ in range(_VERIFY_SAMPLES // 10)]
        for b in elems:
            fv = parent.apply_f(b, cond)
            if fv is None:
                skipped += 1
                continue
            lhs = stage.apply_f(stage.embed(b), stage.embed(cond))
            if lhs != stage.embed(fv):
                rep.record("alpha2", 0, 0,
                           f"f does not commute with mu at B={b:#x} A={cond:#x}")
                break
            good += 1
    rep.record("alpha2", good, skipped)

    # beta laws on the defined domain of the new stage
    def defined_pools(cond: int) -> tuple[list[int], tuple[int, ...]]:
        level = stage.chain_for(cond)[0].processed_at
        size = stage.levels[level].size
        elems = [stage.embed_from(level, m) for m in
                 (range(1 << size) if size <= _VERIFY_LIMIT
                  else (rng.getrandbits(size) for _ in range(_VERIFY_SAMPLES)))]
        return elems, stage.fibres[level]

    check_beta_laws(stage.apply_f, stage.full, stage.defined_conditions(),
                    defined_pools, rep)

    # trivial conditions
    probe = [rng.getrandbits(stage.size) for _ in range(64)]
    for b in probe:
        if stage.apply_f(b, 0) != b or stage.apply_f(b, stage.full) != b:
            rep.record("trivial-conditions", 0, 0, f"f(B, empty/full) != B at B={b:#x}")
            break
    rep.record("trivial-conditions", len(probe))

    # rank consistency: images keep their rank, genuinely new points get n
    good = 0
    for i, blk in enumerate(stage.blocks):
        if bin(blk).count("1") == 1:
            if stage.rank(blk) != parent.rank(1 << i):
                rep.record("ranks", 0, 0, f"embedded singleton changed rank at atom {i}")
                break
        good += 1
    sample_elems = level_images(parent, parent.index) or [
        rng.getrandbits(parent.size) for _ in range(256)]
    for m in sample_elems[: 1 << _VERIFY_LIMIT]:
        if stage.rank(stage.embed(m)) != parent.rank(m):
            rep.record("ranks", 0, 0, f"embedding changed rank of {m:#x}")
            break
        good += 1
    rep.record("ranks", good)

    return rep


def reference_build_for_formulas(theta: Sequence[str], formulas: Sequence[Formula],
                                 max_atoms: int = 32,
                                 skip_unaffordable: bool = False) -> Stage:
    """The targeted build whose scan restarts from the first formula, with a
    fresh canonical assignment, after an advance and after a skip alike."""
    stage = new_stage0(theta)
    pending = list(formulas)
    while True:
        h = canonical_assignment(stage)
        for f in pending:
            blocking = evaluate(f, h, stage.full, stage.apply_f)[1]
            if blocking is not None:
                break
        else:
            return stage
        b = select_condition(stage, target=blocking)
        tdata = partition_data(stage, b)
        if tdata.next_size > max_atoms:
            if skip_unaffordable:
                pending.remove(f)
                continue
            raise BudgetExceeded(f"element {b:#x} at stage {stage.index}",
                                 stage.size, tdata.next_size)
        stage = advance(stage, b, tdata=tdata)


def row_tampers(s: Stage):
    """Per defined condition A and point p, three changes of the row of
    f(., A) at p, its fibre half kept: complemented, its own bit flipped,
    and the next point's row copied in."""
    n, full = s.size, s.full
    for a in s.defined_conditions():
        for p in range(n):
            yield a, p, "complement", lambda rows, p=p: rows[p] ^ full << n
            yield a, p, "own bit", lambda rows, p=p: rows[p] ^ 1 << p << n
            yield a, p, "next row", lambda rows, p=p: rows[(p + 1) % n] >> n << n | rows[p] & full


def with_row(stage: Stage, a: int, p: int, change) -> Stage:
    """A copy of `stage` whose row of f(., a) at point p, as
    `Stage._point_rows` gives it, is change(rows): `apply_f` and `f_rows`
    both read the changed row."""
    out = copy.copy(stage)
    out._f_tables = {}

    def point_rows(level: int, a_mask: int) -> list[int] | None:
        rows = Stage._point_rows(out, level, a_mask)
        if rows is not None and a_mask == a:
            rows[p] = change(rows)
        return rows

    out._point_rows = point_rows
    return out

