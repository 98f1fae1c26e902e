"""Test-only references for the stage tables, walking the tower one stage at
a time through the `parent` links and `blocks` rather than reading `levels`
and `fibres`.

`reference_apply_f` is the walk-based operator the per-point tables
replaced: it un-embeds both arguments to the level where the condition's
chain was last processed, applies f(B, A) = (id u T)(B & A) there and embeds
the result back up.  `reference_swap` is T built from nested pair objects,
looked up by value, as the stage's swap table was before points became
index pairs."""

from dblogic.construction import Stage


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
