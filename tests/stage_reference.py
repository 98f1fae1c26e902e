"""Test-only reference for `Stage.apply_f`: the walk-based operator the
per-point tables replaced.  It un-embeds both arguments to the level where
the condition's chain was last processed, applies f(B, A) = (id u T)(B & A)
there and embeds the result back up, one stage at a time."""

from dblogic.construction import Stage


def reference_apply_f(stage: Stage, b_mask: int, a_mask: int) -> int | None:
    if a_mask == 0 or a_mask == stage.full:
        return b_mask
    found = stage.chain_for(a_mask)
    if found is None:
        return None
    level = found[0].processed_at
    b_low = stage.unembed_to(level, b_mask)
    if b_low is None:
        return None
    a_low = stage.unembed_to(level, a_mask)
    inter = b_low & a_low
    return stage.embed_from(level, inter | stage.stage_at(level).swap_pairs(inter))
