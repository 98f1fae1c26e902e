"""Semantic evaluation on a stage: homomorphic assignments and entailment.

The one model is a stage of the free construction (`construction.Stage`): a
powerset algebra over its points (elements are int bitmasks) plus the
partial conditional operator `Stage.apply_f`.  Undefinedness is a value, not
an error: the free model defines f progressively, so evaluation reports the
offending condition element and entailment counts skipped assignments
instead of guessing.

Formula values come from the one bit-parallel evaluator, `syntax.evaluate`;
`ConditionalAssignment` is its front-end on a stage, memoized by formula.
`entails` runs it a block of assignments at a time.  A block packs up to
`MAX_BLOCK` consecutive assignments into one int, one byte-aligned slot per
assignment: the slot holds the element's `size` bits and, just above them,
an "undefined" flag bit.  Every atom column, and `full`, is packed the same
way, so ``full ^ v`` and ``(full ^ l) | r`` -- the evaluator's `!` and
`->` -- act on each slot exactly as on one assignment's element: xor and or
are bitwise, so no bit crosses from one slot to the next, and as `full` has
no flag bit, the flag of ``full ^ v`` is v's and the flag of
``(full ^ l) | r`` is l's or r's.  A flagged slot's element bits mean
nothing; the flag stays set through every node above it.  Only ``(B | A)``
is taken slot by slot, through a memo of `Stage.apply_f`, and its slot is
flagged when either input slot is or f is undefined there.  So a slot's
flag is set exactly when evaluating that one assignment gives None, and
otherwise the slot holds its value.  The laws of f are checked on each
stage by `construction.verify_stage`.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from random import Random
from typing import Mapping

from .construction import Stage
from .syntax import Formula, Sequent, atoms as formula_atoms, evaluate

__all__ = ["ConditionalAssignment", "EntailmentResult", "entails", "MAX_BLOCK"]

MAX_BLOCK = 4096            # the most assignments `entails` decides at once
# an `array` type code for each item size in bytes, so slots unpack in C
_CODES = {array(code).itemsize: code for code in "QLIHB"}


# ---------------------------------------------------------------------------
# Assignments and evaluation
# ---------------------------------------------------------------------------

class ConditionalAssignment:
    """Unique homomorphic extension of an atom map, memoized by formula."""

    def __init__(self, stage: Stage, atom_map: Mapping[str, int]):
        self.stage = stage
        self.atom_map = dict(atom_map)
        self._memo: dict[Formula, tuple[int | None, int | None]] = {}

    def value(self, f: Formula) -> int | None:
        """Homomorphic value, or None when some required f row is missing."""
        hit = self._memo.get(f)
        if hit is None:
            hit = self._memo[f] = evaluate(f, self.atom_map, self.stage.full,
                                           self.stage.apply_f)
        return hit[0]

    def blocking_condition(self, f: Formula) -> int | None:
        """The innermost condition element whose f row was missing."""
        self.value(f)
        return self._memo[f][1]


# ---------------------------------------------------------------------------
# Entailment
# ---------------------------------------------------------------------------

@dataclass
class EntailmentResult:
    verdict: str                      # "holds" | "fails" | "undecided"
    checked: int
    skipped: int
    witness: dict[str, int] | None
    seed: int | None = None


class _Slots:
    """`count` elements of a `size`-point stage packed into one int, slot i
    in bits ``i * width`` on.  A slot has room for the element's bits and
    the flag bit at ``size``; its width is a whole number of bytes.  Up to
    63 points that is a power of two, 1 to 8 bytes, so that `array` packs
    and unpacks the slots; wider slots are cut out of the bytes one by one."""

    def __init__(self, size: int, count: int):
        nbytes = size // 8 + 1
        if nbytes <= 8:
            nbytes = 1 << (nbytes - 1).bit_length()
        self.nbytes, self.count, self.width = nbytes, count, 8 * nbytes
        self.code = _CODES.get(nbytes)
        ones = ((1 << self.width * count) - 1) // ((1 << self.width) - 1)
        self.full = ((1 << size) - 1) * ones     # every slot full
        self.flags = (1 << size) * ones          # every slot's flag bit

    def pack(self, values: list[int]) -> int:
        if self.code is not None:
            return int.from_bytes(array(self.code, values).tobytes(), sys.byteorder)
        return int.from_bytes(b"".join(v.to_bytes(self.nbytes, "little") for v in values),
                              "little")

    def unpack(self, x: int):
        """The slots of `x`, lowest first."""
        n = self.nbytes
        if self.code is not None:
            return memoryview(x.to_bytes(n * self.count, sys.byteorder)).cast(self.code)
        data = x.to_bytes(n * self.count, "little")
        return [int.from_bytes(data[k:k + n], "little") for k in range(0, len(data), n)]


def entails(stage: Stage, s: Sequent, samples: int | None = None,
            seed: int = 0) -> EntailmentResult:
    """Truth of a sequent on the stage: whenever every antecedent formula
    denotes the full element, some succedent formula must.  Exhaustive over
    all atom assignments when feasible, else seeded sampling of `samples`
    (at least 1) assignments; undefined assignments count as skips.

    An assignment is decided by the first antecedent formula (duplicates
    dropped) that is not full: undefined skips it, any other value lets the
    sequent hold.  When every antecedent formula is full, a full succedent
    formula makes it hold, else an undefined one skips it, else it fails.
    Assignments are visited in a fixed order -- exhaustively the first name
    varying fastest, else as a `Random(seed)` draws them, name after name --
    and decided a block of consecutive ones at a time (see the module
    docstring): 2**size of them, at most `MAX_BLOCK`, one slot each.

    Each formula's value is read per slot off two masks of flag-position
    bits: ``v & flags`` marks the undefined slots, and
    ``((~v & full) + full) & flags`` the slots that are not full, since
    ``~v & full`` holds a slot's missing points and adding the slot's
    `full` carries into its flag bit exactly when some point is missing,
    and never further.  The rules above then run as and, or and not on
    those masks, one mask per outcome, with the open slots those that no
    earlier formula decided.  ``(B | A)`` flags every decided slot without
    asking `Stage.apply_f`; as a block's decided slots only grow, a memo
    value made while fewer were decided stays valid.  Slot i is the i-th
    assignment of the block, so the lowest failing slot is the first
    failing assignment, and `checked` and `skipped` count the held and the
    skipped slots below it, after every earlier block's.  Verdict, witness
    and counts are those of deciding one assignment after the other
    (`tests/entails_reference.py`).
    """
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    names = sorted(set().union(*map(formula_atoms, s.antecedent + s.succedent)))
    size, full = stage.size, stage.full
    exhaustive = samples is None and len(names) * size <= 18
    total = 1 << len(names) * size if exhaustive else samples or 1000
    rng = None if exhaustive else Random(seed)
    ante = dict.fromkeys(s.antecedent)
    succ = dict.fromkeys(s.succedent)

    flag = 1 << size
    rows: dict[tuple[int, int], int] = {}   # (B, A) -> f(B, A), or `flag`

    def row(b: int, a: int) -> int:
        if (b | a) > full:                      # an input slot is flagged
            v = flag
        else:
            v = stage.apply_f(b, a)
            v = flag if v is None else v
        rows[b, a] = v
        return v

    skipped = checked = 0
    start, slots = 0, None
    while start < total:
        count = min(1 << size, MAX_BLOCK, total - start)
        if slots is None or slots.count != count:
            slots = _Slots(size, count)
        if exhaustive:
            columns = {n: [(i >> k * size) & full for i in range(start, start + count)]
                       for k, n in enumerate(names)}
        else:
            draws = [rng.getrandbits(size) for _ in range(count * len(names))]
            columns = {n: draws[k::len(names)] for k, n in enumerate(names)}
        start += count
        atom_map = {n: slots.pack(col) for n, col in columns.items()}
        unpack, pack = slots.unpack, slots.pack

        def cond(t: int, a: int) -> int:            # a decided slot is flagged
            return pack([rows[k] if k in rows else row(*k)
                         for k in zip(unpack(t | flags & ~open_ | any_full), unpack(a))])

        fulls, flags = slots.full, slots.flags
        memo: dict[Formula, int] = {}

        def outcome(g: Formula) -> tuple[int, int]:
            """The slots where `g` is full and those where it is undefined."""
            v = evaluate(g, atom_map, fulls, cond, memo=memo)[0]
            undefined = v & flags
            return flags & ~(((~v & fulls) + fulls) | undefined), undefined

        open_, held, skips, any_full = flags, 0, 0, 0
        for g in ante:
            if not open_:
                break
            is_full, undefined = outcome(g)
            skips |= open_ & undefined
            held |= open_ & ~(is_full | undefined)
            open_ &= is_full
        failing = 0
        if open_:
            any_undefined = 0
            for d in succ:                      # an antecedent node is full here
                if not open_ & ~any_full:
                    break
                is_full, undefined = (flags, 0) if d in ante else outcome(d)
                any_full |= is_full
                any_undefined |= undefined
            held |= open_ & any_full
            skips |= open_ & ~any_full & any_undefined
            failing = open_ & ~(any_full | any_undefined)
        if failing:
            first = failing & -failing
            i = (first.bit_length() - 1) // slots.width
            checked += (held & (first - 1)).bit_count()
            skipped += (skips & (first - 1)).bit_count()
            return EntailmentResult("fails", checked, skipped,
                                    {n: columns[n][i] for n in names},
                                    None if exhaustive else seed)
        checked += held.bit_count()
        skipped += skips.bit_count()
    return EntailmentResult("undecided" if skipped else "holds", checked, skipped,
                            None, None if exhaustive else seed)
