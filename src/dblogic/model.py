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
nothing; the flag stays set through every node above it.  ``(B | A)``
takes the whole block too, by the rule of `Stage.f_rows`: B for a trivial
A, else the join of A's rows over the points of B where the join of their
fibres is B, else undefined.  Bit p of B, a 0/1 multiple of each slot's
lowest bit, times a row of `size` bits stays in the slot, so both joins are
exact slot by slot, and the slot is flagged when either input slot is or f
is undefined there.  So a slot's flag is set exactly when evaluating that
one assignment gives None, and otherwise the slot holds its value.  Per
condition, a ``(B | A)`` node costs a few operations on the block to find
the slots where A is that condition, and about six per point of the stage
if there are any.  The laws of f are checked on each stage by
`construction.verify_stage`.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from random import Random
from typing import Mapping

from .construction import Stage
from .syntax import Atom, Formula, Sequent, evaluate, leaves

__all__ = ["ConditionalAssignment", "EntailmentResult", "entails", "MAX_BLOCK"]

MAX_BLOCK = 4096            # the most assignments `entails` decides at once
# an `array` type code for each item size in bytes, so slots pack in C
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
    """`count` elements of `stage` packed into one int, slot i in bits
    ``i * width`` on, `width` a whole number of bytes: up to 63 points a
    power of two, 1 to 8, so that `array` packs the slots."""

    def __init__(self, stage: Stage, count: int):
        nbytes = stage.size // 8 + 1
        if nbytes <= 8:
            nbytes = 1 << (nbytes - 1).bit_length()
        self.stage, self.nbytes, self.count, self.width = stage, nbytes, count, 8 * nbytes
        self.code = _CODES.get(nbytes)
        self.full = self.copy(stage.full)       # every slot full
        self.flags = self.copy(stage.full + 1)  # every slot's flag bit
        # each condition in every slot, with its rows: none for 0 and full
        self.conditions = [(self.copy(c), None) for c in (0, stage.full)] + [
            (self.copy(c), rows) for c in stage.defined_conditions()
            if (rows := stage.f_rows(c)) is not None]

    def pack(self, values: list[int]) -> int:
        if self.code is not None:
            return int.from_bytes(array(self.code, values).tobytes(), sys.byteorder)
        return int.from_bytes(b"".join(v.to_bytes(self.nbytes, "little") for v in values), "little")

    def copy(self, element: int) -> int:
        return int.from_bytes(element.to_bytes(self.nbytes, "little") * self.count, "little")

    def conditional(self, b: int, a: int, open_: int) -> int:
        """(B | A) in every slot, flagged where an input slot is flagged or
        not in `open_`, or where `Stage.apply_f` is undefined.  A is c in
        the slots where ``(a ^ c) & full`` carries nothing into the flag;
        there f is B for a trivial c, else the join of c's rows."""
        fulls, size = self.full, self.stage.size
        live, out, defined = open_ & ~(a | b), 0, 0
        for copy, rows in self.conditions:
            hit = live & ~(((a ^ copy) & fulls) + fulls)      # A is the condition here
            if not hit:
                continue
            low = hit >> size                    # the lowest bit of each hit slot
            if rows is None:                     # 0 or full
                out |= b & (hit - low)
            else:
                fib = row = 0
                for p, fp, rp in zip(range(size), *rows):
                    at = b >> p & low
                    if at:
                        fib |= at * fp
                        row |= at * rp
                hit &= ~(((fib ^ b) & (hit - low)) + fulls)   # B a union of fibres
                out |= row                       # flagged where it is not
            defined |= hit
        return out | self.flags & ~defined


def entails(stage: Stage, s: Sequent, samples: int | None = None,
            seed: int = 0) -> EntailmentResult:
    """Truth of a sequent on the stage: whenever every antecedent formula
    denotes the full element, some succedent formula must.  Exhaustive over
    all atom assignments when feasible, else seeded sampling of `samples`
    (at least 1) assignments; undefined assignments count as skips.  Only
    an exhaustive run can show that the sequent holds: a sampled run that
    draws no failing assignment is `undecided`, whatever it skipped.

    An assignment is decided by the first antecedent formula (duplicates
    dropped) that is not full: undefined skips it, any other value lets the
    sequent hold.  When every antecedent formula is full, a full succedent
    formula makes it hold, else an undefined one skips it, else it fails.
    Assignments are visited in a fixed order -- exhaustively the first name
    varying fastest, else as a `Random(seed)` draws them, name after name --
    and decided a block of consecutive ones at a time (see the module
    docstring), one slot each: 2**size of them first, then as many as all
    earlier blocks, at most `MAX_BLOCK`.

    Each formula's value is read per slot off two masks of flag-position
    bits: ``v & flags`` marks the undefined slots, and
    ``((~v & full) + full) & flags`` the slots that are not full, since
    ``~v & full`` holds a slot's missing points and adding the slot's
    `full` carries into its flag bit exactly when some point is missing,
    and never further.  The rules above then run as and, or and not on
    those masks, one mask per outcome, with the open slots those that no
    earlier formula decided.  ``(B | A)`` flags every decided slot; as a
    block's decided slots only grow, a memo value made while fewer were
    decided stays valid.  Slot i is the i-th assignment of the block, so
    the lowest failing slot is the first failing assignment, and `checked`
    and `skipped` count the held and the skipped slots below it, after
    every earlier block's.  Verdict, witness and counts are those of
    deciding one assignment after the other (`tests/entails_reference.py`).
    """
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    names = sorted({g.name for g in leaves(s.antecedent + s.succedent) if isinstance(g, Atom)})
    size, full = stage.size, stage.full
    exhaustive = samples is None and len(names) * size <= 18
    total = 1 << len(names) * size if exhaustive else samples or 1000
    rng = None if exhaustive else Random(seed)
    ante, succ = dict.fromkeys(s.antecedent), dict.fromkeys(s.succedent)

    skipped = checked = 0
    start, slots = 0, None
    while start < total:
        count = min(max(1 << size, start), MAX_BLOCK, total - start)
        if slots is None or slots.count != count:
            slots = _Slots(stage, count)
        if exhaustive:
            columns = {n: [(i >> k * size) & full for i in range(start, start + count)]
                       for k, n in enumerate(names)}
        else:
            draws = [rng.getrandbits(size) for _ in range(count * len(names))]
            columns = {n: draws[k::len(names)] for k, n in enumerate(names)}
        start += count
        atom_map = {n: slots.pack(col) for n, col in columns.items()}
        fulls, flags = slots.full, slots.flags
        cond = lambda b, a: slots.conditional(b, a, open_ & ~any_full)  # decided: flagged
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
    return EntailmentResult("undecided" if skipped or not exhaustive else "holds", checked, skipped,
                            None, None if exhaustive else seed)
