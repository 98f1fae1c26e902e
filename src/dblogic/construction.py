"""Staged free-model construction.

Stage 0 is the powerset algebra over bit-vector valuations of the declared
atoms.  Each advance picks a nontrivial condition element b, splits the stage
into partition blocks, replaces every point by ordered pairs and extends the
conditional operator f so that conditioning on the (image of the) chosen
element becomes total: f(C, mu(b)) = (id u T)(C & mu(b)), where T swaps pair
components.  Previously defined rows of f are carried along the embedding.

Elements are int bitmasks over the stage's points (point i <-> bit i).  A
stage is three flat tables: `points` (at stage 0 the valuation bits, later
(x, y) index pairs into the parent's points), `levels` (the tower, bottom
stage first) and `fibres`, where fibres[L][q] is the image of level-L point q.
Embedding a level-L element joins the fibres of its points, un-embedding reads
which fibres it is a union of, and its rank is the lowest such level.

f is read off per-point tables.  For a condition A on a chain last processed
at level L, f(B, A) is defined exactly when B is the image of a level-L
element, that is a union of fibres (the images of the level-L points, which
partition the stage), and there it is the image of (id u T)(B & A), a join
over the level-L points of B.  The embedding preserves joins, so f(., A) is
additive over the fibres: f(B, A) is the join of one row per point of B, and
B is a union of fibres exactly when the join of the fibres of its points is
B.  `Stage.apply_f` reads both joins off 8-bit chunk tables, built on a
condition's first use and kept, since a stage never changes.

Two selection modes exist.  Faithful mode scores candidate conditions by
lambda(B) = r(B) + min rank of an element A with f(A, B) undefined, picks the
minimum (ties broken by smallest bitmask under the stage's atom ordering) and
keeps orientation coherent with earlier selections of the same chain.
Targeted mode processes a caller-supplied condition, which is sound because
every stage property holds for an arbitrary admissible choice; only the
totality-in-the-limit argument needs the faithful ranking.  The targeted
build finds its conditions with the shared evaluator, `syntax.evaluate`.

The laws of f are stated once, in `BETA_LAWS`: the axioms b1-b4 and b5w,
the derived identities, and the extra full symmetry b5.  `check_beta_laws`
runs that table; `verify_stage` applies it to each new stage next to the
embedding checks, and `model.check_beta_axioms` to any conditional model.
Both fill a `CheckReport`.  Laws over pairs of elements are checked exactly
on generators: f(., A) with f(0, A) = 0 preserves joins iff each f(B, A) is
the join of f(x, A) over the generators x <= B, and then meets iff
f(x & y, A) = f(x, A) & f(y, A) for any two generators x, y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Callable, Sequence

from .syntax import Formula, evaluate, truth_columns

__all__ = [
    "Chain", "Transition", "Stage",
    "ConstructionError", "BudgetExceeded", "new_stage0", "select_condition",
    "classify_case", "partition_data", "advance", "verify_stage",
    "canonical_assignment", "build_for_formulas", "build_faithful",
    "dump_stage", "load_stage", "CheckReport", "BETA_LAWS", "check_beta_laws",
]

MAX_THETA = 3
_ENUM_LIMIT = 12  # enumerate whole powersets only up to 2**_ENUM_LIMIT elements
# verify_stage checks every element of a level of at most _VERIFY_LIMIT
# points, and _VERIFY_SAMPLES seeded elements of a larger one
_VERIFY_LIMIT = 8
_VERIFY_SAMPLES = 10_000


class ConstructionError(RuntimeError):
    """Internal consistency failure during an advance; aborts the build."""


class BudgetExceeded(RuntimeError):
    def __init__(self, condition_text: str, size: int, needed: int):
        super().__init__(
            f"stage budget exceeded: resolving condition {condition_text} "
            f"needs {needed} points (current universe has {size})")
        self.condition_text = condition_text
        self.size = size
        self.needed = needed


@dataclass(frozen=True)
class Chain:
    """One condition lineage: where it was first/last selected and its
    current-stage image (in the orientation of the original selection)."""

    first_selected: int
    last_selected: int
    processed_at: int
    mask: int


@dataclass(frozen=True)
class Transition:
    """Partition data of the advance that created a stage, expressed at the
    parent stage."""

    case: int                      # 0 = re-processing, 1 = first time
    nu: int | None                 # previous selection stage for case 0
    b_mask: int                    # chosen condition, parent-stage mask
    pi: tuple[int, ...]            # partition blocks covering b
    gamma: tuple[int, ...]         # partition blocks covering ~b

    @property
    def next_size(self) -> int:
        """Point count of the next stage: 2 * sum |Pi_i| * |Gamma_i|."""
        return 2 * sum(bin(p).count("1") * bin(g).count("1")
                       for p, g in zip(self.pi, self.gamma))


class Stage:
    """One finite partial conditional model plus its embedding history, in
    flat tables: `points` (stage 0: the valuation bits; later: (x, y) index
    pairs into the parent's points), `levels` (the tower, bottom stage
    first) and `fibres` (per level, the images of that level's points)."""

    def __init__(self, theta: Sequence[str], index: int,
                 points: Sequence[int | tuple[int, int]], parent: "Stage | None",
                 blocks: Sequence[int] | None, transition: Transition | None,
                 chains: Sequence[Chain]):
        self.theta = tuple(theta)
        self.index = index
        self.points = tuple(points)
        self.parent = parent
        self.blocks = tuple(blocks) if blocks is not None else None
        self.transition = transition
        self.chains = tuple(chains)
        self.size = len(self.points)
        self.full = (1 << self.size) - 1
        self.levels: tuple[Stage, ...] = (parent.levels if parent else ()) + (self,)
        self._chain_of: dict[int, tuple[Chain, bool]] = {}
        for c in self.chains:  # the first chain wins, its mask before its complement
            self._chain_of.setdefault(c.mask, (c, False))
            self._chain_of.setdefault(self.full ^ c.mask, (c, True))
        self._f_tables: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._fibres: tuple[tuple[int, ...], ...] | None = None
        if index > 0:
            where = {p: i for i, p in enumerate(self.points)}
            self._swap = tuple(where[y, x] for x, y in self.points)
        else:
            self._swap = None

    @property
    def fibres(self) -> tuple[tuple[int, ...], ...]:
        """fibres[L][q]: the image in this stage of level-L point q.  Built
        on first use, from the parent's fibres and this stage's blocks."""
        if self._fibres is None:
            own = tuple(1 << p for p in range(self.size))
            below = self.parent.fibres if self.parent else ()
            self._fibres = tuple(tuple(map(self.embed, low)) for low in below) + (own,)
        return self._fibres

    # -- boolean algebra ----------------------------------------------------

    def complement(self, mask: int) -> int:
        return self.full ^ mask

    def swap_pairs(self, mask: int) -> int:
        out = 0
        for i in _bits(mask):
            out |= 1 << self._swap[i]
        return out

    # -- embeddings -----------------------------------------------------------

    def tower(self) -> list["Stage"]:
        """Stages 0..index of this stage's tower, the bottom stage first."""
        return list(self.levels)

    def stage_at(self, level: int) -> "Stage":
        if not 0 <= level <= self.index:
            raise ValueError(f"no stage {level} below stage {self.index}")
        return self.levels[level]

    def embed(self, parent_mask: int) -> int:
        """Image of a parent-stage element in this stage."""
        out = 0
        for i in _bits(parent_mask):
            out |= self.blocks[i]
        return out

    def unembed(self, mask: int) -> int | None:
        """Pre-image under the last embedding, or None if `mask` is not an
        exact union of blocks."""
        return self.unembed_to(self.index - 1, mask)

    def embed_from(self, level: int, mask: int) -> int:
        """Image of a level-`level` element: the join of its points' fibres."""
        if level == self.index:
            return mask
        fibres = self.fibres[level]
        out = 0
        for q in _bits(mask):
            out |= fibres[q]
        return out

    def unembed_to(self, level: int, mask: int) -> int | None:
        """Pre-image at `level`, or None if `mask` is not a union of that
        level's fibres."""
        if level == self.index:
            return mask
        out = joined = 0
        for q, fib in enumerate(self.fibres[level]):
            if fib & mask == fib:
                out |= 1 << q
                joined |= fib
        return out if joined == mask else None

    def rank(self, mask: int) -> int:
        """Stage at which the element first occurred: a union of level-L
        fibres is one of level-(L+1) fibres too, so the first level from the
        top whose fibres miss it is one below its rank."""
        for level in range(self.index - 1, -1, -1):
            if self.unembed_to(level, mask) is None:
                return level + 1
        return 0

    # -- conditional operator --------------------------------------------------

    def chain_for(self, mask: int) -> tuple[Chain, bool] | None:
        """Chain whose current image (or its complement) equals `mask`; the
        boolean says whether `mask` is the complement side."""
        return self._chain_of.get(mask)

    def apply_f(self, b_mask: int, a_mask: int) -> int | None:
        """f(B, A): B for the trivial conditions, None for a condition on no
        chain.  For a condition on a chain last processed at level L, f(B, A)
        is defined exactly when B is a union of fibres (images of level-L
        points), and it is additive over them (see the module docstring): one
        pass over 8-bit chunk tables, built on the condition's first call and
        kept, joins row_A[p] << size | fib_L[p] over the points p of B.  An A
        or B outside the stage is a ValueError."""
        tables = self._f_tables.get(a_mask)
        if tables is None:
            if (a_mask | b_mask) >> self.size:  # a negative or too wide mask
                bad = a_mask if a_mask >> self.size else b_mask
                raise ValueError(f"{bad:#x} is not an element of stage {self.index}")
            if a_mask == 0 or a_mask == self.full:
                return b_mask
            found = self._chain_of.get(a_mask)
            if found is None:
                return None
            tables = self._f_tables[a_mask] = _join_tables(
                self._point_rows(found[0].processed_at, a_mask))
        if not 0 <= b_mask <= self.full:
            raise ValueError(f"{b_mask:#x} is not an element of stage {self.index}")
        joined, rest = 0, b_mask
        for table in tables:
            joined |= table[rest & 0xFF]
            rest >>= 8
        return joined >> self.size if joined & self.full == b_mask else None

    def _point_rows(self, level: int, a_mask: int) -> list[int]:
        """row_A[p] << size | fib_L[p] at each point p, for a condition A on a
        chain last processed at `level`: fib_L[p] is the fibre holding p, of
        the level-L point q, and row_A[p] the image of (id u T)({q} & A)."""
        fibres = self.fibres[level]
        swap = self.levels[level]._swap
        a_low = self.unembed_to(level, a_mask)
        rows = [0] * self.size
        for q, fib in enumerate(fibres):
            row = fib | fibres[swap[q]] if a_low >> q & 1 else 0
            for p in _bits(fib):
                rows[p] = row << self.size | fib
        return rows

    def defined_conditions(self) -> list[int]:
        """Nontrivial conditions with a defined row: each chain's mask and complement."""
        return list(self._chain_of)

    def embeddable_elements(self, level: int) -> list[int] | None:
        """All current-stage images of level-`level` elements, or None when
        that powerset is too large to enumerate."""
        size = self.levels[level].size
        if size > _ENUM_LIMIT:
            return None
        return [self.embed_from(level, m) for m in range(1 << size)]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _join_tables(rows: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """One table per 8 points: entry m of table k joins rows[8k + i] over the
    bits i of m."""
    tables = []
    for k in range(0, len(rows), 8):
        table = [0]
        for row in rows[k:k + 8]:
            table += [m | row for m in table]
        tables.append(tuple(table))
    return tuple(tables)


# ---------------------------------------------------------------------------
# Construction steps
# ---------------------------------------------------------------------------

def new_stage0(theta: Sequence[str]) -> Stage:
    """Initial stage: all bit-vectors over the atoms; f defined only on the
    trivial conditions; all ranks 0."""
    names = tuple(theta)
    if not names:
        raise ValueError("atom set must be nonempty")
    if len(names) > MAX_THETA:
        raise ValueError(f"too many atoms for the stage budget ({len(names)} > {MAX_THETA})")
    return Stage(names, 0, range(1 << len(names)), None, None, None, ())


def classify_case(stage: Stage, b_mask: int) -> tuple[int, int | None]:
    """Case 0 when {b, ~b} matches an earlier chain (nu = latest selection
    stage of that chain); case 1 otherwise."""
    if not 0 < b_mask < stage.full:
        raise ValueError("condition must be a nontrivial element of the stage")
    found = stage.chain_for(b_mask)
    if found is None:
        return 1, None
    chain, _ = found
    return 0, chain.last_selected


def partition_data(stage: Stage, b_mask: int) -> Transition:
    """Partition blocks for an advance on `b_mask`, verified against the
    covering/disjointness identities before use."""
    case, nu = classify_case(stage, b_mask)
    comp = stage.complement(b_mask)
    if case == 1:
        pi, gamma = [b_mask], [comp]
    else:
        found = stage.chain_for(b_mask)
        chain, flipped = found
        if flipped:
            # the coherence rule keeps the original orientation
            raise ConstructionError("case-0 condition must use the chain orientation")
        level = chain.processed_at
        fibres = stage.fibres[level]
        b_low = stage.unembed_to(level, b_mask)
        comp_low = stage.levels[level].complement(b_low)
        pi, gamma = [], []
        for wi in _bits(b_low):
            for wj in _bits(comp_low):
                w_n, w2_n = fibres[wi], fibres[wj]
                f1 = stage.apply_f(w2_n, comp)
                f2 = stage.apply_f(w_n, b_mask)
                if f1 is None or f2 is None:
                    raise ConstructionError("case-0 partition needs f on the previous images")
                pi.append(f1 & w_n)
                gamma.append(f2 & w2_n)
    _check_partition(stage, b_mask, pi, gamma)
    return Transition(case, nu, b_mask, tuple(pi), tuple(gamma))


def _check_partition(stage: Stage, b_mask: int, pi: Sequence[int], gamma: Sequence[int]) -> None:
    union_pi = 0
    union_gamma = 0
    for i, p in enumerate(pi):
        if union_pi & p:
            raise ConstructionError("partition blocks over b overlap")
        union_pi |= p
    for g in gamma:
        if union_gamma & g:
            raise ConstructionError("partition blocks over ~b overlap")
        union_gamma |= g
    if union_pi != b_mask:
        raise ConstructionError("partition blocks do not cover b")
    if union_gamma != stage.complement(b_mask):
        raise ConstructionError("partition blocks do not cover ~b")


def _next_points(stage: Stage, tdata: Transition) -> tuple[list[tuple[int, int]], list[int]]:
    """Ordered next-stage points, as index pairs (x, y) into `stage`'s points
    (the mu(b) half first), plus the per-point image blocks: mu(A) = union
    over blocks of (A&Pi_i) x Gamma_i u (A&Gamma_i) x Pi_i."""
    points: list[tuple[int, int]] = []
    blocks = [0] * stage.size
    for left, right in ((tdata.pi, tdata.gamma), (tdata.gamma, tdata.pi)):
        for l_mask, r_mask in zip(left, right):
            for x in _bits(l_mask):
                for y in _bits(r_mask):
                    blocks[x] |= 1 << len(points)
                    points.append((x, y))
    return points, blocks


def advance(stage: Stage, b_mask: int, verify: bool = True,
            tdata: Transition | None = None) -> Stage:
    """One construction step on the (already coherence-normalized) condition.
    `tdata` is `partition_data(stage, b_mask)` when the caller already has
    it."""
    if tdata is None:
        tdata = partition_data(stage, b_mask)
    elif tdata.b_mask != b_mask:
        raise ValueError("partition data belongs to another condition")
    points, blocks = _next_points(stage, tdata)
    if len(points) != tdata.next_size:
        raise ConstructionError("cardinality formula violated")
    n_pos = len(points) // 2
    mu_b = (1 << n_pos) - 1

    new_chains: list[Chain] = []
    replaced = False
    for c in stage.chains:
        img = 0
        for i in _bits(c.mask):
            img |= blocks[i]
        if tdata.case == 0 and c.mask == b_mask:
            new_chains.append(Chain(c.first_selected, stage.index, stage.index + 1, mu_b))
            replaced = True
        else:
            new_chains.append(Chain(c.first_selected, c.last_selected, c.processed_at, img))
    if not replaced:
        new_chains.append(Chain(stage.index, stage.index, stage.index + 1, mu_b))

    nxt = Stage(stage.theta, stage.index + 1, points, stage, blocks, tdata, new_chains)
    if nxt.embed(b_mask) != mu_b:
        raise ConstructionError("mu(b) is not the positive pair half")
    if verify:
        _verified(nxt)
    return nxt


def _verified(stage: Stage) -> CheckReport:
    """`verify_stage`, raising ConstructionError on any fatal violation."""
    report = verify_stage(stage)
    if not report.ok():
        raise ConstructionError("stage verification failed: " + "; ".join(
            f"{k}: {v}" for k, v in list(report.failures().items())[:5]))
    return report


# ---------------------------------------------------------------------------
# Condition selection
# ---------------------------------------------------------------------------

_INF = float("inf")


def _partner_min_rank(stage: Stage, mask: int) -> float:
    found = stage.chain_for(mask)
    if found is None:
        return 0
    chain, _ = found
    if chain.processed_at == stage.index:
        return _INF
    return chain.processed_at + 1


def _coherent(stage: Stage, mask: int) -> int:
    found = stage.chain_for(mask)
    if found is None:
        return mask
    chain, _ = found
    return chain.mask


def select_condition(stage: Stage, target: int | None = None) -> int | None:
    """Faithful mode (target None): argmin of the age ranking with the
    smallest-bitmask tie-break, normalized to the coherent orientation;
    None signals that f is total.  Targeted mode: normalize the given
    element."""
    if target is not None:
        if target in (0, stage.full):
            raise ValueError("targeted condition must be nontrivial")
        return _coherent(stage, target)

    # totality: every element trivial or a currently-processed chain
    if all(c.processed_at == stage.index for c in stage.chains):
        if 2 + 2 * len(stage.chains) == 1 << stage.size and stage.size <= _ENUM_LIMIT:
            return None
    best: tuple[float, int] | None = None
    for level in range(stage.index + 1):
        low = stage.levels[level]
        if low.size > _ENUM_LIMIT:
            break
        if best is not None and level >= best[0]:
            break
        for m in range(1, (1 << low.size) - 1):
            if level > 0 and low.unembed(m) is not None:
                continue  # counted at its own rank
            mask = stage.embed_from(level, m)
            partner = _partner_min_rank(stage, mask)
            if partner is _INF:
                continue
            lam = level + partner
            key = (lam, mask)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return _coherent(stage, best[1])


# ---------------------------------------------------------------------------
# Stage verification
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    """Tallies of one verification run: check name -> (passed, skipped),
    plus the first counterexample of every check that failed."""

    checks: dict[str, tuple[int, int]] = field(default_factory=dict)
    counterexamples: dict[str, str] = field(default_factory=dict)
    seed: int | None = None

    def record(self, name: str, passed: int, skipped: int = 0,
               counterexample: str | None = None) -> None:
        p, s = self.checks.get(name, (0, 0))
        self.checks[name] = (p + passed, s + skipped)
        if counterexample is not None:
            self.counterexamples.setdefault(name, counterexample)

    def failures(self) -> dict[str, str]:
        """First counterexample of each failed check, leaving out the extra,
        never fatal laws (their counterexamples stay in `counterexamples`)."""
        return {k: v for k, v in self.counterexamples.items()
                if k not in _EXTRA_LAWS}

    def ok(self, include_extra: bool = False) -> bool:
        return not (self.counterexamples if include_extra else self.failures())


# The laws of the conditional operator f(B, A), "B given A", in the paper's
# form: the axioms b1-b4 and the weak symmetry b5w, the identities derived
# from them, and the full symmetry b5, which free models need not satisfy and
# which is therefore measured but never fatal.
BETA_LAWS: tuple[tuple[str, str, str], ...] = (
    ("beta1", "axiom", "0 < A <= B implies f(B,A) = 1"),
    ("beta2", "axiom", "f(B|C,A) <= f(B,A) | f(C,A)"),
    ("beta3", "axiom", "A & f(B,A) <= B"),
    ("beta4", "axiom", "f(~B,A) = ~f(B,A)"),
    ("beta5w", "axiom", "f(B,A) = B implies f(B,~A) = B"),
    ("beta2-eq", "derived", "f(B|C,A) = f(B,A) | f(C,A)"),
    ("beta3-eq", "derived", "A & f(B,A) = A & B"),
    ("beta6", "derived", "f(B&C,A) = f(B,A) & f(C,A)"),
    ("idempotence", "derived", "f(f(B,A),A') = f(B,A) for A' in {A, ~A}"),
    ("beta5", "extra", "f(B,A) = B implies f(A,B) = A"),
)
_STATEMENTS = {name: text for name, _, text in BETA_LAWS}
_EXTRA_LAWS = frozenset(name for name, kind, _ in BETA_LAWS if kind == "extra")
_PAIR_LAWS = ("beta2", "beta2-eq", "beta6")
_ELEMENT_LAWS = tuple(name for name in _STATEMENTS if name not in _PAIR_LAWS)


def check_beta_laws(f: Callable[[int, int], int | None], full: int,
                    conditions: Sequence[int],
                    pools_of: Callable[[int], tuple[Sequence[int], Sequence[int]]],
                    rep: CheckReport) -> None:
    """Check every row of BETA_LAWS on the partial operator `f` (None for an
    undefined row) of the algebra with top `full`.  ``pools_of(A)`` gives,
    for each condition A, the elements B to check and the generators of
    their subalgebra (disjoint, nonzero).  The element laws are checked at
    each B; beta2-eq as f(B,A) = join of f(x,A) over the generators x <= B
    (a failure counts against the inclusion beta2 when f(B,A) leaves the
    join and B != 0); beta6 as f(x & y,A) = f(x,A) & f(y,A) for generators
    x != y.  On a subalgebra these two fail exactly when some pair B, C
    fails them (B = 0 checks f(0,A) = 0).  A B that is no union of
    generators, or needs an undefined row, is skipped.  Passes and skips
    are counted here and recorded once per law at the end; a counterexample
    is recorded when it is found."""
    passed, skipped = dict.fromkeys(_STATEMENTS, 0), dict.fromkeys(_STATEMENTS, 0)

    def tally(name: str, holds: bool | None, *where: int) -> None:
        """One instance of a law: None when a needed row is undefined."""
        if holds:
            passed[name] += 1
        elif holds is None:
            skipped[name] += 1
        else:
            at = " ".join(f"{k}={v:#x}" for k, v in zip("ABC", where))
            rep.record(name, 0, 0, f"fails {_STATEMENTS[name]} at {at}")

    for a in conditions:
        na = full ^ a
        pool, gens = pools_of(a)
        fval: dict[int, int | None] = {}
        for b in pool:
            fb = fval[b] = f(b, a)
            if fb is None:
                for name in _ELEMENT_LAWS:
                    tally(name, None)
                continue
            tally("beta1", fb == full or a == 0 or a & b != a, a, b)
            tally("beta3", a & fb & ~b == 0, a, b)
            tally("beta3-eq", a & fb == a & b, a, b)
            fnb = f(full ^ b, a)
            tally("beta4", None if fnb is None else fnb == full ^ fb, a, b)
            if fb == b:
                fw, fab = f(b, na), f(a, b)
                tally("beta5w", None if fw is None else fw == b, a, b)
                tally("beta5", None if fab is None else fab == a, a, b)
            f1, f2 = f(fb, a), f(fb, na)
            tally("idempotence", None if f1 is None or f2 is None else f1 == fb == f2, a, b)

        def fv(m: int) -> int | None:
            if m not in fval:
                fval[m] = f(m, a)
            return fval[m]

        owner = {1 << i: x for x in gens for i in _bits(x)}
        joined: dict[int, int | None] = {0: 0}

        def join_of(b: int) -> int | None:  # None: no union, or a row undefined
            if b not in joined:
                x = owner.get(b & -b)
                rest = None if x is None or x & ~b else join_of(b ^ x)
                fx = None if rest is None else fv(x)
                joined[b] = None if fx is None else rest | fx
            return joined[b]

        for b in pool:
            fb, fu = fval[b], join_of(b)
            eq = None if fb is None or fu is None else fb == fu
            tally("beta2-eq", eq, a, b)
            tally("beta2", eq or (False if eq is False and b and fb & ~fu else None), a, b)
        for i, x in enumerate(gens):
            for y in gens[i + 1:]:
                fx, fy, fi = fv(x), fv(y), fv(x & y)
                tally("beta6", None if None in (fx, fy, fi) else fi == fx & fy, a, x, y)

    for name in _STATEMENTS:
        if passed[name] or skipped[name]:
            rep.record(name, passed[name], skipped[name])


def verify_stage(stage: Stage, rng: Random | None = None) -> CheckReport:
    """Check the embedding/commutation properties and the conditional-operator
    laws (BETA_LAWS) on the defined domain: elements exhaustively for small
    stages, with seeded sampling beyond; pairs never, as their laws are
    checked on generators: each image as the union of its parent points'
    blocks, f's pair laws on the images of the points of the stage where
    the condition's chain was last processed.  All identities are exact;
    any failure other than of an extra law is fatal to the caller."""
    seed = None
    if rng is None:
        seed = 0
        rng = Random(seed)
    rep = CheckReport(seed=seed)

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
        elems = parent.embeddable_elements(level)
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
    sample_elems = parent.embeddable_elements(parent.index) or [
        rng.getrandbits(parent.size) for _ in range(256)]
    for m in sample_elems[: 1 << _VERIFY_LIMIT]:
        if stage.rank(stage.embed(m)) != parent.rank(m):
            rep.record("ranks", 0, 0, f"embedding changed rank of {m:#x}")
            break
        good += 1
    rep.record("ranks", good)

    return rep


# ---------------------------------------------------------------------------
# Canonical assignment and drivers
# ---------------------------------------------------------------------------

def canonical_assignment(stage: Stage) -> dict[str, int]:
    """theta |-> current-stage image of the stage-0 element 'theta holds'
    (the atom's truth-table column over the stage-0 points)."""
    return {name: stage.embed_from(0, col)
            for name, col in truth_columns(stage.theta).items()}


def build_for_formulas(theta: Sequence[str], formulas: Sequence[Formula],
                       max_atoms: int = 32, verify: bool = True,
                       skip_unaffordable: bool = False,
                       ) -> tuple[Stage, list[CheckReport]]:
    """Targeted driver: advance on the innermost blocking condition of each
    formula until everything evaluates or the budget is hit.  With
    `skip_unaffordable` the formulas whose conditions would blow the budget
    are left undefined instead of aborting the build.  With `verify` every
    new stage is verified once and its report returned."""
    stage = new_stage0(theta)
    reports: list[CheckReport] = []
    pending = list(formulas)
    while True:
        h = canonical_assignment(stage)
        blocking = None
        blocked_formula = None
        for f in pending:
            _, blocking = evaluate(f, h, stage.full, stage.apply_f)
            if blocking is not None:
                blocked_formula = f
                break
        if blocking is None:
            return stage, reports
        b = select_condition(stage, target=blocking)
        tdata = partition_data(stage, b)
        if tdata.next_size > max_atoms:
            if skip_unaffordable:
                pending.remove(blocked_formula)
                continue
            raise BudgetExceeded(f"element {b:#x} at stage {stage.index}",
                                 stage.size, tdata.next_size)
        stage = advance(stage, b, verify=False, tdata=tdata)
        if verify:
            reports.append(_verified(stage))


def build_faithful(theta: Sequence[str], max_atoms: int = 32,
                   verify: bool = True) -> tuple[list[Stage], bool]:
    """Faithful driver: ranked selection until the operator is total or the
    next stage would exceed the budget.  Returns all stages plus a halt flag
    (True when f became total)."""
    stage = new_stage0(theta)
    stages = [stage]
    while True:
        b = select_condition(stage)
        if b is None:
            return stages, True
        tdata = partition_data(stage, b)
        if tdata.next_size > max_atoms:
            return stages, False
        stage = advance(stage, b, verify=verify, tdata=tdata)
        stages.append(stage)


# ---------------------------------------------------------------------------
# Dump / load
# ---------------------------------------------------------------------------

def dump_stage(stage: Stage) -> str:
    """Structured-text dump of the whole stage tower: atoms with pair
    provenance, per-level blocks, selection history and chains.  The loader
    reconstructs f exactly."""
    lines = [f"theta: {', '.join(stage.theta)}", f"stages: {len(stage.levels)}"]
    for st in stage.levels:
        lines.append(f"stage {st.index}: atoms {st.size}")
        lines.append("  points: " + " ".join(
            f"{p[0]}.{p[1]}" if st.index else str(p) for p in st.points))
        if st.index > 0:
            t = st.transition
            lines.append(f"  case: {t.case} nu: {'-' if t.nu is None else t.nu}")
            lines.append(f"  b: {t.b_mask:#x}")
            lines.append("  pi: " + " ".join(f"{m:#x}" for m in t.pi))
            lines.append("  gamma: " + " ".join(f"{m:#x}" for m in t.gamma))
            lines.append("  blocks: " + " ".join(f"{m:#x}" for m in st.blocks))
        lines.append("  ranks: " + " ".join(str(st.rank(1 << i)) for i in range(st.size)))
    lines.append("chains:")
    for c in stage.chains:
        lines.append(f"  chain: first {c.first_selected} last {c.last_selected} "
                     f"processed {c.processed_at} mask {c.mask:#x}")
    return "\n".join(lines) + "\n"


def load_stage(text: str) -> Stage:
    """Rebuild a dumped tower by replay: read theta and each level's
    condition `b:`, advance on it, and require the dump of the replayed
    tower to equal `text` line by line (blank lines skipped, whitespace
    stripped).  Before each advance the next stage's size is compared with
    the level's declared `atoms N`, so a tampered file cannot make the
    loader build a larger stage than it declares.  A difference, a bad or
    trivial condition and a bad atom set are each a ValueError naming the
    line where they show."""
    lines: list[tuple[int, str | None]] = [
        (n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    stage: Stage | None = None
    declared = None
    for n, ln in lines:
        key, _, value = ln.partition(":")
        try:
            if stage is None:
                if key != "theta":
                    raise ValueError(f"expected theta: ..., got {ln}")
                stage = new_stage0([t.strip() for t in value.split(",")])
            elif key.startswith("stage "):
                declared = value.strip()
            elif key == "b":
                b = int(value, 16)
                tdata = partition_data(stage, b)
                if f"atoms {tdata.next_size}" != declared:
                    raise ValueError(f"condition {b:#x} gives atoms {tdata.next_size}, "
                                     f"the stage declares {declared}")
                stage = advance(stage, b, verify=False, tdata=tdata)
        except (ValueError, ConstructionError) as e:
            raise ValueError(f"line {n}: {e}") from None
    if stage is None:
        raise ValueError("line 1: expected theta: ..., got end of file")
    want: list[str | None] = [ln.strip() for ln in dump_stage(stage).splitlines()]
    lines += [(lines[-1][0] + 1, None)] * (len(want) - len(lines))
    want += [None] * (len(lines) - len(want))
    for (n, got), exp in zip(lines, want):
        if got != exp:
            raise ValueError(f"line {n}: expected {exp or 'end of file'}, "
                             f"got {got or 'end of file'}")
    return stage
