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
B.  `Stage.f_rows` makes a condition's rows and 8-bit chunk tables of them
once, as a stage never changes; `Stage.apply_f` reads both joins off those.

Two selection modes exist.  Faithful mode scores candidate conditions by
lambda(B) = r(B) + min rank of an element A with f(A, B) undefined, picks the
minimum (ties broken by smallest bitmask under the stage's atom ordering) and
keeps orientation coherent with earlier selections of the same chain.
Targeted mode processes a caller-supplied condition, which is sound because
every stage property holds for an arbitrary admissible choice; only the
totality-in-the-limit argument needs the faithful ranking.  The targeted
build finds its conditions with the shared evaluator, `syntax.evaluate`.
The drivers `build_for_formulas` and `build_faithful` only build: each
returns its top stage, whose `levels` are the tower.

The laws of f are stated once, in `BETA_LAWS`: the axioms b1-b4 and b5w,
the derived identities, and the extra full symmetry b5.  `check_beta_laws`
runs that table; the one verifier, `verify_stage`, applies it next to the
embedding checks and fills a `CheckReport`.  Laws over pairs of elements are
checked exactly on generators: f(., A) with f(0, A) = 0 preserves joins iff
each f(B, A) is the join of f(x, A) over the generators x <= B, and then
meets iff f(x & y, A) = f(x, A) & f(y, A) for any two generators x, y.
The element laws are exact too: `verify_stage` checks each on a small pool
(the fibres, the atoms of each condition's fixed points and a few named
elements) from which, by the additivity of f over the fibres, it follows on
every element; its docstring gives the argument law by law.  The verifier
samples nothing and takes no seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        self._f_tables: dict[int, tuple] = {}   # A -> (fibre halves, row halves, tables)
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

    def embed(self, parent_mask: int) -> int:
        """Image of a parent-stage element in this stage."""
        out = 0
        for i in _bits(parent_mask):
            out |= self.blocks[i]
        return out

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
        """f(B, A): B for a trivial A, else by `f_rows`, read off 8-bit chunk
        tables of row_A[p] << size | fib_L[p], made with the rows and kept.
        An A or B outside the stage is a ValueError."""
        entry = self._f_tables.get(a_mask)
        if entry is None:
            if (a_mask | b_mask) >> self.size:  # a negative or too wide mask
                bad = a_mask if a_mask >> self.size else b_mask
                raise ValueError(f"{bad:#x} is not an element of stage {self.index}")
            if a_mask == 0 or a_mask == self.full:
                return b_mask
            if a_mask not in self._chain_of or self.f_rows(a_mask) is None:
                return None
            entry = self._f_tables[a_mask]
        if not 0 <= b_mask <= self.full:
            raise ValueError(f"{b_mask:#x} is not an element of stage {self.index}")
        joined, rest = 0, b_mask
        for table in entry[2]:
            joined |= table[rest & 0xFF]
            rest >>= 8
        return joined >> self.size if joined & self.full == b_mask else None

    def f_rows(self, a_mask: int) -> tuple[list[int], list[int]] | None:
        """fib_L[p] and row_A[p] at each point p (see `_point_rows`) for a
        nontrivial A: f(B, A) is the join of row_A[p] over the points p of B
        where the join of fib_L[p] over them is B, else undefined.  None when
        A is on no chain or no union of its chain's fibres: f(., A) is None."""
        entry = self._f_tables.get(a_mask)
        if entry is None:
            found = self._chain_of.get(a_mask)
            rows = None if found is None else self._point_rows(found[0].processed_at, a_mask)
            if rows is None:
                return None
            tables = []                 # entry m of table k joins rows[8k + i], i in m
            for k in range(0, self.size, 8):
                table = [0]
                for row in rows[k:k + 8]:
                    table += [m | row for m in table]
                tables.append(table)
            entry = self._f_tables[a_mask] = ([r & self.full for r in rows],
                                              [r >> self.size for r in rows], tables)
        return entry[0], entry[1]

    def _point_rows(self, level: int, a_mask: int) -> list[int] | None:
        """row_A[p] << size | fib_L[p] at each point p, for A on a chain last
        processed at `level`: fib_L[p] is the fibre holding p, of the level-L
        point q, and row_A[p] the image of (id u T)({q} & A).  None when A is
        no union of level-L fibres, as only blocks at odds with chains give."""
        fibres = self.fibres[level]
        swap = self.levels[level]._swap
        a_low = self.unembed_to(level, a_mask)
        if a_low is None:
            return None
        rows = [0] * self.size
        for q, fib in enumerate(fibres):
            row = fib | fibres[swap[q]] if a_low >> q & 1 else 0
            for p in _bits(fib):
                rows[p] = row << self.size | fib
        return rows

    def defined_conditions(self) -> list[int]:
        """Nontrivial conditions with a defined row: each chain's mask and complement."""
        return list(self._chain_of)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    return (1, None) if found is None else (0, found[0].last_selected)


def partition_data(stage: Stage, b_mask: int) -> Transition:
    """Partition blocks for an advance on `b_mask`, verified against the
    covering/disjointness identities before use."""
    case, nu = classify_case(stage, b_mask)
    comp = stage.complement(b_mask)
    if case == 1:
        pi, gamma = [b_mask], [comp]
    else:
        chain, flipped = stage.chain_for(b_mask)
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
    union_pi = union_gamma = 0
    for p in pi:
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


def advance(stage: Stage, b_mask: int, tdata: Transition | None = None) -> Stage:
    """One construction step on the (already coherence-normalized) condition.
    `tdata` is `partition_data(stage, b_mask)` when the caller already has
    it.  It checks the cardinality formula and mu(b), no stage law."""
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
    return nxt


# ---------------------------------------------------------------------------
# Condition selection
# ---------------------------------------------------------------------------

_INF = float("inf")


def _partner_min_rank(stage: Stage, mask: int) -> float:
    found = stage.chain_for(mask)
    if found is None:
        return 0
    processed = found[0].processed_at
    return _INF if processed == stage.index else processed + 1


def _coherent(stage: Stage, mask: int) -> int:
    found = stage.chain_for(mask)
    return mask if found is None else found[0].mask


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
            if level > 0 and low.unembed_to(level - 1, m) is not None:
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
        for b in pool:
            fu, rest = 0, b  # fu: the join of f(x, A) over the generators x <= b
            while rest:
                x = owner.get(rest & -rest)
                fx = None if x is None or x & ~rest else fv(x)
                if fx is None:  # no union of generators, or a row undefined
                    fu = None
                    break
                fu, rest = fu | fx, rest ^ x
            fb = fval[b]
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


def verify_stage(stage: Stage) -> CheckReport:
    """Check the embedding and commutation properties and the laws of f
    (BETA_LAWS), each exactly, on points and generators: nothing is
    sampled.  f(., A) is additive over the fibres of A's chain level and the
    embedding over the parent's points, so each law follows on every
    element from the instances checked.  Any failure other than of an extra
    law is fatal to the caller.

    - trivial-conditions: f(B, 0) = f(B, full) = B at each point, 0, full.
    - alpha1: the blocks are nonempty, disjoint and cover the stage, and
      each parent point's image is its block.
    - alpha2, for A with its chain last processed at level L (the parent's
      own level for 0 and full): f(mu(B), mu(A)) and mu(f(B, A)) are both
      additive over the parent's level-L fibres, and the first is defined
      on a union of them where it is on each, so the fibres decide it.
    - ranks: fibres[L][q] = mu(parent.fibres[L][q]) at every level L below
      the parent (at the parent's own level this is alpha1); with alpha1,
      mu(B) is then a union of level-L fibres exactly when B is, so images
      keep their ranks.  Each block's rank is checked too.
    - the laws of f (`check_beta_laws`) for each defined condition A on a
      chain last processed at level L, on a pool of the level-L fibres
      (the generators), 0, full, the classes linking each fibre x to the
      fibres that meet f(x, A), and the defined conditions that are unions
      of fibres, A and ~A among them.  beta2-eq and beta6 are exact on
      generators.  beta3 and beta3-eq are additive.  With beta6, f(~B, A)
      and f(B, A) are disjoint and join to f(full, A), so beta4 holds once
      f(full, A) = full.  f is monotone, so beta1 holds once f(A, A) = full.
      With beta6 a fixed point B = f(B, A) holds every fibre linked to one
      of its fibres, so it is a union of classes, each a fixed point too,
      and beta5w on the classes is exact.  beta1, beta3-eq and beta6 leave
      f(x, A) = 0 for fibres x <= ~A, so f(f(B, A), A) = f(B, A), and the
      rest of idempotence is beta5w at the fixed point f(B, A).  The extra
      law beta5 needs f(., B), defined only at the trivial and the defined
      conditions, all in the pool.  A condition whose chain mask is no union
      of the level-L fibres has no rows; it fails `chains` and its laws are
      not checked.

    A check counts a pass only for an instance that held."""
    rep = CheckReport()
    good = 0
    for b in [0, stage.full] + [1 << p for p in range(stage.size)]:
        if stage.apply_f(b, 0) != b or stage.apply_f(b, stage.full) != b:
            rep.record("trivial-conditions", 0, 0, f"f(B, empty/full) != B at B={b:#x}")
            break
        good += 1
    rep.record("trivial-conditions", good)
    if stage.index == 0:
        return rep

    parent, tdata = stage.parent, stage.transition
    # cardinality and partition identities
    if stage.size != tdata.next_size:
        rep.record("cardinality", 0, 0,
                   f"|atoms|={stage.size} expected {tdata.next_size}")
    else:
        rep.record("cardinality", 1)
    try:
        _check_partition(parent, tdata.b_mask, tdata.pi, tdata.gamma)
        rep.record("partition-identities", 1)
    except ConstructionError as e:
        rep.record("partition-identities", 0, 0, str(e))

    mu_b = stage.embed(tdata.b_mask)
    positive = mu_b == (1 << (stage.size // 2)) - 1
    swapped = stage.complement(mu_b) == stage.swap_pairs(mu_b)
    if not positive:
        rep.record("mu-b", 0, 0, "mu(b) is not the positive half")
    if not swapped:
        rep.record("mu-b-swap", 0, 0, "~mu(b) differs from T(mu(b))")
    rep.record("mu-b-corollaries", positive + swapped)

    # alpha1: blocks nonempty, disjoint, covering, and each point's image its
    # block -- together exactly an injective Boolean morphism
    union = good = 0
    ok = True
    for i, blk in enumerate(stage.blocks):
        if blk == 0:
            rep.record("alpha1", 0, 0, f"empty block for parent atom {i}")
            ok = False
        if blk & union:
            rep.record("alpha1", 0, 0, f"block {i} overlaps earlier blocks")
            ok = False
        union |= blk
        if stage.embed(1 << i) != blk:
            rep.record("alpha1", 0, 0, f"image is not its block at A={1 << i:#x}")
        else:
            good += 1
    if union != stage.full:
        rep.record("alpha1", 0, 0, "blocks do not cover the new universe")
        ok = False
    rep.record("alpha1-block-partition", len(stage.blocks) if ok else 0)
    rep.record("alpha1-morphism", good)

    # alpha2: f commutes with the embedding on the inherited domain
    good = skipped = 0
    for cond in parent.defined_conditions() + [0, parent.full]:
        chain_info = parent.chain_for(cond)
        level = chain_info[0].processed_at if chain_info else parent.index
        image = stage.embed(cond)
        for b in parent.fibres[level]:
            fv = parent.apply_f(b, cond)
            if fv is None:
                skipped += 1
                continue
            if stage.apply_f(stage.embed(b), image) != stage.embed(fv):
                rep.record("alpha2", 0, 0,
                           f"f does not commute with mu at B={b:#x} A={cond:#x}")
                break
            good += 1
    rep.record("alpha2", good, skipped)

    # beta laws on the defined domain of the new stage
    def defined_pools(cond: int) -> tuple[list[int], tuple[int, ...]]:
        level = stage.chain_for(cond)[0].processed_at
        fibres = stage.fibres[level]
        classes: list[int] = []
        for fib in fibres:  # merge each fibre's links into the classes they meet
            image = stage.apply_f(fib, cond)
            if image is None:  # the chain is no union of its level's fibres
                rep.record("chains", 0, 0, f"f(B, A) undefined on the level-{level} "
                                           f"fibre B={fib:#x} at A={cond:#x}")
                return [], ()
            linked = fib | image
            for c in [c for c in classes if c & linked]:
                classes.remove(c)
                linked |= c
            classes.append(linked)
        unions = [c for c in stage.defined_conditions()
                  if stage.unembed_to(level, c) is not None]
        pool = [*fibres, 0, stage.full, *classes, *unions]
        return list(dict.fromkeys(pool)), fibres

    check_beta_laws(stage.apply_f, stage.full, stage.defined_conditions(),
                    defined_pools, rep)

    # ranks: images keep their rank
    good = 0
    for level in range(parent.index):
        for q, fib in enumerate(parent.fibres[level]):
            if stage.fibres[level][q] != stage.embed(fib):
                rep.record("ranks", 0, 0, f"fibre {q} of level {level} is not its image")
                break
            good += 1
    for i, blk in enumerate(stage.blocks):
        if stage.rank(blk) != parent.rank(1 << i):
            rep.record("ranks", 0, 0, f"embedding changed rank at atom {i}")
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
                       max_atoms: int = 32, skip_unaffordable: bool = False) -> Stage:
    """Targeted driver: advance on the innermost blocking condition of each
    formula until everything evaluates or the budget is hit, and return the
    top stage; its `levels` are the tower.  With `skip_unaffordable` the
    formulas whose conditions would blow the budget are left undefined
    instead of aborting the build.

    Each stage is scanned from the first pending formula.  A skip leaves the
    stage and its canonical assignment as they were, and every formula in
    front of the skipped one is already known to evaluate there, so the scan
    drops it and goes on at the same index; only an advance starts it over."""
    stage = new_stage0(theta)
    pending = list(formulas)
    h = canonical_assignment(stage)
    i = 0
    while i < len(pending):
        blocking = evaluate(pending[i], h, stage.full, stage.apply_f)[1]
        if blocking is None:
            i += 1
            continue
        b = select_condition(stage, target=blocking)
        tdata = partition_data(stage, b)
        if tdata.next_size > max_atoms:
            if not skip_unaffordable:
                raise BudgetExceeded(f"element {b:#x} at stage {stage.index}",
                                     stage.size, tdata.next_size)
            del pending[i]
            continue
        stage = advance(stage, b, tdata=tdata)
        h = canonical_assignment(stage)
        i = 0
    return stage


def build_faithful(theta: Sequence[str], max_atoms: int = 32) -> tuple[Stage, bool]:
    """Faithful driver: ranked selection until the operator is total or the
    next stage would exceed the budget.  Returns the top stage, whose
    `levels` are the tower, plus a halt flag (True when f became total)."""
    stage = new_stage0(theta)
    while True:
        b = select_condition(stage)
        if b is None:
            return stage, True
        tdata = partition_data(stage, b)
        if tdata.next_size > max_atoms:
            return stage, False
        stage = advance(stage, b, tdata=tdata)


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
                stage = advance(stage, b, tdata=tdata)
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
