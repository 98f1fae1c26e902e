"""Language layer of the workbench.

Formulas are built over a declared, ordered, finite atom set with three core
constructors: negation, implication and the Bayesian conditional
``(psi | phi)``.  Everything else -- conjunction, disjunction, biconditional,
the independence operator ``><`` and the constants ``T``/``F`` -- is
definitional sugar, expanded at parse time and optionally reintroduced by the
printer.  ``T`` abbreviates ``t -> t`` for the first declared atom ``t`` and
``F`` abbreviates ``!T``, so both denote fixed concrete trees once the atom
set is declared.

Concrete token set: ``!`` negation, ``/\\`` conjunction, ``\\/`` disjunction,
``->`` implication (right-associative), ``<->`` biconditional, ``><``
independence, ``(A | B)`` conditional (parentheses mandatory), ``T``/``F``
constants.  Precedence: ``!`` > ``/\\`` > ``\\/`` > ``->`` > ``<->``/``><``.

Sequents are pairs of formula sequences written ``G1, G2 |- D1, D2``; either
side may be empty.

Formulas are hash-consed DAGs: each distinct formula is one object, so
``==`` is ``is``, and ``<->`` holds its two sides twice; the one table
(`Interned`) holds `proof`'s derivation nodes too.  `leaves` is the one
walk over the leaves of a formula, iterative and visiting each node once,
so `atoms`, `metas` and `is_classical` cost time linear in the distinct
subformulas.  `_fmt` is the one printer, for both styles, `_sugar` the one
matcher that reads the sugar back off a node, and `evaluate` the one
evaluator; all three are iterative.  `SchemaProgram` compiles schemas
once, in one iterative walk, into a flat post-order program over their
distinct nodes, and `substitute` fills one; filling runs the program's
steps with direct table lookups and walks nothing.  No walk in this
module recurses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

__all__ = [
    "Interned", "Formula", "Atom", "Not", "Implies", "Cond", "Meta",
    "Sequent", "Language", "ParseError", "SubstitutionError",
    "disj", "conj", "iff", "indep", "parse",
    "leaves", "atoms", "metas", "is_classical", "SchemaProgram", "substitute",
    "truth_columns", "evaluate",
]


class ParseError(ValueError):
    """Raised on lexical errors, unknown atoms, or malformed input."""


class SubstitutionError(ValueError):
    """Raised when a schema metavariable is left unbound."""


# ---------------------------------------------------------------------------
# Formula trees
#
# `Interned.__new__` looks each formula or derivation node (`proof.Node`) up
# in `_TABLE`, keyed by its class and fields, and builds it only on a miss,
# so structurally equal ones are one object however they were built:
# parser, sugar helpers, `substitute`, copying, pickling, `dataclasses.replace`.
# The classes generate no ``__eq__`` or ``__hash__``; both go by identity, in
# O(1).  Fields cannot be assigned: a changed node would change every object
# sharing it.  The table keeps each distinct object for the life of the
# process and is never pruned, so a node holds its fields in slots, with no
# per-object ``__dict__``.
# ---------------------------------------------------------------------------

_TABLE: dict[tuple, Interned] = {}


class Interned:
    """Base class of the hash-consed dataclasses: one object per value."""

    __slots__ = ()

    def __new__(cls, *args, **named):
        fields = cls.__match_args__
        if named:                          # as `dataclasses.replace` passes them
            args += tuple(named.pop(n) for n in fields[len(args):] if n in named)
        f = _TABLE.get(key := (cls, *args))
        if f is None or named:
            if named or len(args) != len(fields):
                raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)}")
            f = _TABLE[key] = object.__new__(cls)
            for name, value in zip(fields, args):
                object.__setattr__(f, name, value)
        return f

    def __deepcopy__(self, memo=None) -> Interned:
        return self

    __copy__ = __deepcopy__

    def __repr__(self) -> str:
        """The dataclass repr, ``Cls(field=value, ...)``, written from an
        explicit stack, so no depth reaches the recursion limit.  A str on
        the stack is text to write; any other item is a value, written by
        its fields when interned, by its items when a tuple, else by `repr`."""
        out: list[str] = []
        stack: list = [self]
        while stack:
            v = stack.pop()
            if isinstance(v, str):
                out.append(v)
                continue
            if isinstance(v, Interned):
                head = f"{type(v).__qualname__}("
                items = [(f"{', ' if i else head}{n}=", getattr(v, n))
                         for i, n in enumerate(v.__match_args__)]
                stack.append(")")
            elif type(v) is tuple and v:
                items = [(", " if i else "(", x) for i, x in enumerate(v)]
                stack.append(",)" if len(v) == 1 else ")")
            else:
                out.append(repr(v))
                continue
            for text, x in reversed(items):
                stack += (repr(x) if isinstance(x, str) else x, text)
        return "".join(out)

    def __reduce__(self):
        """Pickle as `_rebuild` of a flat post-order list, so no depth
        reaches the recursion limit.  An entry is a class and its fields,
        each interned object in them, alone or in tuples, written ``[i]``:
        the index of its own, earlier entry.  No field holds a list, since
        the fields are hashed into the table key."""
        index: dict[Interned, int] = {}
        entries: list[tuple] = []

        def encode(v):                     # KeyError: `v` holds a node not yet entered
            if isinstance(v, Interned):
                return [index[v]]
            return tuple(map(encode, v)) if type(v) is tuple else v

        stack: list[Interned] = [self]
        while stack:
            node = stack.pop()
            if node in index:
                continue
            try:
                entry = (type(node), *(encode(getattr(node, n)) for n in node.__match_args__))
            except KeyError as missing:
                stack += (node, missing.args[0])
                continue
            index[node] = len(entries)
            entries.append(entry)
        return _rebuild, (entries,)


def _rebuild(entries: list[tuple]) -> Interned:
    """The object `Interned.__reduce__` flattened into `entries`, each
    entry built in turn through the table."""
    built: list[Interned] = []

    def decode(v):
        if type(v) is list:
            return built[v[0]]
        return tuple(map(decode, v)) if type(v) is tuple else v

    for cls, *fields in entries:
        built.append(cls(*map(decode, fields)))
    return built[-1]


class Formula(Interned):
    """Base class for core formula nodes: one object per formula."""

    __slots__ = ()


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class Cond(Formula):
    """The conditional ``(then | given)``: `then` in the sub-universe of `given`."""

    then: Formula
    given: Formula


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class Meta(Formula):
    """Schema metavariable; never produced by the parser."""

    name: str


def disj(a: Formula, b: Formula) -> Formula:
    """a \\/ b  :=  !a -> b"""
    return Implies(Not(a), b)


def conj(a: Formula, b: Formula) -> Formula:
    """a /\\ b  :=  !(!a \\/ !b)"""
    return Not(disj(Not(a), Not(b)))


def iff(a: Formula, b: Formula) -> Formula:
    """a <-> b  :=  (a -> b) /\\ (b -> a)"""
    return conj(Implies(a, b), Implies(b, a))


def indep(psi: Formula, phi: Formula) -> Formula:
    """psi >< phi  :=  (psi | phi) <-> psi"""
    return iff(Cond(psi, phi), psi)


def leaves(formulas: Sequence[Formula],
           open_conditionals: bool = True) -> list[Formula]:
    """The atoms and metavariables of `formulas`, in the order a
    left-to-right reading first meets each node.  The walk is iterative and
    opens each node once.  With `open_conditionals` false a conditional is
    listed, not opened, so the maximal conditionals are in the list too."""
    out: list[Formula] = []
    seen: set[Formula] = set()
    stack = list(reversed(formulas))
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        if isinstance(g, Not):
            stack.append(g.body)
        elif isinstance(g, Implies):
            stack += (g.right, g.left)
        elif isinstance(g, Cond) and open_conditionals:
            stack += (g.given, g.then)
        else:
            out.append(g)
    return out


def atoms(f: Formula) -> frozenset[str]:
    """Names of all atoms occurring in `f`."""
    return frozenset(g.name for g in leaves((f,)) if isinstance(g, Atom))


def metas(f: Formula) -> frozenset[str]:
    """Names of all metavariables occurring in `f`."""
    return frozenset(g.name for g in leaves((f,)) if isinstance(g, Meta))


def is_classical(f: Formula) -> bool:
    """True when `f` contains no conditional constructor."""
    return not any(isinstance(g, Cond) for g in leaves((f,), False))


def truth_columns(names: Sequence[Hashable]) -> dict[Hashable, int]:
    """Truth-table columns as bitmasks: row r sets bit r of the column of
    ``names[i]`` exactly when bit i of r is set."""
    rows = 1 << len(names)
    out = {}
    for i, name in enumerate(names):
        half = 1 << i
        col = ((1 << half) - 1) << half      # one period: 2**i rows off, 2**i on
        width = 2 * half
        while width < rows:
            col |= col << width
            width *= 2
        out[name] = col
    return out


def evaluate(f: Formula, atom_map: Mapping[str, int], full: int,
             cond: Callable[[int, int], int | None] | None = None,
             *, memo: dict[Formula, int | None] | None = None,
             ) -> tuple[int | None, int | None]:
    """Bit-parallel value of `f` in the powerset algebra with top `full`.

    Atoms take their masks from `atom_map`; ``(B | A)`` is ``cond(B, A)``,
    which returns None for an undefined row.  Returns the value (None when
    some needed row is undefined) and the innermost blocking condition: the
    first A with ``cond(B, A)`` undefined in then-before-given,
    left-before-right order.  Without `cond` the formula must be classical,
    and with truth-table columns for `atom_map` the value is its set of
    satisfying rows.

    The walk keeps an explicit stack, so no depth reaches the recursion
    limit.  `memo` seeds the memo, where a node takes its value unopened;
    the walk fills it, so one dict can serve several formulas.
    """
    memo = {} if memo is None else memo
    get = memo.get
    blocking: int | None = None
    stack = [f]
    while stack:
        g = stack.pop()
        if g in memo:
            continue
        if isinstance(g, Atom):
            memo[g] = atom_map[g.name]
            continue
        if isinstance(g, Not):
            v = get(g.body, g)                 # g marks a miss: no value is a formula
            if v is g:
                stack += (g, g.body)
            else:
                memo[g] = None if v is None else full ^ v
            continue
        if isinstance(g, Implies):
            x, y = g.left, g.right
        elif isinstance(g, Cond) and cond is not None:
            x, y = g.then, g.given
        else:
            raise ValueError("classical formula expected") if isinstance(g, Cond) else TypeError(g)
        u, v = get(x, g), get(y, g)
        if u is g or v is g:
            stack += (g, y, x)
        elif u is None or v is None:
            memo[g] = None
        elif isinstance(g, Implies):
            memo[g] = (full ^ u) | v
        else:
            memo[g] = u = cond(u, v)
            if u is None and blocking is None:
                blocking = v
    return memo[f], blocking


class SchemaProgram:
    """`formulas` compiled for substitution: a flat program over their
    distinct nodes, run once per binding by `fill`.

    One iterative post-order walk lists the distinct nodes.  An atom is a
    fixed leaf, its own value; a metavariable takes its value from the
    binding; each other node is one fixed-arity step ``(cls, i, j)`` over
    the slots of its children, ``j`` None for ``!``.  The slots hold the
    fixed leaves, then the metavariables, then the steps in post-order, so
    a step's children are filled before it.  `names` lists the
    metavariables in the order a left-to-right reading of `formulas` first
    meets them, which is the order the post-order walk emits leaves in.
    """

    __slots__ = ("names", "_fixed", "_steps", "_roots")

    def __init__(self, formulas: Sequence[Formula]):
        post: dict[Formula, tuple[Formula, ...]] = {}   # node -> children, children first
        stack = [(f, False) for f in reversed(formulas)]
        while stack:
            g, ready = stack.pop()
            if g in post:
                continue
            if isinstance(g, Not):
                kids = (g.body,)
            elif isinstance(g, Implies):
                kids = (g.left, g.right)
            elif isinstance(g, Cond):
                kids = (g.then, g.given)
            elif isinstance(g, (Atom, Meta)):
                kids = ()
            else:
                raise TypeError(g)
            if kids and not ready:
                stack.append((g, True))
                stack += ((k, False) for k in reversed(kids))
            else:
                post[g] = kids
        fixed = [g for g in post if isinstance(g, Atom)]
        metas = [g for g in post if isinstance(g, Meta)]
        inner = [g for g, kids in post.items() if kids]
        slot = {g: i for i, g in enumerate((*fixed, *metas, *inner))}
        steps = []
        for g in inner:
            i, *j = (slot[k] for k in post[g])
            steps.append((type(g), i, j[0] if j else None))
        self.names: tuple[str, ...] = tuple(g.name for g in metas)
        self._fixed = tuple(fixed)
        self._steps = tuple(steps)
        self._roots = tuple(slot[f] for f in formulas)

    def fill(self, binding: Mapping[str, Formula]) -> tuple[Formula, ...]:
        """The formulas with every metavariable replaced via `binding`.  Each
        ``!``, ``->`` and ``( | )`` node comes straight from `_TABLE`, the
        constructor only on a miss.  The first name of `names` that
        `binding` lacks is a `SubstitutionError`."""
        try:
            vals = [*self._fixed, *[binding[n] for n in self.names]]
        except KeyError:
            name = next(n for n in self.names if n not in binding)
            raise SubstitutionError(f"unbound metavariable {name!r}") from None
        get, push = _TABLE.get, vals.append
        for cls, i, j in self._steps:
            if j is None:
                a = vals[i]
                push(get((Not, a)) or Not(a))
            else:
                a, b = vals[i], vals[j]
                push(get((cls, a, b)) or cls(a, b))
        return tuple([vals[i] for i in self._roots])


def substitute(schema: Formula, binding: Mapping[str, Formula]) -> Formula:
    """Simultaneously replace every metavariable of `schema` via `binding`:
    compile `schema` into a `SchemaProgram` and fill it.

    There are no binders, so plain replacement is capture-free.  Nothing
    recurses, so a schema of any depth substitutes.  An unbound metavariable
    raises the error a left-to-right recursion raised: the program looks up
    every metavariable before it builds a node, and in the order a
    left-to-right reading first meets them, so the first one unbound is the
    first one the reading meets that is unbound.
    """
    return SchemaProgram((schema,)).fill(binding)[0]


# ---------------------------------------------------------------------------
# Sequents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sequent:
    """Pair of formula sequences; order preserved, repetitions allowed."""

    antecedent: tuple[Formula, ...]
    succedent: tuple[Formula, ...]


# ---------------------------------------------------------------------------
# Lexer / parser
#
# One loop over the tokens, `Language._shift_reduce`: operands wait on one
# stack, operators and open brackets on another.  A binary operator first
# reduces every stacked operator that binds at least as tightly (strictly
# more tightly for the right-associative ``->``), and ``)``, ``|``, ``,``,
# ``|-`` and the end of input reduce down to the innermost open bracket.
# ``!``, ``->`` and ``(A | B)`` nodes come straight from `_TABLE`, the
# constructor only on a miss; the sugar is expanded by `disj`, `conj`, `iff`
# and `indep`.  Deep input cannot hit the recursion limit here.
#
# In front of the loop, `Language._read` buckets the tokens by bracket in
# one pass: each ``)`` closes a group, whose key is the tuple of its tokens
# with every inner group already replaced by its formula, and the group
# memo of the `Language` maps each key that read to its formula, so each
# distinct bracketed group is read once per `Language`.  Each token lands in
# exactly one group, and a key hashes interned formulas by identity, so the
# pass is linear in the text.  The loop takes a formula among its tokens as
# an operand, and reads the outermost tokens as a formula or a sequent.
#
# Above both sits the text memo of the `Language`: formula text ->
# formula, for every text that parsed, alone or as a stripped formula of a
# sequent split at ``|-`` and ``,`` (`Language.parse_sequent` says why that
# split is exact).  A repeated text costs one dict lookup and returns the
# object the loop would build.  Neither memo stores a failure: a text that
# fails anywhere is read again by the loop over its ungrouped tokens, which
# raises the first error in reading order, so it fails again with the same
# error.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\|-|<->|->|/\\|\\/|><|[!()|,]|[A-Za-z_][A-Za-z0-9_]*")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED = {"T", "F"}
# binding power of a stacked operator; open brackets have none
_POWER = {"<->": 1, "><": 1, "->": 2, "\\/": 3, "/\\": 4, "!": 5}
# a binary operator reduces the stacked operators of at least this power
_REDUCES = {"<->": 1, "><": 1, "->": 3, "\\/": 3, "/\\": 4}
_SUGAR = {"\\/": disj, "/\\": conj, "<->": iff, "><": indep}


def _tokenize(text: str) -> list[str]:
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens) != "".join(text.split()):
        # findall skipped a character that starts no token: find the first
        pos = 0
        for m in _TOKEN_RE.finditer(text):
            if text[pos:m.start()].strip():
                break
            pos = m.end()
        gap = text[pos:]
        pos += len(gap) - len(gap.lstrip())
        raise ParseError(f"lexical error at position {pos}: {text[pos:pos + 8]!r}")
    return tokens


def _found(tok: str | Formula | None) -> str:
    """`tok` as an error text names it.  A formula among the tokens is a
    read group, named by the ``(`` it stands for."""
    if tok is None:
        return "end of input"
    return repr(tok if isinstance(tok, str) else "(")


class Language:
    """A declared, ordered atom set plus its parser, its printers and two
    memos: the text memo maps each formula text that parsed, alone or in a
    sequent, to its formula, and the group memo maps each bracketed group
    that read, as a tuple of tokens and formulas, to its formula.

    The group memo is exact because in this grammar ``(`` always opens a
    primary.  In operand position the loop stacks the ``(``, reduces
    nothing below it until the matching ``)`` and leaves one more operand,
    and the sequent mode is idle while a bracket is open; so the group
    reads as the formula it reads to alone, whatever surrounds it.  Out of
    operand position a ``(`` is an error, and so is the group's formula
    that stands there.  So the grouped tokens read exactly when the text
    does, to the same result.  The first error is another matter: a group
    is read before the tokens in front of it, and a ``)`` or ``(`` left
    unmatched is no group.  So a text whose grouped read fails is read
    again by the same loop over its ungrouped tokens, which raises the
    first error in reading order, the one the text always raised.
    """

    def __init__(self, theta: Sequence[str]):
        names = tuple(theta)
        if not names:
            raise ValueError("atom set must be nonempty")
        if len(set(names)) != len(names):
            raise ValueError("atom set contains duplicates")
        for name in names:
            if not _IDENT_RE.match(name) or name in _RESERVED:
                raise ValueError(f"invalid atom name {name!r}")
        self.theta: tuple[str, ...] = names
        self._texts: dict[str, Formula] = {}
        self._groups: dict[tuple[str | Formula, ...], Formula] = {}
        self.top: Formula = Implies(Atom(names[0]), Atom(names[0]))
        self.bot: Formula = Not(self.top)
        self._leaves = {**{n: Atom(n) for n in names}, "T": self.top, "F": self.bot}

    # -- parsing ------------------------------------------------------------

    def parse(self, text: str) -> Formula:
        f = self._texts.get(text)
        if f is None:
            f = self._texts[text] = self._read(text, False)
        return f

    def parse_sequent(self, text: str) -> Sequent:
        """`text` as a sequent, each formula looked up in the text memo.

        The split at ``|-`` and ``,`` is exact: ``,`` is a token of its own
        and no other token contains it, and every ``|-`` substring is read
        as a ``|-`` token, since no token holds ``|`` after its first
        character.  No formula holds either token, and outside brackets
        the loop ends a formula at ``,`` or ``|-`` just as at the end of
        input, so the formulas of a sequent with one ``|-`` are the pieces
        between them, each read alone; a blank side is empty.  Any other
        text -- no ``|-`` or several, a blank piece, a piece that is no
        formula -- goes to `_read` whole, which gives the result or the
        `ParseError` it always gave; an error is never memoized.
        """
        sides = text.split("|-")
        if len(sides) == 2:
            try:
                return Sequent(self._side(sides[0]), self._side(sides[1]))
            except ParseError:
                pass
        return self._read(text, True)

    def _side(self, text: str) -> tuple[Formula, ...]:
        """The formulas of one side of a sequent, through the text memo."""
        if not text or text.isspace():
            return ()
        texts, out = self._texts, []
        for piece in text.split(","):
            piece = piece.strip()
            f = texts.get(piece)
            if f is None:
                f = texts[piece] = self._read(piece, False)
            out.append(f)
        return tuple(out)

    def _read(self, text: str, sequent: bool) -> Formula | Sequent:
        """`text` as one formula, or as a sequent when `sequent` is set:
        each distinct bracketed group read once, through the group memo, then
        the outermost tokens; on any failure, the ungrouped tokens."""
        tokens = _tokenize(text)
        groups, loop = self._groups, self._shift_reduce
        outer: list[list[str | Formula]] = []    # the enclosing lists of the open groups
        inner: list[str | Formula] = []          # the innermost open group, or the text
        try:
            for tok in tokens:
                if tok == "(":
                    outer.append(inner)
                    inner = []
                elif tok == ")" and outer:
                    key = tuple(inner)
                    f = groups.get(key)
                    if f is None:
                        f = groups[key] = loop(["(", *key, ")", None], False)
                    inner = outer.pop()
                    inner.append(f)
                else:
                    inner.append(tok)
            if not outer:
                inner.append(None)
                return loop(inner, sequent)
        except ParseError:
            pass
        tokens.append(None)
        return loop(tokens, sequent)

    def _shift_reduce(self, tokens: list[str | Formula | None],
                      sequent: bool) -> Formula | Sequent:
        """`tokens`, ended by None, as one formula, or as a sequent when
        `sequent` is set.  A formula among them is an operand."""
        leaves, table = self._leaves, _TABLE
        out: list[Formula] = []
        ops: list[str] = []                # operators, "(" and "(|"
        done: list[Formula] = []           # finished formulas of this side
        ant: list[Formula] | None = None   # the antecedent, once past "|-"
        operand = True                     # an operand is due
        for tok in tokens:
            if operand:
                f = leaves.get(tok)
                if f is not None:
                    out.append(f)
                    operand = False
                elif tok == "!" or tok == "(":
                    ops.append(tok)
                elif isinstance(tok, Formula):
                    out.append(tok)
                    operand = False
                elif (sequent and not ops and not done
                      and tok == ("|-" if ant is None else None)):
                    if ant is not None:    # empty succedent
                        return Sequent(tuple(ant), ())
                    ant = []               # empty antecedent
                elif tok is None:
                    raise ParseError("dangling operator or unexpected end of input")
                elif _IDENT_RE.match(tok):
                    raise ParseError(f"unknown atom {tok!r} (declared: {', '.join(self.theta)})")
                else:
                    raise ParseError(f"unexpected token {tok!r}")
                continue
            power = _REDUCES.get(tok)
            while ops and _POWER.get(ops[-1], 0) >= (power or 1):
                op, b = ops.pop(), out.pop()
                if op == "!":
                    out.append(table.get((Not, b)) or Not(b))
                elif op == "->":
                    a = out.pop()
                    out.append(table.get((Implies, a, b)) or Implies(a, b))
                else:
                    out.append(_SUGAR[op](out.pop(), b))
            if power is not None:
                ops.append(tok)
                operand = True
            elif ops:                      # inside brackets
                if tok == ")":
                    if ops.pop() == "(|":
                        b = out.pop()
                        a = out.pop()
                        out.append(table.get((Cond, a, b)) or Cond(a, b))
                elif tok == "|" and ops[-1] == "(":
                    ops[-1] = "(|"
                    operand = True
                else:
                    raise ParseError(f"expected ')', found {_found(tok)}")
            elif not sequent:
                if tok is None:
                    return out.pop()
                raise ParseError(f"unexpected trailing token {_found(tok)}")
            else:
                done.append(out.pop())
                operand = True
                if tok == ",":
                    continue
                if ant is None:
                    if tok != "|-":
                        raise ParseError(f"expected '|-', found {_found(tok)}")
                    ant, done = done, []
                elif tok is None:
                    return Sequent(tuple(ant), tuple(done))
                else:
                    raise ParseError(f"unexpected trailing token {_found(tok)}")

    # -- printing -----------------------------------------------------------

    def format(self, f: Formula, style: str = "core") -> str:
        if style == "core":
            return _fmt(f, None)
        if style == "sugared":
            return _fmt(f, self)
        raise ValueError(f"unknown style {style!r}")

    def format_sequent(self, s: Sequent, style: str = "core") -> str:
        left = ", ".join(self.format(f, style) for f in s.antecedent)
        right = ", ".join(self.format(f, style) for f in s.succedent)
        if left and right:
            return f"{left} |- {right}"
        if left:
            return f"{left} |-"
        return f"|- {right}"


def parse(text: str, theta: Sequence[str]) -> Formula:
    """One-shot parse under a freshly declared atom set."""
    return Language(theta).parse(text)


# ---------------------------------------------------------------------------
# Printer
#
# One iterative printer for both styles, so no nesting depth reaches the
# recursion limit.  In the sugared style `_sugar` reads the most specific
# sugar shape off a node before the core constructors are printed; `_BINARY`
# gives each binary operator's precedence and the precedences its two
# operands are printed at.
# ---------------------------------------------------------------------------

# precedence levels; higher binds tighter
_P_IFF, _P_IMP, _P_OR, _P_AND, _P_NOT = 1, 2, 3, 4, 5
# binary operator -> (its precedence, left operand's, right operand's, the
# text between the operands)
_BINARY = {
    "><": (_P_IFF, _P_IFF + 1, _P_IFF + 1, " >< "),
    "<->": (_P_IFF, _P_IFF + 1, _P_IFF + 1, " <-> "),
    "->": (_P_IMP, _P_IMP + 1, _P_IMP, " -> "),
    "\\/": (_P_OR, _P_OR, _P_OR + 1, " \\/ "),
    "/\\": (_P_AND, _P_AND, _P_AND + 1, " /\\ "),
}


def _sugar(f: Formula) -> tuple[str, Formula, Formula] | None:
    """The sugar `f` expands: ``(op, left, right)`` for the most specific of
    ``><``, ``<->``, ``/\\`` and ``\\/`` whose expansion `f` is, else None."""
    if isinstance(f, Implies):
        return ("\\/", f.left.body, f.right) if isinstance(f.left, Not) else None
    if not (isinstance(f, Not) and isinstance(g := f.body, Implies)
            and isinstance(g.left, Not) and isinstance(p := g.left.body, Not)
            and isinstance(q := g.right, Not)):
        return None
    p, q = p.body, q.body                  # f is p /\ q
    if not (isinstance(p, Implies) and isinstance(q, Implies)
            and p.left is q.right and p.right is q.left):
        return "/\\", p, q
    a, b = p.left, p.right                 # f is a <-> b
    if isinstance(a, Cond) and a.then is b:
        return "><", b, a.given
    return "<->", a, b


def _fmt(f: Formula, lang: Language | None) -> str:
    """`f` in core syntax when `lang` is None, else in the sugared syntax of
    `lang`.  The loop prints `f` at precedence `parent`, going down left
    operands at once; what comes after them waits on the stack, the next
    piece on top: a (text, formula, parent) entry writes its text, then
    prints its formula, if any, at its parent precedence."""
    out: list[str] = []
    stack: list[tuple[str, Formula | None, int]] = []
    parent = 0
    while True:
        if isinstance(f, Atom):
            out.append(f.name)
        elif isinstance(f, Meta):
            out.append(f"?{f.name}")
        elif lang is not None and (f is lang.top or f is lang.bot):
            out.append("T" if f is lang.top else "F")
        else:
            sugar = None if lang is None else _sugar(f)
            if sugar is None:
                if isinstance(f, Cond):
                    out.append("(")
                    stack += ((")", None, 0), (" | ", f.given, 0))
                    f, parent = f.then, 0
                    continue
                if isinstance(f, Not):             # a run of plain `!` at once
                    n, f = 1, f.body
                    while isinstance(f, Not) and (lang is None or f is not lang.bot and not _sugar(f)):
                        n, f = n + 1, f.body
                    out.append("!" * n)
                    parent = _P_NOT
                    continue
                if not isinstance(f, Implies):
                    raise TypeError(f)
                sugar = ("->", f.left, f.right)
            op, a, b = sugar
            prec, left, right, between = _BINARY[op]
            if parent > prec:
                out.append("(")
                stack.append((")", None, 0))
            stack.append((between, b, right))
            f, parent = a, left
            continue
        while stack:                           # `f` is written: take the next piece
            text, f, parent = stack.pop()
            out.append(text)
            if f is not None:
                break
        else:
            return "".join(out)
