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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

__all__ = [
    "Formula", "Atom", "Not", "Implies", "Cond", "Meta",
    "Sequent", "Language", "ParseError", "SubstitutionError",
    "disj", "conj", "iff", "indep", "parse",
    "atoms", "metas", "depth", "is_classical", "substitute", "subformulas",
    "truth_columns", "evaluate",
]


class ParseError(ValueError):
    """Raised on lexical errors, unknown atoms, or malformed input."""


class SubstitutionError(ValueError):
    """Raised when a schema metavariable is left unbound."""


# ---------------------------------------------------------------------------
# Formula trees
# ---------------------------------------------------------------------------

class Formula:
    """Base class for core formula trees."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Cond(Formula):
    """The conditional ``(then | given)``: `then` in the sub-universe of `given`."""

    then: Formula
    given: Formula


@dataclass(frozen=True)
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


def _leaf_names(f: Formula, kind: type) -> frozenset[str]:
    """Names of the `kind` leaves of `f`, visiting each shared node once."""
    out: set[str] = set()
    seen: set[int] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        if isinstance(g, kind):
            out.add(g.name)
        elif isinstance(g, Not):
            stack.append(g.body)
        elif isinstance(g, Implies):
            stack.extend((g.left, g.right))
        elif isinstance(g, Cond):
            stack.extend((g.then, g.given))
    return frozenset(out)


def atoms(f: Formula) -> frozenset[str]:
    """Names of all atoms occurring in `f`."""
    return _leaf_names(f, Atom)


def metas(f: Formula) -> frozenset[str]:
    """Names of all metavariables occurring in `f`."""
    return _leaf_names(f, Meta)


def depth(f: Formula) -> int:
    """Depth of the core tree (atoms have depth 0)."""
    if isinstance(f, (Atom, Meta)):
        return 0
    if isinstance(f, Not):
        return 1 + depth(f.body)
    if isinstance(f, Implies):
        return 1 + max(depth(f.left), depth(f.right))
    if isinstance(f, Cond):
        return 1 + max(depth(f.then), depth(f.given))
    raise TypeError(f)


def is_classical(f: Formula) -> bool:
    """True when `f` contains no conditional constructor."""
    if isinstance(f, (Atom, Meta)):
        return True
    if isinstance(f, Not):
        return is_classical(f.body)
    if isinstance(f, Implies):
        return is_classical(f.left) and is_classical(f.right)
    return False


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.body)
    elif isinstance(f, Implies):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, Cond):
        yield from subformulas(f.then)
        yield from subformulas(f.given)


def truth_columns(names: Sequence[str]) -> dict[str, int]:
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
             ) -> tuple[int | None, int | None]:
    """Bit-parallel value of `f` in the powerset algebra with top `full`.

    Atoms take their masks from `atom_map`; ``(B | A)`` is ``cond(B, A)``,
    which returns None for an undefined row.  Returns the value (None when
    some needed row is undefined) and the innermost blocking condition: the
    first A with ``cond(B, A)`` undefined in then-before-given,
    left-before-right order.  Without `cond` the formula must be classical,
    and with truth-table columns for `atom_map` the value is its set of
    satisfying rows.
    """
    memo: dict[int, int | None] = {}
    blocking: int | None = None

    def ev(g: Formula) -> int | None:
        nonlocal blocking
        if isinstance(g, Atom):
            return atom_map[g.name]
        key = id(g)
        if key in memo:
            return memo[key]
        if isinstance(g, Not):
            v = ev(g.body)
            out = None if v is None else full ^ v
        elif isinstance(g, Implies):
            l, r = ev(g.left), ev(g.right)
            out = None if l is None or r is None else (full ^ l) | r
        elif isinstance(g, Cond):
            if cond is None:
                raise ValueError("classical formula expected")
            t, a = ev(g.then), ev(g.given)
            if t is None or a is None:
                out = None
            else:
                out = cond(t, a)
                if out is None and blocking is None:
                    blocking = a
        else:
            raise TypeError(g)
        memo[key] = out
        return out

    return ev(f), blocking


def substitute(schema: Formula, binding: Mapping[str, Formula]) -> Formula:
    """Simultaneously replace every metavariable of `schema` via `binding`.

    There are no binders, so plain replacement is capture-free.
    """
    if isinstance(schema, Meta):
        try:
            return binding[schema.name]
        except KeyError:
            raise SubstitutionError(f"unbound metavariable {schema.name!r}") from None
    if isinstance(schema, Atom):
        return schema
    if isinstance(schema, Not):
        return Not(substitute(schema.body, binding))
    if isinstance(schema, Implies):
        return Implies(substitute(schema.left, binding), substitute(schema.right, binding))
    if isinstance(schema, Cond):
        return Cond(substitute(schema.then, binding), substitute(schema.given, binding))
    raise TypeError(schema)


# ---------------------------------------------------------------------------
# Sequents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sequent:
    """Pair of formula sequences; order preserved, repetitions allowed."""

    antecedent: tuple[Formula, ...]
    succedent: tuple[Formula, ...]

    def antecedent_set(self) -> frozenset[Formula]:
        return frozenset(self.antecedent)

    def succedent_set(self) -> frozenset[Formula]:
        return frozenset(self.succedent)


# ---------------------------------------------------------------------------
# Lexer / parser (precedence climbing)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\|-|<->|->|/\\|\\/|><|[!()|,]|[A-Za-z_][A-Za-z0-9_]*")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED = {"T", "F"}


def _tokenize(text: str) -> list[str]:
    out: list[str] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"lexical error at position {pos}: {text[pos:pos + 8]!r}")
        out.append(m.group(0))
        pos = m.end()
    return out


class Language:
    """A declared, ordered atom set plus its parser and printers."""

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
        first = Atom(names[0])
        self.top: Formula = Implies(first, first)
        self.bot: Formula = Not(self.top)

    # -- parsing ------------------------------------------------------------

    def parse(self, text: str) -> Formula:
        p = _Parser(_tokenize(text), self)
        f = p.formula()
        p.expect_end()
        return f

    def parse_sequent(self, text: str) -> Sequent:
        p = _Parser(_tokenize(text), self)
        seq = p.sequent()
        p.expect_end()
        return seq

    # -- printing -----------------------------------------------------------

    def format(self, f: Formula, style: str = "core") -> str:
        if style == "core":
            return _fmt_core(f, 0)
        if style == "sugared":
            return _fmt_sugared(f, 0, self)
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


class _Parser:
    def __init__(self, tokens: list[str], lang: Language):
        self.tokens = tokens
        self.pos = 0
        self.lang = lang

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("dangling operator or unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.peek()
        if got != tok:
            if got is None:
                raise ParseError(f"expected {tok!r}, found end of input")
            raise ParseError(f"expected {tok!r}, found {got!r}")
        self.pos += 1

    def expect_end(self) -> None:
        if self.peek() is not None:
            raise ParseError(f"unexpected trailing token {self.peek()!r}")

    # formula := iff level
    def formula(self) -> Formula:
        return self.iff_level()

    def iff_level(self) -> Formula:
        left = self.imp_level()
        while self.peek() in ("<->", "><"):
            op = self.take()
            right = self.imp_level()
            left = iff(left, right) if op == "<->" else indep(left, right)
        return left

    def imp_level(self) -> Formula:
        left = self.or_level()
        if self.peek() == "->":
            self.take()
            return Implies(left, self.imp_level())
        return left

    def or_level(self) -> Formula:
        left = self.and_level()
        while self.peek() == "\\/":
            self.take()
            left = disj(left, self.and_level())
        return left

    def and_level(self) -> Formula:
        left = self.unary()
        while self.peek() == "/\\":
            self.take()
            left = conj(left, self.unary())
        return left

    def unary(self) -> Formula:
        if self.peek() == "!":
            self.take()
            return Not(self.unary())
        return self.primary()

    def primary(self) -> Formula:
        tok = self.take()
        if tok == "(":
            inner = self.formula()
            if self.peek() == "|":
                self.take()
                given = self.formula()
                self.expect(")")
                return Cond(inner, given)
            self.expect(")")
            return inner
        if tok == "T":
            return self.lang.top
        if tok == "F":
            return self.lang.bot
        if _IDENT_RE.match(tok):
            if tok not in self.lang.theta:
                raise ParseError(f"unknown atom {tok!r} (declared: {', '.join(self.lang.theta)})")
            return Atom(tok)
        raise ParseError(f"unexpected token {tok!r}")

    def sequent(self) -> Sequent:
        ant: list[Formula] = []
        if self.peek() != "|-":
            ant.append(self.formula())
            while self.peek() == ",":
                self.take()
                ant.append(self.formula())
        self.expect("|-")
        suc: list[Formula] = []
        if self.peek() is not None:
            suc.append(self.formula())
            while self.peek() == ",":
                self.take()
                suc.append(self.formula())
        return Sequent(tuple(ant), tuple(suc))


# ---------------------------------------------------------------------------
# Printers
# ---------------------------------------------------------------------------

# precedence levels used by the printers; higher binds tighter
_P_IFF, _P_IMP, _P_OR, _P_AND, _P_NOT, _P_ATOM = 1, 2, 3, 4, 5, 6


def _fmt_core(f: Formula, parent: int) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Meta):
        return f"?{f.name}"
    if isinstance(f, Cond):
        return f"({_fmt_core(f.then, 0)} | {_fmt_core(f.given, 0)})"
    if isinstance(f, Not):
        s = "!" + _fmt_core(f.body, _P_NOT)
        return s if parent <= _P_NOT else f"({s})"
    if isinstance(f, Implies):
        s = f"{_fmt_core(f.left, _P_IMP + 1)} -> {_fmt_core(f.right, _P_IMP)}"
        return s if parent <= _P_IMP else f"({s})"
    raise TypeError(f)


def _match_disj(f: Formula) -> tuple[Formula, Formula] | None:
    if isinstance(f, Implies) and isinstance(f.left, Not):
        return f.left.body, f.right
    return None


def _match_conj(f: Formula) -> tuple[Formula, Formula] | None:
    if not isinstance(f, Not):
        return None
    inner = _match_disj(f.body)
    if inner is None:
        return None
    na, nb = inner
    if isinstance(na, Not) and isinstance(nb, Not):
        return na.body, nb.body
    return None


def _match_iff(f: Formula) -> tuple[Formula, Formula] | None:
    inner = _match_conj(f)
    if inner is None:
        return None
    p, q = inner
    if (isinstance(p, Implies) and isinstance(q, Implies)
            and p.left == q.right and p.right == q.left):
        return p.left, p.right
    return None


def _match_indep(f: Formula) -> tuple[Formula, Formula] | None:
    inner = _match_iff(f)
    if inner is None:
        return None
    l, r = inner
    if isinstance(l, Cond) and l.then == r:
        return r, l.given
    return None


def _fmt_sugared(f: Formula, parent: int, lang: Language) -> str:
    def wrap(s: str, prec: int) -> str:
        return s if parent <= prec else f"({s})"

    if f == lang.top:
        return "T"
    if f == lang.bot:
        return "F"
    m = _match_indep(f)
    if m is not None:
        psi, phi = m
        return wrap(f"{_fmt_sugared(psi, _P_IFF + 1, lang)} >< {_fmt_sugared(phi, _P_IFF + 1, lang)}", _P_IFF)
    m = _match_iff(f)
    if m is not None:
        a, b = m
        return wrap(f"{_fmt_sugared(a, _P_IFF + 1, lang)} <-> {_fmt_sugared(b, _P_IFF + 1, lang)}", _P_IFF)
    m = _match_conj(f)
    if m is not None:
        a, b = m
        return wrap(f"{_fmt_sugared(a, _P_AND, lang)} /\\ {_fmt_sugared(b, _P_AND + 1, lang)}", _P_AND)
    m = _match_disj(f)
    if m is not None:
        a, b = m
        return wrap(f"{_fmt_sugared(a, _P_OR, lang)} \\/ {_fmt_sugared(b, _P_OR + 1, lang)}", _P_OR)
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Meta):
        return f"?{f.name}"
    if isinstance(f, Cond):
        return f"({_fmt_sugared(f.then, 0, lang)} | {_fmt_sugared(f.given, 0, lang)})"
    if isinstance(f, Not):
        return wrap("!" + _fmt_sugared(f.body, _P_NOT, lang), _P_NOT)
    if isinstance(f, Implies):
        return wrap(f"{_fmt_sugared(f.left, _P_IMP + 1, lang)} -> {_fmt_sugared(f.right, _P_IMP, lang)}", _P_IMP)
    raise TypeError(f)
