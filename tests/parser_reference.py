"""Test-only reference: the recursive-descent formula parser and the
character-by-character tokenizer that `Language.parse` replaced.

It builds plain trees (no node table); the only sharing is the two sides of
each ``<->``/``><``, by reference.  Differential tests hold the table-driven
parser to its trees and its `ParseError` texts.
"""

from __future__ import annotations

import re

from dblogic.syntax import (
    Atom, Cond, Formula, Implies, Language, Not, ParseError, Sequent,
    conj, disj, iff, indep,
)

_TOKEN_RE = re.compile(r"\|-|<->|->|/\\|\\/|><|[!()|,]|[A-Za-z_][A-Za-z0-9_]*")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def tokenize(text: str) -> list[str]:
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


def parse(lang: Language, text: str) -> Formula:
    p = _Parser(tokenize(text), lang)
    f = p.formula()
    p.expect_end()
    return f


def parse_sequent(lang: Language, text: str) -> Sequent:
    p = _Parser(tokenize(text), lang)
    seq = p.sequent()
    p.expect_end()
    return seq


class _Parser:
    def __init__(self, tokens: list[str], lang: Language):
        self.tokens = tokens
        self.pos = 0
        self.lang = lang
        first = Atom(lang.theta[0])
        self.top = Implies(first, first)

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
            return self.top
        if tok == "F":
            return Not(self.top)
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
