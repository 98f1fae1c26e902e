"""Test-only reference: the core printer, the sugared printer and the four
nested sugar matchers that `syntax._fmt` and `syntax._sugar` replaced.

A differential test holds `Language.format` to these printers byte for
byte in both styles.
"""

from __future__ import annotations

from dblogic.syntax import Atom, Cond, Formula, Implies, Language, Meta, Not


def format_formula(lang: Language, f: Formula, style: str) -> str:
    return _fmt_core(f, 0) if style == "core" else _fmt_sugared(f, 0, lang)


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
