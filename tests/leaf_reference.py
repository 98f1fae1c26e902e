"""Test-only reference: the classical leaf check that one scan and one truth
table replaced.

It folds a sequent into its material reading (the antecedent's conjunction
implies the succedent formula, or the negated conjunction when the
succedent is empty), then `_abstract` copies that tree with each maximal
conditional replaced by a placeholder atom named ``"\\x00c{i}"``, and
`evaluate` truth-tables the copy.  Differential tests hold
`proof.classical_leaf_check` to its verdicts and its `DerivationError`
texts.
"""

from __future__ import annotations

from functools import reduce

from dblogic.proof import DerivationError
from dblogic.syntax import (
    Atom, Cond, Formula, Implies, Meta, Not, Sequent, conj, evaluate,
    truth_columns,
)

_MAX_TABLE_VARS = 18


def _too_wide(width: int) -> DerivationError:
    return DerivationError("taut", f"too many variables for a truth table ({width})")


def _abstract(f: Formula, conds: list[Formula], names: set[str],
              memo: dict[int, tuple[Formula, Formula]]) -> Formula:
    """Replace every maximal conditional subformula by a fresh placeholder
    atom; structurally identical conditionals share one placeholder, found
    by ``==``.  The names of the atoms of the result go into `names`, and
    `memo` maps id(node) to (node, abstraction)."""
    if isinstance(f, Atom):
        names.add(f.name)
        return f
    hit = memo.get(id(f))
    if hit is not None:
        return hit[1]
    if isinstance(f, Meta):
        raise DerivationError("taut", "metavariable in a concrete leaf")
    if isinstance(f, Cond):
        i = next((j for j, c in enumerate(conds) if c == f), len(conds))
        if i == len(conds):
            conds.append(f)
        out: Formula = Atom(f"\x00c{i}")
        names.add(out.name)
        if len(names) > _MAX_TABLE_VARS:
            raise _too_wide(len(names))
    elif isinstance(f, Not):
        body = _abstract(f.body, conds, names, memo)
        out = f if body is f.body else Not(body)
    elif isinstance(f, Implies):
        left = _abstract(f.left, conds, names, memo)
        right = _abstract(f.right, conds, names, memo)
        out = f if left is f.left and right is f.right else Implies(left, right)
    else:
        raise TypeError(f)
    memo[id(f)] = (f, out)
    return out


def is_tautology(f: Formula) -> bool:
    names: set[str] = set()
    try:
        g = _abstract(f, [], names, {})
        vars_ = sorted(names)
        if len(vars_) > _MAX_TABLE_VARS:
            raise _too_wide(len(vars_))
        full = (1 << (1 << len(vars_))) - 1
        return evaluate(g, truth_columns(vars_), full)[0] == full
    except RecursionError:
        raise DerivationError(
            "taut", "formula nested too deeply for the classical leaf check") from None


def classical_leaf_check(target: Sequent) -> bool:
    if len(target.succedent) > 1:
        raise DerivationError("taut", "classical leaf requires at most one succedent formula")
    if target.antecedent and target.succedent:
        f = Implies(reduce(conj, target.antecedent), target.succedent[0])
    elif target.succedent:
        f = target.succedent[0]
    elif target.antecedent:
        f = Not(reduce(conj, target.antecedent))
    else:
        return False
    return is_tautology(f)
