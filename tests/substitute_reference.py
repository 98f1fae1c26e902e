"""Test-only reference: the recursive substitution that compiled schema
programs (`syntax.SchemaProgram`) replaced, and axiom instantiation on top
of it.

`substitute` walks the schema as a tree, left before right, building every
node through its constructor; `instantiate_axiom` substitutes the
antecedent, then the succedent, one formula at a time, and reads the
schema's metavariables off `syntax.metas`.  Differential tests hold
`syntax.substitute` and `proof.instantiate_axiom` to their results, by
identity, and to their error texts.
"""

from __future__ import annotations

from typing import Mapping

from dblogic.proof import AXIOM_SCHEMAS, DerivationError, System
from dblogic.syntax import (
    Atom, Cond, Formula, Implies, Meta, Not, Sequent, SubstitutionError, metas,
)


def substitute(schema: Formula, binding: Mapping[str, Formula]) -> Formula:
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


def instantiate_axiom(schema_id: str, binding: Mapping[str, Formula],
                      system: System, allow_star: bool = False) -> Sequent:
    try:
        schema = AXIOM_SCHEMAS[schema_id]
    except KeyError:
        raise DerivationError("axiom", f"unknown schema {schema_id!r}") from None
    admissible = system in schema.systems or (schema_id == "star" and allow_star)
    if not admissible:
        raise DerivationError("axiom", f"schema {schema_id!r} not admissible in system {system.value!r}")
    try:
        ant = tuple(substitute(f, binding) for f in schema.antecedent)
        suc = tuple(substitute(f, binding) for f in schema.succedent)
    except SubstitutionError as e:
        raise DerivationError("axiom", f"schema {schema_id!r}: {e}") from None
    names = frozenset().union(*map(metas, schema.antecedent + schema.succedent))
    stray = binding.keys() - names
    if stray:
        raise DerivationError("axiom", f"schema {schema_id!r} has no metavariable {min(stray)!r}")
    return Sequent(ant, suc)
