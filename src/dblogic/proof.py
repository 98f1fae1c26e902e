"""Derivation representation and checking for the three deduction systems.

A derivation is a tree (shared subtrees allowed) whose nodes are axiom-schema
instances, CUT applications, STRUCT applications, classical leaves and
derived-rule macros.  Checking computes every node's conclusion and validates
it bottom-up; the axiom schemas admissible at a node depend on the system tag
of the enclosing derivation:

* ``classical`` -- c1..c3 and modus ponens only,
* ``dbl``       -- adds b1..b4 and the symmetric-independence axiom b5,
* ``dbl*``      -- adds b1..b4 and the weakenings b5.weak.A / b5.weak.B.

The collapse axiom ``star`` (merging iterated conditionals into a conjunctive
condition) is never admissible in the three systems; it can be enabled on a
single derivation for the purpose of exhibiting the triviality it causes.

CUT position convention: the cut formula must be the last succedent element of
the left premise and may be any antecedent element of the right premise; a
STRUCT node reorders as needed.  Formulas are hash-consed, so structural
equality of core trees is object identity throughout.

Each admissible LK rule (``I``, ``andL``, ``orR``, ``andR``, ``impL``,
``negL``) is defined once, in `_derive_rule`: a table gives its premise roles
and argument count, the shape is checked first, and the conclusion comes with
the rule's expansion into CUT/STRUCT/leaf nodes.  The checker walks that
expansion in place of the macro, so accepting a macro never goes beyond the
base system; ``orL``, ``impR`` and ``negR`` are rejected.  Bad input is a
`DerivationError`, never a crash: a malformed rule node, an ``ax`` binding
for a name its schema lacks.

Derivation nodes share the formulas' hash-consing table (`syntax.Interned`):
equal subderivations are one object, checked once.  The checker and the
printer walk the DAG on explicit stacks, reading premises from `_premises`.

Derivation file format (line oriented, ``#`` comments):

    theta: x, y, z
    system: dbl*
    n1: ax[b1; phi = x; psi = y]
    n2: taut[|- x -> x]
    n3: cut[x -> x] n2 n1
    n4: struct[|- !x, (y | x), T] n3
    n5: I[x]
    n6: andR n3 n5
    qed: n6

The ``qed`` line names the root node.  ``system: dbl+star`` enables the
quarantined collapse axiom.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Mapping, Sequence

from .syntax import (
    Cond, Formula, Implies, Language, Meta, Not, Sequent,
    Interned, SchemaProgram, SubstitutionError, conj, disj, evaluate, indep,
    iff, truth_columns,
)

__all__ = [
    "System", "Derivation", "DerivationError", "CheckResult",
    "AxiomNode", "TautNode", "CutNode", "StructNode", "RuleNode",
    "AXIOM_SCHEMAS", "DERIVED_RULES", "REJECTED_RULES",
    "instantiate_axiom", "apply_cut", "apply_struct",
    "classical_leaf_check", "is_tautology", "apply_derived_rule",
    "check_derivation", "parse_derivation_file", "format_derivation",
]


class System(str, Enum):
    CLASSICAL = "classical"
    DBL = "dbl"
    DBL_STAR = "dbl*"


class DerivationError(ValueError):
    """Checking failure; carries the path of the first invalid node."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


# ---------------------------------------------------------------------------
# Axiom schemas
# ---------------------------------------------------------------------------

_PHI, _PSI, _ETA = Meta("phi"), Meta("psi"), Meta("eta")
_ALL = frozenset({System.CLASSICAL, System.DBL, System.DBL_STAR})
_BAYES = frozenset({System.DBL, System.DBL_STAR})


@dataclass(frozen=True)
class AxiomSchema:
    sid: str
    antecedent: tuple[Formula, ...]
    succedent: tuple[Formula, ...]
    systems: frozenset[System]
    family: str | None = None  # reporting family for b5-style side conditions

    @cached_property
    def program(self) -> SchemaProgram:
        """The antecedent and the succedent, compiled once."""
        return SchemaProgram(self.antecedent + self.succedent)

    @cached_property
    def metavariables(self) -> frozenset[str]:
        return frozenset(self.program.names)


AXIOM_SCHEMAS: dict[str, AxiomSchema] = {
    s.sid: s for s in [
        AxiomSchema("mp", (_PHI, Implies(_PHI, _PSI)), (_PSI,), _ALL),
        AxiomSchema("c1", (), (Implies(_PHI, Implies(_PSI, _PHI)),), _ALL),
        AxiomSchema("c2", (), (Implies(
            Implies(_ETA, Implies(_PHI, _PSI)),
            Implies(Implies(_ETA, _PHI), Implies(_ETA, _PSI))),), _ALL),
        AxiomSchema("c3", (), (Implies(
            Implies(Not(_PHI), Not(_PSI)),
            Implies(Implies(Not(_PHI), _PSI), _PHI)),), _ALL),
        AxiomSchema("b1", (Implies(_PHI, _PSI),), (Not(_PHI), Cond(_PSI, _PHI)), _BAYES),
        AxiomSchema("b2", (), (Implies(
            Cond(Implies(_PSI, _ETA), _PHI),
            Implies(Cond(_PSI, _PHI), Cond(_ETA, _PHI))),), _BAYES),
        AxiomSchema("b3", (), (Implies(Cond(_PSI, _PHI), Implies(_PHI, _PSI)),), _BAYES),
        AxiomSchema("b4", (), (iff(Not(Cond(Not(_PSI), _PHI)), Cond(_PSI, _PHI)),), _BAYES),
        AxiomSchema("b5", (indep(_PSI, _PHI),), (indep(_PHI, _PSI),),
                    frozenset({System.DBL}), "b5"),
        AxiomSchema("b5.weak.A.1", (indep(_PSI, Not(_PHI)),), (indep(_PSI, _PHI),),
                    frozenset({System.DBL_STAR}), "b5.weak.A"),
        AxiomSchema("b5.weak.A.2", (indep(_PSI, _PHI),), (indep(_PSI, Not(_PHI)),),
                    frozenset({System.DBL_STAR}), "b5.weak.A"),
        AxiomSchema("b5.weak.B", (iff(_PSI, _ETA),),
                    (iff(Cond(_PHI, _PSI), Cond(_PHI, _ETA)),),
                    frozenset({System.DBL_STAR}), "b5.weak.B"),
        # quarantined collapse axiom ((eta|psi)|phi) == (eta|phi/\psi)
        AxiomSchema("star", (), (iff(Cond(Cond(_ETA, _PSI), _PHI),
                                     Cond(_ETA, conj(_PHI, _PSI))),),
                    frozenset(), "star"),
    ]
}


def instantiate_axiom(schema_id: str, binding: Mapping[str, Formula],
                      system: System, allow_star: bool = False) -> Sequent:
    """Instantiate an axiom schema, enforcing system admissibility.  Every
    metavariable of the schema must be bound, and nothing else.  The
    schema's compiled program is filled, so no formula is walked."""
    try:
        schema = AXIOM_SCHEMAS[schema_id]
    except KeyError:
        raise DerivationError("axiom", f"unknown schema {schema_id!r}") from None
    admissible = system in schema.systems or (schema_id == "star" and allow_star)
    if not admissible:
        raise DerivationError("axiom", f"schema {schema_id!r} not admissible in system {system.value!r}")
    try:
        out = schema.program.fill(binding)
    except SubstitutionError as e:
        raise DerivationError("axiom", f"schema {schema_id!r}: {e}") from None
    stray = binding.keys() - schema.metavariables
    if stray:
        raise DerivationError("axiom", f"schema {schema_id!r} has no metavariable {min(stray)!r}")
    n = len(schema.antecedent)
    return Sequent(out[:n], out[n:])


# ---------------------------------------------------------------------------
# Base rules
# ---------------------------------------------------------------------------

def apply_cut(left: Sequent, right: Sequent, cut: Formula) -> Sequent:
    """Merge two sequents along `cut` (last succedent of `left`, any
    antecedent element of `right`)."""
    if not left.succedent or left.succedent[-1] != cut:
        raise DerivationError("cut", "cut formula is not the last succedent element of the left premise")
    if cut not in right.antecedent:
        raise DerivationError("cut", "cut formula is not an antecedent element of the right premise")
    idx = right.antecedent.index(cut)
    lam = right.antecedent[:idx] + right.antecedent[idx + 1:]
    return Sequent(left.antecedent + lam, left.succedent[:-1] + right.succedent)


def apply_struct(premise: Sequent, target: Sequent, lang: Language) -> Sequent:
    """Weakening + contraction + permutation, with {T} removable on the left
    and {F} on the right.  Inclusion is membership, by identity."""
    ant, suc = target.antecedent, target.succedent
    if not all(f in ant or f == lang.top for f in premise.antecedent):
        raise DerivationError("struct", "antecedent inclusion violated")
    if not all(f in suc or f == lang.bot for f in premise.succedent):
        raise DerivationError("struct", "succedent inclusion violated")
    return target


# ---------------------------------------------------------------------------
# Classical leaf: one truth table, each maximal conditional one variable
# ---------------------------------------------------------------------------

_MAX_TABLE_VARS = 18
_NARROW_COLUMNS = truth_columns(range(6))    # the 64-row table


def _too_wide(width: int) -> DerivationError:
    return DerivationError("taut", f"too many variables for a truth table ({width})")


def classical_leaf_check(target: Sequent) -> bool:
    """Accept a single-succedent sequent that is a classical tautology with
    each atom and each maximal conditional read as one variable: no
    truth-table row satisfies every antecedent formula and falsifies the
    succedent, so ``|-`` is rejected, ``a, !a |-`` not.

    One `evaluate` walk numbers the variables as it first meets them and
    decides the leaf on a 64-row table.  That is exact for n <= 6
    variables: the 64 rows list every assignment of them, each 2**(6-n)
    times, and numbering the variables in another order only permutes the
    rows, which does not change whether a sequent is a tautology.  A leaf
    that meets more variables is walked once more on a table of exactly
    the width it counted.  A metavariable, or a conditional that takes the
    count past `_MAX_TABLE_VARS`, stops the walk; so does a count past it
    at the end.

    Multi-succedent targets are an error, never silently accepted: sequents
    like ``|- a, !a`` are not derivable, so admitting them here would make the
    checker unsound.  `evaluate` is iterative, so a formula of any depth is
    decided.
    """
    if len(target.succedent) > 1:
        raise DerivationError("taut", "classical leaf requires at most one succedent formula")
    columns, width = _NARROW_COLUMNS, 0

    def var(g: Formula) -> int:            # the next variable's column, 0 past the table
        nonlocal width
        if type(g) is Meta:
            raise DerivationError("taut", "metavariable in a concrete leaf")
        width += 1
        if width > _MAX_TABLE_VARS and type(g) is Cond:
            raise _too_wide(width)
        return columns[width - 1] if width <= len(columns) else 0

    while True:                            # at most twice: 64 rows, then the width counted
        width, memo = 0, {}
        rows = full = (1 << (1 << len(columns))) - 1
        for f in target.antecedent:
            rows &= evaluate(f, None, full, memo=memo, var=var)[0]
        for f in target.succedent:
            rows &= ~evaluate(f, None, full, memo=memo, var=var)[0]
        if width > _MAX_TABLE_VARS:
            raise _too_wide(width)
        if width <= len(columns):
            return rows == 0
        columns = truth_columns(range(width))


def is_tautology(f: Formula) -> bool:
    """The classical leaf ``|- f``."""
    return classical_leaf_check(Sequent((), (f,)))


# ---------------------------------------------------------------------------
# Derivation nodes
# ---------------------------------------------------------------------------

class Node(Interned):
    """Base class for derivation nodes: one object per node."""

    __slots__ = ()


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class AxiomNode(Node):
    schema_id: str
    binding: tuple[tuple[str, Formula], ...]  # sorted items

    @staticmethod
    def make(schema_id: str, **binding: Formula) -> "AxiomNode":
        return AxiomNode(schema_id, tuple(sorted(binding.items())))


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class TautNode(Node):
    target: Sequent


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class CutNode(Node):
    left: Node
    right: Node
    cut: Formula


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class StructNode(Node):
    premise: Node
    target: Sequent


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class RuleNode(Node):
    name: str
    args: tuple[Formula, ...]
    premises: tuple[Node, ...]


@dataclass(frozen=True)
class Derivation:
    root: Node
    system: System
    allow_star: bool = False


def _premises(node: Node) -> tuple[tuple[str, Node], ...]:
    """The premises of `node`, each with the step its path takes to it."""
    if isinstance(node, CutNode):
        return (".left", node.left), (".right", node.right)
    if isinstance(node, StructNode):
        return ((".premise", node.premise),)
    if isinstance(node, RuleNode):
        return tuple((f".premise{i}", p) for i, p in enumerate(node.premises))
    return ()


@dataclass
class CheckResult:
    conclusion: Sequent
    axioms_used: frozenset[str]
    flags: frozenset[str]
    nodes: int                        # distinct nodes checked, expansions too


# ---------------------------------------------------------------------------
# Derived-rule macros (the LK rules that stay admissible)
# ---------------------------------------------------------------------------

REJECTED_RULES = ("orL", "impR", "negR")

# rule -> (premise roles, formula argument count).  A premise's role is the
# side that holds its principal formula: the first succedent element or the
# last antecedent element.
_RULE_SHAPES: dict[str, tuple[tuple[str, ...], int]] = {
    "I": ((), 1),
    "andL": (("antecedent",), 1),
    "orR": (("succedent",), 1),
    "andR": (("succedent", "succedent"), 0),
    "impL": (("succedent", "antecedent"), 0),
    "negL": (("succedent",), 0),
}
DERIVED_RULES = tuple(_RULE_SHAPES)
_COUNT = ("no", "one", "two")


def _derive_rule(name: str, nodes: Sequence[Node], premises: Sequence[Sequent],
                 args: Sequence[Formula]) -> tuple[Sequent, Node]:
    """Conclusion of a derived-rule macro and its expansion into CUT/STRUCT/
    leaf nodes over the premise `nodes`, whose conclusions are `premises`.

    The shape is checked first, so a malformed application is a
    `DerivationError`.  The expansion is the ``I`` leaf itself or ends in a
    STRUCT onto the conclusion, so checking it never exceeds the base system.
    The principal formula of a premise is its first succedent element
    (``orR``, ``andR``, ``impL``, ``negL``) or its last antecedent element
    (``andL``, ``impL`` right premise).  ``I`` takes the formula as its
    argument; ``andL``/``orR`` take the added conjunct/disjunct.
    """
    if name in REJECTED_RULES:
        raise DerivationError("rule", f"rule {name!r} is rejected by construction")
    if name not in _RULE_SHAPES:
        raise DerivationError("rule", f"unknown derived rule {name!r}")
    roles, arity = _RULE_SHAPES[name]
    if len(premises) != len(roles) or len(args) != arity:
        plural = "" if len(roles) == 1 else "s"
        takes = f" and {_COUNT[arity]} formula argument" if arity else ""
        raise DerivationError(
            "rule", f"{name} expects {_COUNT[len(roles)]} premise{plural}{takes}")
    principal: list[Formula] = []
    for role, which, p in zip(roles, ("left ", "right ") if len(roles) == 2 else ("",),
                              premises):
        side = getattr(p, role)
        if not side:
            raise DerivationError(
                "rule", f"{name} {which}premise needs a principal {role} formula")
        principal.append(side[0] if role == "succedent" else side[-1])

    def to_cut(i: int) -> Node:
        """Premise `i` with its principal formula moved to the end of its
        succedent, where CUT takes it."""
        p, f = premises[i], principal[i]
        rest = tuple(x for x in p.succedent if x != f)
        return StructNode(nodes[i], Sequent(p.antecedent, rest + (f,)))

    if name == "I":
        (phi,) = args
        leaf = TautNode(Sequent((phi,), (phi,)))
        return leaf.target, leaf
    if name == "andL":
        (p,), (phi,), (psi,) = premises, principal, args
        concl = Sequent(p.antecedent[:-1] + (conj(phi, psi),), p.succedent)
        body = CutNode(TautNode(Sequent((conj(phi, psi),), (phi,))), nodes[0], phi)
    elif name == "orR":
        (p,), (phi,), (psi,) = premises, principal, args
        concl = Sequent(p.antecedent, (disj(phi, psi),) + p.succedent[1:])
        body = CutNode(to_cut(0), TautNode(Sequent((phi,), (disj(phi, psi),))), phi)
    elif name == "andR":
        (p1, p2), (phi, psi) = premises, principal
        concl = Sequent(p1.antecedent + p2.antecedent,
                        (conj(phi, psi),) + p1.succedent[1:] + p2.succedent[1:])
        leaf = TautNode(Sequent((phi, psi), (conj(phi, psi),)))
        body = CutNode(to_cut(1), CutNode(to_cut(0), leaf, phi), psi)
    elif name == "impL":
        (p1, p2), (phi, psi) = premises, principal
        concl = Sequent(p1.antecedent + p2.antecedent[:-1] + (Implies(phi, psi),),
                        p1.succedent[1:] + p2.succedent)
        # G, phi -> psi |- D, psi, then psi cut into the right premise
        mp = CutNode(to_cut(0), AxiomNode.make("mp", phi=phi, psi=psi), phi)
        body = CutNode(mp, nodes[1], psi)
    else:  # negL
        (p,), (phi,) = premises, principal
        concl = Sequent(p.antecedent + (Not(phi),), p.succedent[1:])
        body = CutNode(to_cut(0), TautNode(Sequent((phi, Not(phi)), ())), phi)
    return concl, StructNode(body, concl)


def apply_derived_rule(name: str, premises: Sequence[Sequent],
                       args: Sequence[Formula] = ()) -> Sequent:
    """Conclusion of a derived-rule macro (see `_derive_rule`); the
    premises stand in as leaves of an expansion that is dropped."""
    return _derive_rule(name, [TautNode(p) for p in premises], premises, args)[0]


def check_derivation(d: Derivation, lang: Language) -> CheckResult:
    """Validate every node and return the root conclusion plus the set of
    axiom schemas used (with their b5-family flags).

    The walk is post-order on an explicit stack: a node waits, ready, under
    its premises not yet checked, the first on top, then a macro under its
    expansion; so the first failure in depth-first order is reported.  The
    memo is keyed by node: each distinct node is checked once.
    """
    memo: dict[Node, Sequent] = {}
    used: set[str] = set()
    stack = [(d.root, "root", False)]
    while stack:
        node, path, ready = stack.pop()
        if node in memo:
            continue
        if not ready and (premises := _premises(node)):
            stack.append((node, path, True))
            for step, p in reversed(premises):
                if p not in memo:
                    stack.append((p, path + step, False))
            continue
        try:
            if isinstance(node, AxiomNode):
                concl = instantiate_axiom(node.schema_id, dict(node.binding),
                                          d.system, d.allow_star)
                used.add(node.schema_id)
            elif isinstance(node, TautNode):
                if not classical_leaf_check(node.target):
                    raise DerivationError("taut", "not a classical tautology under abstraction")
                concl = node.target
            elif isinstance(node, CutNode):
                concl = apply_cut(memo[node.left], memo[node.right], node.cut)
            elif isinstance(node, StructNode):
                concl = apply_struct(memo[node.premise], node.target, lang)
            elif isinstance(node, RuleNode):
                _, expansion = _derive_rule(node.name, node.premises,
                                            [memo[p] for p in node.premises], node.args)
                if expansion not in memo:
                    stack += ((node, path, True), (expansion, path + ".expansion", False))
                    continue
                concl = memo[expansion]
            else:
                raise DerivationError("node", f"unknown node type {type(node).__name__}")
        except DerivationError as e:
            raise DerivationError(path, e.message) from None
        memo[node] = concl
    flags = frozenset(
        AXIOM_SCHEMAS[sid].family for sid in used
        if AXIOM_SCHEMAS[sid].family is not None
    )
    return CheckResult(memo[d.root], frozenset(used), flags, len(memo))


# ---------------------------------------------------------------------------
# Derivation file format
# ---------------------------------------------------------------------------

_SYSTEM_NAMES = {
    "classical": (System.CLASSICAL, False),
    "dbl": (System.DBL, False),
    "dbl*": (System.DBL_STAR, False),
    "dblstar": (System.DBL_STAR, False),
    "dbl+star": (System.DBL, True),
}


def parse_system(text: str) -> tuple[System, bool]:
    try:
        return _SYSTEM_NAMES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown system {text!r}") from None


def _split_head(line: str) -> tuple[str, str]:
    """Split ``id: body`` -> (id, body)."""
    name, sep, body = line.partition(":")
    if not sep:
        raise ValueError(f"missing ':' in line {line!r}")
    return name.strip(), body.strip()


def parse_derivation_file(text: str) -> tuple[Language, dict[str, Derivation]]:
    """Parse a derivation file; returns its language and the named roots.

    Every ``qed`` line publishes the most recent node as a named derivation;
    a file may contain several, e.g. one per theorem, and must contain one.
    Nothing may be defined twice: a node name, the ``theta`` line, a
    published label or a metavariable within one ``ax[...]``.
    """
    lang: Language | None = None
    system = System.DBL_STAR
    allow_star = False
    nodes: dict[str, Node] = {}
    results: dict[str, Derivation] = {}
    qed_count = 0
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            name, body = _split_head(line)
            if name == "theta":
                if lang is not None:
                    raise ValueError("theta declared twice")
                lang = Language([t.strip() for t in body.split(",")])
            elif name == "system":
                system, allow_star = parse_system(body)
            elif lang is None:
                raise ValueError("theta must be declared before any node")
            elif name == "qed":
                node_name, _, label = body.partition(" ")
                qed_count += 1
                label = label.strip() or f"derivation{qed_count}"
                if label in results:
                    raise ValueError(f"derivation {label!r} published twice")
                results[label] = Derivation(_ref(nodes, node_name), system, allow_star)
            elif name in nodes:
                raise ValueError(f"node {name!r} defined twice")
            else:
                nodes[name] = _parse_node(body, nodes, lang)
        except ValueError as e:
            raise type(e)(f"line {n}: {e}") from None
    if lang is None:
        raise ValueError("derivation file declares no theta")
    if not results:
        raise ValueError("derivation file publishes no derivation (no qed line)")
    return lang, results


def _parse_node(body: str, nodes: Mapping[str, Node], lang: Language) -> Node:
    op, bracket, rest = _split_op(body)
    refs = [_ref(nodes, r) for r in rest.split()]
    if op == "ax":
        sid, *parts = bracket.split(";")
        binding: dict[str, Formula] = {}
        for key, _, value in (p.partition("=") for p in parts):
            key = key.strip()
            if key in binding:
                raise ValueError(f"metavariable {key!r} bound twice")
            binding[key] = lang.parse(value.strip())
        return AxiomNode(sid.strip(), tuple(sorted(binding.items())))
    if op == "taut":
        return TautNode(lang.parse_sequent(bracket))
    if op == "cut":
        if len(refs) != 2:
            raise ValueError("cut expects two premise references")
        return CutNode(refs[0], refs[1], lang.parse(bracket.strip()))
    if op == "struct":
        if len(refs) != 1:
            raise ValueError("struct expects one premise reference")
        return StructNode(refs[0], lang.parse_sequent(bracket))
    if op in DERIVED_RULES or op in REJECTED_RULES:
        args = tuple(lang.parse(a.strip()) for a in bracket.split(";")) if bracket else ()
        return RuleNode(op, args, tuple(refs))
    raise ValueError(f"unknown node operator {op!r}")


def _ref(nodes: Mapping[str, Node], name: str) -> Node:
    try:
        return nodes[name]
    except KeyError:
        raise ValueError(f"unknown node {name!r}") from None


def _split_op(body: str) -> tuple[str, str, str]:
    """``op[bracket] rest`` -> (op, bracket, rest); bracket optional."""
    if "[" in body:
        op, _, tail = body.partition("[")
        bracket, close, rest = tail.partition("]")
        if not close or "[" in bracket:
            raise ValueError(f"unbalanced '[' in {body!r}")
        return op.strip(), bracket, rest.strip()
    op, _, rest = body.partition(" ")
    return op.strip(), "", rest.strip()


def format_derivation(d: Derivation, lang: Language, label: str = "main") -> str:
    """Serialize a derivation (DAG-aware) in the line-oriented file format:
    each distinct node once, after its premises, in depth-first order."""
    ids: dict[Node, str] = {}
    stack = [d.root]
    while stack:
        node = stack[-1]
        if node in ids:
            stack.pop()
            continue
        todo = [p for _, p in _premises(node) if p not in ids]
        if todo:
            stack += reversed(todo)
            continue
        ids[node] = f"n{len(ids) + 1}"
        stack.pop()
    sysname = "dbl+star" if d.allow_star else d.system.value
    lines = [f"theta: {', '.join(lang.theta)}", f"system: {sysname}"]
    for node, nid in ids.items():
        if isinstance(node, AxiomNode):
            binding = "; ".join(f"{k} = {lang.format(v)}" for k, v in node.binding)
            head = f"ax[{node.schema_id}; {binding}]" if binding else f"ax[{node.schema_id}]"
        elif isinstance(node, TautNode):
            head = f"taut[{lang.format_sequent(node.target)}]"
        elif isinstance(node, CutNode):
            head = f"cut[{lang.format(node.cut)}]"
        elif isinstance(node, StructNode):
            head = f"struct[{lang.format_sequent(node.target)}]"
        else:
            args = "; ".join(lang.format(a) for a in node.args)
            head = f"{node.name}[{args}]" if node.args else node.name
        lines.append(" ".join([f"{nid}: {head}", *(ids[p] for _, p in _premises(node))]))
    lines.append(f"qed: {ids[d.root]} {label}")
    return "\n".join(lines) + "\n"
