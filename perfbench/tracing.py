"""Per-layer tracing of the workbench, installed from outside the package.

`Tracer.install` replaces public functions and methods of the dblogic
modules by wrappers and `Tracer.uninstall` puts the originals back; no file
of the package changes.  There are three kinds of wrapper:

* span: a record (id, name, start, end, parent id, op id) kept in memory
  and written out at the end, for calls that happen at most thousands of
  times per op;
* aggregate: the same timing and self-time accounting without a record,
  for hot calls (parsing, leaf checks, measures, RatFunc arithmetic);
* count: a call counter only, for the hottest methods (``Stage.apply_f``,
  ``Stage.embed``, ``ConditionalAssignment.value``, ``RatFunc.make``,
  ``Poly.gcd``), called up to millions of times per pass.

A layer's self time is the time of its calls minus the time of the timed
calls made inside them; the time of counted calls stays with their caller.
Every op runs inside a root span named ``cli``, so the self times of all
layers add up to the op time.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

from dblogic import construction, library, model, probability, proof, ratfunc, syntax


def _verify(_args, rep):
    return {"construction.verify.passed": sum(p for p, _ in rep.checks.values()),
            "construction.verify.skipped": sum(s for _, s in rep.checks.values())}


# (owner, attribute names, layer, kind, named amounts from (args, result))
_RATFUNC_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__truediv__", "__rtruediv__", "__neg__")
WRAPPED = [
    (proof, ("parse_derivation_file",), "proof.parse_file", "span", None),
    (proof, ("check_derivation",), "proof.check", "span",
     lambda _a, r: {"proof.check.nodes": r.nodes}),
    (proof, ("classical_leaf_check",), "proof.leaf", "aggregate", None),
    (library, ("theorem_library",), "library.build", "span",
     lambda _a, r: {"library.entries": len(r)}),
    (construction, ("build_for_formulas", "build_faithful"), "construction.build", "span", None),
    (construction, ("advance",), "construction.advance", "span",
     lambda _a, r: {"construction.stage_points": r.size}),
    (construction, ("verify_stage",), "construction.verify", "span", _verify),
    (construction.Stage, ("apply_f",), "construction.apply_f", "count", None),
    (construction.Stage, ("embed",), "construction.embed", "count", None),
    (model, ("entails",), "model.entails", "span",
     lambda _a, r: {"model.entails.checked": r.checked, "model.entails.skipped": r.skipped}),
    (model.ConditionalAssignment, ("value",), "model.value", "count", None),
    (probability, ("extend_probability", "extend_step"), "probability.extend", "span", None),
    (probability.RationalValuation, ("measure",), "probability.measure", "aggregate", None),
    (probability, ("lemma1_check", "lemma2_check"), "probability.lemma", "span",
     lambda _a, r: {"probability.lemma.checks": r.checked}),
    (probability, ("lewis_separation",), "probability.lewis", "span", None),
    (ratfunc.RatFunc, _RATFUNC_ARITH, "ratfunc.arith", "aggregate", None),
    (ratfunc.RatFunc, ("make",), "ratfunc.make", "count", None),
    (ratfunc.Poly, ("gcd",), "ratfunc.gcd", "count", None),
    (syntax.Language, ("parse", "parse_sequent"), "syntax.parse", "aggregate",
     lambda a, _r: {"syntax.parse.chars": len(a[1])}),
    (syntax.Language, ("format", "format_sequent"), "syntax.format", "aggregate", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.amounts: Counter = Counter()     # named counts read off results
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.op_id: int | None = None
        self._stack: list[list] = []          # [span id, time of timed children]
        self._next_id = 0
        self._saved: list[tuple] = []
        self._root = self.timed("cli", lambda fn: fn(), record=True)

    # -- timing ---------------------------------------------------------------

    def timed(self, name: str, fn, record: bool, amounts=None):
        tr = self

        def wrapper(*args, **kwargs):
            frame = [tr._next_id, 0.0]
            tr._next_id += 1
            parent = tr._stack[-1][0] if tr._stack else None
            tr._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except proof.DerivationError:
                if name == "proof.check":
                    tr.amounts["proof.rejected"] += 1
                raise
            finally:
                t1 = perf_counter()
                tr._stack.pop()
                tr.calls[name] += 1
                tr.self_s[name] += t1 - t0 - frame[1]
                tr.total_s[name] += t1 - t0
                if tr._stack:
                    tr._stack[-1][1] += t1 - t0
                if record:
                    tr.spans.append((frame[0], name, t0, t1, parent, tr.op_id))
            if amounts is not None:
                tr.amounts.update(amounts(args, result))
            return result

        return functools.wraps(fn)(wrapper)

    def counted(self, name: str, fn):
        calls = self.calls
        if name == "construction.apply_f":
            def wrapper(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                if result is not None:
                    calls["construction.apply_f.defined"] += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
        return functools.wraps(fn)(wrapper)

    def run_op(self, op_id: int, fn):
        """Run one op inside its root span."""
        self.op_id = op_id
        try:
            return self._root(fn)
        finally:
            self.op_id = None

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        for owner, attrs, name, kind, amounts in WRAPPED:
            for attr in attrs:
                static = inspect.getattr_static(owner, attr)
                fn = getattr(owner, attr)
                if kind == "count":
                    wrapped = self.counted(name, fn)
                else:
                    wrapped = self.timed(name, fn, kind == "span", amounts)
                if isinstance(static, staticmethod):
                    wrapped = staticmethod(wrapped)
                self._saved.append((owner, attr, static))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, static = self._saved.pop()
            setattr(owner, attr, static)
