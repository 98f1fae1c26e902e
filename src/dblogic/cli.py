"""Batch entry points: derivation checking, model building/evaluation and
probability extension, with reproducible seeds and plain-text reports.

Identical configuration and seed produce byte-identical reports; the exit
status is 0 exactly when no check failed and no error occurred.  Each
``cmd_*`` writes to its `out` stream, or to the ``sys.stdout`` of the moment
it is called when `out` is None.
"""

from __future__ import annotations

import argparse
import os
import sys
from random import Random

from . import construction, library, model, probability, proof
from .ratfunc import RatFunc
from .syntax import Language, ParseError, Sequent

__all__ = ["main", "cmd_check", "cmd_model", "cmd_prob"]


def _emit(lines: list[str], out) -> None:
    for line in lines:
        print(line, file=out)


def _parse_lines(lines: list[str], parse) -> list:
    """Parse every input line that is not blank after stripping its
    ``#`` comment; a parse error names its line."""
    items = []
    for n, raw in enumerate(lines, 1):
        text = raw.split("#", 1)[0].strip()
        if text:
            try:
                items.append(parse(text))
            except ParseError as e:
                raise ParseError(f"input line {n}: {e}") from None
    return items


def _language(theta: list[str], out) -> Language | None:
    """The language of `theta`; None, after an error line, when it is no
    valid atom set within the stage budget."""
    try:
        construction.new_stage0(theta)
        return Language(theta)
    except ValueError as e:
        print(f"ERROR: --theta: {e}", file=out)
        return None


def _fmt_weight(w) -> str:
    if isinstance(w, RatFunc):
        return f"{w} (limit {w.limit0()})"
    return str(w)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(paths: list[str], system: str | None, out=None) -> int:
    """Check derivation files (or directories of them)."""
    out = sys.stdout if out is None else out
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(os.path.join(p, n) for n in sorted(os.listdir(p))
                         if n.endswith(".dseq"))
        else:
            files.append(p)
    lines: list[str] = []
    failures = 0
    checked = 0
    for path in files:
        try:
            with open(path) as fh:
                lang, ders = proof.parse_derivation_file(fh.read())
        except (OSError, ValueError, ParseError) as e:
            lines.append(f"ERROR {path}: {e}")
            failures += 1
            continue
        for label, d in sorted(ders.items()):
            if system is not None:
                sysname, star = proof.parse_system(system)
                d = proof.Derivation(d.root, sysname, star)
            try:
                res = proof.check_derivation(d, lang)
            except proof.DerivationError as e:
                lines.append(f"FAIL {label} [{os.path.basename(path)}]: {e}")
                failures += 1
                continue
            checked += 1
            flags = ",".join(sorted(res.flags)) or "-"
            lines.append(f"OK   {label}: {lang.format_sequent(res.conclusion, 'sugared')}"
                         f"  [flags {flags}]")
    lines.append(f"checked {checked} derivations, {failures} failures")
    _emit(lines, out)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

def cmd_model(theta: list[str], lines_in: list[str], mode: str, max_atoms: int,
              seed: int, samples: int | None, target: str | None,
              dump_path: str | None, out=None) -> int:
    """Build a model (faithful or targeted), verify every stage, then
    evaluate formulas and check sequents from the input lines."""
    out = sys.stdout if out is None else out
    lang = _language(theta, out)
    if lang is None:
        return 1
    try:
        items = _parse_lines(lines_in, lambda t: lang.parse_sequent(t) if "|-" in t
                             else lang.parse(t))
    except ParseError as e:
        print(f"ERROR: {e}", file=out)
        return 1
    formulas = [x for x in items if not isinstance(x, Sequent)]
    sequents = [x for x in items if isinstance(x, Sequent)]

    report: list[str] = []
    failures = 0
    if mode == "faithful":
        stages, halted = construction.build_faithful(theta, max_atoms=max_atoms,
                                                     verify=False)
        stage = stages[-1]
        report.append(f"faithful build: sizes {[s.size for s in stages]}"
                      f" halted={halted} seed={seed}")
    else:
        try:
            targets = formulas if target is None else [lang.parse(target)]
        except ParseError as e:
            print(f"ERROR: --target: {e}", file=out)
            return 1
        try:
            stage, _ = construction.build_for_formulas(
                theta, targets, max_atoms=max_atoms, verify=False)
        except construction.BudgetExceeded as e:
            print(f"ERROR: {e}", file=out)
            return 1
        report.append(f"targeted build: stage {stage.index}, {stage.size} points seed={seed}")

    for st in stage.tower()[1:]:
        rep = construction.verify_stage(st, rng=Random(seed))
        status = "ok" if rep.ok() else "FAIL " + "; ".join(
            f"{k}: {v}" for k, v in list(rep.failures().items())[:3])
        report.append(f"verify stage {st.index}: {status}")
        if not rep.ok():
            failures += 1

    m = model.StageModel(stage)
    h = construction.canonical_assignment(stage)
    asg = model.extend_assignment(m, h)
    for f in formulas:
        v = asg.value(f)
        if v is None:
            blk = asg.blocking_condition(f)
            report.append(f"eval {lang.format(f, 'sugared')}: undefined"
                          f" (blocking condition {blk:#x})")
        else:
            kind = "full" if v == m.full else ("empty" if v == 0 else f"{v:#x}")
            report.append(f"eval {lang.format(f, 'sugared')}: {kind}")
    for s_ in sequents:
        r = model.entails(m, s_, samples=samples, seed=seed)
        report.append(f"entails {lang.format_sequent(s_, 'sugared')}: {r.verdict}"
                      + (f" witness={sorted(r.witness.items())}" if r.witness else "")
                      + f" checked={r.checked} skipped={r.skipped}")
        if r.verdict == "fails":
            failures += 1
    if dump_path:
        try:
            with open(dump_path, "w") as fh:
                fh.write(construction.dump_stage(stage))
        except OSError as e:
            print(f"ERROR: {dump_path}: {e.strerror or e}", file=out)
            return 1
        report.append(f"dump written to {dump_path}")
    _emit(report, out)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# prob
# ---------------------------------------------------------------------------

def cmd_prob(theta: list[str], prob_text: str, formula_lines: list[str],
             max_atoms: int, seed: int, strict_positive: bool,
             lewis: str | None, out=None) -> int:
    """Probability extension over a targeted build: per-formula values,
    pushforward/multiplicativity checks, Bayes defaults and optionally the
    separation demonstration."""
    out = sys.stdout if out is None else out
    lang = _language(theta, out)
    if lang is None:
        return 1
    report: list[str] = []
    failures = 0
    try:
        pi = probability.parse_probability_file(prob_text, lang,
                                                strict_positive=strict_positive)
    except ValueError as e:
        print(f"ERROR: {e}", file=out)
        return 1
    try:
        formulas = _parse_lines(formula_lines, lang.parse)
    except ParseError as e:
        print(f"ERROR: {e}", file=out)
        return 1
    try:
        lewis_phi = None if lewis is None else lang.parse(lewis)
    except ParseError as e:
        print(f"ERROR: --lewis: {e}", file=out)
        return 1
    targets = list(formulas)
    if lewis_phi is not None:
        targets += probability.default_lewis_deltas(lang)
    stage, _ = construction.build_for_formulas(
        theta, targets, max_atoms=max_atoms, verify=False, skip_unaffordable=True)
    report.append(f"build: stage {stage.index}, {stage.size} points seed={seed}")

    if pi.strictly_positive:
        ext = probability.extend_probability(pi, stage)
        report.append("mode: direct (strictly positive)")
    else:
        ext = probability.epsilon_extension(pi, stage)
        report.append("mode: perturbed (zero cells present)")
    for v0, v1 in zip(ext.valuations, ext.valuations[1:]):
        l1 = probability.lemma1_check(v0, v1)
        l2 = probability.lemma2_check(v0, v1)
        for rep_ in (l1, l2):
            status = "ok" if rep_.ok() else "FAIL " + "; ".join(rep_.violations[:3])
            report.append(f"{rep_.name} stage {v1.stage.index}: {status} ({rep_.checked} checks)")
            if not rep_.ok():
                failures += 1

    for f in formulas:
        w = ext.prob(f)
        if w is None:
            report.append(f"prob {lang.format(f, 'sugared')}: undefined")
        else:
            report.append(f"prob {lang.format(f, 'sugared')}: {_fmt_weight(w)}")

    # Bayes defaults over the declared atoms where evaluable
    from .syntax import Atom
    for phi in (Atom(n) for n in lang.theta):
        for psi in (Atom(n) for n in lang.theta):
            try:
                lhs, rhs, eq = probability.bayes_identity(ext, phi, psi)
            except ValueError:
                continue
            tag = "ok" if eq else "FAIL"
            report.append(f"bayes P(({lang.format(psi)}|{lang.format(phi)}))*P({lang.format(phi)})"
                          f" = P(and): {tag} [{_fmt_weight(lhs)} vs {_fmt_weight(rhs)}]")
            if not eq:
                failures += 1

    if lewis_phi is not None:
        try:
            rep_ = probability.lewis_separation(stage, pi, lewis_phi, lang=lang)
        except ValueError as e:
            print(f"ERROR: {e}", file=out)
            return 1
        wit = rep_.witnesses()
        report.append(f"lewis separation on phi={lang.format(lewis_phi, 'sugared')}: "
                      f"{len(wit)} witnesses of "
                      f"{sum(1 for e in rep_.entries if e.equal is not None)} decided")
        for e in wit[:8]:
            report.append(f"  witness {lang.format(e.delta, 'sugared')}: "
                          f"extend-then-evaluate {e.extension_of_conditioned} "
                          f"!= condition-the-extension {e.conditioned_extension}")
        d = rep_.demo
        if d is None:
            report.append("  collapse demo not applicable: no atom psi both splits phi "
                          "and has its probability changed by phi")
        else:
            report.append(f"  collapse demo psi={lang.format(d.psi)}: inside={d.inside} "
                          f"outside={d.outside} forced={d.forced} bayes={d.bayes} "
                          f"collapses={d.collapses}")
        if not wit:
            report.append("  no witness found in the delta family (reported, not asserted)")
    _emit(report, out)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _theta(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dblogic",
        description="workbench for the Bayesian conditional logic: proof "
                    "checking, free-model construction, exact probability extension")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check derivation files")
    p_check.add_argument("paths", nargs="*", default=None,
                         help="derivation files or directories (default: shipped library)")
    p_check.add_argument("--system", default=None,
                         help="override the file's deduction system "
                              "(classical | dbl | dbl* | dbl+star)")

    p_model = sub.add_parser("model", help="build and query a model")
    p_model.add_argument("--theta", type=_theta, required=True)
    p_model.add_argument("--mode", choices=["faithful", "targeted"], default="targeted")
    p_model.add_argument("--max-atoms", type=int, default=32)
    p_model.add_argument("--seed", type=int, default=0)
    p_model.add_argument("--input", default=None,
                         help="file of formulas/sequents (one per line)")
    p_model.add_argument("--target", default=None,
                         help="explicit condition formula for targeted mode")
    p_model.add_argument("--dump", default=None, help="write the stage dump here")
    p_model.add_argument("--samples", type=int, default=None)

    p_prob = sub.add_parser("prob", help="extend a probability over the logic")
    p_prob.add_argument("--theta", type=_theta, required=True)
    p_prob.add_argument("--prob", required=True, help="probability table file")
    p_prob.add_argument("--input", default=None, help="file of formulas to score")
    p_prob.add_argument("--max-atoms", type=int, default=32)
    p_prob.add_argument("--seed", type=int, default=0)
    p_prob.add_argument("--strict-positive", action="store_true")
    p_prob.add_argument("--lewis", default=None, metavar="PHI",
                        help="run the separation demonstration conditioning on PHI")

    args = parser.parse_args(argv)
    if args.command == "check":
        paths = args.paths or [library.proofs_dir()]
        return cmd_check(paths, args.system)
    text = {}
    for path in filter(None, (getattr(args, "prob", None), args.input)):
        try:
            with open(path) as fh:
                text[path] = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            print(f"ERROR: {path}: {getattr(e, 'strerror', None) or e}")
            return 1
    lines = text[args.input].split("\n") if args.input else []
    if args.command == "model":
        return cmd_model(args.theta, lines, args.mode, args.max_atoms,
                         args.seed, args.samples, args.target, args.dump)
    return cmd_prob(args.theta, text[args.prob], lines, args.max_atoms,
                    args.seed, args.strict_positive, args.lewis)


if __name__ == "__main__":
    raise SystemExit(main())
