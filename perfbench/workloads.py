"""Seeded ops and their oracles for the three workloads.

An op is one call of a CLI entry point (``cli.cmd_check``, ``cli.cmd_model``,
``cli.cmd_prob``) with generated inputs and a string buffer for its report,
plus the data its exit code and report are checked against.  A run of a
workload draws one list of ops from the seed and runs it pass after pass
(see run.py), so an op's time can be the fastest of many runs.

Every list holds a fixed mix of op kinds in seeded order, and the seed
picks the concrete inputs of each kind.  The mix is chosen so that no op
costs more than about 0.7 s: only an op that runs many times in one run
gives a time that repeats from run to run.
"""

from __future__ import annotations

import functools
import io
import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from dblogic import cli, library, proof

import logic
from logic import Classical, Conditional

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
THETA = ["a", "b"]

# shipped derivations that need b5, so the weakened system must reject them
B5_FILES = ("3_1_2_a.dseq", "3_1_2_b.dseq", "3_1_14.dseq", "3_1_15.dseq",
            "3_1_16.dseq", "3_1_17_star.dseq")
# not derivable; exhaustive entailment on a 6-point stage refutes them
MUST_FAIL = ("|- a, !a", "|- b, !b", "a \\/ b |- a, b", "b \\/ a |- b, a")
# build_faithful with at most 8 points stops after the first 6-point stage
FAITHFUL_ATOMS = 8
FAITHFUL_BUILD = "faithful build: sizes [4, 6] halted=False"
# cmd_prob builds at most 8 points: a 32-point stage makes a --lewis op take
# seconds and a perturbed op tens of seconds
PROB_ATOMS = 8
_LIMIT = re.compile(r"\(limit (\S+)\)$")


def library_op(out) -> int:
    """Build the theorem library in memory and check every entry, printing
    the lines ``dblogic check`` prints for the shipped files."""
    lang = library.library_language()
    for entry in library.theorem_library(lang):
        res = proof.check_derivation(entry.derivation, lang)
        flags = ",".join(sorted(res.flags)) or "-"
        print(f"OK   {entry.tid}: {lang.format_sequent(res.conclusion, 'sugared')}"
              f"  [flags {flags}]", file=out)
    return 0


ENTRY = {"check": cli.cmd_check, "model": cli.cmd_model, "prob": cli.cmd_prob,
         "library": library_op}


@dataclass
class Op:
    kind: str        # a key of ENTRY
    args: tuple      # positional arguments of the entry point, before `out`
    expect: dict     # oracle data, see `problem`
    parses: int = 0  # formula and sequent texts the entry point parses

    def execute(self) -> tuple[int, str]:
        out = io.StringIO()
        rc = ENTRY[self.kind](*self.args, out=out)
        return rc, out.getvalue()

    @property
    def lewis(self) -> bool:
        return bool(self.expect.get("lewis"))

    @property
    def perturbed(self) -> bool:
        return bool(self.expect.get("perturbed"))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def problem(op: Op, rc: int, text: str) -> str | None:
    """Why the op's exit code or report disagrees with its oracle, or None."""
    e = op.expect
    lines = text.splitlines()
    if rc != e.get("rc", 0):
        return f"exit code {rc}, expected {e.get('rc', 0)}"
    if op.kind == "check":
        if "text" in e:
            return None if text == e["text"] else "report differs from the frozen one"
        if lines[:1] and lines[0].startswith(e["reject"]) \
                and lines[-1] == "checked 0 derivations, 1 failures":
            return None
        return f"control not rejected as {e['reject']!r}"
    if op.kind == "library":
        return None if sorted(lines) == e["lines"] else "library lines differ"
    if op.kind == "model":
        return _model_problem(e, lines)
    return _prob_problem(e, lines)


def _model_problem(e: dict, lines: list[str]) -> str | None:
    if not lines or lines[0] != e["build"]:
        return f"build line {lines[:1]!r}, expected {e['build']!r}"
    verify = [l for l in lines if l.startswith("verify stage ")]
    if verify != ["verify stage 1: ok"]:
        return f"stage verification {verify!r}"
    evals = [l for l in lines if l.startswith("eval ")]
    if len(evals) != e["evals"] or any(": undefined" in l for l in evals):
        return f"evaluations {evals!r}"
    verdicts = [l.split(": ", 1)[1].split()[0] for l in lines if l.startswith("entails ")]
    if len(verdicts) != len(e["verdicts"]):
        return f"{len(verdicts)} entailment lines, expected {len(e['verdicts'])}"
    for got, want in zip(verdicts, e["verdicts"]):
        if (got == "fails") != (want == "fails"):
            return f"entailment verdict {got}, expected {want}"
    return None


def _prob_problem(e: dict, lines: list[str]) -> str | None:
    mode = "perturbed (zero cells present)" if e["perturbed"] else "direct (strictly positive)"
    if lines[1:2] != [f"mode: {mode}"]:
        return f"mode line {lines[1:2]!r}"
    for l in lines:
        if l.startswith(("lemma", "bayes")) and ": ok " not in l:
            return f"check failed: {l}"
        if l.startswith("ERROR"):
            return l
    values = [l.split(": ", 1)[1] for l in lines if l.startswith("prob ")]
    if len(values) != len(e["values"]):
        return f"{len(values)} probability lines, expected {len(e['values'])}"
    for got, want in zip(values, e["values"]):
        m = _LIMIT.search(got)   # perturbed mode prints RatFuncs; 0 has no limit
        if m:
            got = m.group(1)
        if got == "undefined" or Fraction(got) != Fraction(want):
            return f"probability {got}, expected {want}"
    if any(l.startswith("lewis separation on phi=") for l in lines) != bool(e["lewis"]):
        return "lewis separation report missing or unexpected"
    return None


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _check_expected() -> dict[str, str]:
    with open(os.path.join(DATA, "check_expected.json")) as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def _sequent_pool() -> tuple[str, ...]:
    with open(os.path.join(DATA, "sequents.txt")) as fh:
        return tuple(l.strip() for l in fh if l.strip() and not l.startswith("#"))


def _check_op(path: str, system: str | None, expect: dict) -> Op:
    return Op("check", ([path], system), expect)


def check_ops() -> list[Op]:
    """The ops of check-library before shuffling: the 34 shipped files, the
    b5 files under dbl*, the hand-written controls and the in-memory
    library."""
    proofs = library.proofs_dir()
    expected = _check_expected()
    ops = [_check_op(os.path.join(proofs, n), None, {"text": t})
           for n, t in expected.items()]
    for n in B5_FILES:
        label = expected[n].split()[1].rstrip(":")
        ops.append(_check_op(os.path.join(proofs, n), "dbl*",
                             {"rc": 1, "reject": f"FAIL {label} [{n}]:"}))
    controls = os.path.join(DATA, "controls")
    for n in sorted(os.listdir(controls)):
        ops.append(_check_op(os.path.join(controls, n), None,
                             {"rc": 1, "reject": f"FAIL control.{n[:-5]} [{n}]:"}))
    ok_lines = sorted(t.splitlines()[0] for t in expected.values())
    ops.append(Op("library", (), {"lines": ok_lines}))
    return ops


def is_control(op: Op) -> bool:
    return op.kind == "check" and "reject" in op.expect


def _conditional(rng: random.Random, conditions: tuple[Classical, ...]) -> Conditional:
    return Conditional(rng.choice(logic.DEPTH1), rng.choice(conditions))


def model_op(rng: random.Random, kind: str) -> Op:
    """kind: t6 (one target whose condition splits the four points 1 against
    3, a 6-point stage) or faithful (the faithful build up to its 6-point
    stage).  Every op verifies its stage and checks 2 or 3 sequents
    exhaustively; a seeded half of them holds one that must fail."""
    if kind == "t6":
        targets = [_conditional(rng, rng.choice(list(logic.COND_6.values())))]
    else:
        targets = []
    must_fail = rng.random() < 0.5
    n = rng.randint(2, 3)
    sequents = [(s, "sound") for s in rng.sample(_sequent_pool(), n - must_fail)]
    if must_fail:
        sequents.append((rng.choice(MUST_FAIL), "fails"))
    rng.shuffle(sequents)
    seed = rng.randrange(1 << 16)
    if kind == "faithful":
        build, atoms = f"{FAITHFUL_BUILD} seed={seed}", FAITHFUL_ATOMS
    else:
        build, atoms = f"targeted build: stage 1, 6 points seed={seed}", 32
    lines = [t.text for t in targets] + [s for s, _ in sequents]
    return Op("model", (THETA, lines, kind.replace("t6", "targeted"), atoms, seed,
                        None, None, None),
              {"rc": int(must_fail), "build": build, "evals": len(targets),
               "verdicts": [v for _, v in sequents]},
              parses=len(lines))


# Each --lewis phi is a classical formula with 0 < P(phi) < 1 that entails no
# literal.  lewis_collapse_demo divides by P(psi /\ phi) and P(!psi /\ phi)
# for an atom psi, which is 0 when phi entails psi or !psi; for such phi
# (a, !b, a /\ b, ...) cmd_prob ends with a ZeroDivisionError traceback.
LEWIS_PHI = tuple(f for f in logic.CLASSICAL if f.rows != logic.ALL
                  and not any(f.rows & ~l.rows & logic.ALL == 0 for l in logic.LITERALS))


def prob_op(rng: random.Random, kind: str) -> Op:
    """kind: classical (no build), c6 / c8 (targets on one split, a 6- or
    8-point stage), lewis (c6 or c8 targets plus --lewis phi), p-classical /
    p-c6 (perturbed mode: the table has 1 or 2 zero cells).  The seed picks
    the table, 1 to 3 targets and phi.  The conditions of a perturbed op
    have positive mass, so each value's limit is the Bayes ratio."""
    perturbed = kind.startswith("p-")
    kind = kind.removeprefix("p-")
    weights = [rng.randint(1, 12) for _ in range(4)]
    for c in rng.sample(range(4), rng.randint(1, 2) if perturbed else 0):
        weights[c] = 0
    phi = rng.choice(LEWIS_PHI).text if kind == "lewis" else None
    if kind == "lewis":
        kind = rng.choice(("c6", "c8"))
    n = rng.randint(1, 3)
    if kind == "classical":
        targets: list = list(rng.sample(logic.CLASSICAL, n))
    else:
        split = logic.COND_6 if kind == "c6" else logic.COND_8
        conditions = tuple(c for c in split[rng.choice(list(split))]
                           if logic.probability(weights, c) > 0)
        targets = [_conditional(rng, conditions)]
        while len(targets) < n:
            if rng.random() < 0.5:
                targets.append(rng.choice(logic.CLASSICAL))
            else:
                targets.append(_conditional(rng, conditions))
    values = [str(logic.probability(weights, t)) for t in targets]
    seed = rng.randrange(1 << 16)
    args = (THETA, logic.table_text(weights), [t.text for t in targets], PROB_ATOMS,
            seed, False, phi)
    return Op("prob", args,
              {"values": values, "lewis": phi is not None, "perturbed": perturbed},
              parses=4 + len(targets) + (phi is not None))


# The op kinds of one list.  The costliest ops (library, the b5 files, the
# perturbed 6-point ops) stay under about 0.7 s.  Of the 44 ops,
# op_p50_ms falls among the 24 cheap prob ops (under 20 ms) and op_tail_ms
# (p75, the 33rd) among the 15 perturbed 6-point ones, not on the border
# between two kinds, where the seed alone would move it.
MIX = {
    "model-verify": ["t6"] * 40 + ["faithful"] * 4,
    "prob": (["classical"] * 6 + ["c6"] * 6 + ["c8"] * 6 + ["p-classical"] * 6
             + ["lewis"] * 5 + ["p-c6"] * 15),
}
WARMUP = {"model-verify": ("t6", "faithful"), "prob": ("lewis", "p-classical")}


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{part}")


def _make(rng: random.Random, workload: str, kind: str) -> Op:
    return (model_op if workload == "model-verify" else prob_op)(rng, kind)


def ops(workload: str, seed: int) -> list[Op]:
    """The ops a run of `workload` repeats, in seeded order."""
    rng = _rng(workload, seed, "ops")
    if workload == "check-library":
        out = check_ops()
        rng.shuffle(out)
        return out
    kinds = list(MIX[workload])
    rng.shuffle(kinds)
    return [_make(rng, workload, k) for k in kinds]


def warmup(workload: str) -> list[Op]:
    """Cheap ops that run every code path of the workload once before
    timing: they count in set-up time.  They are the same for every seed,
    so that set-up time does not move with the seed."""
    if workload == "check-library":
        out = check_ops()
        return [out[0], next(op for op in out if is_control(op))]
    rng = _rng(workload, 0, "warmup")
    return [_make(rng, workload, k) for k in WARMUP[workload]]
