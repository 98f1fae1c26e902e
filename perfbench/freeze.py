"""Write the benchmark's frozen data from the current workbench.

    python3 perfbench/freeze.py

* ``data/check_expected.json``: the report ``cmd_check`` prints for each
  shipped derivation file: its ``OK`` line, with the sugared conclusion and
  flags, and the summary line.
* ``data/sequents.txt``: one-atom instances over {a, b} of the statements of
  the weakened-system library entries (but SLOW_TO_ENTAIL).  They are theorems of dbl*, so the
  free models must never refute them.  With one atom name, ``model.entails``
  checks every assignment on a 6- or 8-point stage in milliseconds.

The benchmark compares against these files and never regenerates them; run
this only when a change to the reports is intended, and say so.
"""

from __future__ import annotations

import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from dblogic import cli, library  # noqa: E402
from dblogic.proof import System  # noqa: E402
from dblogic.syntax import (  # noqa: E402
    Atom, Cond, Implies, Language, Meta, Not, Sequent, substitute,
)

# x, y, z of the library language mapped onto one atom
INSTANCE_MAPS = ({"x": "a", "y": "!a", "z": "a"}, {"x": "b", "y": "b", "z": "!b"})
# their instances take 50 to 110 ms to entail on an 8-point stage, a fifth of
# the stage's verification, and would make the op time depend on the draw
SLOW_TO_ENTAIL = ("3.1.5.and", "3.1.7", "3.1.17")


def check_expected() -> dict[str, str]:
    out = {}
    proofs = library.proofs_dir()
    for name in sorted(os.listdir(proofs)):
        if name.endswith(".dseq"):
            buf = io.StringIO()
            if cli.cmd_check([os.path.join(proofs, name)], None, out=buf) != 0:
                raise SystemExit(f"{name} does not check")
            out[name] = buf.getvalue()
    return out


def _schema(f):
    """The library formula with its atoms turned into metavariables."""
    if isinstance(f, Atom):
        return Meta(f.name)
    if isinstance(f, Not):
        return Not(_schema(f.body))
    if isinstance(f, Implies):
        return Implies(_schema(f.left), _schema(f.right))
    if isinstance(f, Cond):
        return Cond(_schema(f.then), _schema(f.given))
    raise TypeError(f)


def weak_instances() -> list[str]:
    src = library.library_language()
    lang = Language(["a", "b"])
    lines = []
    for entry in library.theorem_library(src):
        d = entry.derivation
        if d.system is not System.DBL_STAR or d.allow_star or entry.tid in SLOW_TO_ENTAIL:
            continue
        for m in INSTANCE_MAPS:
            binding = {k: lang.parse(v) for k, v in m.items()}
            s = entry.statement
            inst = Sequent(
                tuple(substitute(_schema(f), binding) for f in s.antecedent),
                tuple(substitute(_schema(f), binding) for f in s.succedent))
            lines.append(lang.format_sequent(inst, "sugared"))
    return list(dict.fromkeys(lines))


def main() -> None:
    data = os.path.join(HERE, "data")
    with open(os.path.join(data, "check_expected.json"), "w") as fh:
        json.dump(check_expected(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(data, "sequents.txt"), "w") as fh:
        fh.write("# one-atom instances of the weakened-system library statements\n")
        fh.writelines(line + "\n" for line in weak_instances())


if __name__ == "__main__":
    main()
