import io
import os

import pytest

from dblogic import library, syntax
from dblogic.cli import cmd_check
from dblogic.library import (
    GROUP_ANNOTATIONS, export_library, library_language, proofs_dir,
    theorem_library,
)
from dblogic.proof import check_derivation

LANG = library_language()
ENTRIES = theorem_library(LANG)
BY_ID = {e.tid: e for e in ENTRIES}

# statements as printed sugared, frozen from the source material
EXPECTED_STATEMENTS = {
    "3.1.1": "x |- y >< x",
    "3.1.1.top": "|- y >< T",
    "3.1.2.a": "y >< x |- y >< !x",
    "3.1.2.b": "y >< !x |- y >< x",
    "3.1.3": "!x |- y >< x",
    "3.1.3.bot": "|- y >< F",
    "3.1.4": "y <-> z |- !x, (y | x) <-> (z | x)",
    "3.1.4.cor": "y <-> z |- (y | x) <-> (z | x)",
    "3.1.5.neg": "|- (!y | x) <-> !(y | x)",
    "3.1.5.and": "|- (y /\\ z | x) <-> (y | x) /\\ (z | x)",
    "3.1.5.or": "|- (y \\/ z | x) <-> (y | x) \\/ (z | x)",
    "3.1.5.imp": "|- (y -> z | x) <-> (y | x) -> (z | x)",
    "3.1.6": "y |- (y | x)",
    "3.1.6.top": "|- T >< x",
    "3.1.6.bot": "|- F >< x",
    "3.1.7": "|- (y | x) /\\ x <-> x /\\ y",
    "3.1.8": "|- !x, (x | x)",
    "3.1.9": "|- (y | x) >< x",
    "3.1.10.a": "y >< x |- !y >< x",
    "3.1.10.b": "y >< x, z >< x |- y /\\ z >< x",
    "3.1.10.c": "y <-> z, y >< x |- z >< x",
    "3.1.11": "x >< x |- !x, x",
    "3.1.12": "y >< x, x \\/ y |- x, y",
    "3.1.13": "x >< z, y >< z, (x /\\ z) -> (y /\\ z) |- !z, x -> y",
    "3.1.14": "y <-> z |- (x | y) <-> (x | z)",
    "3.1.15": "|- x >< (y | x)",
    "3.1.16": "(z | y) >< x |- !(x /\\ y), (z | y) <-> (z | x /\\ y)",
    "3.1.17": "|- (((z | y) | x) /\\ (x /\\ y)) <-> ((z | x /\\ y) /\\ (x /\\ y))",
    "3.1.17.star": "|- !(x /\\ y), x <-> y, x >< y",
    "vcu.ax2": "|- (x | !x) -> (x | y)",
    "vcu.ax4": "|- (y | x) -> (x -> y)",
    "vcu.ax5": "|- (x /\\ y) -> (y | x)",
    "vcu.ax6": "|- (x | !x) -> ((x | !x) | !(x | !x))",
    "vcu.cr": "|- ((x | z) /\\ (y | z)) -> (x \\/ y | z)",
}


def test_every_expected_statement_is_present():
    assert set(EXPECTED_STATEMENTS) == set(BY_ID)


@pytest.mark.parametrize("tid", sorted(EXPECTED_STATEMENTS))
def test_statement_matches(tid):
    assert BY_ID[tid].statement == LANG.parse_sequent(EXPECTED_STATEMENTS[tid])


@pytest.mark.parametrize("tid", sorted(EXPECTED_STATEMENTS))
def test_derivation_checks_with_expected_flags(tid):
    entry = BY_ID[tid]
    res = check_derivation(entry.derivation, LANG)
    assert res.conclusion == entry.statement
    assert res.flags == entry.expected_flags


def test_group_annotations_match():
    groups: dict[str, set[str]] = {}
    for e in ENTRIES:
        res = check_derivation(e.derivation, LANG)
        groups.setdefault(e.group, set()).update(res.flags)
    for g, flags in groups.items():
        assert frozenset(flags) == GROUP_ANNOTATIONS[g], g


def test_no_weak_axioms_inside_full_system_derivations():
    for e in ENTRIES:
        res = check_derivation(e.derivation, LANG)
        if e.derivation.system.value == "dbl":
            assert not any(s.startswith("b5.weak") for s in res.axioms_used), e.tid
        if e.derivation.system.value == "dbl*":
            assert "b5" not in res.axioms_used, e.tid
        if e.tid != "3.1.17.star":
            assert "star" not in res.axioms_used, e.tid


def test_shipped_files_match_library(tmp_path):
    # the shipped files are the builders' export, byte for byte
    fresh = export_library(tmp_path)
    assert sorted(fresh) == sorted(os.listdir(proofs_dir()))
    for name in fresh:
        with open(os.path.join(proofs_dir(), name), "rb") as fh:
            assert fh.read() == (tmp_path / name).read_bytes(), name


def test_a_library_build_instantiates_each_axiom_node_once_per_prover(monkeypatch):
    # a `Prover` computes the conclusion of each distinct node once, so an
    # axiom node built again instantiates nothing: 1 250 calls per build,
    # against 1 933 when every `ax` instantiated its schema
    calls = []
    real = library.instantiate_axiom
    monkeypatch.setattr(library, "instantiate_axiom",
                        lambda *args: calls.append(args) or real(*args))
    theorem_library(LANG)
    assert len(calls) == 1250


def test_library_runtime_budget():
    import time
    t0 = time.time()
    for e in theorem_library(LANG):
        check_derivation(e.derivation, LANG)
    assert time.time() - t0 < 5.0


def test_a_second_check_of_the_library_builds_no_formula():
    # the shipped files and the in-memory library, checked once to fill
    # the formula table: checking both again adds no entry to it
    def check_all():
        assert cmd_check([proofs_dir()], None, out=io.StringIO()) == 0
        for e in theorem_library(LANG):
            check_derivation(e.derivation, LANG)

    check_all()
    size = len(syntax._TABLE)
    check_all()
    assert len(syntax._TABLE) == size
