import contextlib
import hashlib
import io
import os
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dblogic import construction, proof
from dblogic.cli import cmd_check, cmd_model, cmd_prob, main
from dblogic.library import proofs_dir
from dblogic.syntax import Language

PI_TEXT = """\
a /\\ b : 1/2
a /\\ !b : 1/4
!a /\\ b : 1/8
!a /\\ !b : 1/8
"""


def test_check_shipped_library_is_green():
    out = io.StringIO()
    assert cmd_check([proofs_dir()], None, out=out) == 0
    text = out.getvalue()
    assert "0 failures" in text and "checked 34" in text


def test_check_b5_under_weak_system_fails():
    out = io.StringIO()
    path = os.path.join(proofs_dir(), "3_1_2_a.dseq")  # uses b5
    assert cmd_check([path], "dbl*", out=out) == 1
    assert "FAIL" in out.getvalue()


def test_check_empty_input_is_error(tmp_path):
    (tmp_path / "notes.txt").write_text("no derivations here\n")
    for paths, named in (([str(tmp_path)], str(tmp_path)), ([], "no paths")):
        out = io.StringIO()
        assert cmd_check(paths, None, out=out) == 1
        assert out.getvalue() == f"ERROR: no .dseq files in {named}\n"


def test_check_file_without_qed_is_error(tmp_path):
    path = tmp_path / "open.dseq"
    path.write_text("theta: x\nsystem: dbl*\nn1: I[x]\n")
    out = io.StringIO()
    assert cmd_check([str(path)], None, out=out) == 1
    assert out.getvalue().splitlines() == [
        f"ERROR {path}: derivation file publishes no derivation (no qed line)",
        "checked 0 derivations, 1 failures",
    ]


DSEQ_HEAD = "theta: x, y\nsystem: dbl*\nn1: I[x]\n"


def _check_text(tmp_path, body):
    path = tmp_path / "bad.dseq"
    path.write_text(DSEQ_HEAD + body)
    out = io.StringIO()
    return cmd_check([str(path)], None, out=out), out.getvalue(), str(path)


def test_check_unknown_premise_is_error(tmp_path):
    rc, text, path = _check_text(tmp_path, "n2: andR n1 n9\nqed: n2\n")
    assert rc == 1
    assert text.splitlines()[0] == f"ERROR {path}: line 4: unknown node 'n9'"


def test_check_unknown_qed_node_is_error(tmp_path):
    rc, text, path = _check_text(tmp_path, "qed: n7\n")
    assert rc == 1
    assert text.splitlines()[0] == f"ERROR {path}: line 4: unknown node 'n7'"


def test_check_unbound_metavariable_fails(tmp_path):
    rc, text, _ = _check_text(tmp_path, "n2: ax[b1; phi = x; chi = x]\nqed: n2 t\n")
    assert rc == 1
    assert text.splitlines()[0] == \
        "FAIL t [bad.dseq]: root: schema 'b1': unbound metavariable 'psi'"


def test_check_parse_errors_name_their_line(tmp_path):
    rc, text, path = _check_text(tmp_path, "n2: cut[x -> ] n1 n1\n")
    assert rc == 1
    assert text.splitlines()[0] == \
        f"ERROR {path}: line 4: dangling operator or unexpected end of input"


def test_model_unwritable_dump_is_error(tmp_path):
    dump = str(tmp_path / "missing" / "stage.txt")
    out = io.StringIO()
    assert cmd_model(["a"], [], "targeted", 32, 0, None, None, dump, out=out) == 1
    assert out.getvalue() == f"ERROR: {dump}: No such file or directory\n"


def test_main_output_follows_redirected_stdout(tmp_path):
    # the report stream is looked up when a command runs, not at import
    dump = str(tmp_path / "missing" / "stage.txt")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["model", "--theta", "a", "--dump", dump]) == 1
    assert out.getvalue() == f"ERROR: {dump}: No such file or directory\n"


def test_model_faithful_single_atom_halts():
    out = io.StringIO()
    rc = cmd_model(["a"], [], "faithful", 32, 0, None, None, None, out=out)
    assert rc == 0
    text = out.getvalue()
    assert "halted=True" in text and "[2, 2]" in text


def test_model_targeted_build_and_entailment():
    out = io.StringIO()
    rc = cmd_model(["a", "b"], ["(b | a)", "a -> b |- !a, (b | a)"],
                   "targeted", 32, 0, 200, None, None, out=out)
    assert rc == 0
    text = out.getvalue()
    assert "stage 1, 8 points" in text
    assert "entails" in text and "fails" not in text


def test_model_verifies_each_level_once_and_prob_verifies_none(monkeypatch):
    calls = []
    original = construction.verify_stage

    def counting_verify(stage):
        calls.append(stage.index)
        return original(stage)

    monkeypatch.setattr(construction, "verify_stage", counting_verify)
    for mode, lines, levels in (("targeted", ["(b | a)", "(a | b)"], [1, 2]),
                                ("faithful", [], [1, 2, 3])):
        out = io.StringIO()
        assert cmd_model(["a", "b"], lines, mode, 32, 0, None, None, None, out=out) == 0
        assert calls == levels, mode
        assert [ln for ln in out.getvalue().splitlines() if ln.startswith("verify")] \
            == [f"verify stage {i}: ok" for i in levels]
        calls.clear()
    out = io.StringIO()
    assert cmd_prob(["a", "b"], PI_TEXT, ["(b | a)", "(a | b)"], 32, 0, False, None,
                    out=out) == 0
    assert out.getvalue().startswith("build: stage 2, 32 points") and calls == []


def test_model_samples_below_one_is_error(tmp_path, capsys):
    # checked before the build: no report line, whatever the input
    for samples in (0, -3):
        out = io.StringIO()
        assert cmd_model(["a", "b"], ["|- a, !a"], "targeted", 32, 0, samples, None, None,
                         out=out) == 1
        assert out.getvalue() == f"ERROR: --samples: must be at least 1, got {samples}\n"
        assert main(["model", "--theta", "a", "--samples", str(samples)]) == 1
        assert capsys.readouterr().out == \
            f"ERROR: --samples: must be at least 1, got {samples}\n"


def test_model_faithful_with_target_is_error():
    out = io.StringIO()
    assert cmd_model(["a", "b"], [], "faithful", 32, 0, None, "(b | a)", None, out=out) == 1
    assert out.getvalue() == "ERROR: --target: only the targeted mode takes a target\n"


def _nested_iff(depth):
    text = "b"
    for _ in range(depth):
        text = f"a <-> ({text})"
    return text


# (deep formula, a shallow equivalent): 1 000 `!` on `a`, a `/\` chain of
# 300 atoms, and 24 nested `<->`, each `a <-> (a <-> x)` being x
_DEEP_SHAPES = {
    "negations": ("!" * 1000 + "a", "a"),
    "conjunctions": (" /\\ ".join(["a", "b"] * 150), "a /\\ b"),
    "iffs": (_nested_iff(24), "b"),
}


@pytest.mark.parametrize("shape", _DEEP_SHAPES)
def test_deep_formula_answers_on_every_cli_path(tmp_path, capsys, shape):
    # every walk is iterative: each path answers the deep formula at once,
    # as it answers its shallow equivalent
    deep, shallow = _DEEP_SHAPES[shape]
    lang = Language(["a", "b"])
    table = tmp_path / "pi.txt"
    table.write_text(PI_TEXT)

    def run(x):
        """Each path's exit code and report on the formula `x`."""
        model_in, prob_in = tmp_path / "model.txt", tmp_path / "prob.txt"
        model_in.write_text(f"{x}\n(b | {x})\na, {x} |- {shallow}\n")
        prob_in.write_text(f"{x}\n(b | {x})\n")
        dseq = tmp_path / "leaf.dseq"
        dseq.write_text(f"theta: a, b\nn1: taut[{x} |- {shallow}]\nqed: n1 t\n")
        outs = []
        for argv in (["model", "--theta", "a,b", "--input", str(model_in)],
                     ["model", "--theta", "a,b", "--target", f"(b | {x})"],
                     ["prob", "--theta", "a,b", "--prob", str(table), "--input", str(prob_in)],
                     ["check", str(dseq)]):
            t0 = time.perf_counter()
            rc = main(argv)
            elapsed = time.perf_counter() - t0
            assert elapsed < 1.0, (argv[0], elapsed)
            outs.append((rc, capsys.readouterr().out))
        return outs

    printed = lang.format(lang.parse(deep), "sugared")
    for (rc, got), (_, want) in zip(run(deep), run(shallow)):
        assert rc == 0, got
        assert got.replace(printed, lang.format(lang.parse(shallow), "sugared")) == want


def test_model_bad_formula_is_parse_error():
    # b is not a declared atom: a documented error, not a traceback
    out = io.StringIO()
    rc = cmd_model(["a"], ["a", "(b | a)"], "targeted", 32, 0, None, None, None,
                   out=out)
    assert rc == 1
    assert out.getvalue().startswith("ERROR: input line 2: ")


def test_model_bad_target_is_error():
    out = io.StringIO()
    rc = cmd_model(["a"], [], "targeted", 32, 0, None, "(a |", None, out=out)
    assert rc == 1
    assert out.getvalue().startswith("ERROR: --target: ")


def test_prob_bad_input_formula_is_error():
    out = io.StringIO()
    rc = cmd_prob(["a", "b"], PI_TEXT, ["(b | a)", "a -> -> b"], 32, 0, False,
                  None, out=out)
    assert rc == 1
    assert out.getvalue().startswith("ERROR: input line 2: ")


def test_prob_bad_lewis_formula_is_error():
    out = io.StringIO()
    rc = cmd_prob(["a", "b"], PI_TEXT, [], 32, 0, False, "(a | ", out=out)
    assert rc == 1
    assert out.getvalue().startswith("ERROR: --lewis: ")


def test_prob_zero_denominator_is_one_error_line():
    out = io.StringIO()
    assert cmd_prob(["a", "b"], "a /\\ b : 1/0\n", ["a"], 32, 0, False, None, out=out) == 1
    assert out.getvalue() == "ERROR: line 1: zero denominator in '1/0'\n"


@pytest.mark.parametrize("table, phi, error", [
    ("a /\\ b : 1/2\na /\\ !b : 1/2\n", "b", "the base distribution must be strictly positive"),
    (PI_TEXT, "(b | a)", "the conditioning proposition must be classical"),
    (PI_TEXT, "a -> a", "need 0 < P(phi) < 1"),
], ids=["zero-cell", "conditional", "certain"])
def test_prob_lewis_preconditions_fail_before_the_build(monkeypatch, table, phi, error):
    def no_build(*args, **kwargs):
        raise AssertionError("built a stage for a failing --lewis")
    monkeypatch.setattr(construction, "build_for_formulas", no_build)
    out = io.StringIO()
    assert cmd_prob(["a", "b"], table, ["(b | a)"], 32, 0, False, phi, out=out) == 1
    assert out.getvalue() == f"ERROR: {error}\n"


def test_theta_over_the_stage_budget_is_error():
    theta = ["a", "b", "c", "d"]
    for run in (lambda out: cmd_model(theta, [], "targeted", 32, 0, None, None, None, out=out),
                lambda out: cmd_prob(theta, PI_TEXT, [], 32, 0, False, None, out=out)):
        out = io.StringIO()
        assert run(out) == 1
        assert out.getvalue() == "ERROR: --theta: too many atoms for the stage budget (4 > 3)\n"


def test_unreadable_input_files_are_errors(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    table = tmp_path / "pi.txt"
    table.write_text(PI_TEXT)
    for argv in (["model", "--theta", "a", "--input", missing],
                 ["model", "--theta", "a", "--input", str(tmp_path)],
                 ["prob", "--theta", "a,b", "--prob", missing],
                 ["prob", "--theta", "a,b", "--prob", str(table), "--input", missing]):
        assert main(argv) == 1
        assert capsys.readouterr().out.startswith(f"ERROR: {argv[-1]}: "), argv


def test_model_budget_exceeded_nonzero():
    out = io.StringIO()
    rc = cmd_model(["a", "b"], ["(a | ((b | a) | (a | b)))"], "targeted",
                   8, 0, None, None, None, out=out)
    assert rc == 1
    assert "budget" in out.getvalue()


def test_model_reports_are_reproducible():
    a, b = io.StringIO(), io.StringIO()
    for buf in (a, b):
        cmd_model(["a", "b"], ["(b | a)", "a -> b |- !a, (b | a)"],
                  "targeted", 32, 7, 500, None, None, out=buf)
    assert a.getvalue() == b.getvalue()


def test_prob_pipeline_green(tmp_path):
    out = io.StringIO()
    rc = cmd_prob(["a", "b"], PI_TEXT, ["(b | a)"], 32, 0, False, None, out=out)
    assert rc == 0
    text = out.getvalue()
    assert "prob (b | a): 2/3" in text
    assert "bayes" in text and "FAIL" not in text


def test_prob_zero_cells_strict_mode_advises(tmp_path):
    out = io.StringIO()
    rc = cmd_prob(["a", "b"], "a /\\ b : 1/2\n!a /\\ b : 1/2\n",
                  [], 32, 0, True, None, out=out)
    assert rc == 1
    assert "strict-positive" in out.getvalue()


def test_prob_perturbed_32_point_stage():
    # one zero cell, three targets: a 32-point stage in the perturbed mode.
    # The report's values are frozen from the per-point RatFunc extension,
    # which took 13-19 s on a 2-vCPU VM, and its check counts from the lemma
    # checks on points
    table = "a /\\ b : 1/2\na /\\ !b : 1/4\n!a /\\ b : 1/4\n"
    out = io.StringIO()
    t0 = time.perf_counter()
    rc = cmd_prob(["a", "b"], table, ["(b | a)", "(a | b)", "((a | b) | a)"],
                  32, 0, False, None, out=out)
    elapsed = time.perf_counter() - t0
    assert rc == 0
    text = out.getvalue()
    assert text.startswith("build: stage 2, 32 points seed=0\nmode: perturbed")
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "f567eae6a0113f7eaae428475106c3163e96a57461129750fe34e825b7345d5e"
    assert elapsed < 5.0, elapsed


def test_prob_lewis_witness_printed():
    out = io.StringIO()
    rc = cmd_prob(["a", "b"], PI_TEXT, [], 32, 0, False, "b", out=out)
    assert rc == 0
    text = out.getvalue()
    assert "witness (b | a): extend-then-evaluate 1 != condition-the-extension 14/15" in text
    assert "collapses=True" in text


def test_prob_lewis_on_a_deep_classical_phi_is_fast():
    # each <-> holds the one below twice, shared: 2**22 tree paths
    phi = "a <-> (" * 22 + "b" + ")" * 22
    out = io.StringIO()
    t0 = time.perf_counter()
    rc = cmd_prob(["a", "b"], PI_TEXT, [], 32, 0, False, phi, out=out)
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert "lewis separation on phi=a <-> (a <-> " in out.getvalue()
    assert elapsed < 1.0, elapsed


def test_prob_lewis_collapse_demo_not_applicable():
    # phi = a: the only atom phi changes is a itself, which phi does not
    # split (P(!a /\ a) = 0), so the collapse demo has no psi to use
    uniform = "a /\\ b : 1/4\na /\\ !b : 1/4\n!a /\\ b : 1/4\n!a /\\ !b : 1/4\n"
    out = io.StringIO()
    rc = cmd_prob(["a", "b"], uniform, [], 32, 0, False, "a", out=out)
    assert rc == 0
    assert "lewis separation on phi=a: " in out.getvalue()
    assert "collapse demo not applicable" in out.getvalue()


def test_main_entry(tmp_path, capsys):
    assert main(["check", proofs_dir()]) == 0
    capsys.readouterr()


def test_check_unknown_system_is_error():
    out = io.StringIO()
    path = os.path.join(proofs_dir(), "3_1_2_a.dseq")
    assert cmd_check([path], "bogus", out=out) == 1
    assert out.getvalue() == "ERROR: --system: unknown system 'bogus'\n"


def test_check_deep_leaf_checks(tmp_path):
    # the leaf check evaluates 1 200 `!` on an explicit stack
    bangs = "!" * 1200
    path = tmp_path / "f.dseq"
    path.write_text(f"theta: x\nsystem: dbl*\nn1: taut[|- {bangs}x -> {bangs}x]\nqed: n1 deep\n")
    out = io.StringIO()
    assert cmd_check([str(path)], None, out=out) == 0
    assert out.getvalue().splitlines() == [
        f"OK   deep: |- {bangs[1:]}x \\/ {bangs}x  [flags -]",
        "checked 1 derivations, 0 failures",
    ]


def test_check_deep_conditionals_compared_in_a_leaf_are_failure(tmp_path):
    # two distinct conditionals 1 200 `!` deep are two truth-table
    # variables, told apart without a recursive comparison
    bangs = "!" * 1200
    path = tmp_path / "f.dseq"
    path.write_text(f"theta: x, y\nsystem: dbl*\n"
                    f"n1: taut[|- ({bangs}x | x) -> ({bangs}y | x)]\nqed: n1 deepcond\n")
    out = io.StringIO()
    assert cmd_check([str(path)], None, out=out) == 1
    assert out.getvalue().splitlines() == [
        "FAIL deepcond [f.dseq]: root: not a classical tautology under abstraction",
        "checked 0 derivations, 1 failures",
    ]


def test_check_deep_equal_conditionals_in_a_leaf_are_one_variable(tmp_path):
    # the two equal conditionals are one node, hence one variable, and the
    # printer writes the run of 1 200 `!` without one frame per `!`
    cond = f"({'!' * 1200}x | x)"
    path = tmp_path / "f.dseq"
    path.write_text(f"theta: x, y\nsystem: dbl*\n"
                    f"n1: taut[|- {cond} -> {cond}]\nqed: n1 deepcond\n")
    out = io.StringIO()
    assert cmd_check([str(path)], None, out=out) == 0
    assert out.getvalue().splitlines() == [
        f"OK   deepcond: |- {cond} -> {cond}  [flags -]",
        "checked 1 derivations, 0 failures",
    ]


def test_check_conclusion_nested_3000_deep_prints(tmp_path):
    # the derivation's conclusion nests 3 000 `->` on the right, and the
    # printer's explicit stack prints it like any other
    deep = tmp_path / "deep.dseq"
    deep.write_text("theta: a, b\nn1: ax[c1; phi = " + "a -> " * 3000
                    + "a; psi = b]\nqed: n1\n")
    fine = tmp_path / "fine.dseq"
    fine.write_text("theta: a, b\nn1: taut[|- a -> a]\nqed: n1 fine\n")
    out = io.StringIO()
    assert cmd_check([str(deep), str(fine)], None, out=out) == 0
    phi = "a -> " * 2999 + "T"                  # a -> a is T
    assert out.getvalue().splitlines() == [
        f"OK   derivation1: |- ({phi}) -> b -> {phi}  [flags -]",
        "OK   fine: |- T  [flags -]",
        "checked 2 derivations, 0 failures",
    ]


_DEEP_CHAIN = "n0: I[x]\n" + "".join(
    f"n{i}: struct[x |- x] n{i - 1}\n" for i in range(1, 1500)) + "qed: n1499 t\n"


def test_check_deep_struct_chain_checks(tmp_path):
    # 1 500 nodes, each the premise of the next, on the checker's explicit stack
    path = tmp_path / "f.dseq"
    path.write_text("theta: x, y\nsystem: dbl*\n" + _DEEP_CHAIN)
    out = io.StringIO()
    assert cmd_check([str(path)], None, out=out) == 0
    assert out.getvalue().splitlines() == [
        "OK   t: x |- x  [flags -]",
        "checked 1 derivations, 0 failures",
    ]


@pytest.mark.parametrize("body, reason", [
    ("n1: I[x]\nn2: andR n1\nqed: n2 t\n", "andR expects two premises"),
    ("n1: taut[|- x -> x]\nn2: andL[y] n1\nqed: n2 t\n",
     "andL premise needs a principal antecedent formula"),
    ("n1: I\nqed: n1 t\n", "I expects no premises and one formula argument"),
    ("n1: ax[b3; phi = x; psi = y; eta = x]\nqed: n1 t\n",
     "schema 'b3' has no metavariable 'eta'"),
], ids=["andR-one-premise", "andL-no-antecedent", "I-no-argument", "stray-binding"])
def test_check_malformed_derivation_is_failure(tmp_path, body, reason):
    path = tmp_path / "f.dseq"
    path.write_text("theta: x, y\nsystem: dbl*\n" + body)
    out = io.StringIO()
    assert cmd_check([str(path)], None, out=out) == 1
    assert out.getvalue().splitlines() == [
        f"FAIL t [f.dseq]: root: {reason}",
        "checked 0 derivations, 1 failures",
    ]


_FORMULAS = ["x", "y", "!x", "x -> y", "(y | x)", "x /\\ y", "T", "x ->"]
_SEQUENTS = ["|- x -> x", "x |- x", "|-", "x, y |- y", "|- x, !x", "x -> y |- (y | x)"]


@st.composite
def _dseq_texts(draw):
    """Derivation files drawn from the node grammar: every operator,
    rejected and unknown rules included, any number of premises, optional
    arguments and ``ax`` bindings, stray ones included."""
    lines = ["theta: x, y",
             "system: " + draw(st.sampled_from(["dbl*", "dbl", "classical", "dbl+star"]))]
    rules = [*proof.DERIVED_RULES, *proof.REJECTED_RULES, "orX"]
    for i in range(1, draw(st.integers(1, 6)) + 1):
        op = draw(st.sampled_from(["ax", "taut", "cut", "struct", *rules]))
        if op == "ax":
            sid = draw(st.sampled_from([*proof.AXIOM_SCHEMAS, "b9"]))
            keys = draw(st.lists(st.sampled_from(["phi", "psi", "eta", "chi"]),
                                 max_size=4, unique=True))
            bracket = "; ".join([sid] + [f"{k} = {draw(st.sampled_from(_FORMULAS))}"
                                         for k in keys])
        elif op in ("taut", "struct"):
            bracket = draw(st.sampled_from(_SEQUENTS))
        else:
            args = draw(st.lists(st.sampled_from(_FORMULAS), max_size=2))
            bracket = "; ".join(args) if args or op == "cut" else None
        refs = [f"n{draw(st.integers(1, i - 1))}"
                for _ in range(draw(st.integers(0, 3 if i > 1 else 0)))]
        head = op if bracket is None else f"{op}[{bracket}]"
        lines.append(f"n{i}: {' '.join([head, *refs])}")
    lines.append(f"qed: n{draw(st.integers(1, len(lines) - 2))} t")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_dseq_texts())
def test_check_never_raises_on_grammar_built_files(tmp_path, text):
    path = tmp_path / "g.dseq"
    path.write_text(text)
    out = io.StringIO()
    rc = cmd_check([str(path)], None, out=out)
    *verdicts, summary = out.getvalue().splitlines()
    assert rc in (0, 1)
    assert len(verdicts) == 1 and verdicts[0].startswith(("OK   ", "FAIL ", "ERROR ")), text
    assert summary == f"checked {1 - rc} derivations, {rc} failures"


@pytest.mark.parametrize("text, error", [
    ("theta: a, b\nn1: taut[|- a -> a]\nn1: taut[|- b -> b]\nqed: n1\n",
     "line 3: node 'n1' defined twice"),
    ("theta: a\ntheta: b\nn1: taut[|- b -> b]\nqed: n1\n",
     "line 2: theta declared twice"),
    ("theta: a\nn1: taut[|- a -> a]\nqed: n1 t\nqed: n1 t\n",
     "line 4: derivation 't' published twice"),
    ("theta: a, b\nn1: ax[b3; phi = a; psi = b; phi = b]\nqed: n1\n",
     "line 2: metavariable 'phi' bound twice"),
], ids=["node", "theta", "qed", "binding"])
def test_check_redefinition_is_error(tmp_path, text, error):
    path = tmp_path / "f.dseq"
    path.write_text(text)
    out = io.StringIO()
    assert cmd_check([str(path)], None, out=out) == 1
    assert out.getvalue().splitlines() == [
        f"ERROR {path}: {error}",
        "checked 0 derivations, 1 failures",
    ]


def test_check_deep_iff_under_a_conditional_is_fast(tmp_path):
    # depth-24 nested `<->` under a conditional, on both sides of `->`:
    # the parser shares the two sides of each `<->`, and the leaf check
    # and the printer visit each shared node once
    text = "b"
    for _ in range(24):
        text = f"a <-> ({text})"
    cond = f"(({text}) | b)"
    path = tmp_path / "deep.dseq"
    path.write_text(f"theta: a, b\nsystem: dbl*\nn1: taut[|- {cond} -> {cond}]\nqed: n1 deep\n")
    out = io.StringIO()
    t0 = time.perf_counter()
    assert cmd_check([str(path)], None, out=out) == 0
    assert time.perf_counter() - t0 < 1.0
    assert out.getvalue().startswith("OK   deep: |- (a <-> (a <-> ")
