"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import os
import statistics
import time
from fractions import Fraction

import run

run.load_dblogic()

import logic  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def describe(ops):
    return [(op.kind, repr(op.args), json.dumps(op.expect, sort_keys=True)) for op in ops]


def test_same_seed_same_inputs_other_seed_other_order_and_mix():
    for w in run.WORKLOADS:
        assert describe(workloads.ops(w, 7)) == describe(workloads.ops(w, 7))
        one, other = describe(workloads.ops(w, 7)), describe(workloads.ops(w, 8))
        assert one != other
        if w != "check-library":  # the shipped files are the same for every seed
            assert sorted(one) != sorted(other)
        else:
            assert sorted(one) == sorted(other)


def _passes(op):
    rc, text = op.execute()
    return workloads.problem(op, rc, text) is None


def test_planted_wrong_oracle_value_fails_the_op():
    rng = workloads._rng("test", 0, "planted")
    probs = [workloads.prob_op(rng, k) for k in ("c6", "p-c6", "lewis")]
    model = workloads.model_op(rng, "t6")
    check = workloads.check_ops()[0]
    for op in (*probs, model, check):
        assert _passes(op)
    for prob in probs:
        prob.expect["values"][0] = str(Fraction(prob.expect["values"][0]) + Fraction(1, 7))
    model.expect["verdicts"][0] = "fails" if model.expect["verdicts"][0] != "fails" else "sound"
    check.expect["text"] = check.expect["text"].replace("[flags", "[flag")
    for op in (*probs, model, check):
        assert not _passes(op)


def test_every_negative_control_is_rejected():
    controls = [op for op in workloads.check_ops() if workloads.is_control(op)]
    assert len(controls) == len(workloads.B5_FILES) + 5
    for op in controls:
        rc, text = op.execute()
        assert rc == 1 and text.startswith("FAIL ")
        assert workloads.problem(op, rc, text) is None
        # an accepted control would be a failed op
        assert workloads.problem(op, 0, text) is not None


def test_oracle_arithmetic():
    w = [1, 2, 3, 4]   # rows: !a!b, a!b, !ab, ab
    assert logic.probability(w, logic.imp(logic.A, logic.B)) == Fraction(8, 10)
    assert logic.probability(w, logic.Conditional(logic.B, logic.A)) == Fraction(4, 6)
    assert logic.stage_size(logic.Conditional(logic.B, logic.A).split) == 8


def test_smoke_run_of_a_few_ops_per_workload_finishes_in_seconds():
    rng = workloads._rng("test", 0, "smoke")
    ops = {
        "check-library": sorted(workloads.check_ops(), key=lambda op: op.kind != "check")[:4],
        "model-verify": [workloads.model_op(rng, k) for k in ("t6", "faithful")],
        "prob": [workloads.prob_op(rng, k) for k in ("classical", "c8", "lewis", "p-c6")],
    }
    t0 = time.perf_counter()
    for w, batch in ops.items():
        untraced, traced = run.Run(len(batch)), run.Run(len(batch))
        for _ in range(2):
            run.run_pass(untraced, batch)
        tr = tracing.Tracer()
        tr.install()
        try:
            run.run_pass(traced, batch, tr)
        finally:
            tr.uninstall()
        assert untraced.failed == traced.failed == 0, untraced.problems + traced.problems
        assert untraced.report_sha256() == traced.report_sha256()
        overhead = statistics.median(traced.durations) / statistics.median(untraced.durations)
        values = run.layers(tr, traced, overhead)
        checks = run.trace_checks(w, traced, tr, values)
        assert all(checks.values()), checks
    assert time.perf_counter() - t0 < 30


def test_emitted_metrics_match_the_declaration():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(run.HERE, "layer_map.json")) as fh:
        layer_map = json.load(fh)["layers"]
    r = run.Run(3)
    r.times, r.attempted, r.passes = [[0.001], [0.002, 0.004], [0.003]], 4, 2
    r.refs = [[0.003], [0.003, 0.003], [0.0015]]
    assert r.raw_durations == [0.001, 0.002, 0.003]
    assert [round(d, 9) for d in r.durations] == [0.0005, 0.0015, 0.003]
    e2e, _ = run.end_to_end(r, [(0.2, 0.1), (0.3, 0.2)])
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    per_layer = run.layers(tracing.Tracer(), r, 1.0)
    assert set(per_layer) == {m["name"] for m in spec["per_layer"]} == set(layer_map)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100, 0, -1)]) == (90, 90.0, 10)
    assert run.tail([float(i) for i in range(44)]) == (75, 32.0, 11)
    assert run.tail([3.0, 1.0, 2.0]) == (50, 2.0, 1)
