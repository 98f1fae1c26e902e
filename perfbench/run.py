#!/usr/bin/env python3
"""Closed-loop benchmark of the dblogic workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one thread: the benchmark calls the CLI entry points in-process
(``cli.cmd_check``, ``cli.cmd_model``, ``cli.cmd_prob``), one op after the
other, each with seeded inputs and a string buffer for its report, and
checks every exit code and report against an oracle (see workloads.py).
A run draws one list of ops from the seed and runs it pass after pass for
about S seconds; every pass must print the first pass's reports byte for
byte.

Times are given at a fixed machine speed.  The speed of a shared machine
wanders by a third and more, for seconds to minutes at a time, and even an
op's fastest time over a run moved by 20 % between runs.  So just before and
after every op the benchmark times a fixed pure-Python task (reference.py),
and an op's time is the median over its passes of op time / task time,
times REFERENCE_S: the op's time on this machine when the task takes
1.5 ms, about its fastest on a 2-vCPU Xeon.  A change that slows the workbench raises it; a
slow stretch of the machine, which slows both, does not.  ops_per_s divides
the ops by the sum of their times.  The raw times (fastest pass) are in the
run record.

``--trace 0`` prints the end-to-end metrics.  Set-up time is measured in
fresh interpreters, several times spread over the run: process start,
``import dblogic``, seeded input generation and warm-up ops, up to the
first timed op.  Starting processes and compiling modules slow down and
speed up apart from the reference task, so each set-up is scaled by a
reference set-up timed just before and after it (``reference.py`` run in a
fresh interpreter, which compiles its own source and runs the task), and
setup_s is the median of set-up / reference set-up, times REFERENCE_SETUP_S.

``--trace 1`` prints the per-layer metrics: it alternates untraced passes
with passes under tracing.py, and reports each layer's calls, self time and
counts per pass, the tracing overhead (traced over untraced median op time)
and its checks.  The program is single-threaded and has no queue or lock,
so no layer waits and there is no wait metric.

The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run record: environment, op counts, tail percentile, failures and the
report digest.  Both records and the trace's spans are also written under
``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("check-library", "model-verify", "prob")
SETUP_RUNS = 11             # set-ups per run, spread over it
REFERENCE_S = 0.0015        # about the reference task's fastest time on a 2-vCPU Xeon
REFERENCE_SETUP_S = 0.08    # about the reference set-up's fastest time there


def load_dblogic() -> None:
    if not os.path.isfile(os.path.join(SRC, "dblogic", "__init__.py")):
        sys.exit(f"perfbench: no dblogic package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def setup(workload: str, seed: int) -> tuple[list, int, list[str]]:
    """Everything before the first timed op: returns the run's ops, the
    number of warm-up ops and their failures."""
    load_dblogic()
    import workloads
    ops = workloads.ops(workload, seed)
    warm = workloads.warmup(workload)
    failures = []
    for op in warm:
        rc, text = op.execute()
        why = workloads.problem(op, rc, text)
        if why:
            failures.append(f"warm-up {op.kind} op: {why}")
    return ops, len(warm), failures


def reference_s() -> float:
    """Time of the reference task, on a collected heap and with no
    collection inside it, so that an op's garbage does not slow it."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference.task()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _time_to_ready(cmd: list[str]) -> float:
    """Wall time from starting a fresh interpreter to its 'ready' line."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if rc != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: {cmd[1]} failed with exit code {rc}")
    return t1 - t0


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """(set-up time, mean time of the reference set-ups before and after)."""
    ref = [sys.executable, os.path.join(HERE, "reference.py")]
    r0 = _time_to_ready(ref)
    s = _time_to_ready([sys.executable, os.path.abspath(__file__), "--workload", workload,
                        "--seed", str(seed), "--setup-only"])
    return s, (r0 + _time_to_ready(ref)) / 2


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Run:
    """What the passes over one list of ops did."""

    def __init__(self, n_ops: int):
        self.times: list[list[float]] = [[] for _ in range(n_ops)]  # seconds, per pass
        self.refs: list[list[float]] = [[] for _ in range(n_ops)]   # reference task around it
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes = 0
        self.reports: list = []            # the first pass's (rc, report) per op
        self.per_op: list[tuple] = []      # traced: (op, counter deltas, report bytes)

    @property
    def durations(self) -> list[float]:
        """Each op's time at the reference speed, in seconds."""
        return [statistics.median(t / r for t, r in zip(ts, rs)) * REFERENCE_S
                for ts, rs in zip(self.times, self.refs)]

    @property
    def raw_durations(self) -> list[float]:
        """Each op's fastest time."""
        return [min(t) for t in self.times]

    @property
    def total_s(self) -> float:
        return sum(map(sum, self.times))

    def report_sha256(self) -> str:
        return hashlib.sha256("".join(
            f"{r[0]}\n{r[1]}" if r else "raised\n" for r in self.reports).encode()).hexdigest()

    def fail(self, where: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{where}: {why}")


def _execute(op, tracer, op_id):
    """Run one op; returns (seconds, reference task seconds, (rc, report) or
    None, problem or None).  The reference task time is the mean of the
    task timed just before and just after the op.

    The heap is collected first, outside the timed region: otherwise a
    collection owed by earlier ops lands in this one.  Each op then pays the
    collections its own allocations trigger, as in a fresh process.
    """
    import workloads
    r0 = reference_s()
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = op.execute() if tracer is None else tracer.run_op(op_id, op.execute)
        why = None
    except Exception as e:  # an op that raises is a failed op, not a crash
        out, why = None, f"raised {type(e).__name__}: {e}"
    dt = time.perf_counter() - t0
    ref = (r0 + reference_s()) / 2
    return dt, ref, out, why or workloads.problem(op, *out)


TRACE_KEYS = {
    "parse": ("syntax.parse",),
    "proof": ("proof.parse_file", "proof.check", "proof.leaf"),
    "ratfunc": ("ratfunc.make", "ratfunc.gcd", "ratfunc.arith"),
}


def _snapshot(tracer) -> dict[str, int]:
    return {k: sum(tracer.calls[n] for n in names) for k, names in TRACE_KEYS.items()}


def run_pass(run: Run, ops: list, tracer=None) -> None:
    """Run every op once; every pass after the first must give the first
    pass's report byte for byte."""
    for j, op in enumerate(ops):
        where = f"pass {run.passes} op {j} ({op.kind})"
        before = _snapshot(tracer) if tracer else None
        dt, ref, out, why = _execute(op, tracer, run.passes * len(ops) + j)
        run.attempted += 1
        run.times[j].append(dt)
        run.refs[j].append(ref)
        if run.passes == 0:
            run.reports.append(out)
        elif not why and out != run.reports[j]:
            why = "report bytes differ from the first pass"
        if why:
            run.fail(where, why)
        if tracer:
            after = _snapshot(tracer)
            run.per_op.append((op, {k: after[k] - before[k] for k in after},
                               len(out[1].encode()) if out else 0))
    run.passes += 1


def run_passes(workload: str, seed: int, ops: list, seconds: float,
               tracer=None) -> tuple[Run, Run | None, list[tuple[float, float]]]:
    """Run passes until the pass boundary nearest to `seconds`, at least two.

    Untraced, set-up is measured SETUP_RUNS times, spread over the run.
    With a tracer, an untraced pass and a traced pass alternate; returns
    (traced, untraced, set-up samples) and requires byte-identical reports.
    """
    run = Run(len(ops))
    base = Run(len(ops)) if tracer else None
    setup_s: list[tuple[float, float]] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if not tracer:
            while len(setup_s) < SETUP_RUNS * min(1.0, elapsed / seconds):
                setup_s.append(measure_setup(workload, seed))
        if tracer:
            run_pass(base, ops)
            tracer.install()
            try:
                run_pass(run, ops, tracer)
            finally:
                tracer.uninstall()
        else:
            run_pass(run, ops)
        elapsed = time.perf_counter() - start
        if run.passes >= 2 and elapsed + elapsed / run.passes / 2 >= seconds:
            break
    while not tracer and len(setup_s) < SETUP_RUNS:
        setup_s.append(measure_setup(workload, seed))
    if tracer and run.reports != base.reports:
        run.fail("traced pass", "traced reports differ from untraced")
    return run, base, setup_s


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

TAIL_CANDIDATES = (99, 95, 90, 75, 50)


def tail(durations: list[float]) -> tuple[int, float, int]:
    """The highest of TAIL_CANDIDATES with at least 10 samples beyond it
    (the median if none has): (percentile, nearest-rank value, samples
    beyond it).  A workload's op count is fixed, so is its percentile."""
    xs = sorted(durations)
    for q in TAIL_CANDIDATES:
        k = max(1, math.ceil(q * len(xs) / 100))
        if len(xs) - k >= 10 or q == 50:
            return q, xs[k - 1], len(xs) - k


def _timings(durations: list[float]) -> dict:
    q, tail_s, _ = tail(durations)
    return {"op_p50_ms": statistics.median(durations) * 1000, "op_tail_ms": tail_s * 1000,
            "ops_per_s": len(durations) / sum(durations)}


def end_to_end(run: Run, setup_samples: list[tuple[float, float]]) -> tuple[dict, dict]:
    q, _, beyond = tail(run.durations)
    values = {
        "setup_s": statistics.median(s / r for s, r in setup_samples) * REFERENCE_SETUP_S,
        **_timings(run.durations),
        "ok_op_ratio": (run.attempted - run.failed) / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {"setup_s": statistics.median(s for s, _ in setup_samples),
           **_timings(run.raw_durations)}
    record = {"tail_percentile": q, "tail_samples_beyond": beyond,
              "setup_and_reference_s": setup_samples, "raw_values": raw}
    return values, record


def layers(tr, run: Run, overhead: float) -> dict:
    """Per-layer metrics of a traced run, per pass."""
    c, a, s, t = tr.calls, tr.amounts, tr.self_s, tr.total_s
    n = run.passes

    def ratio(x, y):
        return x / y if y else 0.0

    values = {
        "syntax.parse.chars_per_s": ratio(a["syntax.parse.chars"], s["syntax.parse"]),
        "proof.check.nodes_per_s": ratio(a["proof.check.nodes"], t["proof.check"]),
        "construction.apply_f.defined_ratio":
            ratio(c["construction.apply_f.defined"], c["construction.apply_f"]),
        "model.entails.decided_ratio": ratio(
            a["model.entails.checked"], a["model.entails.checked"] + a["model.entails.skipped"]),
        "model.entails.assignments_per_s": ratio(
            a["model.entails.checked"] + a["model.entails.skipped"], t["model.entails"]),
        "cli.report_bytes": sum(b for _, _, b in run.per_op) / n,
        "trace.overhead_ratio": overhead,
        "trace.coverage": ratio(sum(s.values()), run.total_s),
    }
    for name in ("syntax.parse", "syntax.format", "proof.parse_file", "proof.check",
                 "proof.leaf", "construction.build", "construction.advance",
                 "construction.verify", "construction.apply_f", "construction.embed",
                 "model.entails", "model.value", "probability.extend",
                 "probability.measure", "probability.lemma", "ratfunc.make", "ratfunc.gcd"):
        values[f"{name}.calls"] = c[name] / n
    for name in ("syntax.parse", "syntax.format", "proof.parse_file", "proof.check",
                 "proof.leaf", "library.build", "construction.build", "construction.verify",
                 "model.entails", "probability.extend", "probability.measure",
                 "probability.lemma", "probability.lewis", "ratfunc.arith", "cli"):
        values[f"{name}.self_s"] = s[name] / n
    for name in ("proof.check.nodes", "proof.rejected", "library.entries",
                 "construction.stage_points", "construction.verify.passed",
                 "construction.verify.skipped", "model.entails.checked",
                 "model.entails.skipped", "probability.lemma.checks"):
        values[name] = a[name] / n
    return values


def trace_checks(workload: str, run: Run, tr, values: dict) -> dict[str, bool]:
    """Coverage, the rejections and the counts predicted to be zero."""
    import workloads
    tolerance = max(values["trace.overhead_ratio"] - 1, 0.01)
    checks = {"self times cover op time": abs(1 - values["trace.coverage"]) <= tolerance}
    if workload == "check-library":
        controls = sum(workloads.is_control(op) for op, _, _ in run.per_op)
        checks["proof.rejected equals controls run"] = tr.amounts["proof.rejected"] == controls
    else:
        checks["no proof work"] = all(d["proof"] == 0 for _, d, _ in run.per_op)
        checks["parsing only the inputs"] = all(
            d["parse"] <= op.parses for op, d, _ in run.per_op)
    # RatFunc values are the perturbed mode's; lewis_separation conditions
    # the table, which zeroes cells, and extends that side perturbed
    checks["ratfunc work exactly on perturbed and --lewis ops"] = all(
        (d["ratfunc"] > 0) == (op.perturbed or op.lewis) for op, d, _ in run.per_op)
    return checks


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _source_sha256() -> str:
    """Digest of the package sources, which identifies the code measured
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "dblogic")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".dseq")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "git_commit": _git_commit(),
            "source_sha256": _source_sha256()}


def declared_metrics(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def write_out(name: str, lines) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w") as fh:
        fh.writelines(line + "\n" for line in lines)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_only:
        _, _, failures = setup(args.workload, args.seed)
        if failures:
            sys.exit("; ".join(failures))
        print("ready", flush=True)
        return 0

    load_dblogic()
    declared = declared_metrics(bool(args.trace))
    ops, warm_ops, warm_failures = setup(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment()}
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        run, base, _ = run_passes(args.workload, args.seed, ops, args.seconds, tracer)
        write_out(f"{args.workload}-seed{args.seed}-spans.jsonl",
                  (json.dumps(s) for s in tracer.spans))
        untraced_p50 = statistics.median(base.durations)
        values = layers(tracer, run, statistics.median(run.durations) / untraced_p50)
        checks = trace_checks(args.workload, run, tracer, values)
        record.update(untraced_op_p50_ms=untraced_p50 * 1000, trace_checks=checks,
                      spans=len(tracer.spans))
        run.attempted += base.attempted
        run.failed += base.failed
        run.problems += base.problems
    else:
        run, _, setup_samples = run_passes(args.workload, args.seed, ops, args.seconds)
        values, extra = end_to_end(run, setup_samples)
        record.update(extra)
        checks = {}
    run.attempted += warm_ops
    for why in warm_failures:
        run.fail("warm-up", why)
    record.update(passes=run.passes, ops=len(ops), attempted=run.attempted,
                  failed=run.failed, failed_op_ratio=run.failed / run.attempted,
                  problems=run.problems, report_sha256=run.report_sha256(),
                  values=values)
    result = {
        "correct": run.failed == 0 and all(checks.values()),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    lines = [json.dumps(record), json.dumps(result)]
    write_out(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", lines)
    print(lines[0])
    print(lines[1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
