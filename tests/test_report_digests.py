"""Byte identity of the benchmark's reports, as a tier-1 check.

For each workload of `perfbench/run.py` at seeds 1-3, every op of
`workloads.ops(workload, seed)` runs once, and the digest of their reports,
computed by `run.Run.report_sha256`, must equal the frozen one in
`data/report_digests.json`.  The file also freezes a short digest per op,
so that a mismatch names the first op whose report changed and prints its
report lines.

The perfbench modules are imported by path, from the repository's
`perfbench/` directory.  A change that alters report bytes on purpose
refreezes the file in the same change, from the repository root, with

    PYTHONPATH=src python3 tests/test_report_digests.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FROZEN = os.path.join(ROOT, "tests", "data", "report_digests.json")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402

run.load_dblogic()

import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def reports(workload: str, seed: int) -> tuple[list, list]:
    """The ops of one run and their (exit code, report), each op run once."""
    ops = workloads.ops(workload, seed)
    return ops, [op.execute() for op in ops]


def sha256(outs: list) -> str:
    r = run.Run(len(outs))
    r.reports = outs
    return r.report_sha256()


def digests(outs: list) -> tuple[str, list[str]]:
    """The run's `report_sha256` and a short digest of each op's report."""
    return sha256(outs), [sha256([out])[:16] for out in outs]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reports_are_byte_identical_to_the_frozen_ones(workload, seed):
    with open(FROZEN) as fh:
        frozen = json.load(fh)[workload][str(seed)]
    ops, outs = reports(workload, seed)
    sha, per_op = digests(outs)
    if sha == frozen["sha256"]:
        return
    j = next((j for j, (a, b) in enumerate(zip(per_op, frozen["ops"])) if a != b),
             min(len(per_op), len(frozen["ops"])))
    if j < len(ops):
        rc, text = outs[j]
        where = f"op {j} ({ops[j].kind}, {ops[j].args!r}) reported, exit {rc}:\n{text}"
    else:
        where = f"{len(ops)} ops, {len(frozen['ops'])} frozen"
    pytest.fail(f"{workload} seed {seed}: report_sha256 {sha}, frozen "
                f"{frozen['sha256']}; first differing {where}")


def freeze() -> None:
    """Write the digests of today's reports to `FROZEN`."""
    out = {}
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            sha, per_op = digests(reports(workload, seed)[1])
            out.setdefault(workload, {})[str(seed)] = {"sha256": sha, "ops": per_op}
    os.makedirs(os.path.dirname(FROZEN), exist_ok=True)
    with open(FROZEN, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    freeze()
