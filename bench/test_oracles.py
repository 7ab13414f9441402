"""Each workload's oracle passes the library's real output and fails a perturbed one.

Run with: PYTHONPATH=src python -m pytest bench
"""

import json
from pathlib import Path

import numpy as np
import pytest

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
qm = pytest.importorskip("qmeasure")


def build(name):
    rng = np.random.default_rng(7)
    if name == "cli_cold":
        runner = workloads.CliRunner(ROOT, spans.Tracer())
        return workloads.cli_cold(qm, rng, ROOT, runner), runner
    return getattr(workloads, name)(qm, rng, ROOT), None


@pytest.mark.parametrize("name", ["oit_ladder", "unsharp_sweep", "custom_sample", "cli_cold"])
def test_oracle_accepts_real_output_and_rejects_a_perturbed_one(name):
    workload, runner = build(name)
    try:
        for i, op in enumerate(workload.ops):
            out = op()
            assert workload.check(i, out) is None
            assert workload.check(i, workload.perturb(out)) is not None
    finally:
        if runner is not None:
            runner.close()


def test_custom_sample_flags_counts_that_change_for_a_repeated_seed():
    workload, _ = build("custom_sample")
    first = workload.ops[0]()
    assert workload.check(0, first) is None
    report = json.loads(first)
    counts = report["results"]["counts"]
    counts[0][0] -= 1
    counts[1][1] += 1
    assert workload.check(0, workloads.dump_report(report)) is not None


def test_oit_oracle_uses_its_own_born_weights():
    matrix = np.diag([1.0, -1.0]).astype(complex)
    psi = np.array([1, 1], dtype=complex) / np.sqrt(2)
    scenario = qm.load_scenario(workloads._oit_doc(matrix, psi))
    report = qm.run_experiment(scenario)
    assert workloads.check_oit(report, np.array([-1.0, 1.0]), np.array([0.5, 0.5])) is None
    assert workloads.check_oit(report, np.array([-1.0, 1.0]), np.array([0.4, 0.6])) is not None
