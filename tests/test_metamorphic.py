"""Metamorphic tests: transformations of a scenario that must not change its verdicts.

An affine relabelling x -> a x + b of the observable and of both meters
renames the outcomes, so the joint table is the same (reversed on both axes
when a < 0, since labels are kept sorted), and agreement and the oit verdict
do not change. A change of system basis W conjugates the observable and the
state, and with them each pointer model's interaction by W x I, so an oit
run reports the same numbers.
"""

import numpy as np
import pytest

from conftest import random_hermitian_with_outcomes, random_state, random_unitary
from qmeasure import (
    MeasurementProcess,
    Pvm,
    compose,
    load_scenario,
    pvm_from_observable,
    run_experiment,
    scenario_to_json,
    table_agreement,
    verify_oit,
    von_neumann_model,
)

TOL = 1e-12


def _relabelled(pvm, a, b):
    return Pvm(tuple(a * x + b for x in pvm.outcomes), pvm.projectors, pvm.dim)


def _with_meter(process, meter):
    return MeasurementProcess(process.system_dim, process.apparatus_dim,
                              process.apparatus_state, process.interaction, meter)


def _random_case(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    k = int(rng.integers(2, dim + 1))
    pvm = pvm_from_observable(random_hermitian_with_outcomes(rng, dim, k))
    return rng, pvm, random_state(rng, dim)


@pytest.mark.parametrize("a", [2.0, -3.0])
@pytest.mark.parametrize("seed", range(4))
def test_affine_relabelling_renames_the_outcomes_only(seed, a):
    _, pvm, psi = _random_case(seed)
    b = 0.25
    p1, p2 = von_neumann_model(pvm), von_neumann_model(pvm)
    base = verify_oit(compose(psi, p1, p2), pvm)
    moved_pvm = _relabelled(pvm, a, b)
    q1, q2 = (_with_meter(p, _relabelled(p.meter, a, b)) for p in (p1, p2))
    moved = verify_oit(compose(psi, q1, q2), moved_pvm)

    order = slice(None, None, -1 if a < 0 else 1)
    assert moved.joint.outcomes1 == moved_pvm.outcomes
    assert moved.joint.outcomes2 == moved_pvm.outcomes
    want = base.joint.probabilities[order, order]
    assert np.abs(moved.joint.probabilities - want).max() <= TOL
    assert abs(table_agreement(moved.joint) - table_agreement(base.joint)) <= TOL
    assert moved.intersubjective and base.intersubjective
    renamed = {a * x + b: p for x, p in base.diagonal.items()}
    assert sorted(moved.diagonal) == sorted(moved_pvm.outcomes)
    assert moved.diagonal == pytest.approx(renamed, abs=TOL)
    assert moved.max_diagonal_deviation <= TOL and moved.off_diagonal_mass <= TOL


def _oit_report(psi, pvm):
    doc = scenario_to_json(psi, pvm, [], "oit")
    doc["processes"] = [{"model": "von_neumann"}, {"model": "von_neumann"}]
    return run_experiment(load_scenario(doc))


def _leaves(node, path=""):
    """(path, value) for every non-container value of a report, in key order."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, node


@pytest.mark.parametrize("seed", range(4))
def test_a_change_of_system_basis_keeps_every_oit_number(seed):
    rng, pvm, psi = _random_case(seed)
    w = random_unitary(rng, pvm.dim)
    rotated = Pvm(pvm.outcomes, tuple(w @ p @ w.conj().T for p in pvm.projectors), pvm.dim)
    base = list(_leaves(_oit_report(psi, pvm)))
    moved = list(_leaves(_oit_report(w @ psi, rotated)))
    assert [path for path, _ in moved] == [path for path, _ in base]
    for (path, got), (_, want) in zip(moved, base):
        if isinstance(want, bool) or not isinstance(want, (int, float)):
            assert got == want, path
        else:
            assert abs(got - want) <= TOL, path
