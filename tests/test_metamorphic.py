"""Metamorphic tests: transformations of a scenario that must not change its verdicts.

An affine relabelling x -> a x + b of the observable and of both meters
renames the outcomes, so the joint table is the same (reversed on both axes
when a < 0, since labels are kept sorted), and agreement and the oit verdict
do not change. A change of system basis W conjugates the observable and the
state, and with them each pointer model's interaction by W x I, so an oit
run reports the same numbers. A change of one process's apparatus basis W,
(I x W) U (I x W^dag) with W xi and W E_M W^dag, and an idle qubit added to
its apparatus, U x I with xi x |0> and E_M x I, leave the POVM it induces
unchanged, and with it the joint table and the locality verdict.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_hermitian_with_outcomes,
    random_pvm,
    random_state,
    random_unitary,
)
from qmeasure import (
    MeasurementProcess,
    Pvm,
    compose,
    induced_povm,
    joint_distribution,
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


def _custom(rng, d, k, controls=None):
    """A random custom process on a two-outcome meter, of rank > 1 when k > 2.

    With controls, a PVM's projectors P_j, the interaction is sum_j P_j x V_j:
    any two such processes on the same controls have commuting meters.
    """
    if controls is None:
        u = random_unitary(rng, d * k)
    else:
        u = sum(np.kron(p, random_unitary(rng, k)) for p in controls)
    return MeasurementProcess(d, k, random_state(rng, k), u, random_pvm(rng, k, 2))


def _in_apparatus_basis(process, w):
    """(I x W) U (I x W^dag), W xi and W E_M W^dag."""
    lift = np.kron(np.eye(process.system_dim), w)
    meter = process.meter
    turned = Pvm(meter.outcomes, tuple(w @ p @ w.conj().T for p in meter.projectors), meter.dim)
    return MeasurementProcess(process.system_dim, process.apparatus_dim,
                              w @ process.apparatus_state,
                              lift @ process.interaction @ lift.conj().T, turned)


def _with_idle_qubit(process):
    """U x I, xi x |0> and E_M x I: a qubit the interaction never touches."""
    idle, ground = np.eye(2), np.array([1.0, 0.0])
    meter = process.meter
    wider = Pvm(meter.outcomes, tuple(np.kron(p, idle) for p in meter.projectors), 2 * meter.dim)
    return MeasurementProcess(process.system_dim, 2 * process.apparatus_dim,
                              np.kron(process.apparatus_state, ground),
                              np.kron(process.interaction, idle), wider)


@pytest.mark.parametrize("local", [True, False])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(d=st.integers(1, 3), k1=st.integers(2, 4), k2=st.integers(2, 3),
       seed=st.integers(0, 2**32 - 1))
def test_an_apparatus_transform_keeps_every_table_and_the_verdict(local, d, k1, k2, seed):
    # max_commutator_norm is left out: its max-entry value depends on the apparatus basis
    rng = np.random.default_rng(seed)
    controls = random_pvm(rng, d, min(d, 2)).projectors if local else None
    psi = random_state(rng, d)
    p1, p2 = _custom(rng, d, k1, controls), _custom(rng, d, k2, controls)
    base = compose(psi, p1, p2)
    assert base.commuting or not local
    moved_pairs = [(_in_apparatus_basis(p1, random_unitary(rng, k1)), p2),
                   (_in_apparatus_basis(p1, random_unitary(rng, k1)),
                    _in_apparatus_basis(p2, random_unitary(rng, k2))),
                   (p1, _with_idle_qubit(p2)),
                   (_with_idle_qubit(p1), _in_apparatus_basis(p2, random_unitary(rng, k2)))]
    for q1, q2 in moved_pairs:
        for p, q in ((p1, q1), (p2, q2)):
            got, want = induced_povm(q).effects, induced_povm(p).effects
            assert np.max(np.abs(np.array(got) - np.array(want))) <= TOL
        moved = compose(psi, q1, q2)
        assert moved.commuting == base.commuting
        if base.commuting:
            got, want = joint_distribution(moved), joint_distribution(base)
            assert np.max(np.abs(got.probabilities - want.probabilities)) <= TOL
