"""Differential oracle: the factored compose against dense operators on H x K1 x K2.

compose keeps each evolved meter on its own factor. Here every evolved
projector is embedded into the whole compound space by kron and a permutation
of the tensor factors, and the commutator norm and the joint table are
recomputed with dense D x D products, D = d * d1 * d2.
"""

import itertools

import numpy as np
import pytest

from conftest import pointer_meter, random_process, random_pvm, random_state, random_unitary
from qmeasure import (
    MeasurementProcess,
    NonCommutingMetersError,
    compose,
    evolve_meter,
    joint_distribution,
)
from qmeasure.intersubjectivity import COMMUTATION_TOL

AGREE_TOL = 1e-12
DIMS = range(1, 5)


def dense(op, d, k_own, k_other, own_first):
    """op on H x K_own as an operator on H x K1 x K2 (identity on K_other)."""
    full = np.kron(op, np.eye(k_other))  # factors H, K_own, K_other
    if not own_first:
        full = full.reshape(d, k_own, k_other, d, k_own, k_other)
        full = full.transpose(0, 2, 1, 3, 5, 4)
    size = d * k_own * k_other
    return full.reshape(size, size)


def controlled_process(rng, projectors, d, k):
    """U = sum_j P_j x V_j: every such pair's evolved meters commute."""
    u = sum(np.kron(p, random_unitary(rng, k)) for p in projectors)
    return MeasurementProcess(d, k, random_state(rng, k), u, pointer_meter(k))


def dense_reference(psi, p1, p2):
    d, d1, d2 = psi.shape[0], p1.apparatus_dim, p2.apparatus_dim
    e1 = [dense(p, d, d1, d2, True) for p in evolve_meter(p1).projectors]
    e2 = [dense(p, d, d2, d1, False) for p in evolve_meter(p2).projectors]
    worst = max(np.max(np.abs(a @ b - b @ a)) for a in e1 for b in e2)
    state = np.kron(np.kron(psi, p1.apparatus_state), p2.apparatus_state)
    table = np.array([[np.vdot(state, a @ b @ state).real for b in e2] for a in e1])
    return worst, table


@pytest.mark.parametrize("commuting", [True, False])
@pytest.mark.parametrize("d", DIMS)
def test_factored_compose_matches_dense_oracle(d, commuting):
    rng = np.random.default_rng(100 * d + commuting)
    for d1, d2 in itertools.product(DIMS, DIMS):
        psi = random_state(rng, d)
        if commuting:
            projectors = random_pvm(rng, d, int(rng.integers(1, d + 1))).projectors
            p1 = controlled_process(rng, projectors, d, d1)
            p2 = controlled_process(rng, projectors, d, d2)
        else:
            p1, p2 = random_process(rng, d, d1), random_process(rng, d, d2)
        js = compose(psi, p1, p2)
        worst, table = dense_reference(psi, p1, p2)
        assert js.total_dim == d * d1 * d2
        assert (js.evolved1.dim, js.evolved2.dim) == (d * d1, d * d2)
        assert abs(js.max_commutator_norm - worst) <= AGREE_TOL, (d1, d2)
        if commuting:
            assert worst < 1e-10
        elif min(d, d1, d2) > 1:
            assert worst > 1e-3
        if worst <= COMMUTATION_TOL:
            got = joint_distribution(js).probabilities
            assert np.max(np.abs(got - table)) <= AGREE_TOL, (d1, d2)
        else:
            with pytest.raises(NonCommutingMetersError):
                joint_distribution(js)
