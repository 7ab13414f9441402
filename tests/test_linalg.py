import numpy as np
import pytest

from conftest import PAULI_X, PAULI_Y, random_hermitian, random_state
from qmeasure import (
    PAULI_Z,
    DimensionError,
    NotHermitianError,
    ParameterError,
    Pvm,
    ValidationError,
    as_operator,
    as_state,
    is_hermitian,
    is_projector,
    is_unitary,
    max_abs,
    pvm_from_observable,
)
from qmeasure.linalg import _psd_roots


def test_as_operator_rejects_vectors_and_nonfinite():
    with pytest.raises(DimensionError):
        as_operator(np.ones(3))
    with pytest.raises(ValidationError):
        as_operator(np.array([[np.inf, 0], [0, 1]]))


def test_as_state_norm_gate():
    as_state(np.array([1, 0], dtype=complex))
    with pytest.raises(ValidationError, match=r"state norm is 1\.4142135623730951, not 1"):
        as_state(np.array([1, 1], dtype=complex))
    with pytest.raises(DimensionError):
        as_state(np.eye(2))


def test_predicates_on_paulis():
    for sigma in (PAULI_X, PAULI_Y, PAULI_Z):
        assert is_hermitian(sigma)
        assert is_unitary(sigma)
        assert not is_projector(sigma)
    assert is_projector(np.diag([1.0, 0.0]).astype(complex))
    assert not is_unitary(np.diag([1.0, 0.0]).astype(complex))


@pytest.mark.parametrize("seed", range(5))
def test_psd_sqrt_squares_back(seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = b.conj().T @ b
    root = _psd_roots(a[None])[0]
    assert is_hermitian(root)
    assert max_abs(root @ root - a) < 1e-9


def test_psd_sqrt_clamps_rounding_noise_but_rejects_negatives():
    for noise in (-5e-11, -5e-10):
        root = _psd_roots(np.diag([1.0, noise]).astype(complex)[None])[0]
        assert max_abs(root - np.diag([1.0, 0.0])) < 1e-5
    rng = np.random.default_rng(7)
    for dim in range(2, 7):
        # eigh leaves ~1e-16 on the kernel of a rank-1 projector; its root is exact
        v = random_state(rng, dim)
        projector = np.outer(v, v.conj())
        assert max_abs(_psd_roots(projector[None])[0] - projector) < 1e-14
    with pytest.raises(ValidationError, match=r"eigenvalue -1e-06 is below -1e-09"):
        _psd_roots(np.diag([1.0, -1e-6]).astype(complex)[None])


def test_psd_roots_takes_each_root_with_psd_sqrt_rules_and_error():
    rng = np.random.default_rng(3)
    v = random_state(rng, 3)
    stack = np.array([np.outer(v, v.conj()), np.diag([2.0, 1e-12, -5e-10]),
                      np.eye(3) * 4.0]).astype(complex)
    roots = _psd_roots(stack)
    for a, root in zip(stack, roots):
        assert np.array_equal(root, _psd_roots(a[None])[0])
    # each matrix's noise floor is its own: 1e-12 is above the projector's
    assert roots[1][1, 1] == pytest.approx(1e-6)
    bad = stack.copy()
    bad[1] = np.diag([1.0, -1e-6, 0.0])
    with pytest.raises(ValidationError) as stacked:
        _psd_roots(bad)
    with pytest.raises(ValidationError) as single:
        _psd_roots(bad[1][None])
    assert str(stacked.value) == str(single.value)
    assert "eigenvalue -1e-06 is below -1e-09" in str(stacked.value)


# spectral decomposition of a Hermitian operator into its PVM


def test_spectral_decompose_sigma_z():
    pvm = pvm_from_observable(PAULI_Z)
    assert pvm.outcomes == (-1.0, 1.0)
    assert max_abs(pvm.projectors[0] - np.diag([0.0, 1.0])) < 1e-12
    assert max_abs(pvm.projectors[1] - np.diag([1.0, 0.0])) < 1e-12


def test_spectral_decompose_merges_degenerate_eigenvalues():
    pvm = pvm_from_observable(np.diag([3.0, 3.0, 7.0]).astype(complex))
    assert pvm.outcomes == (3.0, 7.0)
    assert max_abs(pvm.projectors[0] - np.diag([1.0, 1.0, 0.0])) < 1e-12
    traces = [float(np.trace(p).real) for p in pvm.projectors]
    assert traces == pytest.approx([2.0, 1.0])


def test_spectral_decompose_cluster_tolerance_merges_near_degeneracy():
    a = np.diag([1.0, 1.0 + 1e-12, 2.0]).astype(complex)
    pvm = pvm_from_observable(a)
    assert len(pvm.outcomes) == 2
    wide = pvm_from_observable(a, cluster_tol=3.0)
    assert len(wide.outcomes) == 1
    assert max_abs(wide.projectors[0] - np.eye(3)) < 1e-12


def test_spectral_decompose_errors():
    with pytest.raises(NotHermitianError):
        pvm_from_observable(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ParameterError):
        pvm_from_observable(PAULI_Z, cluster_tol=-1e-3)
    with pytest.raises(DimensionError):
        pvm_from_observable(np.ones((2, 3), dtype=complex))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("dim", [2, 3, 5])
def test_spectral_decompose_reconstructs(seed, dim):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, dim)
    pvm = pvm_from_observable(a)
    assert max_abs(sum(x * p for x, p in zip(pvm.outcomes, pvm.projectors)) - a) < 1e-9
    assert max_abs(sum(pvm.projectors) - np.eye(dim)) < 1e-9
    assert all(b - a2 > 0 for a2, b in zip(pvm.outcomes, pvm.outcomes[1:]))


def test_spectral_decomposition_rejects_non_orthogonal_projectors():
    p = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValidationError):
        Pvm((0.0, 1.0), (p, p), 2)
    with pytest.raises(ValidationError):
        Pvm((0.0,), (np.diag([1.0, 0.0]).astype(complex),), 2)
    # descending labels are put in ascending order, each projector kept with its label
    pvm = Pvm((1.0, 0.0), (p, np.eye(2) - p), 2)
    assert pvm.outcomes == (0.0, 1.0)
    assert max_abs(pvm.projectors[0] - (np.eye(2) - p)) < 1e-12
    assert max_abs(pvm.projectors[1] - p) < 1e-12


def test_frozen_arrays_are_read_only():
    pvm = pvm_from_observable(PAULI_Z)
    with pytest.raises(ValueError):
        pvm.projectors[0][0, 0] = 5.0
