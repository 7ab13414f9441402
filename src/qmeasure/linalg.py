"""Dense complex linear algebra for finite-dimensional quantum models.

Operators and states are plain numpy arrays (complex128); the functions
here validate them, test their structural properties and take square
roots. All comparisons use the max entry modulus norm, against the
module constants NORM_TOL and OP_TOL; neither is an option.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ValidationError

NORM_TOL = 1e-10      # state normalization
OP_TOL = 1e-9         # operator identity checks
MAX_DIM = 256         # compound dimension cap; a constant, not an option


def _check_dim(total: int) -> None:
    """Reject a compound space over the cap, before anything is allocated on it."""
    if total > MAX_DIM:
        raise DimensionError(f"compound dimension {total} exceeds the cap {MAX_DIM}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


PAULI_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))


def as_operator(a) -> np.ndarray:
    """Coerce to a 2-D complex array, requiring finite entries."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix entries must be finite")
    return a


def as_state(v) -> np.ndarray:
    """Coerce to a 1-D complex array, requiring unit norm within NORM_TOL."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.shape[0] < 1:
        raise DimensionError(f"expected a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("state amplitudes must be finite")
    with np.errstate(over="ignore"):  # an overflowing norm is inf, which fails the check
        norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValidationError(f"state norm is {norm!r}, not 1 within {NORM_TOL}")
    return v


def max_abs(a) -> float:
    """Max entry modulus of an array."""
    return float(np.max(np.abs(a)))


def _square(a) -> np.ndarray:
    a = as_operator(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


# Finite entries near the float maximum overflow in the residues below. The
# inf or nan residue fails the <= OP_TOL test, so numpy's warning is silenced.
def is_hermitian(a) -> bool:
    a = _square(a)
    with np.errstate(over="ignore", invalid="ignore"):
        return max_abs(a - a.conj().T) <= OP_TOL


def is_unitary(a) -> bool:
    a = _square(a)
    with np.errstate(over="ignore", invalid="ignore"):
        return max_abs(a.conj().T @ a - np.eye(a.shape[0])) <= OP_TOL


def is_projector(a) -> bool:
    a = _square(a)
    with np.errstate(over="ignore", invalid="ignore"):
        return is_hermitian(a) and max_abs(a @ a - a) <= OP_TOL


def _psd_roots(stack: np.ndarray) -> np.ndarray:
    """Operator square root of each matrix of an (m, d, d) stack, in one stacked eigh.

    The matrices are not checked; each is read through its Hermitian part.
    Eigenvalues in [-OP_TOL, 0) are treated as rounding noise and clamped
    to 0, the same floor Povm allows on its effects, so every effect of a
    valid POVM has a root; the lowest eigenvalue below -OP_TOL raises
    ValidationError. Eigenvalues up to eigh's own rounding,
    dim * eps * max(1, |w_max|), each matrix its own, are set to 0 too, so
    the root of a projector is the projector: sqrt would lift a rounding
    residue of 1e-16 to 1e-8.
    """
    w, vecs = np.linalg.eigh((stack + stack.conj().swapaxes(1, 2)) / 2)
    lowest = float(w[:, 0].min())
    if lowest < -OP_TOL:
        raise ValidationError(
            f"matrix is not positive semidefinite (eigenvalue {lowest!r} is below -{OP_TOL})"
        )
    noise = w.shape[1] * np.finfo(float).eps * np.maximum(1.0, np.abs(w[:, -1:]))
    diag = np.sqrt(np.where(w <= noise, 0.0, w))[:, :, None] * np.eye(w.shape[1])
    root = vecs @ diag @ vecs.conj().swapaxes(1, 2)
    return (root + root.conj().swapaxes(1, 2)) / 2
