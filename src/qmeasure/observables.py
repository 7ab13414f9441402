"""PVM and POVM observables and their Born-rule outcome distributions.

A Pvm is an accurate observable: outcome labels with orthogonal projectors
that resolve the identity. A Povm is the generalized (possibly noisy)
observable: labels with positive effects resolving the identity. Both are
immutable; outcome labels are sorted increasing at construction and must be
separated by more than LABEL_TOL, and labels of two observables agree
when _label_pairs pairs them. The public constructors check every
invariant, the linalg.MAX_DIM cap included; observables the library
derives from checked ones are built through _derived, other derived records
through _trusted, and trusted. PROB_TOL bounds each derived probability's floor
and sum (a NaN fails); a Povm's Born weight is real within dim * OP_TOL / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotHermitianError, ParameterError, ValidationError
from .linalg import (
    MAX_DIM,
    OP_TOL,
    PAULI_Z,
    _check_dim,
    _frozen,
    _square,
    as_operator,
    as_state,
    is_hermitian,
    is_projector,
    max_abs,
)

CLUSTER_TOL = 1e-8    # eigenvalue degeneracy merging
LABEL_TOL = 1e-8      # outcome labels closer than this are considered duplicates
PROB_TOL = MAX_DIM * OP_TOL  # OP_TOL per entry moves a Born weight by up to dim * OP_TOL


def _sorted_labeled_ops(outcomes, operators, dim: int, kind: str):
    """Check dim, sort (label, operator) pairs by label, enforce label separation."""
    dim = int(dim)
    if dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    _check_dim(dim)
    labels = [float(x) for x in outcomes]
    ops = [as_operator(p) for p in operators]
    if len(labels) != len(ops) or not labels:
        raise ValidationError(f"need one operator per outcome label in a {kind}")
    if not all(np.isfinite(labels)):
        raise ValidationError("outcome labels must be finite")
    for p in ops:
        if p.shape != (dim, dim):
            raise DimensionError(f"{kind} operators must be {dim}x{dim}, got {p.shape}")
    order = sorted(range(len(labels)), key=lambda i: labels[i])
    labels = [labels[i] for i in order]
    ops = [ops[i] for i in order]
    _check_separated(labels, kind)
    return dim, tuple(labels), tuple(_frozen(p.copy()) for p in ops)


def _check_separated(labels, kind: str) -> None:
    """Raise ValidationError unless the sorted labels are more than LABEL_TOL apart."""
    for a, b in zip(labels, labels[1:]):
        if b - a <= LABEL_TOL:
            raise ValidationError(
                f"{kind} outcome labels {a!r} and {b!r} are closer than {LABEL_TOL}"
            )


def _label_pairs(left, right):
    """Index pairs (i, j) of two sorted label sequences whose labels agree within LABEL_TOL.

    A one-to-one merge-join: each label is paired at most once, with the
    first unpaired label on the other side that lies within LABEL_TOL.
    """
    pairs = []
    j = 0
    for i, x in enumerate(left):
        while j < len(right) and right[j] < x - LABEL_TOL:
            j += 1
        if j < len(right) and abs(right[j] - x) <= LABEL_TOL:
            pairs.append((i, j))
            j += 1
    return pairs


def _projective_defect(ops):
    """Why ops are not mutually orthogonal projectors within OP_TOL, or None."""
    for p in ops:
        if not is_projector(p):
            return "each PVM element must be an orthogonal projector"
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if max_abs(ops[i] @ ops[j]) > OP_TOL:
                return "PVM projectors must be mutually orthogonal"
    return None


def _check_resolution_of_unity(ops, dim: int, kind: str) -> None:
    deviation = max_abs(sum(ops) - np.eye(dim))
    if deviation > OP_TOL:
        raise ValidationError(
            f"{kind} operators do not sum to the identity (max deviation {deviation:.3e})"
        )


@dataclass(frozen=True, eq=False)
class Pvm:
    """Projection-valued measure: an accurate observable."""

    outcomes: tuple
    projectors: tuple
    dim: int

    def __post_init__(self):
        dim, labels, ops = _sorted_labeled_ops(self.outcomes, self.projectors, self.dim, "PVM")
        defect = _projective_defect(ops)
        if defect is not None:
            raise ValidationError(defect)
        _check_resolution_of_unity(ops, dim, "PVM")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "outcomes", labels)
        object.__setattr__(self, "projectors", ops)

    def __len__(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive-operator-valued measure: a generalized observable."""

    outcomes: tuple
    effects: tuple
    dim: int

    def __post_init__(self):
        dim, labels, ops = _sorted_labeled_ops(self.outcomes, self.effects, self.dim, "POVM")
        for e in ops:
            if not is_hermitian(e):
                raise ValidationError("each effect must be Hermitian")
            w = np.linalg.eigvalsh((e + e.conj().T) / 2)
            if w[0] < -OP_TOL or w[-1] > 1 + OP_TOL:
                raise ValidationError(
                    f"effect eigenvalues must lie in [0, 1] within {OP_TOL}, "
                    f"got range [{float(w[0])!r}, {float(w[-1])!r}]"
                )
        _check_resolution_of_unity(ops, dim, "POVM")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "outcomes", labels)
        object.__setattr__(self, "effects", ops)

    def __len__(self) -> int:
        return len(self.outcomes)


def _trusted(cls, **fields):
    """A frozen dataclass cls holding fields derived from checked values; no check is run."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _derived(cls, outcomes, operators, dim: int):
    """A Pvm or Povm (or a subclass) built without running its checks.

    Only for observables the library derives from already-checked ones:
    the outcomes are sorted and separated, and the operators satisfy the
    invariants of cls within OP_TOL. The operator arrays are frozen in place.
    """
    field = "effects" if issubclass(cls, Povm) else "projectors"
    return _trusted(cls, outcomes=tuple(outcomes), dim=int(dim),
                    **{field: tuple(_frozen(p) for p in operators)})


def _checked_probabilities(probs: np.ndarray, kind: str) -> np.ndarray:
    """probs, summing to 1 within PROB_TOL, with entries in [-PROB_TOL, 0) clamped to 0."""
    lowest = float(probs.min())
    if lowest < -PROB_TOL:
        raise ValidationError(f"{kind}probability {lowest!r} is below the -{PROB_TOL} floor")
    probs = np.maximum(probs, 0.0)
    total = float(probs.sum())
    if not abs(total - 1.0) <= PROB_TOL:  # a NaN fails too
        raise ValidationError(f"{kind}probabilities sum to {total!r}, not 1 within {PROB_TOL}")
    return probs


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Probabilities over outcome labels; sums to 1 within PROB_TOL."""

    outcomes: tuple
    probabilities: tuple

    def __post_init__(self):
        labels = tuple(float(x) for x in self.outcomes)
        probs = np.array([float(p) for p in self.probabilities])
        if len(labels) != len(probs) or not labels:
            raise ValidationError("need one probability per outcome")
        probs = _checked_probabilities(probs, "")
        object.__setattr__(self, "outcomes", labels)
        object.__setattr__(self, "probabilities", tuple(probs.tolist()))


def pvm_from_observable(a, cluster_tol: float = CLUSTER_TOL) -> Pvm:
    """Spectral PVM of a Hermitian operator, with degenerate eigenvalues merged.

    Consecutive eigenvalues closer than cluster_tol are merged into a single
    outcome; its label is the arithmetic mean of the cluster and its
    projector is the sum of the clustered rank-1 projectors. One stacked
    pass takes the projector of every cluster's first eigenvector, from
    broadcast products of its real and imaginary parts: memory no larger
    than the PVM's. Only a cluster of several eigenvalues then takes its
    sum and its mean as a per-cluster loop takes them, so the labels equal
    that loop's and a degenerate observable never holds d rank-1 projectors.

    The input is checked: finite, square, Hermitian within OP_TOL, within
    linalg.MAX_DIM, and with a Hermitian part that does not overflow,
    before eigh runs; cluster_tol must be a number >= 0 (NaN is not). The
    PVM is derived and trusted (_derived): eigh's orthonormal eigenvectors
    give orthogonal projectors that resolve the identity, so Pvm's operator
    checks are not run. What eigh does not settle is checked with Pvm's
    errors: finite labels, more than LABEL_TOL apart, so a cluster_tol below
    LABEL_TOL can raise.
    """
    a = _square(a)
    if not cluster_tol >= 0:  # a NaN fails too
        raise ParameterError(f"cluster_tol must be >= 0, got {cluster_tol}")
    if not is_hermitian(a):
        raise NotHermitianError("spectral decomposition needs a Hermitian matrix")
    dim = a.shape[0]
    _check_dim(dim)
    with np.errstate(over="ignore", invalid="ignore"):  # overflows are checked, not warned of
        hermitian = (a + a.conj().T) / 2
        if not np.all(np.isfinite(hermitian)):
            raise ValidationError("matrix entries overflow in its Hermitian part (a + a^dag) / 2")
        w, vecs = np.linalg.eigh(hermitian)
        starts = np.flatnonzero(np.concatenate(([True], np.diff(w) > cluster_tol)))
        # [c] = |v><v| of the cluster's first eigenvector v, from real products, so
        # Hermitian to the bit (numpy's complex product can fuse a multiply-add)
        lead = vecs.T[starts]
        re, im = lead.real, lead.imag
        projectors = np.empty((starts.size, dim, dim), dtype=complex)
        real, imag = projectors.real, projectors.imag
        np.multiply(re[:, :, None], re[:, None, :], out=real)
        real += im[:, :, None] * im[:, None, :]
        np.multiply(im[:, :, None], re[:, None, :], out=imag)
        imag -= re[:, :, None] * im[:, None, :]
        values = w[starts] + 0.0  # np.mean of one value: it turns -0.0 into 0.0
        if starts.size < dim:  # a cluster of several eigenvalues takes its own sum and mean
            breaks = [*starts.tolist(), dim]
            for c, (lo, hi) in enumerate(zip(breaks, breaks[1:])):
                if hi - lo > 1:
                    block = vecs[:, lo:hi]
                    proj = block @ block.conj().T
                    projectors[c] = (proj + proj.conj().T) / 2
                    values[c] = np.mean(w[lo:hi])
    if not np.all(np.isfinite(values)):
        raise ValidationError("outcome labels must be finite")
    # sorted as Pvm sorts: rounding can swap the means of clusters an ulp apart
    order = np.argsort(values, kind="stable")
    labels = values[order].tolist()
    _check_separated(labels, "PVM")
    _frozen(projectors)
    return _derived(Pvm, labels, (projectors[i] for i in order), dim)


def born_povm(povm: Povm, psi) -> OutcomeDistribution:
    """P(x) = Re <psi|Pi(x)|psi> over the POVM's outcomes (see the module docstring)."""
    psi = as_state(psi)
    if psi.shape[0] != povm.dim:
        raise DimensionError(
            f"state dim {psi.shape[0]} does not match observable dim {povm.dim}"
        )
    weights = (np.vdot(psi, e @ psi).real for e in povm.effects)
    return OutcomeDistribution(povm.outcomes, tuple(weights))


def as_povm(pvm: Pvm) -> Povm:
    """View an accurate observable as a generalized one with the same operators."""
    return _derived(Povm, pvm.outcomes, pvm.projectors, pvm.dim)


def is_projective(povm: Povm) -> bool:
    """True iff the effects are mutually orthogonal projectors within OP_TOL."""
    return _projective_defect(povm.effects) is None


def _checked_eta(eta) -> float:
    """The sharpness eta as a float; outside [0, 1] it raises ParameterError."""
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"sharpness eta must lie in [0, 1], got {eta!r}")
    return eta


def _unsharp_effects(etas) -> np.ndarray:
    """The effects (I - eta*sigma_z)/2, (I + eta*sigma_z)/2 for each eta, as an (m, 2, 2, 2) stack.

    The etas are not checked; their outcomes are -1 and +1.
    """
    eye = np.eye(2, dtype=complex)
    scaled = np.asarray(etas, dtype=float)[:, None, None] * PAULI_Z
    return np.stack(((eye - scaled) / 2, (eye + scaled) / 2), axis=1)


def unsharp_qubit_povm(eta: float) -> Povm:
    """Two-outcome smeared sigma-z observable, Pi(+/-1) = (I +/- eta*sigma_z)/2.

    eta = 1 is the sharp projective limit; eta = 0 is pure noise. Only eta is
    checked: the closed-form Povm is derived and trusted for every eta in [0, 1].
    """
    effects = _unsharp_effects([_checked_eta(eta)])[0]
    return _derived(Povm, (-1.0, 1.0), effects, 2)
