"""Indirect measurement scheme: processes, meter evolution, induced POVMs.

A measuring process is the quadruple (apparatus space, apparatus state,
interaction unitary, meter PVM). Conjugating the embedded meter with the
interaction gives the evolved meter on system x apparatus; pinching the
evolved meter with the apparatus state gives the POVM the process induces
on the system. Constructive models are provided in both directions: a
pointer model realizing any accurate observable, and a dilation model
realizing any generalized observable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import (
    _check_dim,
    _frozen,
    _psd_roots,
    as_operator,
    as_state,
    is_unitary,
    max_abs,
)
from .observables import Povm, Pvm, _derived, _label_pairs

REPRO_TOL = 1e-9  # default reproducibility decision tolerance


@dataclass(frozen=True, eq=False)
class MeasurementProcess:
    """The measuring-process quadruple with an explicit system dimension."""

    system_dim: int
    apparatus_dim: int
    apparatus_state: np.ndarray
    interaction: np.ndarray
    meter: Pvm

    def __post_init__(self):
        system_dim = int(self.system_dim)
        apparatus_dim = int(self.apparatus_dim)
        if system_dim < 1 or apparatus_dim < 1:
            raise DimensionError("system and apparatus dimensions must be >= 1")
        total = system_dim * apparatus_dim
        _check_dim(total)
        xi = as_state(self.apparatus_state)
        if xi.shape[0] != apparatus_dim:
            raise DimensionError(
                f"apparatus state has dim {xi.shape[0]}, expected {apparatus_dim}"
            )
        u = as_operator(self.interaction)
        if u.shape != (total, total):
            raise DimensionError(
                f"interaction must be {total}x{total} on system x apparatus, got {u.shape}"
            )
        if not is_unitary(u):
            raise ValidationError("interaction operator must be unitary")
        if not isinstance(self.meter, Pvm):
            raise ValidationError("meter must be a Pvm")
        if self.meter.dim != apparatus_dim:
            raise DimensionError(
                f"meter acts on dim {self.meter.dim}, expected apparatus dim {apparatus_dim}"
            )
        object.__setattr__(self, "system_dim", system_dim)
        object.__setattr__(self, "apparatus_dim", apparatus_dim)
        object.__setattr__(self, "apparatus_state", _frozen(xi.copy()))
        object.__setattr__(self, "interaction", _frozen(u.copy()))

    @property
    def total_dim(self) -> int:
        return self.system_dim * self.apparatus_dim


@dataclass(frozen=True, eq=False)
class ReproducibilityReport:
    """Per-outcome operator distance between an induced POVM and a target PVM."""

    reproducible: bool
    max_operator_deviation: float
    per_outcome_deviation: dict
    tolerance: float


def evolve_meter(process: MeasurementProcess) -> Pvm:
    """Heisenberg-evolved meter: E(x) = U^dag (I x E_M(x)) U on system x apparatus.

    With the columns of W_x an orthonormal basis of E_M(x)'s range (its
    eigenvectors of eigenvalue above 1/2, from one stacked eigh of the meter),
    I x E_M(x) = (I x W_x)(I x W_x^dag), so E(x) = G^dag G with
    G = (I x W_x^dag) U, one (d rank_x) x D slice of U's rows per outcome;
    no D x D operator on the apparatus side is built. The Pvm is derived and trusted.
    """
    d, k = process.system_dim, process.apparatus_dim
    rows = process.interaction.reshape(d, k, -1)  # [i, a, :] = row (i, a) of U
    values, vectors = np.linalg.eigh(np.array(process.meter.projectors))
    projectors = []
    for w, vecs in zip(values, vectors):
        g = np.einsum("ar,iaz->irz", vecs[:, w > 0.5].conj(), rows).reshape(-1, d * k)
        evolved = g.conj().T @ g
        projectors.append((evolved + evolved.conj().T) / 2)
    return _derived(Pvm, process.meter.outcomes, projectors, process.total_dim)


def _pinch(evolved: Pvm, xi) -> Povm:
    """Pi(x) = <xi|E(x)|xi> for a meter evolved on system x apparatus."""
    d_app = xi.shape[0]
    d_sys = evolved.dim // d_app
    effects = []
    for p in evolved.projectors:
        blocks = p.reshape(d_sys, d_app, d_sys, d_app)
        effect = np.einsum("k,ikjl,l->ij", xi.conj(), blocks, xi)
        effects.append((effect + effect.conj().T) / 2)
    return _derived(Povm, evolved.outcomes, effects, d_sys)


def induced_povm(process: MeasurementProcess) -> Povm:
    """System-side POVM generated by the process: Pi(x) = <xi|E_evolved(x)|xi>."""
    return _pinch(evolve_meter(process), process.apparatus_state)


def _compare(induced: Povm, target: Pvm, tol: float = REPRO_TOL) -> ReproducibilityReport:
    """check_reproducibility on an induced POVM that is already built.

    Outcomes are paired by observables._label_pairs; an outcome left
    unpaired on either side is compared against the zero operator.
    """
    if induced.dim != target.dim:
        raise DimensionError(
            f"process system dim {induced.dim} does not match PVM dim {target.dim}"
        )
    pairs = _label_pairs(induced.outcomes, target.outcomes)
    per_outcome = {target.outcomes[j]: max_abs(induced.effects[i] - target.projectors[j])
                   for i, j in pairs}
    sides = ((induced.outcomes, induced.effects), (target.outcomes, target.projectors))
    for side, (labels, ops) in enumerate(sides):
        paired = {pair[side] for pair in pairs}
        for k, (x, op) in enumerate(zip(labels, ops)):
            if k not in paired:
                per_outcome[x] = max_abs(op)
    worst = max(per_outcome.values())
    return ReproducibilityReport(
        reproducible=worst <= tol,
        max_operator_deviation=worst,
        per_outcome_deviation=per_outcome,
        tolerance=float(tol),
    )


def check_reproducibility(
    process: MeasurementProcess, target: Pvm, tol: float = REPRO_TOL
) -> ReproducibilityReport:
    """Compare the induced POVM against the target PVM, outcome by outcome.

    Outcome labels are paired one to one within the constant LABEL_TOL, the
    separation every observable's labels already keep; an outcome present on
    only one side is compared against the zero operator. The process
    reproduces the target's statistics iff the largest per-outcome operator
    deviation is at most tol, the scenario's reproducibility tolerance.
    """
    return _compare(induced_povm(process), target, tol)


def _model_process(system_dim: int, outcomes, interaction) -> MeasurementProcess:
    """A model process built without running the MeasurementProcess checks.

    Only for the constructive models below, whose interaction on system x
    apparatus is unitary by construction: the apparatus has one pointer
    level per outcome, starts in level 0 and is read by the pointer meter.
    """
    n = len(outcomes)
    basis = np.eye(n, dtype=complex)
    projectors = np.einsum("ja,jb->jab", basis, basis)  # [j] = |j><j|
    process = object.__new__(MeasurementProcess)
    object.__setattr__(process, "system_dim", system_dim)
    object.__setattr__(process, "apparatus_dim", n)
    object.__setattr__(process, "apparatus_state", _frozen(basis[0]))
    object.__setattr__(process, "interaction", _frozen(interaction))
    object.__setattr__(process, "meter", _derived(Pvm, outcomes, projectors, n))
    return process


def von_neumann_model(target: Pvm) -> MeasurementProcess:
    """Pointer model realizing an accurate observable.

    The apparatus is one pointer level per outcome, started in level 0; the
    interaction shifts the pointer by j on the eigenspace of the j-th
    outcome (a unitary, since the eigenspace projectors are orthogonal and
    complete). U = sum_j P_j x S^j is one einsum over the stacked projectors
    and shifts. The process is derived and trusted; it induces the target exactly.
    """
    n = len(target.outcomes)
    total = target.dim * n
    _check_dim(total)
    levels = np.arange(n)
    shifts = np.eye(n, dtype=complex)[(levels - levels[:, None]) % n]  # [j] = roll(I, j)
    u = np.einsum("jik,jab->iakb", np.array(target.projectors), shifts, order="C")
    return _model_process(target.dim, target.outcomes, u.reshape(total, total))


def dilation_model(povm: Povm) -> MeasurementProcess:
    """Measuring process realizing an arbitrary generalized observable.

    With the apparatus index slow, the isometry V = sum_j sqrt(Pi(x_j)) x |j>
    (an isometry because the effects resolve the identity) splits into
    A = sqrt(Pi(x_0)) on pointer level 0 and the stacked roots B on the
    others. It is completed in closed form to the unitary

        U = [[A, -B^dag], [B, I - B (I + A)^-1 B^dag]],

    which is unitary because A >= 0 and A^2 + B^dag B = I. The completion
    is covariant: the POVM W Pi W^dag dilates to (W x I) U (W^dag x I), so
    dilations of commuting effects have commuting meters in every basis.
    The induced POVM equals the input POVM whatever the completion. The
    checked effects' roots take one stacked eigh; the process is derived and trusted.
    """
    n = len(povm.outcomes)
    d_sys = povm.dim
    total = d_sys * n
    _check_dim(total)
    roots = _psd_roots(np.array(povm.effects))
    a = roots[0]
    b = roots[1:].reshape(-1, d_sys)
    b_dag = b.conj().T
    u = np.empty((total, total), dtype=complex)
    u[:d_sys, :d_sys], u[:d_sys, d_sys:], u[d_sys:, :d_sys] = a, -b_dag, b
    u[d_sys:, d_sys:] = np.eye(total - d_sys) - b @ np.linalg.solve(np.eye(d_sys) + a, b_dag)
    # apparatus-major (j, i) rows and columns to the system-major (i, j) of H x K
    u = u.reshape(n, d_sys, n, d_sys).transpose(1, 0, 3, 2).reshape(total, total)
    return _model_process(d_sys, povm.outcomes, u)
