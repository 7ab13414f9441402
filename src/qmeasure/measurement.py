"""Indirect measurement scheme: processes, meter evolution, induced POVMs.

A measuring process is the quadruple (apparatus space, apparatus state,
interaction unitary, meter PVM). Conjugating the embedded meter with the
interaction gives the evolved meter E(x) on system x apparatus. What the
process does on the system is its instrument: the Kraus rows
K_x = (I x W_x^dag) U (I x xi), W_x an orthonormal basis of the meter
projector's range, and the effects Pi(x) = K_x^dag K_x = <xi|E(x)|xi> of
the POVM it induces. Every process records its instrument once, when it is
built. Constructive models are provided in both directions: a pointer model
realizing any accurate observable, and a dilation model realizing any
generalized observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

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
from .observables import Povm, Pvm, _derived, _label_pairs, _trusted

REPRO_TOL = 1e-9  # default reproducibility decision tolerance


class _Instrument(NamedTuple):
    """A process's instrument on H for each point of a stack, recorded when it is built.

    effects (m, n, d, d) are the POVMs the processes induce, meter their
    meter and build the builder of their (m, D, D) interaction stack; a
    process records a one-point stack (m = 1). Only a model records roots,
    its Kraus rows R_x = sqrt(Pi(x)), the blocks each interaction is made
    of, and factors, the number of roots (or (I + R_0)^-1 factors) a block of
    an evolved meter is a product of: 1 for a pointer model, whose roots are
    its projectors (sqrt(P) = P), and 6 for a dilation (see dilation_model).
    A process the checking constructor builds has neither.
    """

    effects: np.ndarray
    meter: Pvm
    build: Callable[[], np.ndarray]
    roots: np.ndarray | None = None
    factors: int | None = None


@dataclass(frozen=True, eq=False)
class MeasurementProcess:
    """The measuring-process quadruple with an explicit system dimension.

    The checking constructor checks every field, freezes a copy of each
    array and records the process's _Instrument from its Kraus rows (see
    _kraus_effects); dataclasses.replace runs it too. A model process is
    built trusted, unitary by construction on the _pointer apparatus, with
    the instrument recorded when the model is built. It starts without its
    interaction: the instrument holds its builder, and the interaction is
    built and frozen on the first read of process.interaction (a pair
    decided on H never reads it); later reads return that same array. repr
    leaves the interaction out, so it builds nothing.
    """

    system_dim: int
    apparatus_dim: int
    apparatus_state: np.ndarray
    interaction: np.ndarray = field(repr=False)
    meter: Pvm
    _instrument: _Instrument = field(init=False, repr=False)

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: a model process's unread interaction
        instrument = self.__dict__.get("_instrument")
        if name != "interaction" or instrument is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        u = _frozen(instrument.build().reshape(self.total_dim, self.total_dim))
        object.__setattr__(self, "interaction", u)
        return u

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
        xi, u = _frozen(xi.copy()), _frozen(u.copy())
        effects = _frozen(_kraus_effects(u, xi, self.meter, system_dim)[None])
        object.__setattr__(self, "system_dim", system_dim)
        object.__setattr__(self, "apparatus_dim", apparatus_dim)
        object.__setattr__(self, "apparatus_state", xi)
        object.__setattr__(self, "interaction", u)
        object.__setattr__(self, "_instrument",
                           _Instrument(effects, self.meter, partial(np.expand_dims, u, 0)))

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


def _kraus_effects(u: np.ndarray, xi: np.ndarray, meter: Pvm, system_dim: int) -> np.ndarray:
    """The (n, d, d) effects Pi(x) = K_x^dag K_x of the Kraus rows K_x = (I x W_x^dag) U (I x xi).

    W_x is an orthonormal basis of the meter projector E_M(x)'s range, so
    W_x W_x^dag = E_M(x) and Pi(x) = V^dag (I x E_M(x)) V, V = U (I x xi)
    the (D, d) isometry of U's columns contracted with xi: the pinch
    <xi|E(x)|xi> of the evolved meter. Every outcome's effect comes from the
    same two products, and no W_x is formed. Returned Hermitised.
    """
    d, k = system_dim, xi.shape[0]
    v = u.reshape(d, k, d, k) @ xi  # [i, a, j] = <i a|U|j xi>
    metered = (np.array(meter.projectors)[:, None] @ v).reshape(-1, d * k, d)
    effects = v.reshape(d * k, d).conj().T @ metered
    return (effects + effects.conj().swapaxes(1, 2)) / 2


def _evolved_meters(interactions: np.ndarray, meter: Pvm, system_dim: int) -> np.ndarray:
    """E(x) = U^dag (I x E_M(x)) U for each U of an (m, D, D) interaction stack.

    Returned as an (m, n, D, D) stack, one meter projector per outcome. With
    the columns of W_x an orthonormal basis of E_M(x)'s range (its
    eigenvectors of eigenvalue above 1/2, from one stacked eigh of the meter,
    taken once for the whole stack), I x E_M(x) = (I x W_x)(I x W_x^dag), so
    E(x) = G^dag G with G = (I x W_x^dag) U, one (d rank_x) x D slice of U's
    rows per outcome; no D x D operator on the apparatus side is built.
    """
    m, total, _ = interactions.shape
    rows = interactions.reshape(m, system_dim, -1, total)  # [., i, a, :] = row (i, a) of U
    values, vectors = np.linalg.eigh(np.array(meter.projectors))
    evolved = np.empty((m, len(values), total, total), dtype=complex)
    for x, (w, vecs) in enumerate(zip(values, vectors)):
        g = np.einsum("ar,miaz->mirz", vecs[:, w > 0.5].conj(), rows).reshape(m, -1, total)
        e = g.conj().swapaxes(1, 2) @ g
        np.divide(e + e.conj().swapaxes(1, 2), 2, out=evolved[:, x])
    return evolved


def induced_povm(process: MeasurementProcess) -> Povm:
    """System-side POVM Pi(x) = <xi|E_evolved(x)|xi>, the process's recorded effects; trusted."""
    return _derived(Povm, process.meter.outcomes, process._instrument.effects[0],
                    process.system_dim)


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
    induced = induced_povm(process)
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


def _pointer(outcomes):
    """The model apparatus: its start state, level 0, and its pointer meter, one level per outcome."""
    n = len(outcomes)
    basis = np.eye(n, dtype=complex)
    projectors = np.einsum("ja,jb->jab", basis, basis)  # [j] = |j><j|
    return _frozen(basis[0]), _derived(Pvm, outcomes, projectors, n)


def _pointer_unitaries(projectors: np.ndarray) -> np.ndarray:
    """von_neumann_model's interaction for each PVM of an (m, n, d, d) projector stack.

    U = sum_j P_j x S^j, with S the cyclic shift of the n pointer levels, has
    the block P_((a - b) mod n) at pointer levels (a, b): one gather of the
    projectors, as an (m, d n, d n) stack. Adding 0.0 turns -0.0 into 0.0,
    as summing the Kronecker terms does.
    """
    m, n, d, _ = projectors.shape
    levels = np.arange(n)
    blocks = (projectors + 0.0)[:, (levels[:, None] - levels) % n]  # [., a, b] = P_((a - b) mod n)
    return blocks.transpose(0, 3, 1, 4, 2).reshape(m, d * n, d * n)


def von_neumann_model(target: Pvm) -> MeasurementProcess:
    """Pointer model realizing an accurate observable.

    The apparatus is one pointer level per outcome, started in level 0; the
    interaction shifts the pointer by j on the eigenspace of the j-th
    outcome (a unitary, since the eigenspace projectors are orthogonal and
    complete), built by _pointer_unitaries on first read. The process is
    derived and trusted. It induces the target exactly; its recorded
    instrument has the projectors as effects and as roots, since each block
    of its evolved meter is one projector: E(x)[a, c] = delta_ac P_(x-a).
    """
    _check_dim(target.dim * len(target.outcomes))
    stacked = _frozen(np.array(target.projectors))[None]
    xi, meter = _pointer(target.outcomes)
    instrument = _Instrument(stacked, meter, partial(_pointer_unitaries, stacked), stacked, 1)
    return _trusted(MeasurementProcess, system_dim=target.dim, apparatus_dim=meter.dim,
                    apparatus_state=xi, meter=meter, _instrument=instrument)


def _dilation_unitaries(roots: np.ndarray) -> np.ndarray:
    """dilation_model's interaction for each POVM of an (m, n, d, d) stack of effect roots.

    The completion is one stacked solve and product. Returned as an
    (m, d n, d n) stack.
    """
    m, n, d, _ = roots.shape
    total = d * n
    a = roots[:, 0]
    b = roots[:, 1:].reshape(m, -1, d)
    b_dag = b.conj().swapaxes(1, 2)
    u = np.empty((m, total, total), dtype=complex)
    u[:, :d, :d], u[:, :d, d:], u[:, d:, :d] = a, -b_dag, b
    u[:, d:, d:] = np.eye(total - d) - b @ np.linalg.solve(np.eye(d) + a, b_dag)
    # apparatus-major (j, i) rows and columns to the system-major (i, j) of H x K
    return u.reshape(m, n, d, n, d).transpose(0, 2, 1, 4, 3).reshape(m, total, total)


def _dilation_stack(effects: np.ndarray, meter: Pvm) -> _Instrument:
    """The _Instrument of dilations of an (m, n, d, d) effect stack on the pointer meter.

    Every effect's root comes from one _psd_roots call; the roots are both
    recorded and the arguments of the _dilation_unitaries builder.
    """
    roots = _frozen(_psd_roots(effects.reshape(-1, *effects.shape[2:])).reshape(effects.shape))
    # E(x)[a, c] = U_xa^dag U_xc, each U block a product of up to 3 roots or C
    return _Instrument(effects, meter, partial(_dilation_unitaries, roots), roots, 6)


def dilation_model(povm: Povm) -> MeasurementProcess:
    """Measuring process realizing an arbitrary generalized observable.

    With the apparatus index slow, the isometry V = sum_j sqrt(Pi(x_j)) x |j>
    (an isometry because the effects resolve the identity) splits into
    A = sqrt(Pi(x_0)) on pointer level 0 and the stacked roots B on the
    others. It is completed in closed form to the unitary

        U = [[A, -B^dag], [B, I - B (I + A)^-1 B^dag]],

    which is unitary because A >= 0 and A^2 + B^dag B = I. The induced POVM
    equals the input POVM whatever the completion. It is the one-POVM case
    of _dilation_unitaries, built on first read; the process is derived and
    trusted, and records the POVM's effects and their roots R_x as its
    instrument.

    The completion is covariant, and more: with C = (I + R_0)^-1 and the
    apparatus index slow, every block of U is R_0, -R_c, R_x or
    delta_xc I - R_x C R_c, each of norm at most 1, and a block of an evolved
    meter is E(x)[a, c] = U_xa^dag U_xc, a product of at most 6 roots or C.
    Since [C, S] = C [S, R_0] C, Leibniz's rule bounds every commutator of
    two such processes' meter blocks by c1 c2 max_xy ||[R1_x, R2_y]||_F,
    with c = 6 for a dilation and 1 for a pointer model (whose blocks are
    its projectors). Dilations of commuting effects therefore have commuting
    meters in every basis, and nearly commuting effects nearly commuting
    meters: the bound is linear in the roots' commutators.
    """
    _check_dim(povm.dim * len(povm.outcomes))
    xi, meter = _pointer(povm.outcomes)
    effects = _frozen(np.array(povm.effects))[None]
    return _trusted(MeasurementProcess, system_dim=povm.dim, apparatus_dim=meter.dim,
                    apparatus_state=xi, meter=meter, _instrument=_dilation_stack(effects, meter))
