"""Two-observer joint local measurements and outcome agreement.

Two measuring processes that share the system are composed on
H x K1 x K2. Each meter is evolved by its own process's interaction and
kept on its own factor, H x K1 or H x K2; nothing on the whole compound
space is ever built. The scenario is local when every pair of evolved meter
projectors, each extended by the identity on the other apparatus, commutes:
its commutator_bound, else the exact max_commutator_norm, is within the
commutation tolerance, which compose takes and the scenario keeps.
Every other number lives on H: for Psi = psi x xi1 x xi2, contracting the
apparatus factors gives <Psi| E1(x) E2(y) |Psi> = <psi| Pi1(x) Pi2(y) |psi>
for any two processes, Pi1 and Pi2 the effects they induce (Ozawa,
arXiv:1911.10893), one stacked pinch of each side's evolved meters. For
local scenarios that joint table is a probability, and when both processes
reproduce the same accurate observable, both observers read the same
outcome with probability one. For noisy observables the agreement drops
below one; a seeded sampler draws outcome pairs from the joint table.
verify_oit and the sampler both return the table they used.

Of the three tolerances a scenario sets, commutation is given to compose;
reproducibility and oit are parameters of verify_oit. The other rules are
the ones observables keeps: two labels agree when observables._label_pairs
pairs them (one to one, within LABEL_TOL), and a joint table is a
probability within PROB_TOL; a table that is not means the meters do not
commute on this state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    NonCommutingMetersError,
    PreconditionError,
    ValidationError,
)
from .linalg import _check_dim, _frozen, as_state, max_abs
from .measurement import (
    REPRO_TOL,
    MeasurementProcess,
    _compare,
    _evolved_meters,
    _model_process,
    _pinch,
    _pointer,
)
from .observables import PROB_TOL, Povm, Pvm, _checked_probabilities, _derived, _label_pairs
from .serialize import _is_count

COMMUTATION_TOL = 1e-8  # default locality decision tolerance
OIT_TOL = 1e-9          # default intersubjectivity decision tolerance
SAMPLE_CHUNK = 2**16    # draws held at once by sample_outcomes
SPAN_QR_MIN_COLS = 25   # narrowest block stack whose svd _block_span takes after a qr


@dataclass(frozen=True, eq=False)
class JointScenario:
    """A system state with two measuring processes composed on H x K1 x K2.

    evolved1 is process1's evolved meter on H x K1 and evolved2 is
    process2's on H x K2, as evolve_meter returns them. commuting is the one
    locality verdict, made with the commutation_tol compose was given.
    _effects is both sides' (1, n, d, d) induced effects on H, which every
    joint table reads; compose passes them and dataclasses.replace copies them.
    """

    psi: np.ndarray
    process1: MeasurementProcess
    process2: MeasurementProcess
    evolved1: Pvm
    evolved2: Pvm
    commutator_bound: float
    commutation_tol: float
    _effects: tuple = field(repr=False)

    @property
    def total_dim(self) -> int:
        return self.process1.total_dim * self.process2.apparatus_dim

    @cached_property
    def max_commutator_norm(self) -> float:
        """Largest entry of any commutator of evolved meter projectors on H x K1 x K2."""
        d_sys = self.psi.shape[0]
        blocks1 = _blocks(np.array(self.evolved1.projectors), d_sys)
        blocks2 = _blocks(np.array(self.evolved2.projectors), d_sys)
        worst = 0.0
        for a in blocks1:
            for b in blocks2:
                ab = np.tensordot(a, b, axes=(2, 1))  # [p, i, q, j] = (a[p] b[q])[i, j]
                ba = np.tensordot(b, a, axes=(2, 1))  # [q, i, p, j] = (b[q] a[p])[i, j]
                worst = max(worst, max_abs(ab - ba.transpose(2, 1, 0, 3)))
        return worst

    @property
    def locality_value(self) -> float:
        """commutator_bound if within commutation_tol, else the exact max_commutator_norm."""
        bound = self.commutator_bound
        return bound if bound <= self.commutation_tol else self.max_commutator_norm

    @property
    def commuting(self) -> bool:
        """Locality: whether the evolved meters commute within commutation_tol."""
        return bool(self.locality_value <= self.commutation_tol)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint probability table over both observers' outcome labels."""

    outcomes1: tuple
    outcomes2: tuple
    probabilities: np.ndarray

    def __post_init__(self):
        o1 = tuple(float(x) for x in self.outcomes1)
        o2 = tuple(float(x) for x in self.outcomes2)
        table = np.asarray(self.probabilities, dtype=float)
        if table.shape != (len(o1), len(o2)):
            raise DimensionError(
                f"joint table shape {table.shape} does not match outcome counts "
                f"({len(o1)}, {len(o2)})"
            )
        table = _checked_probabilities(table, "joint ")
        object.__setattr__(self, "outcomes1", o1)
        object.__setattr__(self, "outcomes2", o2)
        object.__setattr__(self, "probabilities", _frozen(table))

    def marginal1(self) -> np.ndarray:
        return self.probabilities.sum(axis=1)

    def marginal2(self) -> np.ndarray:
        return self.probabilities.sum(axis=0)


@dataclass(frozen=True, eq=False)
class OitReport:
    """Agreement diagnostics for a joint measurement of one accurate observable."""

    off_diagonal_mass: float
    diagonal: dict
    expected_diagonal: dict
    max_diagonal_deviation: float
    intersubjective: bool
    tolerance: float
    joint: JointDistribution  # the table the verdict was computed from


@dataclass(frozen=True, eq=False)
class SampleResult:
    """Outcome counts drawn from a joint table plus their empirical distribution."""

    counts: np.ndarray
    empirical: JointDistribution
    seed: int
    analytic: JointDistribution  # the table the counts were drawn from


def compose(psi, process1: MeasurementProcess, process2: MeasurementProcess,
            commutation_tol: float = COMMUTATION_TOL) -> JointScenario:
    """Compose two processes sharing the system into one scenario on H x K1 x K2.

    Process1's interaction acts on H and K1, process2's on H and K2. Each
    meter is evolved by its own interaction and kept on its own factor; when
    process2 is process1 it is evolved once and both sides share it. A
    compound dimension over linalg.MAX_DIM raises DimensionError before
    either meter is evolved.

    The scenario keeps commutation_tol and decides JointScenario.commuting
    with it, the verdict every consumer reads; commutator_bound (see
    _span_bounds) decides it whenever the bound is within the tolerance.
    Meters, effects and bound come from _pair_kernel, as in the eta sweep.
    """
    psi = as_state(psi)
    d_sys = psi.shape[0]
    if process1.system_dim != d_sys or process2.system_dim != d_sys:
        raise DimensionError(
            f"processes act on system dims {process1.system_dim} and "
            f"{process2.system_dim}, state has dim {d_sys}"
        )
    _check_dim(process1.total_dim * process2.apparatus_dim)
    side1 = (process1.interaction[None], process1.meter, process1.apparatus_state)
    side2 = side1 if process2 is process1 else (
        process2.interaction[None], process2.meter, process2.apparatus_state)
    e1, e2, f1, f2, bounds = _pair_kernel(side1, side2, d_sys)
    evolved1 = _derived(Pvm, process1.meter.outcomes, e1[0], process1.total_dim)
    return JointScenario(
        psi=_frozen(psi.copy()),
        process1=process1,
        process2=process2,
        evolved1=evolved1,
        evolved2=(evolved1 if e2 is e1
                  else _derived(Pvm, process2.meter.outcomes, e2[0], process2.total_dim)),
        commutator_bound=float(bounds[0]),
        commutation_tol=commutation_tol,
        _effects=(f1, f2),
    )


def _pair_kernel(side1: tuple, side2: tuple, d_sys: int) -> tuple:
    """Evolved meters e1, e2 (m, n, D, D), effects f1, f2 (m, n, d, d) and (m,) span bounds.

    A side is an (m, D, D) interaction stack, its meter and its apparatus
    state. The stages run in compose's order: _evolved_meters, _span_bounds,
    _pinch. side2 is side1 for a process both observers share, whose meters
    are then evolved, spanned and pinched once: e2 is e1 and f2 is f1.
    """
    sides = (side1,) if side2 is side1 else (side1, side2)
    evolved = [_evolved_meters(interactions, meter, d_sys) for interactions, meter, _ in sides]
    bounds = _span_bounds(evolved[0], evolved[-1], d_sys)
    effects = [_pinch(e, xi) for e, (_, _, xi) in zip(evolved, sides)]
    return evolved[0], evolved[-1], effects[0], effects[-1], bounds


def _span_bounds(e1: np.ndarray, e2: np.ndarray, d_sys: int) -> np.ndarray:
    """compose's commutator_bound for each pair of two (m, n, D, D) evolved-meter stacks.

    With each side's blocks (see _blocks) stacked as the rows of X = U S Q
    and Y = V T R (SVDs), sum_kl ||[X_k, Y_l]||_F^2 = sum_ij s_i^2 t_j^2
    ||[Q_i, R_j]||_F^2. U and V are never used, so one stacked svd per side
    (see _block_span) keeps the components above numpy's rank tolerance, and
    each kept [Q_i, R_j] is formed directly. Every ||[Q_i, R_j]||_F is at
    most 2, so the dropped components, of squared mass S_drop and T_drop,
    add at most 4 (S_drop (T_kept + T_drop) + S_kept T_drop) to the sum;
    that term is added, so the bound holds whatever was dropped. A pointer
    model's blocks span d of the d^2 directions, so its tensor has d^4
    entries, not d^6. The square root plus 4 (d + 1) eps (above the exact
    loop's rounding) bounds max_commutator_norm. e2 is e1 when both sides
    share their meters, and then its span and products are reused.
    """
    s, q, s_drop = _block_span(e1, d_sys)
    if e2 is e1:
        t, r, t_drop = s, q, s_drop
    else:
        t, r, t_drop = _block_span(e2, d_sys)
    qr = _pair_products(q, r)  # [., i, a, j, c] = (q[i] r[j])[a, c]
    # [., j, a, i, c] = (r[j] q[i])[a, c], which is qr itself when r is q
    rq = qr if e2 is e1 else _pair_products(r, q)
    comm = qr - rq.transpose(0, 3, 2, 1, 4)  # [., i, a, j, c] = [q[i], r[j]][a, c]
    s2, t2 = s**2, t**2
    squared = (s2[:, None] @ (comm.real**2 + comm.imag**2).sum(axis=(2, 4))
               @ t2[:, :, None])[:, 0, 0]
    squared += 4 * (s_drop * (t2.sum(axis=1) + t_drop) + s2.sum(axis=1) * t_drop)
    return np.sqrt(squared) + 4 * (d_sys + 1) * np.finfo(float).eps


def _pair_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[., i, a, j, c] = (x[i] y[j])[a, c] for (m, kx, d, d) and (m, ky, d, d) stacks.

    One product per stack entry, as np.tensordot(x[.], y[.], axes=(2, 1)) forms it.
    """
    m, kx, d, _ = x.shape
    ky = y.shape[1]
    xy = x.reshape(m, kx * d, d) @ y.transpose(0, 2, 1, 3).reshape(m, d, ky * d)
    return xy.reshape(m, kx, d, ky, d)


def _block_span(evolved: np.ndarray, d_sys: int):
    """The span of each meter's blocks stacked, for an (m, n, D, D) stack of evolved meters.

    Per meter, the blocks of all n projectors (see _blocks) are the rows of
    one (n k^2) x d_sys^2 matrix X. When X has at least twice as many rows
    as columns and at least SPAN_QR_MIN_COLS columns (d_sys >= 5), one
    stacked qr takes the square R of X = Q_X R first, and the stacked svd
    runs on R: R has X's singular values and right singular vectors, the
    only parts of the svd used, and the tall left factor is never formed.
    LAPACK's svd reduces such a tall matrix by the same QR itself, so s and
    Q come out bit for bit as a direct svd gives them. Other stacks go to
    svd directly: closer to square, or narrower, the qr costs more than it
    saves (at 50 x 36 and at 27 x 9 alike).
    Returns the singular values s (m, r), their right singular vectors Q as
    (m, r, d_sys, d_sys) and the dropped squared mass (m,). Only the
    components above numpy's rank tolerance for X's own shape,
    s_max * max(rows, d_sys^2) * eps of each matrix, are kept: r is the
    largest kept count in the stack, and a matrix's singular values past its
    own count are set to 0, their squared mass added to its dropped mass.
    So for m = 1 nothing is masked.
    """
    m, n, total, _ = evolved.shape
    stacked = _blocks(evolved.reshape(m * n, total, total), d_sys).reshape(m, -1, d_sys * d_sys)
    rows, cols = stacked.shape[1:]
    tall = rows >= 2 * cols and cols >= SPAN_QR_MIN_COLS
    square = np.linalg.qr(stacked, mode="r") if tall else stacked
    _, s, q = np.linalg.svd(square, full_matrices=False)
    keep = s > s[:, :1] * max(rows, cols) * np.finfo(float).eps
    top = keep.sum(axis=1).max()
    masked = s[:, :top] * ~keep[:, :top]
    dropped = (s[:, top:] ** 2).sum(axis=1) + (masked**2).sum(axis=1)
    return s[:, :top] - masked, q[:, :top].reshape(m, top, d_sys, d_sys), dropped


def _blocks(projectors: np.ndarray, d_sys: int) -> np.ndarray:
    """The d_sys x d_sys blocks E[a, c] of E = sum_ac E[a, c] x |a><c| on H x K.

    For an (N, D, D) stack of such operators, returned as an
    (N, k*k, d_sys, d_sys) stack. The commutator of E1 x I_K2 and
    E2 x I_K1 on H x K1 x K2 is sum [E1[a, c], E2[b, e]] x |a><c| x |b><e|,
    so its largest entry is the largest entry of the block commutators.
    """
    count, total, _ = projectors.shape
    k = total // d_sys
    blocks = projectors.reshape(count, d_sys, k, d_sys, k).transpose(0, 2, 4, 1, 3)
    return blocks.reshape(count, k * k, d_sys, d_sys)


def joint_distribution(scenario: JointScenario) -> JointDistribution:
    """Joint table P(x, y) = <Psi| E1(x) E2(y) |Psi> for a local scenario.

    Computed on H as <psi| Pi1(x) Pi2(y) |psi>, one (n1, d) x (d, n2)
    product of the induced effects. Raises NonCommutingMetersError when the
    scenario is not commuting; the product of non-commuting projectors is
    not a probability. It is raised too when the table is not a probability
    within PROB_TOL, an imaginary residue or an entry below -PROB_TOL: since
    Im P(x, y) = <Psi|[E1(x), E2(y)]|Psi> / 2i and commuting projectors give
    P >= 0, either means the meters do not commute on this state.
    """
    _require_commuting(scenario)
    table = _probability_table(_tables(scenario.psi, *scenario._effects)[0])
    return JointDistribution(scenario.evolved1.outcomes, scenario.evolved2.outcomes, table)


def _require_commuting(scenario: JointScenario) -> None:
    if not scenario.commuting:
        raise NonCommutingMetersError(
            f"evolved meters do not commute (max commutator norm "
            f"{scenario.locality_value:.3e} > {scenario.commutation_tol})"
        )


def _tables(psi: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Complex tables <psi| Pi1(x) Pi2(y) |psi>, (m, n1, n2), of two (m, n, d, d) effect stacks."""
    return (f1 @ psi).conj() @ (f2 @ psi).swapaxes(1, 2)


def _probability_table(table: np.ndarray) -> np.ndarray:
    """The real part of a complex joint table that is a probability within PROB_TOL.

    An imaginary residue or an entry below -PROB_TOL raises NonCommutingMetersError.
    """
    residue = max_abs(table.imag)
    lowest = float(table.real.min())
    if residue > PROB_TOL or lowest < -PROB_TOL:
        raise NonCommutingMetersError(
            f"evolved meters do not commute on this state: the joint table has "
            f"imaginary residue {residue:.3e} and lowest entry {lowest:.3e}, "
            f"beyond {PROB_TOL}"
        )
    return table.real


def _model_distributions(psi: np.ndarray, outcomes, interactions1: np.ndarray,
                         interactions2: np.ndarray, commutation_tol: float) -> list:
    """joint_distribution of a model pair at each point of two (m, D, D) interaction stacks.

    Both sides are model processes on measurement._pointer's apparatus for
    outcomes, and interactions2 is interactions1 when both sides share one
    process. compose's _pair_kernel and joint_distribution's _tables each
    run once on the whole stack. The checks then run point by point, in
    compose and joint_distribution's order, so the first failing point
    raises their error: a bound above commutation_tol leaves locality to
    the point's own compose (its exact max_commutator_norm), then the table
    must pass _probability_table and JointDistribution.
    """
    d_sys = psi.shape[0]
    xi, meter = _pointer(outcomes)
    shared = interactions2 is interactions1
    side1 = (interactions1, meter, xi)
    side2 = side1 if shared else (interactions2, meter, xi)
    _, _, f1, f2, bounds = _pair_kernel(side1, side2, d_sys)
    dists = []
    for k, table in enumerate(_tables(psi, f1, f2)):
        if not bounds[k] <= commutation_tol:
            p1 = _model_process(d_sys, outcomes, interactions1[k])
            p2 = p1 if shared else _model_process(d_sys, outcomes, interactions2[k])
            _require_commuting(compose(psi, p1, p2, commutation_tol))
        dists.append(JointDistribution(outcomes, outcomes, _probability_table(table)))
    return dists


def table_agreement(dist: JointDistribution) -> float:
    """Total mass on the cells of a joint table whose labels observables._label_pairs pairs."""
    pairs = _label_pairs(dist.outcomes1, dist.outcomes2)
    return float(sum(dist.probabilities[i, j] for i, j in pairs))


def agreement_probability(scenario: JointScenario) -> float:
    """Probability that both observers read the same outcome label."""
    return table_agreement(joint_distribution(scenario))


def verify_oit(
    scenario: JointScenario,
    observable: Pvm,
    tol: float = OIT_TOL,
    reproducibility_tol: float = REPRO_TOL,
) -> OitReport:
    """Check that joint accurate measurements of one observable always agree.

    Both processes must reproduce the observable's statistics (their induced
    POVMs must equal its PVM within reproducibility_tol; a process shared by
    both sides is checked once); otherwise PreconditionError is raised and
    agreement_probability is the meaningful quantity instead. The scenario
    must be commuting, by the verdict made with the commutation_tol compose
    was given, or NonCommutingMetersError is raised. The report compares
    the joint table against the ideal, zero off-diagonal mass and diagonal
    P(x, x) = ||E(x) psi||^2, and is intersubjective when both deviations
    are at most tol. Labels are paired by observables._label_pairs, as in
    table_agreement and the reproducibility check: the diagonal cells are
    the pairs of the table's two label sequences, and each is keyed by the
    observable label its row pairs with.
    """
    f1, f2 = scenario._effects
    sides = [("process1", scenario.process1, f1), ("process2", scenario.process2, f2)]
    for name, process, effects in sides[:1] if f2 is f1 else sides:
        induced = _derived(Povm, process.meter.outcomes, effects[0], process.system_dim)
        report = _compare(induced, observable, reproducibility_tol)
        if not report.reproducible:
            raise PreconditionError(
                f"{name} does not reproduce the observable's statistics "
                f"(max operator deviation {report.max_operator_deviation:.3e}); "
                f"use agreement_probability for noisy observables"
            )
    dist = joint_distribution(scenario)
    expected = {x: float(np.linalg.norm(proj @ scenario.psi) ** 2)
                for x, proj in zip(observable.outcomes, observable.projectors)}
    row_label = dict(_label_pairs(dist.outcomes1, observable.outcomes))
    diagonal = {}
    for i, j in _label_pairs(dist.outcomes1, dist.outcomes2):
        key = observable.outcomes[row_label[i]] if i in row_label else dist.outcomes1[i]
        diagonal[key] = float(dist.probabilities[i, j])
    off_diagonal_mass = float(dist.probabilities.sum() - sum(diagonal.values()))
    worst = max(abs(diagonal.get(x, 0.0) - expected.get(x, 0.0))
                for x in set(expected) | set(diagonal))
    return OitReport(
        off_diagonal_mass=off_diagonal_mass,
        diagonal=diagonal,
        expected_diagonal=expected,
        max_diagonal_deviation=worst,
        intersubjective=(off_diagonal_mass <= tol and worst <= tol),
        tolerance=float(tol),
        joint=dist,
    )


def sample_outcomes(scenario: JointScenario, n: int, seed: int) -> SampleResult:
    """Draw n i.i.d. outcome pairs from joint_distribution's table.

    Sampling is inverse-CDF over the lexicographically ordered (x, y) cells
    using numpy's seeded default generator, so a fixed seed reproduces the
    exact sequence. A draw u lands in the first cell whose CDF exceeds u
    (the last cell if none does). Draws are counted, not looked up one at a
    time: each chunk of SAMPLE_CHUNK draws is sorted, and one searchsorted
    of the inner CDF edges into it counts the draws below each edge. The
    table is clamped to be non-negative, so the CDF never decreases and cell
    j holds exactly (draws below edge j) - (draws below edge j-1): the counts
    equal a per-draw lookup's. The generator yields the same stream in
    chunks as in one call, so the counts do not depend on the chunk size,
    and memory is bounded by the chunk, not by n. Cells with zero analytic
    probability are never drawn. A scenario that is not commuting raises
    NonCommutingMetersError, as in joint_distribution.
    """
    if not _is_count(n):
        raise ValidationError(f"sample count must be an integer >= 1, got {n!r}")
    n = int(n)
    dist = joint_distribution(scenario)
    edges = np.cumsum(dist.probabilities.ravel())[:-1]
    rng = np.random.default_rng(seed)
    below = np.zeros(edges.size, dtype=np.int64)
    for start in range(0, n, SAMPLE_CHUNK):
        chunk = rng.random(min(SAMPLE_CHUNK, n - start))
        chunk.sort()
        below += np.searchsorted(chunk, edges, side="left")
    counts = np.diff(np.concatenate(([0], below, [n]))).reshape(dist.probabilities.shape)
    empirical = JointDistribution(dist.outcomes1, dist.outcomes2, counts / n)
    return SampleResult(
        counts=_frozen(counts),
        empirical=empirical,
        seed=int(seed),
        analytic=dist,
    )
