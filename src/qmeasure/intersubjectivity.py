"""Two-observer joint local measurements and outcome agreement.

Two measuring processes that share the system are composed on H x K1 x K2.
The scenario is local when every pair of evolved meter projectors, each
extended by the identity on the other apparatus, commutes: its
commutator_bound, else the exact max_commutator_norm, is within the
commutation tolerance given to compose. Every process records its
instrument on H (see measurement._Instrument): the effects Pi(x) it
induces, and for a model its Kraus roots R_x = sqrt(Pi(x)). Model pairs are
decided on H from those roots. Two pointer models' meter blocks are their
projectors P_j and Q_k, so the exact norm is max_jk |[P_j, Q_k]|. Any pair
with a dilation has its norm bounded by c1 c2 max_xy ||[R1_x, R2_y]||_F,
c = 6 for a dilation and 1 for a pointer model (see
measurement.dilation_model); when that bound is within the tolerance, the
pair is local. Any other pair (a custom process, or a model pair over its
bound) has each meter evolved by its own interaction and kept on its own
factor, H x K1 or H x K2, as a private array, only to decide locality;
nothing on the whole compound space is ever built. Every other number lives
on H: for Psi = psi x xi1 x xi2, contracting the apparatus factors gives
<Psi| E1(x) E2(y) |Psi> = <psi| Pi1(x) Pi2(y) |psi> for any two processes,
Pi1 and Pi2 the effects each records (Ozawa, arXiv:1911.10893). For local
scenarios that joint table is
a probability, and when both processes reproduce the same accurate
observable, both observers read the same outcome with probability one. For
noisy observables the agreement drops below one; a seeded sampler draws
outcome pairs from the joint table. verify_oit and the sampler both return
the table they used.

Of the three tolerances a scenario sets, commutation is given to compose;
reproducibility and oit are parameters of verify_oit. The other rules are
the ones observables keeps: two labels agree when observables._label_pairs
pairs them (one to one, within LABEL_TOL), and a joint table is a
probability within PROB_TOL, checked once per table by one stacked kernel
(_checked_tables); a table that is not means the meters do not commute.
"""

from __future__ import annotations

import math
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
    _evolved_meters,
    _Instrument,
    check_reproducibility,
)
from .observables import PROB_TOL, Pvm, _checked_probabilities, _label_pairs, _trusted
from .serialize import _is_count

COMMUTATION_TOL = 1e-8  # default locality decision tolerance
OIT_TOL = 1e-9          # default intersubjectivity decision tolerance
SAMPLE_CHUNK = 2**16    # draws held at once by sample_outcomes
SAMPLE_MAX_PASSES = 16  # most distinct CDF edges sample_outcomes counts by one compare each
SPAN_QR_MIN_COLS = 25   # narrowest block stack whose svd _block_span takes after a qr


@dataclass(frozen=True, eq=False)
class JointScenario:
    """A system state with two measuring processes composed on H x K1 x K2.

    commuting is the one locality verdict, made with the commutation_tol
    compose was given. compose passes the private _meters, which
    dataclasses.replace copies: each side's (n, D, D) evolved meter from
    measurement._evolved_meters, read only by max_commutator_norm. The
    effects on H are the ones each process records. A pair decided on H
    (see _pair_kernel) has no _meters: a pointer pair's commutator_bound is
    the exact max_commutator_norm, and any other pair's meters are evolved
    from its processes when the exact norm is first read.
    """

    psi: np.ndarray
    process1: MeasurementProcess
    process2: MeasurementProcess
    commutator_bound: float
    commutation_tol: float
    _meters: tuple = field(repr=False)

    @property
    def total_dim(self) -> int:
        return self.process1.total_dim * self.process2.apparatus_dim

    @cached_property
    def max_commutator_norm(self) -> float:
        """Largest entry of any commutator of evolved meter projectors on H x K1 x K2."""
        p1, p2, d_sys = self.process1, self.process2, self.psi.shape[0]
        meters = self._meters
        if not meters:
            if p1._instrument.factors * p2._instrument.factors == 1:
                return self.commutator_bound  # a pointer pair's bound is its exact norm
            e1 = _evolved_meters(p1.interaction[None], p1.meter, d_sys)[0]
            e2 = e1 if p2 is p1 else _evolved_meters(p2.interaction[None], p2.meter, d_sys)[0]
            meters = (e1, e2)
        return _max_commutator_norm(*meters, d_sys)

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
    process2 is process1 it is evolved once and both sides share it. Two
    model processes evolve no meter when their pair is decided on H (see
    _pair_kernel): always for two pointer models, whose commutator_bound is
    the exact norm, and for any other model pair whose bound from the Kraus
    roots is within commutation_tol. A compound dimension over
    linalg.MAX_DIM raises DimensionError first, for every pair.

    The scenario keeps commutation_tol and decides JointScenario.commuting
    with it, the verdict every consumer reads; commutator_bound (see
    _span_bounds) decides it whenever the bound is within the tolerance.
    Meters and bound come from _pair_kernel, as in the eta sweep; the
    effects on H are the ones each process records.
    """
    psi = as_state(psi)
    d_sys = psi.shape[0]
    if process1.system_dim != d_sys or process2.system_dim != d_sys:
        raise DimensionError(
            f"processes act on system dims {process1.system_dim} and "
            f"{process2.system_dim}, state has dim {d_sys}"
        )
    _check_dim(process1.total_dim * process2.apparatus_dim)
    meters, bounds = _pair_kernel(process1._instrument, process2._instrument, d_sys,
                                  commutation_tol)
    return JointScenario(
        psi=_frozen(psi.copy()),
        process1=process1,
        process2=process2,
        commutator_bound=float(bounds[0]),
        commutation_tol=commutation_tol,
        _meters=tuple(_frozen(e[0]) for e in meters),
    )


def _pair_kernel(r1: _Instrument, r2: _Instrument, d_sys: int, commutation_tol: float) -> tuple:
    """Evolved meters (e1, e2) (m, n, D, D) and (m,) bounds of two instrument stacks.

    When both instruments hold a model's roots, the whole stack is decided
    on H, with () as meters, if it is a pointer pair (its bounds are the
    exact norms) or if every bound from the roots (_instrument_bounds) is
    within commutation_tol. Otherwise the whole stack takes the compound
    path: _evolved_meters (only now is an interaction stack built), then
    _span_bounds. compose runs one point (m = 1); the eta sweep's points
    all have one bound from the roots, so no stack is split. r2 is r1 for a
    process both observers share, whose meters are then evolved and spanned
    once: e2 is e1.
    """
    if r1.roots is not None and r2.roots is not None:
        bounds = _instrument_bounds(r1, r2, d_sys)
        if r1.factors * r2.factors == 1 or (bounds <= commutation_tol).all():
            return (), bounds
    sides = (r1,) if r2 is r1 else (r1, r2)
    evolved = [_evolved_meters(r.build(), r.meter, d_sys) for r in sides]
    return (evolved[0], evolved[-1]), _span_bounds(evolved[0], evolved[-1], d_sys)


def _instrument_bounds(r1: _Instrument, r2: _Instrument, d_sys: int) -> np.ndarray:
    """(m,) upper bounds on max_commutator_norm from two stacked model instruments.

    For two pointer models it is the exact norm, the largest entry of any
    [P_j, Q_k]: a pointer meter E(x) = sum_j P_j x |s_j(x)><s_j(x)| has the
    P_j as its blocks (see _blocks). For any other model pair it is
    c1 c2 max_xy ||[R1_x, R2_y]||_F, c the sides' factors and R their roots
    (see dilation_model), plus 4 (n1 + n2) d_sys eps for the exact loop's
    rounding: on commuting meters of random model pairs the loop read below
    (n1 + n2) d_sys eps.
    [R, S] = RS - (RS)^dag for Hermitian R and S: one stacked product.
    """
    rs = r1.roots[:, :, None] @ r2.roots[:, None]
    comm = rs - rs.conj().swapaxes(3, 4)
    m, n1, n2 = comm.shape[:3]
    if r1.factors * r2.factors == 1:
        return np.abs(comm).reshape(m, -1).max(axis=1)
    squared = (comm.real**2 + comm.imag**2).sum(axis=(3, 4)).reshape(m, -1).max(axis=1)
    eps = np.finfo(float).eps
    return r1.factors * r2.factors * np.sqrt(squared) + 4 * (n1 + n2) * d_sys * eps


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


def _max_commutator_norm(e1: np.ndarray, e2: np.ndarray, d_sys: int) -> float:
    """Largest entry of any commutator of two (n, D, D) evolved-meter stacks on H x K1 x K2."""
    worst = 0.0
    for a in _blocks(e1, d_sys):
        for b in _blocks(e2, d_sys):
            ab = np.tensordot(a, b, axes=(2, 1))  # [p, i, q, j] = (a[p] b[q])[i, j]
            ba = np.tensordot(b, a, axes=(2, 1))  # [q, i, p, j] = (b[q] a[p])[i, j]
            worst = max(worst, max_abs(ab - ba.transpose(2, 1, 0, 3)))
    return worst


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
    _require_local(scenario.locality_value, scenario.commutation_tol)
    p1, p2 = scenario.process1, scenario.process2
    table = _checked_tables(_tables(scenario.psi, p1._instrument.effects,
                                    p2._instrument.effects))[0]
    return _trusted(JointDistribution, outcomes1=p1.meter.outcomes, outcomes2=p2.meter.outcomes,
                    probabilities=_frozen(table))


def _require_local(value: float, limit: float) -> None:
    if not value <= limit:
        raise NonCommutingMetersError(
            f"evolved meters do not commute (max commutator norm {value:.3e} > {limit})"
        )


def _tables(psi: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Complex tables <psi| Pi1(x) Pi2(y) |psi>, (m, n1, n2), of two (m, n, d, d) effect stacks."""
    return (f1 @ psi).conj() @ (f2 @ psi).swapaxes(1, 2)


def _checked_tables(tables: np.ndarray) -> np.ndarray:
    """The real parts of an (m, n1, n2) stack of complex joint tables, each checked once.

    An imaginary residue above PROB_TOL (or NaN) or an entry below -PROB_TOL
    raises NonCommutingMetersError (see joint_distribution); entries are clamped
    at 0; a sum off 1 by more than PROB_TOL, or NaN, raises JointDistribution's
    ValidationError. The first failing table raises.
    """
    flat = tables.reshape(-1, tables.shape[1] * tables.shape[2])
    residue = np.abs(flat.imag).max(axis=1)
    lowest = flat.real.min(axis=1)
    probs = np.maximum(flat.real, 0.0)
    totals = probs.sum(axis=1)
    skewed = ~(residue <= PROB_TOL) | (lowest < -PROB_TOL)
    failing = skewed | ~(np.abs(totals - 1.0) <= PROB_TOL)
    if failing.any():
        k = int(failing.argmax())
        if skewed[k]:
            raise NonCommutingMetersError(
                f"evolved meters do not commute on this state: the joint table has imaginary "
                f"residue {residue[k]:.3e} and lowest entry {lowest[k]:.3e}, beyond {PROB_TOL}")
        raise ValidationError(  # a Python float's repr, not numpy's np.float64(...)
            f"joint probabilities sum to {float(totals[k])!r}, not 1 within {PROB_TOL}")
    return probs.reshape(tables.shape)


def _model_agreements(psi, r1: _Instrument, r2: _Instrument, commutation_tol: float) -> np.ndarray:
    """agreement_probability of a process pair at each point of two instrument stacks.

    The instruments are _pair_kernel's (r2 is r1 for a shared process); each
    stage runs once on the whole stack. Errors come in point-by-point order:
    a bound above commutation_tol leaves locality to the exact norm of the
    point's own meters e1[k] and e2[k], once the tables before it pass. The
    sweep passes only dilation stacks, which _pair_kernel decides on H only
    when every bound is within commutation_tol, so such a point always has
    its meters.
    """
    d_sys = psi.shape[0]
    meters, bounds = _pair_kernel(r1, r2, d_sys, commutation_tol)
    tables = _tables(psi, r1.effects, r2.effects)
    for k in np.flatnonzero(~(bounds <= commutation_tol)):
        _checked_tables(tables[:k])
        _require_local(_max_commutator_norm(*(e[k] for e in meters), d_sys), commutation_tol)
    return _agreements(_checked_tables(tables), r1.meter.outcomes, r2.meter.outcomes)


def _agreements(probabilities: np.ndarray, outcomes1, outcomes2) -> np.ndarray:
    """(m,) mass on the paired cells of an (m, n1, n2) table stack, summed as Python's sum does."""
    total = np.zeros(len(probabilities))  # from 0, cell by cell in pairs order: the same bits
    for i, j in _label_pairs(outcomes1, outcomes2):
        total += probabilities[:, i, j]
    return total


def table_agreement(dist: JointDistribution) -> float:
    """Total mass on the cells of a joint table whose labels observables._label_pairs pairs."""
    return float(_agreements(dist.probabilities[None], dist.outcomes1, dist.outcomes2)[0])


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
    sides = [("process1", scenario.process1), ("process2", scenario.process2)]
    for name, process in sides[:1] if scenario.process2 is scenario.process1 else sides:
        report = check_reproducibility(process, observable, reproducibility_tol)
        if not report.reproducible:
            raise PreconditionError(
                f"{name} does not reproduce the observable's statistics "
                f"(max operator deviation {report.max_operator_deviation:.3e}); "
                f"use agreement_probability for noisy observables"
            )
    dist = joint_distribution(scenario)
    kets = np.array(observable.projectors) @ scenario.psi  # [x] = E(x) psi
    # |E(x) psi|^2 to the bit as np.linalg.norm(E(x) psi) ** 2 takes it
    expected = {x: math.sqrt(re.dot(re) + im.dot(im)) ** 2
                for x, re, im in zip(observable.outcomes, kets.real, kets.imag)}
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
    time, against each distinct inner CDF edge: a diagonal d x d table has
    d - 1 of them. For each chunk of SAMPLE_CHUNK draws, the draws below an
    edge e are np.count_nonzero(chunk < e), one compare pass per distinct
    edge; past SAMPLE_MAX_PASSES edges (below the measured crossover of
    about 24, where the passes cost more than one sort) the chunk is sorted
    and one searchsorted counts them, which gives the same number. The table
    is clamped to be non-negative, so the CDF never decreases and cell j
    holds exactly (draws below edge j) - (draws below edge j-1): the counts
    equal a per-draw lookup's. The generator yields the same stream in
    chunks as in one call, so the counts do not depend on the chunk size,
    and memory is bounded by the chunk, not by n. A one-cell table has no
    edge and draws nothing: its count is n. Cells with zero analytic
    probability are never drawn. A scenario that is not commuting raises
    NonCommutingMetersError, as in joint_distribution. n and seed follow the
    loader's rules for params.n_samples and params.seed, integers >= 1 and
    >= 0 (no bool, no float); either one off raises ValidationError before
    anything is drawn.
    """
    if not _is_count(n):
        raise ValidationError(f"sample count must be an integer >= 1, got {n!r}")
    if not _is_count(seed, 0):  # the loader's rule for params.seed
        raise ValidationError(f"sample seed must be an integer >= 0, got {seed!r}")
    n = int(n)
    dist = joint_distribution(scenario)
    edges, slot = np.unique(np.cumsum(dist.probabilities.ravel())[:-1], return_inverse=True)
    rng = np.random.default_rng(seed)
    below = np.zeros(edges.size, dtype=np.int64)
    drawn = n if edges.size else 0  # a one-cell table has no edge: every draw lands in it
    for start in range(0, drawn, SAMPLE_CHUNK):
        chunk = rng.random(min(SAMPLE_CHUNK, drawn - start))
        if edges.size > SAMPLE_MAX_PASSES:
            chunk.sort()
            below += np.searchsorted(chunk, edges, side="left")
        else:
            for k, e in enumerate(edges):
                below[k] += np.count_nonzero(chunk < e)
    counts = np.diff(np.concatenate(([0], below[slot], [n]))).reshape(dist.probabilities.shape)
    return SampleResult(
        counts=_frozen(counts),
        empirical=_trusted(JointDistribution, outcomes1=dist.outcomes1,
                           outcomes2=dist.outcomes2, probabilities=_frozen(counts / n)),
        seed=int(seed),
        analytic=dist,
    )
