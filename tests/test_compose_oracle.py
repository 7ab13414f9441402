"""Differential oracle: the factored compose against dense operators on H x K1 x K2.

compose keeps each evolved meter on its own factor, and the joint table is
computed on H from the induced effects. Here every evolved projector is
embedded into the whole compound space by kron and a permutation of the
tensor factors, and the commutator norm and the joint table are recomputed
with dense D x D products, D = d * d1 * d2. compose's commutator_bound must
lie above that norm and decide locality as it does, and the table on H must
be the dense <Psi|E1(x) E2(y)|Psi>.
"""

import collections
import contextlib
import dataclasses
import functools
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from conftest import (
    PAULI_X,
    as_custom,
    controlled_process,
    evolved_meter,
    pinched_effects,
    random_hermitian_with_outcomes,
    random_labels,
    random_povm,
    random_process,
    random_pvm,
    random_state,
    random_unitary,
    recompleted,
)
from qmeasure import (
    PAULI_Z,
    JointScenario,
    NonCommutingMetersError,
    Povm,
    Pvm,
    compose,
    dilation_model,
    induced_povm,
    intersubjectivity,
    joint_distribution,
    pvm_from_observable,
    scenario_to_json,
    unsharp_qubit_povm,
    von_neumann_model,
)
from qmeasure.cli import main
from qmeasure.intersubjectivity import COMMUTATION_TOL, SPAN_QR_MIN_COLS, _block_span

SIGMA_Z_PVM = pvm_from_observable(PAULI_Z)
SIGMA_X_PVM = pvm_from_observable(PAULI_X)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
GROUND = np.array([1, 0], dtype=complex)

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


def dense_products(psi, p1, p2):
    """[x, y] = E1(x) E2(y) on H x K1 x K2, one stacked product, and Psi = psi x xi1 x xi2."""
    d, d1, d2 = psi.shape[0], p1.apparatus_dim, p2.apparatus_dim
    e1 = np.array([dense(p, d, d1, d2, True) for p in evolved_meter(p1).projectors])
    e2 = np.array([dense(p, d, d2, d1, False) for p in evolved_meter(p2).projectors])
    state = np.kron(np.kron(psi, p1.apparatus_state), p2.apparatus_state)
    return e1[:, None] @ e2[None], state


def _table(products, state):
    return np.array([[np.vdot(state, ab @ state) for ab in row] for row in products])


def dense_table(psi, p1, p2):
    """The complex <Psi|E1(x) E2(y)|Psi>, meters commuting or not."""
    return _table(*dense_products(psi, p1, p2))


def dense_reference(psi, p1, p2):
    """The largest entry of any dense commutator [E1(x), E2(y)], and the real dense table.

    The meters are built once. They are Hermitian, so [a, b] = ab - (ab)^dag
    and every commutator comes from the one stacked product.
    """
    products, state = dense_products(psi, p1, p2)
    worst = np.max(np.abs(products - products.conj().swapaxes(2, 3)))
    return worst, _table(products, state).real


@pytest.fixture
def system_table(monkeypatch):
    """The complex table joint_distribution forms on H, taken before _checked_tables checks it.

    The scenario is composed with an infinite commutation tolerance, so a
    table is formed for non-commuting meters too.
    """
    tables, check = [], intersubjectivity._checked_tables

    def spy(stack):
        (table,) = stack
        tables.append(table)
        return check(stack)

    monkeypatch.setattr(intersubjectivity, "_checked_tables", spy)

    def table(psi, p1, p2):
        tables.clear()
        with contextlib.suppress(NonCommutingMetersError):
            joint_distribution(compose(psi, p1, p2, commutation_tol=np.inf))
        (got,) = tables
        return got

    return table


def assert_bound_decides_like_the_oracle(js, worst):
    """commutator_bound is at least the dense max entry, and locality is decided on it.

    At every tolerance the verdict of js given that tolerance in place of
    its own equals the exact pair loop's, and it equals the dense
    oracle's wherever rounding (AGREE_TOL) cannot tell the two apart.
    """
    bound = js.commutator_bound
    assert bound >= worst
    for tol in (worst / 2, 2 * worst, bound / 2, 2 * bound, COMMUTATION_TOL):
        local = dataclasses.replace(js, commutation_tol=tol).commuting
        assert local == (js.max_commutator_norm <= tol), (tol, worst, bound)
        if abs(worst - tol) > AGREE_TOL:
            assert local == (worst <= tol), (tol, worst, bound)


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
        assert tuple(m.shape[1:] for m in js._meters) == ((d * d1,) * 2, (d * d2,) * 2)
        assert abs(js.max_commutator_norm - worst) <= AGREE_TOL, (d1, d2)
        assert_bound_decides_like_the_oracle(js, worst)
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


@pytest.mark.parametrize("commuting", [True, False])
@pytest.mark.parametrize("d", DIMS)
def test_system_space_table_is_the_dense_table(system_table, d, commuting):
    # <Psi|E1(x) E2(y)|Psi> = <psi|Pi1(x) Pi2(y)|psi> for any two processes:
    # random apparatus states, unequal apparatus dims, commuting or not
    rng = np.random.default_rng(900 + 10 * d + commuting)
    for d1, d2 in itertools.product(DIMS, DIMS):
        psi = random_state(rng, d)
        if commuting:
            projectors = random_pvm(rng, d, int(rng.integers(1, d + 1))).projectors
            p1 = controlled_process(rng, projectors, d, d1)
            p2 = controlled_process(rng, projectors, d, d2)
        else:
            p1, p2 = random_process(rng, d, d1), random_process(rng, d, d2)
        for pair in ((p1, p1), (p1, p2)):  # one process on both sides, then two
            got = system_table(psi, *pair)
            want = dense_table(psi, *pair)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12, (d1, d2)
        if not commuting and min(d, d1, d2) > 1:
            # the identity holds where the table is no probability
            assert np.max(np.abs(want.imag)) > 1e-6


@pytest.mark.parametrize("d", [2, 3])
def test_dilation_table_does_not_depend_on_the_completion(system_table, d):
    # a different completion changes the evolved meters but not the isometry
    # psi x |0> -> U (psi x |0>), so neither the dense table nor the table on H moves
    rng = np.random.default_rng(950 + d)
    for _ in range(6):
        povm1 = random_povm(rng, d, int(rng.integers(2, 4)))
        povm2 = random_povm(rng, d, int(rng.integers(2, 4)))
        p1, p2 = dilation_model(povm1), dilation_model(povm2)
        q1, q2 = recompleted(rng, p1), recompleted(rng, p2)
        psi = random_state(rng, d)
        want = dense_table(psi, p1, p2)
        assert np.max(np.abs(dense_table(psi, q1, q2) - want)) <= 1e-12
        # the models' recorded effects, their custom copies' pinched ones, and another completion's
        for pair in ((p1, p2), (as_custom(p1), as_custom(p2)), (q1, q2)):
            assert np.max(np.abs(system_table(psi, *pair) - want)) <= 1e-12
    # commuting effects: the covariant completion's meters commute and a random
    # one's need not, but the numbers are the same probability table
    p = dilation_model(unsharp_qubit_povm(0.6))
    q1, q2 = recompleted(rng, p), recompleted(rng, p)
    for psi in (PLUS, GROUND):
        want = joint_distribution(compose(psi, p, p)).probabilities
        custom = as_custom(p)
        assert np.max(np.abs(joint_distribution(compose(psi, custom, custom)).probabilities
                             - want)) <= 1e-12
        assert np.max(np.abs(dense_table(psi, q1, q2) - want)) <= 1e-12
        assert np.max(np.abs(system_table(psi, q1, q2) - want)) <= 1e-12


@pytest.mark.parametrize("d", range(1, 6))
def test_pointer_table_of_a_function_of_the_observable(system_table, d):
    # B = f(A) commutes with A; the pointer models' table is <psi|E^A(x) E^B(y)|psi>,
    # taken straight from the two PVMs
    rng = np.random.default_rng(970 + d)
    for _ in range(4):
        n = int(rng.integers(1, d + 1))
        a = pvm_from_observable(random_hermitian_with_outcomes(rng, d, n))
        image = rng.choice(random_labels(rng, min(3, len(a))), size=len(a))  # f, often not 1-1
        labels = sorted(set(image))
        b = Pvm(labels, [sum(p for p, y in zip(a.projectors, image) if y == label)
                         for label in labels], d)
        psi = random_state(rng, d)
        js = compose(psi, von_neumann_model(a), von_neumann_model(b))
        assert js.commuting
        want = np.array([[np.vdot(psi, p @ q @ psi) for q in b.projectors] for p in a.projectors])
        got = joint_distribution(js)
        assert (got.outcomes1, got.outcomes2) == (a.outcomes, b.outcomes)
        assert np.max(np.abs(got.probabilities - want)) <= 1e-12
        assert np.max(np.abs(system_table(psi, js.process1, js.process2) - want)) <= 1e-12
        # each row's mass sits on its image f(x)
        for i, y in enumerate(image):
            row = got.probabilities[i]
            assert row.sum() == pytest.approx(row[labels.index(y)], abs=1e-12)


def _function_of(rng, a):
    """B = f(A) for a random f, often not one to one, on A's labels: B commutes with A."""
    image = rng.choice(random_labels(rng, min(3, len(a))), size=len(a))
    labels = sorted(set(image))
    return Pvm(labels, [sum(p for p, y in zip(a.projectors, image) if y == label)
                        for label in labels], a.dim)


@pytest.mark.parametrize("commuting", [True, False])
@pytest.mark.parametrize("d", range(2, 7))
def test_pointer_pair_norm_is_the_largest_projector_commutator(d, commuting):
    # U = sum_j P_j x S^j gives E(x) = sum_j P_j x |s_j(x)><s_j(x)|, whose blocks are
    # the P_j, so the exact norm of two pointer models is max_jk |[P_j, Q_k]|
    rng = np.random.default_rng(1200 + 10 * d + commuting)
    for n in sorted({max(2, d // 2), d}):  # degenerate PVMs (n < d) first, for d >= 3
        a = random_pvm(rng, d, n)
        b = _function_of(rng, a) if commuting else random_pvm(rng, d, int(rng.integers(2, d + 1)))
        js = compose(random_state(rng, d), von_neumann_model(a), von_neumann_model(b))
        want = max(np.max(np.abs(p @ q - q @ p)) for p in a.projectors for q in b.projectors)
        assert abs(js.max_commutator_norm - want) <= 1e-14, (n, len(b))
        assert want < 1e-12 if commuting else want > 1e-3


@pytest.mark.parametrize("commuting", [True, False])
@pytest.mark.parametrize("d", range(1, 7))
def test_pointer_pairs_on_h_match_the_compound_path(d, commuting):
    # two pointer models evolve no meter: the bound is the exact norm max_jk |[P_j, Q_k]|
    # and the effects are the recorded projectors, as the pinched evolved meters and the
    # custom copies' Kraus rows give them, for a shared process, an equal distinct one
    # and another PVM's
    rng = np.random.default_rng(1300 + 10 * d + commuting)
    for n in sorted({1, max(1, d // 2), d}):  # degenerate PVMs first
        a = random_pvm(rng, d, n)
        b = _function_of(rng, a) if commuting else random_pvm(rng, d, max(1, d - n % 2))
        pa, psi = von_neumann_model(a), random_state(rng, d)
        pairs = ((pa, pa), (pa, von_neumann_model(a)), (pa, von_neumann_model(b)))
        local = (True, True, commuting or n == 1 or len(b) == 1)  # else generic: not local
        for (p1, p2), expected in zip(pairs, local):
            js = compose(psi, p1, p2)
            c1 = as_custom(p1)
            compound = compose(psi, c1, c1 if p2 is p1 else as_custom(p2))
            assert js._meters == () and len(compound._meters) == 2
            meters = [np.array(evolved_meter(p).projectors) for p in (p1, p2)]
            exact = intersubjectivity._max_commutator_norm(*meters, d)
            assert js.commutator_bound == js.max_commutator_norm
            assert abs(js.commutator_bound - exact) <= 1e-14, (n, len(b))
            for p, c in ((p1, c1), (p2, compound.process2)):
                (recorded,), (kraus,) = p._instrument.effects, c._instrument.effects
                assert np.max(np.abs(recorded - pinched_effects(p))) <= 1e-15
                assert np.max(np.abs(kraus - recorded)) <= 1e-15
            if exact > 1e-10:  # the two paths' rounding cannot tell 1e-3 of it apart
                for tol in (exact * (1 - 1e-3), exact * (1 + 1e-3)):
                    verdicts = [dataclasses.replace(j, commutation_tol=tol).commuting
                                for j in (js, compound)]
                    assert verdicts == [tol > exact] * 2, (tol, exact)
            worst, table = dense_reference(psi, p1, p2)
            assert js.commuting == compound.commuting == (worst <= COMMUTATION_TOL) == expected
            if js.commuting:
                got = joint_distribution(js).probabilities
                assert np.max(np.abs(got - table)) <= AGREE_TOL
            else:
                with pytest.raises(NonCommutingMetersError):
                    joint_distribution(js)


@pytest.mark.parametrize("d", [2, 3])
def test_a_replaced_interaction_carries_no_stale_record(d):
    # a copy of A's pointer model given B's interaction measures B: the checking
    # constructor records the new interaction's effects and no roots, so the pair
    # with B's model is decided on the compound space, and is local as the dense
    # oracle says
    rng = np.random.default_rng(1400 + d)
    pairs = [(SIGMA_Z_PVM, SIGMA_X_PVM)] if d == 2 else []
    pairs += [(random_pvm(rng, d, d), random_pvm(rng, d, d)) for _ in range(3)]
    for a, b in pairs:
        pb = von_neumann_model(b)
        swapped = dataclasses.replace(von_neumann_model(a), interaction=pb.interaction)
        assert swapped._instrument.roots is None and swapped._instrument.factors is None
        (effects,) = swapped._instrument.effects
        assert np.max(np.abs(effects - pinched_effects(swapped))) <= 1e-15
        induced = induced_povm(swapped)
        assert max(np.max(np.abs(e - q)) for e, q in zip(induced.effects, b.projectors)) < 1e-14
        psi = random_state(rng, d)
        js = compose(psi, swapped, pb)
        worst, table = dense_reference(psi, swapped, pb)
        assert len(js._meters) == 2
        assert worst < 1e-10 and js.commuting
        assert np.max(np.abs(joint_distribution(js).probabilities - table)) <= AGREE_TOL
        # A's record read as the swapped process's effects would make the pair non-local
        assert compose(psi, von_neumann_model(a), pb).commutator_bound > 1e-3


@pytest.mark.parametrize("eta", np.linspace(0.0, 1.0, 11))
def test_commutator_bound_of_unsharp_dilations(eta):
    # the models take the bound from their roots; custom copies take the span bound
    povm = unsharp_qubit_povm(eta)
    p1, p2 = dilation_model(povm), dilation_model(povm)
    worst, _ = dense_reference(GROUND, p1, p2)
    for pair in ((p1, p2), (as_custom(p1), as_custom(p2))):
        js = compose(GROUND, *pair)
        assert len(js._meters) == 2 * (pair[0] is not p1)
        assert_bound_decides_like_the_oracle(js, worst)
        assert js.commutator_bound <= COMMUTATION_TOL
    # the roots are diagonal and commute exactly: the bound is its rounding term
    # 4 (n1 + n2) d eps alone
    assert compose(GROUND, p1, p2).commutator_bound == 4 * (2 + 2) * 2 * np.finfo(float).eps


def _turned(rng, v, angle):
    """The basis v turned by exp(i angle H), H a random Hermitian of unit norm."""
    d = v.shape[0]
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    w, vecs = np.linalg.eigh(h + h.conj().T)
    w /= max(1.0, np.abs(w).max())
    return (vecs * np.exp(1j * angle * w)) @ vecs.conj().T @ v


def _povm_in(rng, v, n, kind):
    """n effects diagonal in the basis v: generic, near-degenerate, near-singular or projective."""
    d = v.shape[0]
    if kind == "projective":
        n = min(n, d)
        labels = np.concatenate([np.arange(n), rng.integers(0, n, d - n)])
        weights = (labels == np.arange(n)[:, None]).astype(float)
    else:
        weights = rng.random((n, d))
        if kind == "degenerate":  # each effect's eigenvalues 1e-12 apart
            weights = weights[:, :1] + 1e-12 * weights
        elif kind == "singular":  # eigenvalues of 1e-12, whose roots are 1e-6
            weights[:, 0] *= 1e-12
        weights /= weights.sum(axis=0)
    return Povm(tuple(range(n)), tuple(v @ np.diag(w) @ v.conj().T for w in weights), d)


def _bound_family_pair(rng, k):
    """The k-th pair: dilation/dilation or pointer/dilation, commuting, nearly or not at all."""
    d, n1, n2 = (int(x) for x in rng.integers(1, 5, size=3))
    kinds = ("generic", "degenerate", "singular", "projective")
    v = random_unitary(rng, d)
    other = v if k % 2 else _turned(rng, v, 10.0 ** rng.uniform(-14, -6))
    povm1 = _povm_in(rng, v, n1, kinds[k // 2 % 4])
    povm2 = _povm_in(rng, other, n2, kinds[k // 8 % 4])
    family = k // 32 % 5
    if family == 0:  # generic POVMs, in no common basis
        return dilation_model(random_povm(rng, d, n1)), dilation_model(random_povm(rng, d, n2))
    if family == 1:  # one process on both sides
        p = dilation_model(povm1)
        return p, p
    projective = _povm_in(rng, v, n1, "projective")
    pointer = von_neumann_model(Pvm(projective.outcomes, projective.effects, d))
    if family == 2:
        return pointer, dilation_model(povm2)
    if family == 3:
        return dilation_model(povm2), pointer
    return dilation_model(povm1), dilation_model(povm2)


def _unsharp_pairs():
    pairs = []
    for eta in (0.0, 1 - 1e-10, 1.0):
        povm = unsharp_qubit_povm(eta)
        p = dilation_model(povm)
        pairs += [(p, p), (p, dilation_model(povm))]
        if eta > 0:  # projective within OP_TOL
            vn = von_neumann_model(Pvm(povm.outcomes, povm.effects, 2))
            pairs += [(vn, p), (p, vn)]
    return pairs


def test_the_bound_from_the_roots_holds_and_decides_as_the_compound_path():
    # c1 c2 max_xy ||[R1_x, R2_y]||_F (plus rounding) bounds the exact loop and the
    # dense norm on every pair; the verdicts equal the compound path's, taken by custom
    # copies, at the default tolerance and either side of the exact norm
    rng = np.random.default_rng(2200)
    pairs = [_bound_family_pair(rng, k) for k in range(320)] + _unsharp_pairs()
    kinds = collections.Counter()
    for p1, p2 in pairs:
        d = p1.system_dim
        psi = random_state(rng, d)
        js = compose(psi, p1, p2, commutation_tol=np.inf)
        assert js._meters == ()
        exact = js.max_commutator_norm
        assert exact <= js.commutator_bound, (exact, js.commutator_bound)
        assert dense_reference(psi, p1, p2)[0] <= js.commutator_bound + AGREE_TOL
        c1 = as_custom(p1)
        c2 = c1 if p2 is p1 else as_custom(p2)
        for tol in (COMMUTATION_TOL, exact * (1 - 1e-3), exact * (1 + 1e-3)):
            model, custom = compose(psi, p1, p2, tol), compose(psi, c1, c2, tol)
            assert model.commuting == custom.commuting == (exact <= tol), (tol, exact)
        default = compose(psi, p1, p2)
        kinds[(default._meters == (), default.commuting)] += 1
    # decided on H; over the tolerance yet local; not local
    assert len(pairs) >= 300 and min(kinds[True, True], kinds[False, True], kinds[False, False]) >= 5


@pytest.mark.parametrize("d", range(1, 7))
def test_truncated_bound_of_pointer_models(d):
    # a pointer model's blocks span only its n eigenprojectors, n <= d of the
    # d^2 directions, so compose drops the rest of each span and adds their term;
    # written as custom processes, pointer models still take the span bound
    rng = np.random.default_rng(600 + d)
    for n in sorted({1, max(1, d // 2), d}):  # degenerate PVMs first
        pvm = random_pvm(rng, d, n)
        p, p_copy = as_custom(von_neumann_model(pvm)), as_custom(von_neumann_model(pvm))
        psi = random_state(rng, d)
        kept, _, dropped = _block_span(np.array(evolved_meter(p).projectors)[None], d)
        assert kept.shape == (1, n)
        assert dropped[0] < 1e-20  # rounding residue only
        for other in (p, p_copy):  # shared process, then a distinct equal one
            js = compose(psi, p, other)
            worst, table = dense_reference(psi, p, other)
            assert_bound_decides_like_the_oracle(js, worst)
            assert js.commutator_bound <= 1e3 * d * np.finfo(float).eps
            got = joint_distribution(js).probabilities
            assert np.max(np.abs(got - table)) <= AGREE_TOL


def test_truncated_bound_of_incompatible_pointer_models():
    p1, p2 = as_custom(von_neumann_model(SIGMA_Z_PVM)), as_custom(von_neumann_model(SIGMA_X_PVM))
    js = compose(PLUS, p1, p2)
    worst, _ = dense_reference(PLUS, p1, p2)
    assert worst == pytest.approx(0.5, abs=AGREE_TOL)
    assert js.commutator_bound >= 0.5
    assert_bound_decides_like_the_oracle(js, worst)


@pytest.mark.parametrize("kept", [0, 1, 2])
def test_bound_holds_whatever_the_span_drops(monkeypatch, kept):
    # the threshold only decides how much mass goes into the certified term
    span = intersubjectivity._block_span

    def coarser(evolved, d_sys):
        s, q, dropped = span(evolved, d_sys)
        return s[:, :kept], q[:, :kept], dropped + np.sum(s[:, kept:] ** 2, axis=1)

    monkeypatch.setattr(intersubjectivity, "_block_span", coarser)
    rng = np.random.default_rng(700 + kept)
    for d, d1, d2 in itertools.product((2, 3), repeat=3):
        psi = random_state(rng, d)
        projectors = random_pvm(rng, d, d).projectors
        for p1, p2 in ((random_process(rng, d, d1), random_process(rng, d, d2)),
                       (controlled_process(rng, projectors, d, d1),
                        controlled_process(rng, projectors, d, d2))):
            worst, _ = dense_reference(psi, p1, p2)
            assert compose(psi, p1, p2).commutator_bound >= worst, (d, d1, d2)


def test_compose_of_pointer_models_stays_below_the_full_span_tensor():
    # the full spans (36 components a side at d = 6) made a d^6 commutator tensor of
    # 0.75 MB per array, three at once; the truncated one has d^4 entries
    rng = np.random.default_rng(66)
    d = 6
    pvm = pvm_from_observable(random_hermitian_with_outcomes(rng, d, d))
    # custom copies: two pointer models decide their pair on H and take no span
    p1, p2 = as_custom(von_neumann_model(pvm)), as_custom(von_neumann_model(pvm))
    psi = random_state(rng, d)
    compose(psi, p1, p2)  # numpy's first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        compose(psi, p1, p2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def _span_family(rng, family, d, m):
    """m processes of one shape from a family: pointer, dilation or random custom."""
    if family == "pointer":  # n = d - 1 outcomes: some stacks are not tall; custom, so
        n = max(1, d - (d + m) % 2)  # that compose takes the span bound too
        return [as_custom(von_neumann_model(random_pvm(rng, d, n))) for _ in range(m)]
    if family == "dilation":  # custom copies too, as model pairs are decided on H
        return [as_custom(dilation_model(random_povm(rng, d, 1 + (d + m) % 3))) for _ in range(m)]
    # apparatus dim d - 2: from d = 5 on, more rows than columns but not twice as many
    return [random_process(rng, d, max(1, d - 2)) for _ in range(m)]


@pytest.mark.parametrize("m", [1, 7])
@pytest.mark.parametrize("family", ["pointer", "dilation", "custom"])
@pytest.mark.parametrize("d", range(1, 7))
def test_span_of_a_tall_stack_is_taken_from_its_qr_factor(monkeypatch, d, family, m):
    # R of X = Q_X R has X's singular values and right vectors: the span and
    # the bound equal the plain svd's, and only tall, wide enough stacks take the qr
    rng = np.random.default_rng(800 + 10 * d + m)
    sides = [_span_family(rng, family, d, m) for _ in range(2)]
    e1, e2 = (np.array([evolved_meter(p).projectors for p in side]) for side in sides)
    total = e1.shape[2]
    stacked = intersubjectivity._blocks(e1.reshape(-1, total, total), d).reshape(m, -1, d * d)
    rows, cols = stacked.shape[1:]
    shapes, qr = [], np.linalg.qr

    def spy(a, mode="reduced"):
        shapes.append(a.shape)
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", spy)
    s, _, dropped = _block_span(e1, d)
    bounds = intersubjectivity._span_bounds(e1, e2, d)
    monkeypatch.undo()
    tall = rows >= 2 * cols and cols >= SPAN_QR_MIN_COLS
    assert shapes == ([stacked.shape] * 3 if tall else [])  # one qr per _block_span
    plain = np.linalg.svd(stacked, compute_uv=False)
    keep = plain > plain[:, :1] * max(rows, cols) * np.finfo(float).eps
    assert np.array_equal(np.count_nonzero(s, axis=1), keep.sum(axis=1))
    top = s.shape[1]
    assert np.all(np.abs(s - plain[:, :top] * keep[:, :top]) <= 1e-13 * plain[:, :1])
    assert np.allclose(dropped, (plain**2 * ~keep).sum(axis=1), rtol=1e-13, atol=1e-26)
    for k in range(m):
        psi = random_state(rng, d)
        js = compose(psi, sides[0][k], sides[1][k])
        assert bounds[k] >= js.max_commutator_norm
        assert bounds[k] == pytest.approx(js.commutator_bound, rel=1e-12, abs=1e-14)
        if js.total_dim <= 64:
            assert bounds[k] >= dense_reference(psi, sides[0][k], sides[1][k])[0]


@pytest.fixture
def exact_reads(monkeypatch):
    """Each JointScenario whose exact max_commutator_norm is computed, once per computation."""
    reads = []
    exact = JointScenario.max_commutator_norm.func

    def counted(self):
        reads.append(self)
        return exact(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(JointScenario, "max_commutator_norm")
    monkeypatch.setattr(JointScenario, "max_commutator_norm", prop)
    return reads


def test_pointer_model_oit_run_never_reads_the_exact_norm(exact_reads, capsys, tmp_path):
    rng = np.random.default_rng(6)
    d = 6
    pvm = pvm_from_observable(random_hermitian_with_outcomes(rng, d, d))
    psi = random_state(rng, d)
    doc = scenario_to_json(psi, pvm, [von_neumann_model(pvm), von_neumann_model(pvm)], "oit")
    path = tmp_path / "oit.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["intersubjective"] is True
    assert report["diagnostics"]["commuting"] is True
    assert exact_reads == []


def test_non_commuting_joint_run_reads_the_exact_norm_once(exact_reads, capsys, tmp_path):
    p1, p2 = von_neumann_model(SIGMA_Z_PVM), von_neumann_model(SIGMA_X_PVM)
    doc = scenario_to_json(PLUS, SIGMA_Z_PVM, [p1, p2], "joint")
    path = tmp_path / "joint.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 3
    worst, _ = dense_reference(PLUS, p1, p2)
    assert f"max commutator norm {worst:.3e} > {COMMUTATION_TOL}" in capsys.readouterr().err
    assert len(exact_reads) == 1
