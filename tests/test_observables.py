import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import PAULI_X, random_povm, random_pvm, random_state, random_unitary
from qmeasure import (
    PAULI_Z,
    DimensionError,
    NotHermitianError,
    OutcomeDistribution,
    ParameterError,
    Povm,
    Pvm,
    ValidationError,
    as_povm,
    born_povm,
    is_projective,
    max_abs,
    pvm_from_observable,
    unsharp_qubit_povm,
)
from qmeasure.linalg import OP_TOL
from qmeasure.observables import CLUSTER_TOL, LABEL_TOL, PROB_TOL


def _diag_projectors(*patterns):
    return tuple(np.diag(np.array(p, dtype=complex)) for p in patterns)


def test_pvm_sorts_outcomes():
    pvm = Pvm((1.0, -1.0), _diag_projectors([1, 0], [0, 1]), 2)
    assert pvm.outcomes == (-1.0, 1.0)
    assert max_abs(pvm.projectors[0] - np.diag([0.0, 1.0])) < 1e-12
    assert len(pvm) == 2


def test_pvm_rejects_non_projector():
    with pytest.raises(ValidationError):
        Pvm((-1.0, 1.0), (PAULI_X / 2, np.eye(2) - PAULI_X / 2), 2)


def test_pvm_rejects_incomplete_family():
    with pytest.raises(ValidationError):
        Pvm((0.0,), _diag_projectors([1, 0]), 2)


def test_pvm_rejects_non_orthogonal():
    p = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValidationError):
        Pvm((0.0, 1.0), (p, p), 2)
    with pytest.raises(ValidationError):
        Pvm((0.0, 1.0), (p,), 2)
    with pytest.raises(ValidationError):
        Pvm((), (), 2)


def test_pvm_rejects_near_duplicate_labels():
    with pytest.raises(ValidationError):
        Pvm((0.0, 5e-9), _diag_projectors([1, 0], [0, 1]), 2)


def test_pvm_shape_check():
    with pytest.raises(DimensionError):
        Pvm((0.0, 1.0), _diag_projectors([1, 0], [0, 1]), 3)


def test_observables_over_the_dimension_cap_are_rejected_at_construction():
    # every entry of the second effect is within OP_TOL of 0.5 I, yet its Born
    # weights on the uniform state would sum past PROB_TOL; PROB_TOL bounds
    # only observables within the cap
    n = 300
    effects = (0.5 * np.eye(n), 0.5 * np.eye(n) + 0.9e-9 * np.ones((n, n)))
    with pytest.raises(DimensionError, match="compound dimension 300 exceeds the cap 256"):
        Povm((0.0, 1.0), effects, n)
    with pytest.raises(DimensionError, match="compound dimension 300 exceeds the cap 256"):
        Pvm((0.0,), (np.eye(n),), n)


def test_povm_accepts_noisy_effects():
    povm = unsharp_qubit_povm(0.3)
    assert povm.outcomes == (-1.0, 1.0)
    assert max_abs(povm.effects[1] - np.array([[0.65, 0], [0, 0.35]])) < 1e-12


def test_povm_rejects_negative_effect():
    bad = (np.diag([1.2, 0.0]).astype(complex), np.diag([-0.2, 1.0]).astype(complex))
    with pytest.raises(ValidationError):
        Povm((-1.0, 1.0), bad, 2)


def test_povm_rejects_wrong_normalization():
    bad = (0.45 * np.eye(2, dtype=complex), 0.45 * np.eye(2, dtype=complex))
    with pytest.raises(ValidationError, match="identity"):
        Povm((-1.0, 1.0), bad, 2)


def test_povm_rejects_non_hermitian_effect():
    bad = (np.array([[0.5, 0.5], [0, 0.5]], dtype=complex),)
    with pytest.raises(ValidationError):
        Povm((0.0,), (np.eye(2) - bad[0],), 2)


def test_outcome_distribution_clamps_tiny_negatives():
    dist = OutcomeDistribution((0.0, 1.0), (1.0 + 5e-13, -5e-13))
    assert dist.probabilities[1] == 0.0
    assert dict(zip(dist.outcomes, dist.probabilities))[0.0] == pytest.approx(1.0)


def test_outcome_distribution_rejects_real_negatives_and_bad_sums():
    with pytest.raises(ValidationError):
        OutcomeDistribution((0.0, 1.0), (1.1, -0.1))
    with pytest.raises(ValidationError):
        OutcomeDistribution((0.0, 1.0), (0.6, 0.2))
    with pytest.raises(ValidationError, match="sum to nan"):
        OutcomeDistribution((0.0, 1.0), (np.nan, 1.0))


def test_pvm_from_observable_sigma_z():
    pvm = pvm_from_observable(PAULI_Z)
    assert pvm.outcomes == (-1.0, 1.0)
    assert max_abs(pvm.projectors[1] - np.diag([1.0, 0.0])) < 1e-12


def test_pvm_from_observable_merges_degeneracy():
    pvm = pvm_from_observable(np.diag([3.0, 3.0, 7.0]).astype(complex))
    assert pvm.outcomes == (3.0, 7.0)
    assert float(np.trace(pvm.projectors[0]).real) == pytest.approx(2.0)


def test_pvm_from_observable_rejects_the_dimension_before_eigh(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh ran on a matrix over the cap")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(DimensionError, match="^compound dimension 300 exceeds the cap 256$"):
        pvm_from_observable(np.eye(300))


def test_pvm_from_observable_keeps_the_label_separation_rule():
    # cluster_tol = 0 keeps two eigenvalues LABEL_TOL apart as two outcomes;
    # the trusted path raises what the public constructor raises on them
    a = np.diag([1.0, 1.0 + 5e-9]).astype(complex)
    with pytest.raises(ValidationError) as derived:
        pvm_from_observable(a, cluster_tol=0)
    with pytest.raises(ValidationError) as checked:
        Pvm((1.0, 1.0 + 5e-9), _diag_projectors([1, 0], [0, 1]), 2)
    assert str(derived.value) == str(checked.value)
    assert "closer than 1e-08" in str(derived.value)
    assert pvm_from_observable(a).outcomes == (1.0000000025,)


OVERFLOW = "matrix entries overflow in its Hermitian part (a + a^dag) / 2"


@pytest.mark.parametrize("entries", [[[1e308, 0], [0, -1e308]], [[0, 1e308], [1e308, 0]]])
def test_pvm_from_observable_rejects_what_overflows_in_eigh(entries):
    # finite entries whose Hermitian part overflows: one error that names the
    # overflow, raised before eigh and without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as exc:
            pvm_from_observable(np.array(entries, dtype=complex))
    assert str(exc.value) == OVERFLOW


@pytest.mark.parametrize("entries,error,message", [
    ([[0, 1e308], [-1e308, 0]], NotHermitianError,
     "spectral decomposition needs a Hermitian matrix"),
    (np.full((3, 3), 8.9e307), ValidationError, "outcome labels must be finite"),
])
def test_pvm_from_observable_near_the_float_maximum_warns_nothing(entries, error, message):
    # the anti-Hermitian residue overflows in is_hermitian; the Hermitian
    # part is finite, but its eigenvalue 2.67e308 is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as exc:
            pvm_from_observable(np.array(entries, dtype=complex))
    assert str(exc.value) == message


def _spectral_inputs(rng):
    """Seeded Hermitian matrices, d = 1..16 at scales 1e-6..1e6, half with degenerate clusters."""
    for d in range(1, 17):
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            u = random_unitary(rng, d)
            spectrum = rng.normal(size=d)
            if d > 1 and rng.random() < 0.5:
                spectrum = rng.choice(spectrum[: max(1, d // 3)], size=d)
            a = (u * spectrum) @ u.conj().T * scale
            yield (a + a.conj().T) / 2


def test_spectral_pvm_is_derived_unchecked_and_passes_the_checks(monkeypatch):
    checks = []
    original = Pvm.__post_init__

    def counting(self):
        checks.append(self)
        original(self)

    rng = np.random.default_rng(2015)
    cases = [(a, tol) for a in _spectral_inputs(rng) for tol in (0.0, CLUSTER_TOL, 1e3)]
    monkeypatch.setattr(Pvm, "__post_init__", counting)
    results = []
    for a, tol in cases:
        try:
            results.append(pvm_from_observable(a, tol))
        except ValidationError as exc:  # a split cluster, its labels LABEL_TOL apart
            assert "closer than" in str(exc) and tol < LABEL_TOL
            results.append(None)
    assert checks == []
    monkeypatch.undo()
    derived = [pvm for pvm in results if pvm is not None]
    assert len(derived) > len(cases) // 2
    assert any(len(pvm) < pvm.dim for pvm in derived)  # clusters were merged
    for pvm in derived:
        # the public constructor checks what pvm_from_observable built unchecked
        checked = Pvm(pvm.outcomes, pvm.projectors, pvm.dim)
        assert checked.outcomes == pvm.outcomes
        assert all(type(x) is float for x in pvm.outcomes)
        assert all(np.array_equal(a, b) for a, b in zip(checked.projectors, pvm.projectors))
        assert not any(p.flags.writeable for p in pvm.projectors)


def test_born_qutrit_oracle():
    # degenerate observable diag(3,3,7) on the uniform superposition
    pvm = pvm_from_observable(np.diag([3.0, 3.0, 7.0]).astype(complex))
    psi = np.ones(3, dtype=complex) / np.sqrt(3)
    dist = born_povm(as_povm(pvm), psi)
    probs = dict(zip(dist.outcomes, dist.probabilities))
    assert probs[3.0] == pytest.approx(2 / 3, abs=1e-12)
    assert probs[7.0] == pytest.approx(1 / 3, abs=1e-12)


def _trine_povm():
    effects = []
    for k in range(3):
        theta = 2 * np.pi * k / 3
        vec = np.array([np.cos(theta / 2), np.sin(theta / 2)], dtype=complex)
        effects.append(2 / 3 * np.outer(vec, vec.conj()))
    return Povm((0.0, 1.0, 2.0), tuple(effects), 2)


def test_born_trine_oracle():
    dist = born_povm(_trine_povm(), np.array([1, 0], dtype=complex))
    assert dist.probabilities == pytest.approx((2 / 3, 1 / 6, 1 / 6), abs=1e-12)


def test_born_dimension_mismatch():
    pvm = pvm_from_observable(PAULI_Z)
    with pytest.raises(DimensionError):
        born_povm(as_povm(pvm), np.ones(3) / np.sqrt(3))


def test_as_povm_and_is_projective():
    pvm = pvm_from_observable(PAULI_X)
    povm = as_povm(pvm)
    assert is_projective(povm)
    assert not is_projective(unsharp_qubit_povm(0.8))
    assert is_projective(unsharp_qubit_povm(1.0))


@pytest.mark.parametrize("eta,plus_prob", [(0.0, 0.5), (0.5, 0.75), (1.0, 1.0)])
def test_unsharp_povm_on_ground_state(eta, plus_prob):
    dist = born_povm(unsharp_qubit_povm(eta), np.array([1, 0], dtype=complex))
    probs = dict(zip(dist.outcomes, dist.probabilities))
    assert probs[1.0] == pytest.approx(plus_prob, abs=1e-12)


@pytest.mark.parametrize("eta", [-0.1, 1.1, np.nan])
def test_unsharp_povm_range_gate(eta):
    with pytest.raises(ParameterError):
        unsharp_qubit_povm(eta)


def test_unsharp_povm_is_derived_unchecked_and_passes_the_checks(monkeypatch):
    checks = []
    original = Povm.__post_init__

    def counting(self):
        checks.append(self)
        original(self)

    etas = (0.0, 5e-324, 0.37, 1 - 1e-16, 1.0)
    monkeypatch.setattr(Povm, "__post_init__", counting)
    povms = [unsharp_qubit_povm(eta) for eta in etas]
    assert checks == []
    monkeypatch.undo()
    for eta, povm in zip(etas, povms):
        # the public constructor checks what unsharp_qubit_povm built unchecked
        checked = Povm(povm.outcomes, povm.effects, povm.dim)
        assert checked.outcomes == povm.outcomes == (-1.0, 1.0)
        assert all(np.array_equal(a, b) for a, b in zip(checked.effects, povm.effects))
        assert np.array_equal(povm.effects[1], np.diag([(1 + eta) / 2, (1 - eta) / 2]))
        assert not any(e.flags.writeable for e in povm.effects)


@pytest.mark.parametrize("seed", range(6))
def test_random_observable_born_sums_to_one(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    k = int(rng.integers(2, dim + 1))
    psi = random_state(rng, dim)
    for dist in (born_povm(as_povm(random_pvm(rng, dim, k)), psi),
                 born_povm(random_povm(rng, dim, k), psi)):
        assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-10)
        assert all(p >= 0 for p in dist.probabilities)


def test_observable_arrays_are_frozen():
    povm = unsharp_qubit_povm(0.5)
    with pytest.raises(ValueError):
        povm.effects[0][0, 0] = 9.0


def test_born_povm_accepts_an_effect_hermitian_within_op_tol():
    # Povm accepts the effect, since it is Hermitian within OP_TOL; its Born
    # weight has an imaginary residue of 2.5e-10, within PROB_TOL
    effect = np.array([[0.5, 5e-10], [0, 0.5]], dtype=complex)
    povm = Povm((0.0, 1.0), (effect, np.eye(2) - effect), 2)
    dist = born_povm(povm, np.array([1, 1j]) / np.sqrt(2))
    assert dist.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)


@pytest.mark.parametrize("dim", [2, 16, 64, 256])
def test_a_born_weight_is_real_within_half_prob_tol(dim):
    # the largest anti-Hermitian part is_hermitian admits, a real antisymmetric
    # A of entries OP_TOL / 2, cancelling between the effects I/2 + A and
    # I/2 - A; the worst state is an eigenvector of the Hermitian iA
    upper = np.triu(np.full((dim, dim), OP_TOL / 2), 1)
    skew = upper - upper.T
    half = np.eye(dim) / 2
    povm = Povm((0.0, 1.0), (half + skew, half - skew), dim)
    w, vecs = np.linalg.eigh(1j * skew)
    psi = vecs[:, np.argmax(np.abs(w))]
    worst = max(abs(np.vdot(psi, e @ psi).imag) for e in povm.effects)
    assert worst == pytest.approx(np.abs(w).max(), rel=1e-6)
    assert worst <= PROB_TOL / 2
    dist = born_povm(povm, psi)
    assert dist.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)


@pytest.mark.parametrize("tol", [float("nan"), -1e-3, -np.inf])
def test_pvm_from_observable_rejects_a_nan_or_negative_cluster_tol(tol):
    # a NaN tolerance used to merge the whole spectrum into one outcome with projector I
    with pytest.raises(ParameterError, match="cluster_tol must be >= 0"):
        pvm_from_observable(PAULI_Z, cluster_tol=tol)


def _loop_spectral_pvm(a, cluster_tol=CLUSTER_TOL):
    """The per-cluster loop the stacked pvm_from_observable replaced: labels and projectors."""
    a = np.asarray(a, dtype=complex)
    w, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    breaks = [0] + [i for i in range(1, len(w)) if w[i] - w[i - 1] > cluster_tol] + [len(w)]
    values, projectors = [], []
    for lo, hi in zip(breaks, breaks[1:]):
        block = vecs[:, lo:hi]
        proj = block @ block.conj().T
        values.append(float(np.mean(w[lo:hi])))
        projectors.append((proj + proj.conj().T) / 2)
    order = sorted(range(len(values)), key=values.__getitem__)
    return [values[i] for i in order], [projectors[i] for i in order]


def _planted_spectrum(rng, dim):
    """A sorted spectrum of a few distinct values, each repeated, some spread within CLUSTER_TOL."""
    distinct = int(rng.integers(1, dim + 1))
    values = np.sort(rng.choice(np.arange(-6.0, 7.0), size=distinct, replace=False))
    values = values * rng.uniform(0.1, 10.0)
    counts = rng.multinomial(dim - distinct, np.ones(distinct) / distinct) + 1
    spectrum = np.repeat(values, counts)
    return np.sort(spectrum + rng.uniform(-1, 1, dim) * CLUSTER_TOL / (4 * dim))


@pytest.mark.parametrize("seed", range(6))
def test_the_stacked_spectral_pvm_matches_the_per_cluster_loop(seed):
    # one-value clusters take the stacked rank-1 products, merged clusters of up to
    # 16 values their own sum and mean, both in one PVM
    rng = np.random.default_rng(seed)
    for dim in (1, 2, 3, 5, 9, 16):
        spectrum = _planted_spectrum(rng, dim)
        u = random_unitary(rng, dim)
        for a, exact in (((u * spectrum) @ u.conj().T, False), (np.diag(spectrum), True)):
            labels, projectors = _loop_spectral_pvm(a)
            pvm = pvm_from_observable(a)
            assert list(pvm.outcomes) == labels
            for got, want in zip(pvm.projectors, projectors):
                assert np.array_equal(got, got.conj().T)  # Hermitian to the bit
                if exact:  # eigh's eigenvectors of a diagonal input are exact
                    assert got.tobytes() == want.tobytes()
                else:
                    assert max_abs(got - want) <= 1e-12


def test_a_degenerate_observable_holds_no_rank_1_projector_per_eigenvalue():
    # 64 eigenvalues in two clusters: d rank-1 projectors would take 4 MiB,
    # the PVM's two projectors take 128 KiB
    rng = np.random.default_rng(4)
    u = random_unitary(rng, 64)
    a = (u * np.repeat([-1.0, 1.0], 32)) @ u.conj().T
    tracemalloc.start()
    try:
        pvm = pvm_from_observable(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pvm.outcomes == pytest.approx((-1.0, 1.0))
    assert peak < 2**20
