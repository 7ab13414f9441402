"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL line
per criterion (plain pytest captures stdout for passing tests).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    evolved_meter,
    random_hermitian_with_outcomes,
    random_povm,
    random_process,
    random_pvm,
    random_state,
    recompleted,
)
from qmeasure import (
    PAULI_Z,
    Povm,
    Pvm,
    as_povm,
    born_povm,
    check_reproducibility,
    compose,
    dilation_model,
    induced_povm,
    is_projector,
    joint_distribution,
    max_abs,
    agreement_probability,
    pvm_from_observable,
    sample_outcomes,
    unsharp_qubit_povm,
    verify_oit,
    von_neumann_model,
)

GROUND = np.array([1, 0], dtype=complex)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {number}: {description}")
        raise
    print(f"\n[PASS] criterion {number}: {description}")


def test_criterion_1_intersubjectivity_reproduction():
    with criterion(1, "joint accurate measurements agree: 50 randomized cases "
                      "within 1e-9, under 10 s"):
        start = time.monotonic()
        for seed in range(50):
            rng = np.random.default_rng(seed)
            dim = int(rng.integers(2, 7))
            k = int(rng.integers(2, min(dim, 4) + 1))
            pvm = pvm_from_observable(random_hermitian_with_outcomes(rng, dim, k))
            psi = random_state(rng, dim)
            js = compose(psi, von_neumann_model(pvm), von_neumann_model(pvm))
            report = verify_oit(js, pvm, tol=1e-9)
            assert report.intersubjective
            assert report.off_diagonal_mass < 1e-9
            assert report.max_diagonal_deviation < 1e-9
        assert time.monotonic() - start < 10.0


def test_criterion_2_reproducibility_both_directions():
    with criterion(2, "pointer models reproduce their observable at 1e-10; "
                      "unsharp dilations miss it by exactly (1-eta)/2"):
        for seed in range(12):
            rng = np.random.default_rng(100 + seed)
            dim = int(rng.integers(2, 6))
            k = int(rng.integers(2, dim + 1))
            pvm = pvm_from_observable(random_hermitian_with_outcomes(rng, dim, k))
            report = check_reproducibility(von_neumann_model(pvm), pvm, tol=1e-10)
            assert report.reproducible
        sigma_z = pvm_from_observable(PAULI_Z)
        for eta in (0.0, 0.25, 0.5, 0.75, 0.8):
            process = dilation_model(unsharp_qubit_povm(eta))
            report = check_reproducibility(process, sigma_z)
            assert not report.reproducible
            assert abs(report.max_operator_deviation - (1 - eta) / 2) < 1e-9


def test_criterion_3_dilation_round_trip():
    with criterion(3, "dilations of 50 random POVMs induce them back within 1e-9, "
                      "independent of the completion choice"):
        for seed in range(50):
            rng = np.random.default_rng(200 + seed)
            dim = int(rng.integers(2, 5))
            k = int(rng.integers(2, 6))
            povm = random_povm(rng, dim, k)
            induced = induced_povm(dilation_model(povm))
            worst = max(max_abs(a - b) for a, b in zip(induced.effects, povm.effects))
            assert worst < 1e-9
            alt = induced_povm(recompleted(rng, dilation_model(povm)))
            drift = max(max_abs(a - b) for a, b in zip(induced.effects, alt.effects))
            assert drift < 1e-9


def test_criterion_4_noise_agreement_curve():
    with criterion(4, "agreement for the unsharp observable equals "
                      "((1+eta)^2+(1-eta)^2)/4 within 1e-9"):
        expected = {0.0: 0.5, 0.25: 0.53125, 0.5: 0.625,
                    0.75: 0.78125, 0.8: 0.82, 1.0: 1.0}
        for eta, target in expected.items():
            povm = unsharp_qubit_povm(eta)
            js = compose(GROUND, dilation_model(povm), dilation_model(povm))
            value = agreement_probability(js)
            assert abs(value - target) < 1e-9
            assert abs(value - ((1 + eta) ** 2 + (1 - eta) ** 2) / 4) < 1e-9


def test_criterion_5_born_rule_consistency():
    with criterion(5, "pointer statistics equal Born statistics of the induced "
                      "POVM within 1e-10 on 100 random processes"):
        for seed in range(100):
            rng = np.random.default_rng(300 + seed)
            d_sys = int(rng.integers(2, 5))
            d_app = int(rng.integers(2, 5))
            process = random_process(rng, d_sys, d_app)
            psi = random_state(rng, d_sys)
            xi = process.apparatus_state
            direct = born_povm(as_povm(evolved_meter(process)), np.kron(psi, xi))
            indirect = born_povm(induced_povm(process), psi)
            assert direct.outcomes == indirect.outcomes
            worst = max(abs(a - b) for a, b in
                        zip(direct.probabilities, indirect.probabilities))
            assert worst < 1e-10


def test_criterion_6_monte_carlo_consistency():
    with criterion(6, "seed-fixed sampling at n=1e5 stays within 5-sigma of the "
                      "joint table and never disagrees for accurate observables"):
        n = 100_000
        povm = unsharp_qubit_povm(0.8)
        js = compose(GROUND, dilation_model(povm), dilation_model(povm))
        analytic = joint_distribution(js).probabilities
        result = sample_outcomes(js, n, seed=12345)
        sigma = np.sqrt(analytic * (1 - analytic) / n)
        assert np.all(np.abs(result.empirical.probabilities - analytic)
                      <= 5 * sigma + 1e-12)
        sharp = pvm_from_observable(PAULI_Z)
        psi = np.array([1, 1], dtype=complex) / np.sqrt(2)
        js2 = compose(psi, von_neumann_model(sharp), von_neumann_model(sharp))
        drawn = sample_outcomes(js2, n, seed=54321)
        # every count lies on the diagonal, where both observers read the same label
        assert drawn.empirical.outcomes1 == drawn.empirical.outcomes2
        assert np.trace(drawn.counts) == drawn.counts.sum() == n


def test_criterion_7_structural_invariant_suite():
    with criterion(7, "1000+ randomized PVMs/POVMs/evolved meters satisfy "
                      "positivity, idempotency, orthogonality, and unity"):
        checked = 0
        for seed in range(400):
            rng = np.random.default_rng(400 + seed)
            dim = int(rng.integers(2, 6))
            k = int(rng.integers(2, dim + 1))
            pvm = random_pvm(rng, dim, k)
            assert all(is_projector(p) for p in pvm.projectors)
            assert max_abs(sum(pvm.projectors) - np.eye(dim)) < 1e-9
            for i in range(len(pvm.projectors)):
                for j in range(i + 1, len(pvm.projectors)):
                    assert max_abs(pvm.projectors[i] @ pvm.projectors[j]) < 1e-9
            checked += 1
        for seed in range(400):
            rng = np.random.default_rng(800 + seed)
            dim = int(rng.integers(2, 6))
            k = int(rng.integers(2, 6))
            povm = random_povm(rng, dim, k)
            for e in povm.effects:
                w = np.linalg.eigvalsh(e)
                assert w[0] > -1e-9 and w[-1] < 1 + 1e-9
            assert max_abs(sum(povm.effects) - np.eye(dim)) < 1e-9
            checked += 1
        for seed in range(200):
            rng = np.random.default_rng(1200 + seed)
            process = random_process(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            evolved = evolved_meter(process)
            assert all(is_projector(p) for p in evolved.projectors)
            assert max_abs(sum(evolved.projectors) - np.eye(evolved.dim)) < 1e-9
            # derived objects are built unchecked: run the public constructors' checks
            Pvm(evolved.outcomes, evolved.projectors, evolved.dim)
            induced = induced_povm(process)
            Povm(induced.outcomes, induced.effects, induced.dim)
            checked += 1
        induced = induced_povm(dilation_model(unsharp_qubit_povm(0.5)))
        Povm(induced.outcomes, induced.effects, induced.dim)
        assert not any(is_projector(e) for e in induced.effects)
        checked += 1
        assert checked >= 1000
        print(f"(structural instances checked: {checked})", end=" ")
