import copy
import dataclasses
import json
import pathlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    as_custom,
    evolved_meter,
    pinched_effects,
    pointer_meter,
    random_hermitian_with_outcomes,
    random_povm,
    random_process,
    random_pvm,
    random_state,
    random_unitary,
    recompleted,
    refuse_interaction_builders,
    refuse_meter_evolution,
)
from qmeasure import (
    PAULI_Z,
    DimensionError,
    MeasurementProcess,
    Povm,
    Pvm,
    ValidationError,
    as_povm,
    born_povm,
    check_reproducibility,
    dilation_model,
    induced_povm,
    is_projective,
    is_unitary,
    load_scenario,
    max_abs,
    measurement,
    pvm_from_observable,
    run_experiment,
    scenario_to_json,
    unsharp_qubit_povm,
    von_neumann_model,
)
from qmeasure.linalg import MAX_DIM, OP_TOL

SIGMA_Z_PVM = pvm_from_observable(PAULI_Z)


def test_process_validation():
    xi = np.array([1, 0], dtype=complex)
    meter = pointer_meter(2)
    with pytest.raises(ValidationError):
        MeasurementProcess(2, 2, xi, np.diag([1.0, 1.0, 1.0, 2.0]), meter)
    with pytest.raises(DimensionError):
        MeasurementProcess(2, 2, np.array([1, 0, 0], dtype=complex) , np.eye(4), meter)
    with pytest.raises(DimensionError):
        MeasurementProcess(2, 3, xi, np.eye(6), meter)
    with pytest.raises(DimensionError):
        MeasurementProcess(2, 2, xi, np.eye(6), meter)
    with pytest.raises(ValidationError):
        MeasurementProcess(2, 2, np.array([1, 1], dtype=complex), np.eye(4), meter)


def test_process_dimension_cap():
    # the cap is linalg.MAX_DIM = 256: 128 x 2 fits, 257 x 1 does not
    process = MeasurementProcess(
        128, 2, np.array([1, 0], dtype=complex), np.eye(256), pointer_meter(2)
    )
    assert process.total_dim == 256
    with pytest.raises(DimensionError, match="compound dimension 257 exceeds the cap 256"):
        MeasurementProcess(257, 1, np.array([1], dtype=complex), np.eye(257), pointer_meter(1))


def test_von_neumann_sigma_z_artifacts():
    # outcomes sorted (-1, +1): the shift acts on the +1 eigenspace block
    process = von_neumann_model(SIGMA_Z_PVM)
    expected_u = np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert max_abs(process.interaction - expected_u) < 1e-12
    evolved = evolved_meter(process)
    assert max_abs(evolved.projectors[1] - np.diag([1.0, 0, 0, 1.0])) < 1e-12
    assert max_abs(evolved.projectors[0] - np.diag([0, 1.0, 1.0, 0])) < 1e-12
    induced = induced_povm(process)
    assert max_abs(induced.effects[1] - np.diag([1.0, 0.0])) < 1e-12
    assert max_abs(induced.effects[0] - np.diag([0.0, 1.0])) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_von_neumann_model_reproduces_random_observables(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    k = int(rng.integers(2, min(dim, 4) + 1))
    pvm = pvm_from_observable(random_hermitian_with_outcomes(rng, dim, k))
    process = von_neumann_model(pvm)
    assert is_unitary(process.interaction)
    assert process.apparatus_dim == len(pvm)
    report = check_reproducibility(process, pvm, tol=1e-10)
    assert report.reproducible
    assert report.max_operator_deviation < 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_meter_distribution_matches_born_of_induced(seed):
    # the pointer readings on psi x xi follow the Born rule of the induced POVM
    rng = np.random.default_rng(seed)
    process = random_process(rng, 3, 2)
    psi = random_state(rng, 3)
    direct = born_povm(as_povm(evolved_meter(process)), np.kron(psi, process.apparatus_state))
    via_povm = born_povm(induced_povm(process), psi)
    assert direct.outcomes == via_povm.outcomes
    assert direct.probabilities == pytest.approx(via_povm.probabilities, abs=1e-10)


def test_reproducibility_fails_for_unsharp_dilation():
    # deviation between (I + 0.8 sz)/2 and (I + sz)/2 is exactly 0.1
    process = dilation_model(unsharp_qubit_povm(0.8))
    report = check_reproducibility(process, SIGMA_Z_PVM)
    assert not report.reproducible
    assert report.max_operator_deviation == pytest.approx(0.1, abs=1e-9)


def test_reproducibility_trivial_process_fails():
    process = MeasurementProcess(
        2, 2, np.array([1, 0], dtype=complex), np.eye(4, dtype=complex), pointer_meter(2)
    )
    report = check_reproducibility(process, pointer_meter(2))
    assert not report.reproducible


def test_reproducibility_label_mismatch_counts_unmatched_outcomes():
    process = von_neumann_model(SIGMA_Z_PVM)
    shifted = pvm_from_observable(3.0 * PAULI_Z)  # outcomes (-3, 3)
    report = check_reproducibility(process, shifted)
    assert not report.reproducible
    # every label is unmatched, so each operator is compared against zero
    assert set(report.per_outcome_deviation) == {-3.0, -1.0, 1.0, 3.0}
    assert report.max_operator_deviation == pytest.approx(1.0, abs=1e-12)


def test_reproducibility_dim_mismatch():
    process = von_neumann_model(SIGMA_Z_PVM)
    qutrit = pvm_from_observable(np.diag([1.0, 2.0, 3.0]).astype(complex))
    with pytest.raises(DimensionError):
        check_reproducibility(process, qutrit)


def test_dilation_of_projective_povm_is_reproducible():
    process = dilation_model(as_povm(SIGMA_Z_PVM))
    report = check_reproducibility(process, SIGMA_Z_PVM, tol=1e-10)
    assert report.reproducible


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.8, 1.0])
def test_dilation_induces_unsharp_povm(eta):
    povm = unsharp_qubit_povm(eta)
    process = dilation_model(povm)
    assert is_unitary(process.interaction)
    induced = induced_povm(process)
    assert induced.outcomes == povm.outcomes
    worst = max(max_abs(a - b) for a, b in zip(induced.effects, povm.effects))
    assert worst < 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_dilation_round_trip_random_povms(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    k = int(rng.integers(2, 6))
    povm = random_povm(rng, dim, k)
    induced = induced_povm(dilation_model(povm))
    worst = max(max_abs(a - b) for a, b in zip(induced.effects, povm.effects))
    assert worst < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_dilation_completion_choice_does_not_matter(seed):
    rng = np.random.default_rng(seed)
    povm = random_povm(rng, 3, 3)
    process = dilation_model(povm)
    base = induced_povm(process)
    alt = induced_povm(recompleted(np.random.default_rng(seed + 100), process))
    worst = max(max_abs(a - b) for a, b in zip(base.effects, alt.effects))
    assert worst < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_model_processes_are_built_unchecked_and_pass_the_checks(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    pvm = pvm_from_observable(random_hermitian_with_outcomes(rng, 3, 2))
    povm = random_povm(rng, 2, 3)
    checked = []
    monkeypatch.setattr(measurement, "is_unitary", lambda u: checked.append(u) or True)
    processes = [von_neumann_model(pvm), dilation_model(povm)]
    monkeypatch.undo()
    assert checked == []
    processes.append(recompleted(rng, processes[1]))
    for process in processes:
        # the public constructors check what the models built unchecked
        MeasurementProcess(process.system_dim, process.apparatus_dim,
                           process.apparatus_state, process.interaction, process.meter)
        meter = process.meter
        Pvm(meter.outcomes, meter.projectors, meter.dim)
        assert process.apparatus_state.tolist() == [1.0] + [0.0] * (process.apparatus_dim - 1)
        assert not process.interaction.flags.writeable
        assert not process.apparatus_state.flags.writeable


def test_dilation_interaction_is_unitary_within_op_tol():
    worst = 0.0
    for seed in range(60):
        rng = np.random.default_rng(500 + seed)
        dim = int(rng.integers(1, 6))
        k = int(rng.integers(1, 7))
        u = dilation_model(random_povm(rng, dim, k)).interaction
        worst = max(worst, max_abs(u.conj().T @ u - np.eye(dim * k)))
    assert worst <= OP_TOL


def test_dilation_respects_dimension_cap():
    # 17 outcomes on d = 16 need 272 > 256 dimensions
    povm = Povm(tuple(float(j) for j in range(17)), (np.eye(16) / 17,) * 17, 16)
    with pytest.raises(DimensionError, match="compound dimension 272 exceeds the cap 256"):
        dilation_model(povm)


def test_evolved_meter_projectors_are_projectors():
    process = dilation_model(unsharp_qubit_povm(0.6))
    evolved = evolved_meter(process)
    assert evolved.dim == process.total_dim
    assert is_projective(as_povm(evolved))
    # evolved meters are built unchecked; the public constructor checks them here
    Pvm(evolved.outcomes, evolved.projectors, evolved.dim)


def test_induced_povm_of_random_process_is_valid_povm():
    rng = np.random.default_rng(42)
    for _ in range(5):
        process = random_process(rng, 2, 3)
        induced = induced_povm(process)
        assert induced.dim == 2
        assert len(induced) == 3
        # induced POVMs are built unchecked; the public constructor checks them here
        Povm(induced.outcomes, induced.effects, induced.dim)


def test_von_neumann_respects_dimension_cap():
    # 17 outcomes on d = 17 need 289 > 256 dimensions; 16 on d = 16 fit exactly
    with pytest.raises(DimensionError, match="compound dimension 289 exceeds the cap 256"):
        von_neumann_model(pvm_from_observable(np.diag(np.arange(17.0))))
    assert von_neumann_model(pvm_from_observable(np.diag(np.arange(16.0)))).total_dim == 256


# The stacked builders against the per-operator loops they replaced: the
# arithmetic is the same, so the results must agree bit for bit, signed
# zeros included (scenario_to_json writes them out).

def _assert_same_bits(a, b):
    assert a.shape == b.shape and np.array_equal(a, b)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(a)), np.signbit(part(b)))


def _loop_root(e):
    w, vecs = np.linalg.eigh((e + e.conj().T) / 2)
    noise = len(w) * np.finfo(float).eps * max(1.0, abs(float(w[-1])))
    root = vecs @ np.diag(np.sqrt(np.where(w <= noise, 0.0, w))) @ vecs.conj().T
    return (root + root.conj().T) / 2


def _loop_dilation_interaction(povm):
    n, d = len(povm.outcomes), povm.dim
    roots = np.array([_loop_root(e) for e in povm.effects])
    a, b = roots[0], roots[1:].reshape(-1, d)
    corner = np.eye((n - 1) * d) - b @ np.linalg.solve(np.eye(d) + a, b.conj().T)
    u = np.block([[a, -b.conj().T], [b, corner]])
    return u.reshape(n, d, n, d).transpose(1, 0, 3, 2).reshape(n * d, n * d)


def _loop_von_neumann_interaction(pvm):
    n = len(pvm.outcomes)
    eye = np.eye(n, dtype=complex)
    u = np.zeros((pvm.dim * n, pvm.dim * n), dtype=complex)
    for j, proj in enumerate(pvm.projectors):
        u += np.kron(proj, np.roll(eye, j, axis=0))
    return u


def _loop_evolved(process):
    d, k = process.system_dim, process.apparatus_dim
    rows = process.interaction.reshape(d, k, -1)
    projectors = []
    for p in process.meter.projectors:
        w, vecs = np.linalg.eigh(p)
        g = np.einsum("ar,iaz->irz", vecs[:, w > 0.5].conj(), rows).reshape(-1, d * k)
        evolved = g.conj().T @ g
        projectors.append((evolved + evolved.conj().T) / 2)
    return projectors


def _rank_deficient_povm(rng, dim, n):
    """Effects T^-1/2 G_x T^-1/2 of Grams of random rank, most of them below dim."""
    ranks = rng.integers(1, dim + 1, size=n)
    ranks[-1] = max(ranks[-1], dim - ranks[:-1].sum())  # T = sum_x G_x has full rank
    grams = []
    for r in ranks:
        b = rng.normal(size=(r, dim)) + 1j * rng.normal(size=(r, dim))
        grams.append(b.conj().T @ b)
    w, v = np.linalg.eigh(sum(grams))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    effects = [(e + e.conj().T) / 2 for e in (inv_sqrt @ g @ inv_sqrt for g in grams)]
    return Povm(tuple(float(x) for x in range(n)), tuple(effects), dim)


def _pvm(rng, dim, n):
    if n == 1:
        return Pvm((0.0,), (np.eye(dim, dtype=complex),), dim)
    return random_pvm(rng, dim, n)


def _assert_evolved_like_the_loop(process):
    for fast, slow in zip(evolved_meter(process).projectors, _loop_evolved(process)):
        _assert_same_bits(fast, slow)


@pytest.mark.parametrize("seed", range(3))
def test_dilation_model_matches_the_per_effect_loop(seed):
    rng = np.random.default_rng(seed)
    for dim in range(1, 5):
        for n in range(1, 5):
            povms = [_rank_deficient_povm(rng, dim, n)]
            if n <= dim:
                povms.append(as_povm(_pvm(rng, dim, n)))
            for povm in povms:
                process = dilation_model(povm)
                _assert_same_bits(process.interaction, _loop_dilation_interaction(povm))
                _assert_evolved_like_the_loop(process)


@pytest.mark.parametrize("seed", range(3))
def test_von_neumann_model_matches_the_kron_loop(seed):
    rng = np.random.default_rng(seed)
    for dim in range(1, 7):
        for k in range(1, min(dim, 4) + 1):
            # dim - k eigenvalues repeat, so most projectors have rank > 1
            pvm = pvm_from_observable(random_hermitian_with_outcomes(rng, dim, k))
            process = von_neumann_model(pvm)
            _assert_same_bits(process.interaction, _loop_von_neumann_interaction(pvm))
            _assert_evolved_like_the_loop(process)


@pytest.mark.parametrize("seed", range(3))
def test_evolve_meter_matches_the_per_projector_loop(seed):
    rng = np.random.default_rng(seed)
    for d in range(1, 4):
        for k in range(1, 5):
            meter = _pvm(rng, k, int(rng.integers(1, k + 1)))  # degenerate when fewer than k
            process = MeasurementProcess(d, k, random_state(rng, k),
                                         random_unitary(rng, d * k), meter)
            _assert_evolved_like_the_loop(process)


def test_builders_take_one_eigh_per_call(monkeypatch):
    rng = np.random.default_rng(11)
    povm = random_povm(rng, 3, 4)
    process = random_process(rng, 2, 4)
    calls = []
    eigh = np.linalg.eigh

    def counting(a):
        calls.append(np.shape(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    dilation_model(povm)
    assert calls == [(4, 3, 3)]
    calls.clear()
    evolved_meter(process)
    assert calls == [(4, 4, 4)]


# A model process builds its interaction on the first read of process.interaction.

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("model", ["von_neumann", "dilation"])
def test_a_loaded_model_pair_runs_every_experiment_without_its_interaction(monkeypatch, model):
    refuse_interaction_builders(monkeypatch)
    doc = json.loads((ROOT / "scenarios" / "oit_sigma_z.json").read_text())
    doc["processes"] = [{"model": model}] * 2
    for experiment, count in (("oit", 2), ("joint", 2), ("sample", 2), ("induce", 1),
                              ("reproduce", 1)):
        scenario = load_scenario({**doc, "experiment": experiment,
                                  "processes": doc["processes"][:count]})
        run_experiment(scenario)
        assert all("interaction" not in vars(p) for p in scenario.processes)
    with pytest.raises(AssertionError, match="a model interaction was built"):
        scenario.processes[0].interaction


def _models(seed):
    rng = np.random.default_rng(seed)
    pvm = pvm_from_observable(random_hermitian_with_outcomes(rng, 3, 2))
    return pvm, von_neumann_model(pvm), dilation_model(random_povm(rng, 2, 3))


@pytest.mark.parametrize("seed", range(2))
def test_the_first_read_builds_the_eager_interaction_once(seed):
    pvm, pointer, dilation = _models(seed)
    (roots,) = dilation._instrument.roots
    eager = (_loop_von_neumann_interaction(pvm), measurement._dilation_unitaries(roots[None])[0])
    for process, want in zip((pointer, dilation), eager):
        assert "interaction" not in vars(process)
        u = process.interaction
        _assert_same_bits(u, want)
        assert not u.flags.writeable
        assert process.interaction is u and vars(process)["interaction"] is u


def test_replace_copy_and_pickle_keep_the_lazy_interaction():
    pvm, pointer, dilation = _models(5)
    for process in (pointer, dilation):
        # copies of a process that was never read hold its builder, not its interaction
        twins = copy.deepcopy(process), pickle.loads(pickle.dumps(process))
        assert all("interaction" not in vars(p) for p in (process, *twins))
        for twin in twins:
            assert twin.interaction.tobytes() == process.interaction.tobytes()
            for e, f in zip(twin._instrument.effects[0], process._instrument.effects[0]):
                assert np.array_equal(e, f)
        # the checking constructor keeps the interaction it is given and records its
        # effects from it, with no roots; its builder stacks that same interaction
        u = np.array(process.interaction)
        checked = dataclasses.replace(process, interaction=u)
        assert checked._instrument.roots is None and checked._instrument.factors is None
        (effects,), (recorded,) = checked._instrument.effects, process._instrument.effects
        assert np.max(np.abs(effects - recorded)) <= 1e-15
        assert checked.interaction is not u and np.array_equal(checked.interaction, u)
        assert np.shares_memory(checked._instrument.build(), checked.interaction)
    with pytest.raises(AttributeError, match="no attribute 'no_such_field'"):
        pointer.no_such_field


# Every process records its effects on H; a checked one takes them from its Kraus rows.

@settings(max_examples=12, deadline=None, derandomize=True)
@given(d=st.integers(1, 8), k=st.integers(1, MAX_DIM), n=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_the_kraus_effects_are_the_pinched_evolved_meters(d, k, n, seed):
    # meters with n < k outcomes have rank > 1 projectors, xi is a random state
    # outside the meter's basis, and d k runs up to the cap
    k = max(1, min(k, MAX_DIM // d))
    rng = np.random.default_rng(seed)
    process = MeasurementProcess(d, k, random_state(rng, k), random_unitary(rng, d * k),
                                 random_pvm(rng, k, min(n, k)))
    (effects,) = process._instrument.effects
    assert process._instrument.roots is None
    assert np.max(np.abs(effects - pinched_effects(process))) <= 1e-12
    assert np.array_equal(np.array(induced_povm(process).effects), effects)


@pytest.mark.parametrize("seed", range(4))
def test_a_model_rebuilt_as_custom_gives_back_its_recorded_effects(seed):
    rng = np.random.default_rng(900 + seed)
    d = 1 + seed
    models = (von_neumann_model(random_pvm(rng, d, max(1, d - 1))),
              dilation_model(random_povm(rng, d, 3)))
    for model in models:
        (recorded,), (kraus,) = model._instrument.effects, as_custom(model)._instrument.effects
        assert np.max(np.abs(kraus - recorded)) <= 1e-12


def test_a_loaded_custom_process_induces_and_reproduces_without_evolving_its_meter(monkeypatch):
    refuse_meter_evolution(monkeypatch)
    rng = np.random.default_rng(17)
    pvm = random_pvm(rng, 3, 2)
    psi = random_state(rng, 3)
    for experiment in ("induce", "reproduce"):
        doc = scenario_to_json(psi, pvm, [von_neumann_model(pvm)], experiment)
        assert doc["processes"][0]["model"] == "custom"
        results = run_experiment(load_scenario(doc))["results"]
        assert results.get("projective", True) and results.get("reproducible", True)


def test_repr_of_an_unread_model_builds_no_interaction():
    _, pointer, dilation = _models(6)
    for process in (pointer, dilation):
        text = repr(process)
        assert "interaction" not in vars(process) and "interaction" not in text
        assert text.startswith("MeasurementProcess(system_dim=")


def test_scenario_to_json_writes_the_eager_interaction():
    pvm, pointer, _ = _models(7)
    eager = MeasurementProcess(pvm.dim, pointer.apparatus_dim, pointer.apparatus_state,
                               _loop_von_neumann_interaction(pvm), pointer.meter)
    psi = random_state(np.random.default_rng(7), pvm.dim)
    docs = [json.dumps(scenario_to_json(psi, pvm, [p, p], "oit")) for p in (pointer, eager)]
    assert docs[0] == docs[1]
