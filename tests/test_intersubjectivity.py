import dataclasses
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from conftest import (
    PAULI_X,
    as_custom,
    controlled_process,
    pointer_meter,
    random_hermitian_with_outcomes,
    random_labels,
    random_povm,
    random_pvm,
    random_state,
    random_unitary,
)
from qmeasure import (
    PAULI_Z,
    DimensionError,
    JointDistribution,
    MeasurementProcess,
    NonCommutingMetersError,
    Povm,
    PreconditionError,
    Pvm,
    ValidationError,
    agreement_probability,
    as_povm,
    born_povm,
    check_reproducibility,
    compose,
    dilation_model,
    evolve_meter,
    induced_povm,
    intersubjectivity,
    is_projective,
    joint_distribution,
    load_scenario,
    load_scenario_file,
    measurement,
    observables,
    pvm_from_observable,
    pvm_to_json,
    run_experiment,
    sample_outcomes,
    scenario_to_json,
    sweep_agreement,
    table_agreement,
    unsharp_qubit_povm,
    verify_oit,
    von_neumann_model,
)
from qmeasure.intersubjectivity import COMMUTATION_TOL
from qmeasure.linalg import _psd_roots

SIGMA_Z_PVM = pvm_from_observable(PAULI_Z)
SIGMA_X_PVM = pvm_from_observable(PAULI_X)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
GROUND = np.array([1, 0], dtype=complex)
DATA = pathlib.Path(__file__).resolve().parent / "data"
ROOT = DATA.parent.parent


def _accurate_z_scenario(psi):
    return compose(psi, von_neumann_model(SIGMA_Z_PVM), von_neumann_model(SIGMA_Z_PVM))


def _unsharp_scenario(eta, psi):
    povm = unsharp_qubit_povm(eta)
    return compose(psi, dilation_model(povm), dilation_model(povm))


def test_compose_two_pointer_models_commute():
    js = _accurate_z_scenario(PLUS)
    assert js.max_commutator_norm < 1e-10
    assert js.max_commutator_norm <= COMMUTATION_TOL
    assert js.total_dim == 8


def test_compose_two_dilations_commute():
    js = _unsharp_scenario(0.8, GROUND)
    assert js.max_commutator_norm < 1e-9
    assert js.max_commutator_norm <= COMMUTATION_TOL


def test_compose_embedded_meters_pass_the_pvm_checks():
    # each evolved meter stays on H x K_i, built unchecked; the public constructor checks it
    # here. Custom copies: the models themselves are decided on H and evolve no meter
    low, high = unsharp_qubit_povm(0.7).effects
    three = Povm((-1.0, 0.0, 1.0), (low / 2, low / 2, high), 2)
    p1, p2 = as_custom(von_neumann_model(SIGMA_Z_PVM)), as_custom(dilation_model(three))
    js = compose(PLUS, p1, p2)
    assert js.total_dim == 2 * 2 * 3
    assert len(js._meters) == 2
    for meters, process in zip(js._meters, (p1, p2)):
        assert process.total_dim == 2 * process.apparatus_dim
        assert np.array_equal(meters, np.array(evolve_meter(process).projectors))
        Pvm(process.meter.outcomes, meters, process.total_dim)


def test_oit_run_checks_only_the_observable_as_a_pvm(monkeypatch):
    # a declared pvm is checked once, by the public constructor its decoder
    # calls; a hermitian_matrix's spectral PVM is derived and trusted
    checks = []
    original = Pvm.__post_init__

    def counting(self):
        checks.append(self)
        original(self)

    monkeypatch.setattr(Pvm, "__post_init__", counting)
    path = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "oit_sigma_z.json"
    doc = json.loads(path.read_text())
    assert "hermitian_matrix" in doc["observable"]
    assert run_experiment(load_scenario(doc))["results"]["intersubjective"] is True
    assert checks == []
    doc["observable"] = {"pvm": pvm_to_json(SIGMA_Z_PVM)}
    assert run_experiment(load_scenario(doc))["results"]["intersubjective"] is True
    assert len(checks) == 1


def test_oit_run_evolves_each_meter_once(monkeypatch):
    evolved, pinched = [], []
    original, pinch = measurement._evolved_meters, measurement._pinch

    def counting(interactions, meter, system_dim):
        evolved.append(interactions)
        return original(interactions, meter, system_dim)

    def counting_pinch(meters, xi):
        pinched.append(meters)
        return pinch(meters, xi)

    # compose and induced_povm look the kernels up in their own modules
    for module in (intersubjectivity, measurement):
        monkeypatch.setattr(module, "_evolved_meters", counting)
        monkeypatch.setattr(module, "_pinch", counting_pinch)
    root = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    oit = load_scenario_file(root / "oit_sigma_z.json")
    joint = load_scenario_file(root / "unsharp_eta08.json")
    doc = scenario_to_json(PLUS, SIGMA_Z_PVM, oit.processes, "oit")
    custom = load_scenario(doc)
    # the second entry's unitary times -1: the same meters from an unequal entry
    doc["processes"][1]["unitary"]["entries"] = [
        [-re, -im] for re, im in doc["processes"][1]["unitary"]["entries"]]
    unequal = load_scenario(doc)
    # equal entries are one process shared by both observers, unequal ones are built one by one
    assert oit.processes[0] is oit.processes[1]
    assert joint.processes[0] is joint.processes[1]
    assert custom.processes[0] is custom.processes[1]
    assert unequal.processes[0] is not unequal.processes[1]
    for scenario, distinct in ((oit, 0), (joint, 0), (custom, 1), (unequal, 2)):
        evolved.clear()
        pinched.clear()
        report = run_experiment(scenario)
        assert report["diagnostics"]["commuting"] is True
        # a model pair decided on H evolves no meter; a custom pair, one evolution
        # per distinct process, each of that process's own interaction
        assert len(evolved) == distinct
        owners = [[p for p in scenario.processes if np.shares_memory(u, p.interaction)]
                  for u in evolved]
        assert all(len({id(p) for p in found}) == 1 for found in owners)
        assert {id(found[0]) for found in owners} == (
            {id(p) for p in scenario.processes} if distinct else set())
        # the reproducibility check and the table share one pinch per distinct process
        assert len(pinched) == distinct
        assert all(m.shape[0] == 1 for m in evolved + pinched)
    assert report["results"]["intersubjective"] is True


def _refuse_compound_stages(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a compound-space stage ran for two model processes")

    kernels = ("_evolved_meters", "_pinch")
    for module, names in ((measurement, kernels),
                          (intersubjectivity, kernels + ("_span_bounds", "_max_commutator_norm"))):
        for name in names:
            monkeypatch.setattr(module, name, refuse)


def test_pointer_pair_runs_build_nothing_on_the_compound_space(monkeypatch):
    # two von_neumann models are decided on H: no evolved meter, span bound,
    # pinch or pair loop, for compose and for the eta sweep alike
    _refuse_compound_stages(monkeypatch)
    doc = json.loads((ROOT / "scenarios" / "oit_sigma_z.json").read_text())
    for experiment in ("oit", "joint", "sample"):
        diagnostics = run_experiment(load_scenario({**doc, "experiment": experiment}))["diagnostics"]
        assert (diagnostics["commuting"], diagnostics["max_commutator_norm"]) == (True, 0.0)
    sweep = json.loads((ROOT / "scenarios" / "unsharp_eta08.json").read_text())
    sweep["processes"] = [{"model": "von_neumann"}] * 2
    sweep["observable"] = {"unsharp": {"eta": 1.0}}
    assert sweep_agreement(load_scenario(sweep), [1.0, 1.0]) == [(1.0, 1.0)] * 2


def test_a_pointer_model_reproduces_from_its_record(monkeypatch):
    # reproduce, induce and verify_oit read the projectors von_neumann_model
    # recorded: no meter is evolved and the deviation is exactly 0
    _refuse_compound_stages(monkeypatch)
    doc = json.loads((ROOT / "scenarios" / "oit_sigma_z.json").read_text())
    doc["processes"] = doc["processes"][:1]
    report = run_experiment(load_scenario({**doc, "experiment": "reproduce"}))
    assert report["results"]["reproducible"] is True
    assert report["results"]["max_operator_deviation"] == 0.0
    assert run_experiment(load_scenario({**doc, "experiment": "induce"}))["results"]["projective"]
    rng = np.random.default_rng(41)
    pvm = random_pvm(rng, 4, 3)
    process = von_neumann_model(pvm)
    induced = induced_povm(process).effects
    (composed,) = compose(random_state(rng, 4), process, process)._effects[0]
    assert all(np.shares_memory(e, f) for e, f in zip(induced, composed))
    assert check_reproducibility(process, pvm).max_operator_deviation == 0.0


def test_a_dilation_model_runs_from_its_record(monkeypatch):
    # induce, reproduce and the two-process experiments read the effects and roots
    # dilation_model recorded: no meter is evolved, spanned or pinched
    rng = np.random.default_rng(43)
    povm = random_povm(rng, 3, 4)
    process = dilation_model(povm)
    (effects,), (roots,), _ = process._instrument
    assert all(np.array_equal(e, f) for e, f in zip(effects, povm.effects))
    assert np.array_equal(roots, _psd_roots(effects))
    assert np.array_equal(process.interaction, measurement._dilation_unitaries(roots[None])[0])
    _refuse_compound_stages(monkeypatch)
    assert all(np.shares_memory(e, f) for e, f in zip(induced_povm(process).effects, effects))
    doc = json.loads((ROOT / "scenarios" / "unsharp_eta08.json").read_text())
    for experiment, count in (("induce", 1), ("joint", 2), ("sample", 2)):
        doc = {**doc, "experiment": experiment, "processes": doc["processes"][:1] * count}
        assert run_experiment(load_scenario(doc))["experiment"] == experiment
    doc["observable"] = {"unsharp": {"eta": 1.0}}
    for experiment, count in (("reproduce", 1), ("oit", 2)):
        doc = {**doc, "experiment": experiment, "processes": doc["processes"][:1] * count}
        report = run_experiment(load_scenario(doc))["results"]
        assert report.get("max_operator_deviation", 0.0) == 0.0
        assert report.get("intersubjective", True) is True


def _commuting_model_pairs(rng, d):
    """Model pairs on d dims whose effects commute: dilation pairs and mixed pairs."""
    v = random_unitary(rng, d)
    pvm = Pvm(tuple(range(d)), tuple(np.outer(v[:, j], v[:, j].conj()) for j in range(d)), d)

    def povm(n):  # random effects diagonal in the basis of v
        w = rng.random((n, d))
        w /= w.sum(axis=0)
        return Povm(tuple(range(n)), tuple(v @ np.diag(x) @ v.conj().T for x in w), d)

    dil, vn = dilation_model(povm(3)), von_neumann_model(pvm)
    return [(dil, dil), (dil, dilation_model(povm(2))), (vn, dil), (dil, vn)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_max_commutator_norm_of_a_pair_decided_on_h_is_the_exact_loop(d):
    # a dilation or mixed pair decided on H keeps no meters; its exact norm evolves
    # both processes' meters on first read, bit for bit the loop over evolve_meter's
    rng = np.random.default_rng(50 + d)
    for p1, p2 in _commuting_model_pairs(rng, d):
        js = compose(random_state(rng, d), p1, p2)
        assert js._meters == () and js.commuting
        meters = [measurement._evolved_meters(p.interaction[None], p.meter, d)[0]
                  for p in (p1, p2)]
        exact = intersubjectivity._max_commutator_norm(*meters, d)
        copy = dataclasses.replace(js, commutation_tol=0.0)
        assert copy.max_commutator_norm == exact
        assert js.max_commutator_norm == exact <= js.commutator_bound
        assert copy.commuting == (exact <= 0.0)


def test_compose_incompatible_observables_flagged_not_local():
    js = compose(PLUS, von_neumann_model(SIGMA_Z_PVM), von_neumann_model(SIGMA_X_PVM))
    assert js.max_commutator_norm > COMMUTATION_TOL
    assert js.max_commutator_norm == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(NonCommutingMetersError):
        joint_distribution(js)


def test_compose_dimension_mismatch():
    qutrit = pvm_from_observable(np.diag([1.0, 2.0, 3.0]).astype(complex))
    with pytest.raises(DimensionError):
        compose(PLUS, von_neumann_model(SIGMA_Z_PVM), von_neumann_model(qutrit))


def _pointer_models(d):
    pvm = pvm_from_observable(np.diag(np.arange(d, dtype=float)))
    return np.ones(d) / np.sqrt(d), von_neumann_model(pvm), von_neumann_model(pvm)


def test_compose_respects_dimension_cap():
    # d = 7 pointer models compose to 7**3 = 343 > 256; d = 6 composes to 216
    with pytest.raises(DimensionError, match="compound dimension 343 exceeds the cap 256"):
        compose(*_pointer_models(7))
    assert compose(*_pointer_models(6)).total_dim == 216


def test_joint_distribution_superposition_oracle():
    dist = joint_distribution(_accurate_z_scenario(PLUS))
    assert dist.outcomes1 == (-1.0, 1.0)
    assert max(abs(dist.probabilities[i, j] - (0.5 if i == j else 0.0))
               for i in range(2) for j in range(2)) < 1e-12


def test_joint_distribution_eigenstate_oracle():
    dist = joint_distribution(_accurate_z_scenario(GROUND))
    assert dist.probabilities[1, 1] == pytest.approx(1.0, abs=1e-12)
    assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_joint_distribution_unsharp_oracle():
    # P(x,y) = <0| Pi(x) Pi(y) |0> for the commuting eta = 0.8 effects
    dist = joint_distribution(_unsharp_scenario(0.8, GROUND))
    expected = np.array([[0.01, 0.09], [0.09, 0.81]])
    assert np.abs(dist.probabilities - expected).max() < 1e-9


def test_joint_distribution_marginals_match_induced_povms():
    for js in (_unsharp_scenario(0.6, PLUS), _accurate_z_scenario(PLUS)):
        dist = joint_distribution(js)
        born1 = born_povm(induced_povm(js.process1), js.psi)
        born2 = born_povm(induced_povm(js.process2), js.psi)
        assert dist.marginal1() == pytest.approx(born1.probabilities, abs=1e-9)
        assert dist.marginal2() == pytest.approx(born2.probabilities, abs=1e-9)


def test_a_replaced_scenario_holds_the_effects_compose_passed():
    # compose passes its evolved meters and pinched effects to the scenario as fields,
    # so a copy made with dataclasses.replace holds the same arrays and gives the same numbers
    rng = np.random.default_rng(31)
    shared = von_neumann_model(SIGMA_Z_PVM)
    pairs = [(shared, shared), (shared, dilation_model(unsharp_qubit_povm(1.0))),
             (controlled_process(rng, SIGMA_Z_PVM.projectors, 2, 3),
              controlled_process(rng, SIGMA_Z_PVM.projectors, 2, 2))]
    for p1, p2 in pairs:
        js = compose(PLUS, p1, p2)
        copy = dataclasses.replace(js, commutation_tol=js.commutation_tol)
        assert all(a is b for a, b in zip(copy._effects, js._effects))
        assert (copy._effects[1] is copy._effects[0]) == (p2 is p1)
        assert all(a is b for a, b in zip(copy._meters, js._meters))
        assert copy.max_commutator_norm == js.max_commutator_norm
        for effects, process in zip(js._effects, (p1, p2)):
            assert np.array_equal(effects[0], np.array(induced_povm(process).effects))
        got, want = joint_distribution(copy), joint_distribution(js)
        assert np.array_equal(got.probabilities, want.probabilities)
        if p1.meter.outcomes == p2.meter.outcomes:
            assert verify_oit(copy, SIGMA_Z_PVM).diagonal == verify_oit(js, SIGMA_Z_PVM).diagonal


def test_composed_effects_and_derived_tables_are_frozen():
    # a write to a scenario's effects would move every later table built from them
    js = compose(PLUS, von_neumann_model(SIGMA_Z_PVM), von_neumann_model(SIGMA_Z_PVM))
    for effects in js._effects:
        with pytest.raises(ValueError):
            effects[0, 0] = 0
    # the records built trusted from checked tables are frozen as the constructor freezes them
    sample = sample_outcomes(js, 10, seed=1)
    for dist in (joint_distribution(js), sample.empirical, sample.analytic):
        assert not dist.probabilities.flags.writeable
    assert table_agreement(joint_distribution(js)) == pytest.approx(1.0, abs=1e-12)


def _swapped_pairs():
    """(psi, p1, p2): a pointer/dilation pair, a recorded custom pair, random controlled pairs."""
    yield (np.array([0.6, 0.8j], dtype=complex), von_neumann_model(SIGMA_Z_PVM),
           dilation_model(unsharp_qubit_povm(0.7)))
    recorded = load_scenario_file(DATA / "joint_unequal_apparatus_d3.json")
    yield (recorded.psi, *recorded.processes)
    rng = np.random.default_rng(91)
    for d in range(1, 5):
        for _ in range(3):
            projectors = random_pvm(rng, d, int(rng.integers(1, d + 1))).projectors
            k1, k2 = rng.integers(1, 5, size=2)
            yield (random_state(rng, d), controlled_process(rng, projectors, d, int(k1)),
                   controlled_process(rng, projectors, d, int(k2)))


def test_swap_symmetry_transposes_the_table():
    for psi, p1, p2 in _swapped_pairs():
        dist12 = joint_distribution(compose(psi, p1, p2))
        dist21 = joint_distribution(compose(psi, p2, p1))
        assert (dist12.outcomes1, dist12.outcomes2) == (dist21.outcomes2, dist21.outcomes1)
        assert np.abs(dist12.probabilities - dist21.probabilities.T).max() <= 1e-12


def _rotated_diagonal_povms(rng, dim, k):
    """A POVM of diagonal effects and the same POVM in a random basis W."""
    weights = rng.dirichlet(np.ones(k), size=dim).T  # weights[x, i] sums to 1 over x
    labels = tuple(random_labels(rng, k))
    diagonal = Povm(labels, tuple(np.diag(w).astype(complex) for w in weights), dim)
    w = random_unitary(rng, dim)
    rotated = Povm(labels, tuple(w @ e @ w.conj().T for e in diagonal.effects), dim)
    return diagonal, rotated, w


@pytest.mark.parametrize("seed", range(8))
def test_dilations_of_commuting_effects_are_local_in_any_basis(seed):
    # conjugating the observable and psi by W conjugates each dilation by W x I,
    # so the pair stays local and the table is the diagonal pair's
    rng = np.random.default_rng(seed)
    dim, k = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    diagonal, rotated, w = _rotated_diagonal_povms(rng, dim, k)
    psi = random_state(rng, dim)
    base = compose(psi, dilation_model(diagonal), dilation_model(diagonal))
    js = compose(w @ psi, dilation_model(rotated), dilation_model(rotated))
    assert js.commutator_bound <= 1e-12
    table = joint_distribution(js).probabilities
    assert np.abs(table - joint_distribution(base).probabilities).max() <= 1e-12
    # closed form for commuting effects: sum_x <psi|Pi_x^2|psi>
    expected = sum(np.vdot(psi, e @ e @ psi).real for e in diagonal.effects)
    assert abs(agreement_probability(js) - expected) <= 1e-12


def test_dilations_of_non_commuting_effects_stay_non_local():
    rng = np.random.default_rng(11)
    povm = random_povm(rng, 3, 3)
    js = compose(random_state(rng, 3), dilation_model(povm), dilation_model(povm))
    assert js.max_commutator_norm > COMMUTATION_TOL
    with pytest.raises(NonCommutingMetersError):
        joint_distribution(js)


@pytest.mark.parametrize("seed", range(5))
def test_oit_holds_for_pointer_models_of_random_observables(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    k = int(rng.integers(2, min(dim, 4) + 1))
    pvm = pvm_from_observable(random_hermitian_with_outcomes(rng, dim, k))
    psi = random_state(rng, dim)
    js = compose(psi, von_neumann_model(pvm), von_neumann_model(pvm))
    report = verify_oit(js, pvm)
    assert report.intersubjective
    assert report.off_diagonal_mass < 1e-9
    assert report.max_diagonal_deviation < 1e-9


def test_oit_qutrit_degenerate_oracle():
    pvm = pvm_from_observable(np.diag([3.0, 3.0, 7.0]).astype(complex))
    psi = np.ones(3, dtype=complex) / np.sqrt(3)
    js = compose(psi, von_neumann_model(pvm), von_neumann_model(pvm))
    report = verify_oit(js, pvm)
    assert report.intersubjective
    assert report.diagonal[3.0] == pytest.approx(2 / 3, abs=1e-12)
    assert report.diagonal[7.0] == pytest.approx(1 / 3, abs=1e-12)
    assert report.off_diagonal_mass == pytest.approx(0.0, abs=1e-12)


def test_verdict_and_sampler_return_the_joint_table_they_used():
    js = _unsharp_scenario(0.8, GROUND)
    table = joint_distribution(js).probabilities
    assert np.array_equal(sample_outcomes(js, 10, seed=1).analytic.probabilities, table)
    accurate = _accurate_z_scenario(PLUS)
    report = verify_oit(accurate, SIGMA_Z_PVM)
    assert np.array_equal(report.joint.probabilities, joint_distribution(accurate).probabilities)


def test_oit_precondition_rejects_non_reproducing_process():
    trivial = MeasurementProcess(
        2, 2, GROUND.copy(), np.eye(4, dtype=complex), pointer_meter(2)
    )
    js = compose(PLUS, von_neumann_model(SIGMA_Z_PVM), trivial)
    with pytest.raises(PreconditionError):
        verify_oit(js, SIGMA_Z_PVM)


def test_oit_precondition_rejects_unsharp_processes():
    js = _unsharp_scenario(0.8, GROUND)
    with pytest.raises(PreconditionError):
        verify_oit(js, SIGMA_Z_PVM)


def test_agreement_is_one_under_oit_hypotheses():
    assert agreement_probability(_accurate_z_scenario(PLUS)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "eta,expected",
    [(0.0, 0.5), (0.25, 0.53125), (0.5, 0.625), (0.75, 0.78125), (0.8, 0.82), (1.0, 1.0)],
)
def test_agreement_curve_oracle(eta, expected):
    # closed form ((1+eta)^2 + (1-eta)^2) / 4 on the ground state
    assert agreement_probability(_unsharp_scenario(eta, GROUND)) == pytest.approx(
        expected, abs=1e-9
    )


def test_agreement_strictly_increases_with_sharpness():
    values = [agreement_probability(_unsharp_scenario(eta, GROUND))
              for eta in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(0.5, abs=1e-12)
    assert values[-1] == pytest.approx(1.0, abs=1e-12)


def test_dense_sweep_follows_the_closed_form_curve():
    # 101 etas, endpoints included, at the benchmark's curve tolerance
    scenario = load_scenario_file(DATA.parent.parent / "scenarios" / "unsharp_eta08.json")
    etas = np.linspace(0.0, 1.0, 101).tolist()
    rows = sweep_agreement(scenario, etas)
    assert [eta for eta, _ in rows] == etas
    for eta, agreement in rows:
        assert abs(agreement - ((1 + eta) ** 2 + (1 - eta) ** 2) / 4) <= 1e-12


def test_sweep_of_a_dilation_pair_never_asks_for_a_pvm(monkeypatch):
    # a dilation realizes any POVM, so no sweep point needs a projectivity test
    scenario = load_scenario_file(DATA.parent.parent / "scenarios" / "unsharp_eta08.json")

    def refuse(povm):
        raise AssertionError("is_projective called by a dilation sweep")

    monkeypatch.setattr("qmeasure.scenario.is_projective", refuse)
    etas = np.linspace(0.0, 1.0, 21).tolist()
    rows = sweep_agreement(scenario, etas)
    assert [eta for eta, _ in rows] == etas
    for eta, agreement in rows:
        assert abs(agreement - ((1 + eta) ** 2 + (1 - eta) ** 2) / 4) <= 1e-12


@pytest.mark.parametrize("experiment", ["oit", "reproduce"])
@pytest.mark.parametrize("model", ["von_neumann", "dilation"])
@pytest.mark.parametrize("observable", ["povm", "unsharp"])
def test_a_load_tests_projectivity_once(monkeypatch, observable, model, experiment):
    # the von_neumann model and the experiment both need the PVM; it is derived once
    doc = scenario_to_json(PLUS, as_povm(SIGMA_Z_PVM), [], experiment)
    if observable == "unsharp":
        doc["observable"] = {"unsharp": {"eta": 1.0}}
    doc["processes"] = [{"model": model}] * (2 if experiment == "oit" else 1)
    calls = []

    def counted(povm):
        calls.append(povm)
        return is_projective(povm)

    monkeypatch.setattr("qmeasure.scenario.is_projective", counted)
    scenario = load_scenario(doc)
    assert len(calls) == 1
    assert isinstance(scenario.observable, Pvm)
    assert run_experiment(scenario)["experiment"] == experiment


def _tilted_pair():
    # pointer models of sigma_z and of sigma_z turned by 0.1 rad, as custom entries,
    # so that the span bound decides; on GROUND the exact commutator norm is 0.099,
    # the bound 0.56, and the table a probability
    turn = np.array([[np.cos(0.1), -np.sin(0.1)], [np.sin(0.1), np.cos(0.1)]])
    tilted = pvm_from_observable((turn @ PAULI_Z @ turn.T).astype(complex))
    pair = [von_neumann_model(SIGMA_Z_PVM), von_neumann_model(tilted)]
    return load_scenario(scenario_to_json(GROUND, SIGMA_Z_PVM, pair, "joint")).processes


LOCALITY_CONSUMERS = {
    "joint_distribution": joint_distribution,
    "agreement_probability": agreement_probability,
    # the tilted process does not reproduce sigma_z within the default tolerance
    "verify_oit": lambda js: verify_oit(js, SIGMA_Z_PVM, reproducibility_tol=1.0),
    "sample_outcomes": lambda js: sample_outcomes(js, 100, seed=1),
}


@pytest.mark.parametrize("consumer", list(LOCALITY_CONSUMERS.values()),
                         ids=list(LOCALITY_CONSUMERS))
def test_every_consumer_reads_the_verdict_compose_made(consumer):
    strict = compose(GROUND, *_tilted_pair(), commutation_tol=0.05)
    loose = compose(GROUND, *_tilted_pair(), commutation_tol=0.2)
    exact = strict.max_commutator_norm
    assert 0.05 < exact < 0.2 < loose.commutator_bound
    assert (strict.commuting, loose.commuting) == (False, True)
    assert strict.locality_value == loose.locality_value == exact
    with pytest.raises(NonCommutingMetersError, match=f"{exact:.3e} > 0.05"):
        consumer(strict)
    consumer(loose)


def test_run_reports_the_verdict_the_consumers_read():
    scenario = load_scenario(scenario_to_json(GROUND, SIGMA_Z_PVM, _tilted_pair(), "joint"))
    exact = compose(GROUND, *scenario.processes).max_commutator_norm
    report = run_experiment(scenario, tol_override=0.2)
    assert report["diagnostics"]["commuting"] is True
    assert report["diagnostics"]["max_commutator_norm"] == exact
    assert report["diagnostics"]["tolerances"]["commutation"] == 0.2
    with pytest.raises(NonCommutingMetersError, match=f"{exact:.3e} > 0.05"):
        run_experiment(scenario, tol_override=0.05)


def test_agreement_propagates_non_commuting_error():
    js = compose(PLUS, von_neumann_model(SIGMA_Z_PVM), von_neumann_model(SIGMA_X_PVM))
    with pytest.raises(NonCommutingMetersError):
        agreement_probability(js)


def test_sampling_is_deterministic_per_seed():
    js = _unsharp_scenario(0.8, GROUND)
    first = sample_outcomes(js, 500, seed=21)
    second = sample_outcomes(js, 500, seed=21)
    other = sample_outcomes(js, 500, seed=22)
    assert np.array_equal(first.counts, second.counts)
    assert not np.array_equal(first.counts, other.counts)
    assert first.counts.sum() == 500


def test_sampling_accurate_scenario_never_disagrees():
    js = _accurate_z_scenario(PLUS)
    result = sample_outcomes(js, 100_000, seed=3)
    assert result.empirical.outcomes1 == result.empirical.outcomes2
    assert np.trace(result.counts) == result.counts.sum() == 100_000
    assert table_agreement(result.empirical) == pytest.approx(1.0, abs=1e-12)


def test_sampling_zero_mass_cells_never_drawn():
    js = _accurate_z_scenario(GROUND)
    result = sample_outcomes(js, 20_000, seed=9)
    assert result.counts[1, 1] == 20_000


def test_sampling_converges_to_the_joint_table():
    n = 100_000
    js = _unsharp_scenario(0.8, GROUND)
    analytic = joint_distribution(js).probabilities
    result = sample_outcomes(js, n, seed=17)
    sigma = np.sqrt(analytic * (1 - analytic) / n)
    assert np.all(np.abs(result.empirical.probabilities - analytic) <= 5 * sigma + 1e-12)
    assert table_agreement(result.empirical) == pytest.approx(0.82, abs=0.01)


def test_sample_count_gate():
    with pytest.raises(ValidationError):
        sample_outcomes(_accurate_z_scenario(PLUS), 0, seed=1)


@pytest.mark.parametrize("n", [2.9, 3.0, True, "3", np.float64(3.0)])
def test_sample_count_must_be_an_integer(n):
    # the loader's rule: a count is an integer, never truncated from a float or a bool
    with pytest.raises(ValidationError, match="sample count must be an integer >= 1"):
        sample_outcomes(_accurate_z_scenario(PLUS), n, seed=1)


def test_sample_count_accepts_numpy_integers():
    result = sample_outcomes(_accurate_z_scenario(PLUS), np.int64(3), seed=1)
    assert result.counts.sum() == 3


def _pointer_pair(labels, psi):
    pvm = pvm_from_observable(np.diag(labels))
    return compose(np.asarray(psi, dtype=complex), von_neumann_model(pvm), von_neumann_model(pvm))


# d=3: three diagonal cells. d=4 with psi = (0, 0.6, 0.8i, 0): zero cells at the
# start, the middle and the end of the flattened table. Unsharp: no zero cells.
SAMPLER_TABLES = {
    "d3": lambda: _pointer_pair([-1.0, 0.0, 1.0], np.array([1.0, 2.0j, -1.5]) / np.sqrt(7.25)),
    "d4": lambda: _pointer_pair([0.0, 1.0, 2.0, 3.0], [0.0, 0.6, 0.8j, 0.0]),
    "unsharp": lambda: _unsharp_scenario(0.8, GROUND),
}


@pytest.mark.parametrize(
    "table,seed,n,expected",
    [
        # recorded with the per-draw searchsorted/clip/bincount sampler
        ("d3", 0, 1, [[0, 0, 0], [0, 1, 0], [0, 0, 0]]),
        ("d3", 5, 65_536, [[8997, 0, 0], [0, 36263, 0], [0, 0, 20276]]),
        ("d3", 7, 65_537, [[8944, 0, 0], [0, 36158, 0], [0, 0, 20435]]),
        ("d3", 11, 200_003, [[27361, 0, 0], [0, 110387, 0], [0, 0, 62255]]),
        ("d4", 0, 1, [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]),
        ("d4", 5, 65_536, [[0, 0, 0, 0], [0, 23481, 0, 0], [0, 0, 42055, 0], [0, 0, 0, 0]]),
        ("d4", 7, 65_537, [[0, 0, 0, 0], [0, 23635, 0, 0], [0, 0, 41902, 0], [0, 0, 0, 0]]),
        ("d4", 11, 200_003, [[0, 0, 0, 0], [0, 71877, 0, 0], [0, 0, 128126, 0], [0, 0, 0, 0]]),
        ("unsharp", 0, 1, [[0, 0], [0, 1]]),
        ("unsharp", 5, 65_536, [[701, 5875], [5818, 53142]]),
        ("unsharp", 7, 65_537, [[642, 5846], [5923, 53126]]),
        ("unsharp", 11, 200_003, [[1994, 17730], [18005, 162274]]),
    ],
)
def test_sample_counts_match_the_recorded_counts(table, seed, n, expected):
    js = SAMPLER_TABLES[table]()
    result = sample_outcomes(js, n, seed)
    assert result.counts.tolist() == expected
    assert not result.counts[result.analytic.probabilities == 0.0].any()


@pytest.mark.parametrize("chunk", [1, 3, 1000])
def test_sample_counts_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    js = SAMPLER_TABLES["unsharp"]()
    expected = sample_outcomes(js, 2_500, seed=13).counts
    monkeypatch.setattr(intersubjectivity, "SAMPLE_CHUNK", chunk)
    assert np.array_equal(sample_outcomes(js, 2_500, seed=13).counts, expected)


def test_sampling_memory_is_bounded_by_the_chunk():
    js = SAMPLER_TABLES["d3"]()
    tracemalloc.start()
    try:
        result = sample_outcomes(js, 10**6, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.counts.sum() == 10**6
    # one chunk of draws is 0.5 MB; all 10^6 draws at once would be 8 MB
    assert peak < 4 * 2**20


def _reference_counts(table, n, seed):
    """The sort-based count: each sorted chunk searched for every inner CDF edge."""
    edges = np.cumsum(table.ravel())[:-1]
    rng = np.random.default_rng(seed)
    below = np.zeros(edges.size, dtype=np.int64)
    for start in range(0, n, intersubjectivity.SAMPLE_CHUNK):
        chunk = np.sort(rng.random(min(intersubjectivity.SAMPLE_CHUNK, n - start)))
        below += np.searchsorted(chunk, edges, side="left")
    return np.diff(np.concatenate(([0], below, [n]))).reshape(table.shape)


def _diagonal_dilations(weights, amplitudes):
    """A shared dilation of the POVM whose effects are diag(w), w the rows of weights."""
    weights = np.asarray(weights, dtype=float)
    povm = Povm(tuple(float(x) for x in range(len(weights))),
                tuple(np.diag(w).astype(complex) for w in weights), weights.shape[1])
    psi = np.asarray(amplitudes, dtype=complex)
    process = dilation_model(povm)
    return compose(psi / np.linalg.norm(psi), process, process)


# table: (scenario, its number of distinct inner CDF edges). The pointer pairs'
# tables are diagonal, so their zero cells make edges coincide; "many" has two
# zero cells, (0, 4) and (4, 0), whose rows have disjoint supports.
EDGE_TABLES = {
    "none": (lambda: _pointer_pair([2.0], [1.0]), 0),
    "one": (lambda: _pointer_pair([-1.0, 1.0], [0.6, 0.8j]), 1),
    "two": (SAMPLER_TABLES["d3"], 2),
    "eight": (lambda: _diagonal_dilations(
        [[0.5, 0.2, 0.1], [0.3, 0.3, 0.3], [0.2, 0.5, 0.6]], [1.0, 1.3j, 0.7]), 8),
    "many": (lambda: _diagonal_dilations(
        [[0.4, 0.0, 0.0, 0.0], [0.3, 0.2, 0.1, 0.2], [0.2, 0.3, 0.4, 0.1],
         [0.1, 0.5, 0.5, 0.2], [0.0, 0.0, 0.0, 0.5]], [1.0, 0.9j, -0.8, 0.7]), 22),
}


@pytest.mark.parametrize("table", sorted(EDGE_TABLES))
@pytest.mark.parametrize("passes", ["module", 0, 10**6])
def test_sample_counts_match_the_sorted_chunk_count(monkeypatch, table, passes):
    # passes 0 sorts every table's chunks and 10**6 counts every table by compare passes
    build, distinct = EDGE_TABLES[table]
    js = build()
    probabilities = joint_distribution(js).probabilities
    assert np.unique(np.cumsum(probabilities.ravel())[:-1]).size == distinct
    if table == "many":
        assert distinct > intersubjectivity.SAMPLE_MAX_PASSES  # the module sorts it
    if passes != "module":
        monkeypatch.setattr(intersubjectivity, "SAMPLE_MAX_PASSES", passes)
    for n in (1, 1000, intersubjectivity.SAMPLE_CHUNK + 1):
        for seed in (0, 7, 2**32 - 1):
            counts = sample_outcomes(js, n, seed).counts
            assert np.array_equal(counts, _reference_counts(probabilities, n, seed))


def test_joint_distribution_invariant_gates():
    with pytest.raises(ValidationError):
        JointDistribution((0.0, 1.0), (0.0, 1.0), np.array([[0.6, 0.5], [0.0, -0.1]]))
    with pytest.raises(ValidationError):
        JointDistribution((0.0, 1.0), (0.0, 1.0), np.array([[0.3, 0.3], [0.3, 0.3]]))
    with pytest.raises(DimensionError):
        JointDistribution((0.0, 1.0), (0.0,), np.array([[0.5, 0.5]]))
    with pytest.raises(ValidationError, match="sum to nan"):
        JointDistribution((0.0, 1.0), (0.0, 1.0), np.array([[np.nan, 0.5], [0.5, 0.0]]))


def test_the_table_kernel_raises_the_first_failing_table():
    # each table of a stack is checked once, by joint_distribution's rule and
    # JointDistribution's sum check; the first table that fails raises
    good = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
    skewed = good + np.array([[0.0, 2e-3j], [0.0, 0.0]])
    stray = np.array([[np.nan, 0.5], [0.5, 0.0]], dtype=complex)
    short = good * 0.9
    drifting = good.copy()
    drifting[0, 1] = complex(0.0, np.nan)
    checked = intersubjectivity._checked_tables(np.stack([good, good.conj()]))
    assert np.array_equal(checked, np.stack([good.real] * 2))
    for stack, error, message in [
        ((good, skewed, stray), NonCommutingMetersError, "imaginary residue 2.000e-03"),
        ((good, stray, skewed), ValidationError, "joint probabilities sum to nan, not 1"),
        ((short, skewed), ValidationError, "joint probabilities sum to 0.9, not 1"),
        ((good, drifting), NonCommutingMetersError, "imaginary residue nan"),
    ]:
        with pytest.raises(error) as exc:
            intersubjectivity._checked_tables(np.stack(stack))
        assert message in str(exc.value)
        assert "np.float64" not in str(exc.value)


@pytest.mark.parametrize("seed", range(3))
def test_agreement_adds_the_paired_cells_as_python_sum_does(seed):
    # 12 paired labels and unpaired ones on each side; from 8 terms up numpy's
    # pairwise sum adds in another order, so only Python's order gives the same bits
    rng = np.random.default_rng(seed)
    shared = np.arange(12.0)
    outcomes1 = tuple(sorted([*shared, -3.5, 20.5]))
    outcomes2 = tuple(sorted([*shared, 7.25]))
    pairs = observables._label_pairs(outcomes1, outcomes2)
    assert len(pairs) == len(shared)
    stack = rng.dirichlet(np.ones(len(outcomes1) * len(outcomes2)), size=40)
    stack = stack.reshape(40, len(outcomes1), len(outcomes2))
    stacked = intersubjectivity._agreements(stack, outcomes1, outcomes2)
    differs = 0
    for table, row in zip(stack, stacked):
        want = float(sum(table[i, j] for i, j in pairs))
        assert table_agreement(JointDistribution(outcomes1, outcomes2, table)) == want
        assert row == want
        differs += float(np.sum([table[i, j] for i, j in pairs])) != want
    assert differs > 0


def test_joint_distribution_clamps_rounding_noise():
    table = np.array([[0.5 + 2.5e-13, -5e-13], [0.0, 0.5 + 2.5e-13]])
    dist = JointDistribution((0.0, 1.0), (0.0, 1.0), table)
    assert dist.probabilities[0, 1] == 0.0


def _odd_pair():
    """sigma_z's PVM and a reproducing PVM that splits outcome 0 into -0.9e-8 and 0.9e-8."""
    p0, p1 = np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)
    observable = Pvm((0.0, 1.0), (p0, p1), 2)
    odd = Pvm((-0.9e-8, 0.9e-8, 1.0), (p0, np.zeros((2, 2)), p1), 2)
    return observable, odd


@pytest.mark.parametrize("odd_first", [False, True])
def test_oit_pairs_labels_one_to_one_as_reproducibility_does(odd_first):
    observable, odd = _odd_pair()
    assert measurement.check_reproducibility(von_neumann_model(odd), observable).reproducible
    processes = [von_neumann_model(observable), von_neumann_model(odd)]
    if odd_first:
        processes.reverse()
    report = verify_oit(compose(PLUS, *processes), observable)
    assert report.intersubjective
    assert report.off_diagonal_mass == 0.0
    assert report.max_diagonal_deviation == 0.0
    assert report.diagonal == pytest.approx({0.0: 0.5, 1.0: 0.5}, abs=1e-12)
    assert table_agreement(report.joint) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("psi", [
    np.array([np.cos(0.3), np.exp(0.7j) * np.sin(0.3)]),  # an imaginary residue of 0.09
    np.array([np.cos(1.0), -np.sin(1.0)]),                # a real entry of -0.08
])
def test_a_table_that_is_not_a_probability_means_the_meters_do_not_commute(psi):
    # Im P(x, y) = <Psi|[E1(x), E2(y)]|Psi> / 2i, and commuting projectors give P >= 0
    js = compose(psi, von_neumann_model(SIGMA_Z_PVM), von_neumann_model(SIGMA_X_PVM),
                 commutation_tol=1.0)
    with pytest.raises(NonCommutingMetersError, match="do not commute"):
        joint_distribution(js)
