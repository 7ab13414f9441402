"""The loader matrix: every observable kind, with every model pair, in every experiment.

Each document goes through load_scenario and run_experiment. It is accepted
unless a PVM of a noisy observable is needed, by a von_neumann entry or by a
reproduce or oit experiment; then `run` exits 2 with the loader's message.
An accepted document runs, and its numbers follow from the observable: both
processes induce the declared effects Pi_x, which commute, so the joint
table is <psi| Pi_x Pi_y |psi> and the agreement is sum_x <psi| Pi_x^2 |psi>,
exactly 1 for a projective observable.
"""

import json
import re

import numpy as np
import pytest

from conftest import random_hermitian_with_outcomes, random_state, random_unitary
from qmeasure import (
    Povm,
    Pvm,
    ValidationError,
    as_povm,
    dilation_model,
    load_scenario,
    matrix_to_json,
    povm_to_json,
    pvm_from_observable,
    pvm_to_json,
    run_experiment,
    scenario_to_json,
    state_to_json,
    unsharp_qubit_povm,
    von_neumann_model,
)
from qmeasure.cli import main
from qmeasure.scenario import EXPERIMENTS

RNG = np.random.default_rng(1818)
PSI3 = random_state(RNG, 3)
MATRIX = random_hermitian_with_outcomes(RNG, 3, 2)  # one outcome is a rank-2 projector
SPECTRAL = pvm_from_observable(MATRIX)
ROTATION = random_unitary(RNG, 3)
# three commuting, non-projective effects: diagonal weights in a random basis
NOISY = Povm((-1.0, 0.0, 2.0),
             tuple(ROTATION @ np.diag(w).astype(complex) @ ROTATION.conj().T
                   for w in RNG.dirichlet(np.ones(3), size=3).T), 3)
UNSHARP = unsharp_qubit_povm(0.8)

# kind: (psi, observable field, the declared effects, whether they are projective)
KINDS = {
    "hermitian_matrix": (PSI3, {"hermitian_matrix": matrix_to_json(MATRIX)},
                         as_povm(SPECTRAL), True),
    "pvm": (PSI3, {"pvm": pvm_to_json(SPECTRAL)}, as_povm(SPECTRAL), True),
    "projective_povm": (PSI3, {"povm": povm_to_json(as_povm(SPECTRAL))},
                        as_povm(SPECTRAL), True),
    "noisy_povm": (PSI3, {"povm": povm_to_json(NOISY)}, NOISY, False),
    "unsharp": (np.array([0.6, 0.8j]), {"unsharp": {"eta": 0.8}}, UNSHARP, False),
}
SINGLES = [("von_neumann",), ("dilation",), ("custom",)]
PAIRS = [("von_neumann", "von_neumann"), ("dilation", "dilation"), ("custom", "custom"),
         ("von_neumann", "dilation"), ("dilation", "von_neumann"),
         ("custom", "von_neumann"), ("dilation", "custom")]
CASES = [(kind, models, experiment)
         for kind in KINDS
         for experiment, spec in EXPERIMENTS.items()
         for models in (SINGLES if spec.processes == 1 else PAIRS)]


def _custom_entry(psi, povm, projective):
    """A custom process realizing povm: its pointer model if projective, else its dilation."""
    if projective:
        process = von_neumann_model(Pvm(povm.outcomes, povm.effects, povm.dim))
    else:
        process = dilation_model(povm)
    return scenario_to_json(psi, povm, [process], "induce")["processes"][0]


def _doc(kind, models, experiment):
    psi, observable, povm, projective = KINDS[kind]
    entries = [_custom_entry(psi, povm, projective) if model == "custom" else {"model": model}
               for model in models]
    return {
        "schema_version": "1",
        "system": {"dim": len(psi), "state": state_to_json(psi)},
        "observable": observable,
        "processes": entries,
        "experiment": experiment,
        "params": {"n_samples": 500, "seed": 7},
    }


def _expected_error(kind, models, experiment):
    """The loader's message for a noisy observable where a PVM is needed, else None."""
    if KINDS[kind][3]:
        return None
    if "von_neumann" in models:
        return (f"processes[{models.index('von_neumann')}]: "
                f"the von_neumann model needs a projective observable")
    if EXPERIMENTS[experiment].needs_pvm:
        return f"the {experiment} experiment needs a projective observable"
    return None


def _agreement(psi, povm):
    return sum(np.vdot(psi, e @ e @ psi).real for e in povm.effects)


@pytest.mark.parametrize("kind,models,experiment", CASES,
                         ids=[f"{k}-{'+'.join(m)}-{e}" for k, m, e in CASES])
def test_every_observable_model_and_experiment(capsys, tmp_path, kind, models, experiment):
    doc = _doc(kind, models, experiment)
    error = _expected_error(kind, models, experiment)
    if error is not None:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {error}")
        return
    psi, _, povm, projective = KINDS[kind]
    scenario = load_scenario(doc)
    assert scenario.models == models
    if len(models) == 2:
        # equal entries, model or custom, share one process object; unequal ones never do
        shared = doc["processes"][0] == doc["processes"][1]
        assert shared == (models[0] == models[1])
        assert (scenario.processes[0] is scenario.processes[1]) == shared
    if EXPERIMENTS[experiment].needs_pvm:
        assert isinstance(scenario.observable, Pvm)
    report = run_experiment(scenario)
    assert report["experiment"] == experiment
    results = report["results"]
    if len(models) == 2:
        assert report["diagnostics"]["commuting"] is True
    if experiment == "induce":
        got = np.array([results["distribution"][str(x)] for x in povm.outcomes])
        born = [np.vdot(psi, e @ psi).real for e in povm.effects]
        assert np.abs(got - born).max() <= 1e-9
        assert results["projective"] is projective
    elif experiment == "reproduce":
        assert results["reproducible"] is True
    elif experiment == "joint":
        assert abs(results["agreement_probability"] - _agreement(psi, povm)) <= 1e-9
    elif experiment == "oit":
        assert results["intersubjective"] is True
    else:
        assert abs(results["analytic_agreement"] - _agreement(psi, povm)) <= 1e-9
        assert np.sum(results["counts"]) == 500


# a trivial process on a qubit, written with JSON integers: K is one-dimensional,
# the interaction is the identity and the meter has one outcome
TRIVIAL = {"model": "custom", "apparatus_dim": 1, "xi": [[1, 0]],
           "unitary": {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]},
           "meter": {"dim": 1, "outcomes": [0],
                     "projectors": [{"rows": 1, "cols": 1, "entries": [[1, 0]]}]}}


def _trivial_pair(path=(), value=None):
    """A joint document of two TRIVIAL entries, the second with value at path."""
    second = json.loads(json.dumps(TRIVIAL))
    if path:
        node = second
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return {"schema_version": "1", "system": {"dim": 2, "state": [[0.6, 0], [0, 0.8]]},
            "observable": {"pvm": {"dim": 2, "outcomes": [0, 1], "projectors": [
                {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]},
                {"rows": 2, "cols": 2, "entries": [[0, 0], [0, 0], [0, 0], [1, 0]]}]}},
            "processes": [TRIVIAL, second], "experiment": "joint"}


def _run_error(capsys, tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    return err


# a second entry == to the first, since True == 1, but not the same JSON value
TYPE_VARIANTS = [
    (("apparatus_dim",), True, "processes[1].apparatus_dim: must be a positive integer, got True"),
    (("meter", "projectors", 0, "rows"), True,
     "processes[1].meter.projectors[0]: rows must be a positive integer, got True"),
    (("xi", 0), [True, 0],
     "processes[1].xi[0]: entries of a [re, im] pair must be numbers, got [True, 0]"),
    (("unitary", "entries", 0), [True, 0],
     "processes[1].unitary.entries[0]: entries of a [re, im] pair must be numbers, got [True, 0]"),
]


@pytest.mark.parametrize("path,value,error", TYPE_VARIANTS,
                         ids=[".".join(map(str, path)) for path, _, _ in TYPE_VARIANTS])
def test_an_entry_equal_only_under_python_equality_is_checked_on_its_own(
        capsys, tmp_path, path, value, error):
    doc = _trivial_pair(path, value)
    assert doc["processes"][1] == doc["processes"][0]
    assert _run_error(capsys, tmp_path, doc).startswith(f"error: {error}")


def test_an_entry_unequal_in_one_unitary_entry_is_checked_on_its_own(capsys, tmp_path):
    doc = _trivial_pair(("unitary", "entries", 3), [0.5, 0])
    assert _run_error(capsys, tmp_path, doc).startswith(
        "error: processes[1]: interaction operator must be unitary")


def test_an_entry_pickle_cannot_encode_is_checked_on_its_own():
    with pytest.raises(ValidationError,
                       match=re.escape("processes[1].apparatus_dim: must be a positive integer")):
        load_scenario(_trivial_pair(("apparatus_dim",), lambda: 1))
    deep = []
    for _ in range(5000):  # past the recursion limit of pickle
        deep = [deep]
    with pytest.raises(ValidationError, match=re.escape("processes[1].meter: expected an object")):
        load_scenario(_trivial_pair(("meter",), deep))


def test_equal_entries_share_a_process_and_types_or_zero_signs_that_differ_do_not():
    scenario = load_scenario(_trivial_pair())
    assert scenario.processes[0] is scenario.processes[1]
    # 1.0 == 1 and -0.0 == 0: valid, but not the same JSON value, so built on their own
    for path, value in ((("xi", 0), [1.0, 0]), (("unitary", "entries", 1), [-0.0, 0])):
        doc = _trivial_pair(path, value)
        assert doc["processes"][1] == doc["processes"][0]
        scenario = load_scenario(doc)
        assert scenario.processes[0] is not scenario.processes[1]
        assert run_experiment(scenario)["results"]["joint_table"] == [[1.0]]
