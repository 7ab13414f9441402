import fcntl
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import PAULI_X, random_povm
from qmeasure import (
    PAULI_Z,
    Pvm,
    QmeasureError,
    dilation_model,
    load_scenario,
    pvm_from_observable,
    pvm_to_json,
    scenario_to_json,
    unsharp_qubit_povm,
    von_neumann_model,
)
from qmeasure.cli import main
from qmeasure.scenario import MAX_N_SAMPLES

REPO = pathlib.Path(__file__).resolve().parent.parent
OIT_SCENARIO = REPO / "scenarios" / "oit_sigma_z.json"
UNSHARP_SCENARIO = REPO / "scenarios" / "unsharp_eta08.json"

SIGMA_Z_PVM = pvm_from_observable(PAULI_Z)
SIGMA_X_PVM = pvm_from_observable(PAULI_X)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
GROUND = np.array([1, 0], dtype=complex)


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def _write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _noncommuting_joint_doc():
    return scenario_to_json(
        PLUS,
        SIGMA_Z_PVM,
        [von_neumann_model(SIGMA_Z_PVM), von_neumann_model(SIGMA_X_PVM)],
        "joint",
    )


@pytest.mark.parametrize("scenario", [OIT_SCENARIO, UNSHARP_SCENARIO])
def test_validate_bundled_scenarios(capsys, scenario):
    code, out, _ = _run(capsys, "validate", scenario)
    assert code == 0
    assert out.startswith("valid:")


def test_run_bundled_oit_scenario(capsys):
    code, out, _ = _run(capsys, "run", OIT_SCENARIO)
    assert code == 0
    report = json.loads(out)
    assert report["experiment"] == "oit"
    assert report["results"]["intersubjective"] is True
    assert report["results"]["off_diagonal_mass"] < 1e-10
    # reports carry every tolerance actually used
    assert set(report["diagnostics"]["tolerances"]) == {
        "cluster", "commutation", "oit", "reproducibility",
    }


def test_run_bundled_unsharp_scenario(capsys):
    code, out, _ = _run(capsys, "run", UNSHARP_SCENARIO)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["agreement_probability"] == pytest.approx(0.82, abs=1e-9)
    table = np.array(report["results"]["joint_table"])
    assert np.abs(table - [[0.01, 0.09], [0.09, 0.81]]).max() < 1e-9


def test_run_out_flag_writes_report_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = _run(capsys, "run", OIT_SCENARIO, "--out", out_path)
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["results"]["intersubjective"] is True


def test_run_rejects_unnormalized_state(capsys, tmp_path):
    doc = json.loads(OIT_SCENARIO.read_text())
    doc["system"]["state"] = [[1.0, 0.0], [0.5, 0.0]]
    code, out, err = _run(capsys, "run", _write(tmp_path, doc))
    assert code == 2
    assert "norm" in err


def test_run_rejects_subnormalized_povm(capsys, tmp_path):
    half = {"rows": 2, "cols": 2,
            "entries": [[0.45, 0.0], [0.0, 0.0], [0.0, 0.0], [0.45, 0.0]]}
    doc = {
        "schema_version": "1",
        "system": {"dim": 2, "state": [[1.0, 0.0], [0.0, 0.0]]},
        "observable": {"povm": {"dim": 2, "outcomes": [-1.0, 1.0],
                                "effects": [half, half]}},
        "processes": [{"model": "dilation"}],
        "experiment": "induce",
    }
    code, _, err = _run(capsys, "validate", _write(tmp_path, doc))
    assert code == 2
    assert "identity" in err


def test_run_rejects_non_unitary_custom_interaction(capsys, tmp_path):
    doc = scenario_to_json(GROUND, SIGMA_Z_PVM, [von_neumann_model(SIGMA_Z_PVM)], "induce")
    doc["processes"][0]["unitary"]["entries"][0] = [2.0, 0.0]
    code, _, err = _run(capsys, "validate", _write(tmp_path, doc))
    assert code == 2
    assert "unitary" in err


@pytest.mark.parametrize("field,message", [
    (("unitary", "entries"), "error: processes[0]: interaction operator must be unitary\n"),
    (("meter", "projectors", 0, "entries"),
     "error: processes[0].meter: each PVM element must be an orthogonal projector\n"),
])
def test_entry_near_the_float_maximum_exits_2_without_a_warning(tmp_path, field, message):
    # finite, so it passes the number checks, but its square overflows in the operator checks
    doc = scenario_to_json(GROUND, SIGMA_Z_PVM, [von_neumann_model(SIGMA_Z_PVM)], "induce")
    node = doc["processes"][0]
    for key in field:
        node = node[key]
    node[0] = [1e300, 0.0]
    proc = subprocess.run(
        [sys.executable, "-m", "qmeasure", "validate", str(_write(tmp_path, doc))],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == message


@pytest.mark.parametrize("field,message", [
    (("system", "state"), "error: system.state: norm inf deviates from 1 beyond 1e-08\n"),
    (("processes", 0, "xi"), "error: processes[0].xi: norm inf deviates from 1 beyond 1e-08\n"),
])
def test_state_near_the_float_maximum_exits_2_without_a_warning(tmp_path, field, message):
    # finite amplitudes whose norm overflows: the gate reads inf and numpy warns nothing
    doc = scenario_to_json(GROUND, SIGMA_Z_PVM, [von_neumann_model(SIGMA_Z_PVM)], "induce")
    node = doc
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = [[1e300, 0.0], [1e300, 0.0]]
    proc = subprocess.run(
        [sys.executable, "-m", "qmeasure", "validate", str(_write(tmp_path, doc))],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == message


@pytest.mark.parametrize("entries,message", [
    ([[1e308, 0.0], [0.0, 0.0], [0.0, 0.0], [-1e308, 0.0]],
     "error: matrix entries overflow in its Hermitian part (a + a^dag) / 2\n"),
    ([[0.0, 0.0], [1e308, 0.0], [1e308, 0.0], [0.0, 0.0]],
     "error: matrix entries overflow in its Hermitian part (a + a^dag) / 2\n"),
    ([[0.0, 0.0], [1e308, 0.0], [-1e308, 0.0], [0.0, 0.0]],
     "error: spectral decomposition needs a Hermitian matrix\n"),
])
def test_observable_near_the_float_maximum_exits_2_without_a_warning(tmp_path, entries, message):
    # the Hermitian part (or the anti-Hermitian residue) overflows before eigh;
    # the loader puts the field's path in front of pvm_from_observable's message
    doc = json.loads(OIT_SCENARIO.read_text())
    doc["observable"]["hermitian_matrix"]["entries"] = entries
    proc = subprocess.run(
        [sys.executable, "-m", "qmeasure", "validate", str(_write(tmp_path, doc))],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == message.replace("error: ", "error: observable.hermitian_matrix: ", 1)


@pytest.mark.parametrize("matrix,tolerances,message", [
    (np.diag([1.0, 1.0 + 1e-12]), {"cluster": 1e-20},
     "ValidationError: observable.hermitian_matrix: PVM outcome labels 1.0 and 1.0000"),
    (np.eye(257), {},
     "DimensionError: observable.hermitian_matrix: compound dimension 257 exceeds the cap 256"),
])
def test_spectral_errors_name_the_observable_field(capsys, tmp_path, matrix, tolerances, message):
    # labels a tiny cluster tolerance leaves closer than LABEL_TOL, and a matrix over the cap
    psi = np.ones(len(matrix)) / np.sqrt(len(matrix))
    doc = scenario_to_json(psi, matrix, [], "induce", tolerances=tolerances)
    doc["processes"] = [{"model": "dilation"}]
    with pytest.raises(QmeasureError) as exc:
        load_scenario(doc)
    assert f"{type(exc.value).__name__}: {exc.value}".startswith(message)
    code, out, err = _run(capsys, "validate", _write(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == f"error: {exc.value}\n"


def test_run_missing_file_and_malformed_json(capsys, tmp_path):
    code, _, _ = _run(capsys, "run", tmp_path / "absent.json")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = _run(capsys, "validate", bad)
    assert code == 2


def test_run_unknown_field_rejected(capsys, tmp_path):
    doc = json.loads(OIT_SCENARIO.read_text())
    doc["extra"] = 1
    code, _, err = _run(capsys, "run", _write(tmp_path, doc))
    assert code == 2
    assert "unknown field" in err


def _povm_doc(diag0, diag1, state):
    """An induce document: two diagonal qubit effects and one dilation process."""
    def matrix(diag):
        return {"rows": 2, "cols": 2,
                "entries": [[diag[0], 0.0], [0.0, 0.0], [0.0, 0.0], [diag[1], 0.0]]}
    return {
        "schema_version": "1",
        "system": {"dim": 2, "state": [[a, 0.0] for a in state]},
        "observable": {"povm": {"dim": 2, "outcomes": [0.0, 1.0],
                                "effects": [matrix(diag0), matrix(diag1)]}},
        "processes": [{"model": "dilation"}],
        "experiment": "induce",
    }


def test_dilation_accepts_effects_at_the_eigenvalue_floor(capsys, tmp_path):
    # Povm admits effect eigenvalues down to -OP_TOL; the dilation's square roots
    # must too, and on |0> the Born weights (1 + 5e-10, -5e-10) must pass as a
    # distribution
    for state in ((0.0, 1.0), (1.0, 0.0)):
        path = _write(tmp_path, _povm_doc((1 + 5e-10, 0.3), (-5e-10, 0.7), state))
        for command in ("validate", "run"):
            code, _, err = _run(capsys, command, path)
            assert code == 0, (state, command, err)


def _oversized(doc, path, value=10**400):
    """Put value at path in doc; the last key may index a list."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc)


def _bundled(path, **replace):
    doc = json.loads(path.read_text())
    doc.update(replace)
    return doc


_MALFORMED_INPUTS = {
    "matrix_entry": lambda: _oversized(
        _bundled(OIT_SCENARIO), ("observable", "hermitian_matrix", "entries", 0, 0)),
    "state_amplitude": lambda: _oversized(
        _bundled(OIT_SCENARIO), ("system", "state", 1, 0)),
    "unsharp_eta": lambda: _oversized(
        _bundled(UNSHARP_SCENARIO), ("observable", "unsharp", "eta")),
    "tolerance": lambda: _oversized(
        _bundled(OIT_SCENARIO, params={"tolerances": {"oit": 0}}),
        ("params", "tolerances", "oit")),
    "pvm_outcome_label": lambda: _oversized(
        _bundled(OIT_SCENARIO, observable={"pvm": pvm_to_json(SIGMA_Z_PVM)}),
        ("observable", "pvm", "outcomes", 0)),
    "deep_nesting": lambda: OIT_SCENARIO.read_text().replace(
        '"experiment"', '"params": ' + "[" * 100_000 + "]" * 100_000 + ', "experiment"'),
    "too_many_digits": lambda: OIT_SCENARIO.read_text().replace(
        '"dim": 2', '"dim": ' + "1" * 5000),
    "invalid_utf8": lambda: b'{"schema_version": "\xff"}',
    "effect_eigenvalue": lambda: json.dumps(_povm_doc((1.5, 0.0), (-0.5, 1.0), (1.0, 0.0))),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_INPUTS))
def test_run_malformed_input_exits_2(capsys, tmp_path, case):
    text = _MALFORMED_INPUTS[case]()
    path = tmp_path / "scenario.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, _, err = _run(capsys, "run", path)
    assert code == 2, err
    assert err.startswith("error:")
    assert "np.float64" not in err


@pytest.mark.parametrize(
    "flag,value",
    [("--seed", "-5"), ("--tol", "-1"), ("--tol", "nan")],
)
def test_run_rejects_bad_overrides(capsys, tmp_path, flag, value):
    povm = unsharp_qubit_povm(0.8)
    doc = scenario_to_json(
        GROUND, povm, [dilation_model(povm), dilation_model(povm)],
        "sample", n_samples=100, seed=5,
    )
    code, _, err = _run(capsys, "run", _write(tmp_path, doc), flag, value)
    assert code == 2
    assert flag[2:] + "_override" in err


def test_run_non_commuting_meters_exit_code(capsys, tmp_path):
    path = _write(tmp_path, _noncommuting_joint_doc())
    code, _, err = _run(capsys, "run", path)
    assert code == 3
    assert "commute" in err


def test_run_dilations_of_non_commuting_effects_exit_code(capsys, tmp_path):
    povm = random_povm(np.random.default_rng(3), 2, 3)
    doc = scenario_to_json(GROUND, povm, [], "joint")
    doc["processes"] = [{"model": "dilation"}, {"model": "dilation"}]
    code, _, err = _run(capsys, "run", _write(tmp_path, doc))
    assert code == 3
    assert "commute" in err


def test_run_tol_override_relaxes_commutation_gate(capsys, tmp_path):
    path = _write(tmp_path, _noncommuting_joint_doc())
    code, out, _ = _run(capsys, "run", path, "--tol", "1.0")
    assert code == 0
    assert json.loads(out)["diagnostics"]["tolerances"]["commutation"] == 1.0


def test_run_tol_override_flips_reproducibility_verdict(capsys, tmp_path):
    doc = scenario_to_json(
        GROUND, SIGMA_Z_PVM, [dilation_model(unsharp_qubit_povm(0.8))], "reproduce"
    )
    path = _write(tmp_path, doc)
    code, out, _ = _run(capsys, "run", path)
    assert code == 0
    strict = json.loads(out)["results"]
    assert strict["reproducible"] is False
    assert strict["max_operator_deviation"] == pytest.approx(0.1, abs=1e-9)
    code, out, _ = _run(capsys, "run", path, "--tol", "0.2")
    assert code == 0
    assert json.loads(out)["results"]["reproducible"] is True


def test_run_oit_precondition_exit_code(capsys, tmp_path):
    doc = scenario_to_json(
        PLUS,
        SIGMA_Z_PVM,
        [von_neumann_model(SIGMA_Z_PVM), dilation_model(unsharp_qubit_povm(0.8))],
        "oit",
    )
    code, _, err = _run(capsys, "run", _write(tmp_path, doc))
    assert code == 3
    assert "reproduce" in err


def test_run_sample_seed_override(capsys, tmp_path):
    povm = unsharp_qubit_povm(0.8)
    doc = scenario_to_json(
        GROUND, povm, [dilation_model(povm), dilation_model(povm)],
        "sample", n_samples=2000, seed=5,
    )
    path = _write(tmp_path, doc)
    code1, out1, _ = _run(capsys, "run", path)
    code2, out2, _ = _run(capsys, "run", path)
    code3, out3, _ = _run(capsys, "run", path, "--seed", "6")
    assert code1 == code2 == code3 == 0
    assert out1 == out2
    first = json.loads(out1)["results"]
    third = json.loads(out3)["results"]
    assert first["seed"] == 5 and third["seed"] == 6
    assert first["counts"] != third["counts"]
    assert sum(map(sum, first["counts"])) == 2000


def test_report_round_trip_is_stable(capsys, tmp_path):
    # serialize programmatically built objects, reload, and rerun: identical reports
    doc = scenario_to_json(
        PLUS, SIGMA_Z_PVM,
        [von_neumann_model(SIGMA_Z_PVM), von_neumann_model(SIGMA_Z_PVM)],
        "oit",
    )
    path = _write(tmp_path, doc)
    _, out1, _ = _run(capsys, "run", path)
    _, out2, _ = _run(capsys, "run", path)
    assert out1 == out2
    report = json.loads(out1)
    assert report["results"]["off_diagonal_mass"] < 1e-10


def test_sweep_bundled_scenario_matches_curve(capsys):
    code, out, _ = _run(capsys, "sweep", UNSHARP_SCENARIO,
                        "--param", "eta", "--values", "0,0.5,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eta,agreement"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert [r[0] for r in rows] == [0.0, 0.5, 1.0]
    assert rows[0][1] == pytest.approx(0.5, abs=1e-9)
    assert rows[1][1] == pytest.approx(0.625, abs=1e-9)
    assert rows[2][1] == pytest.approx(1.0, abs=1e-9)


def test_sweep_single_value_matches_run(capsys):
    code, out, _ = _run(capsys, "sweep", UNSHARP_SCENARIO,
                        "--param", "eta", "--values", "0.8")
    assert code == 0
    swept = float(out.strip().splitlines()[1].split(",")[1])
    _, run_out, _ = _run(capsys, "run", UNSHARP_SCENARIO)
    direct = json.loads(run_out)["results"]["agreement_probability"]
    assert swept == pytest.approx(direct, abs=1e-12)


def test_sweep_rejects_out_of_range_eta(capsys):
    code, _, err = _run(capsys, "sweep", UNSHARP_SCENARIO,
                        "--param", "eta", "--values", "0.5,1.2")
    assert code == 2
    assert "eta" in err


def test_sweep_with_pointer_models_needs_a_sharp_eta(capsys, tmp_path):
    doc = _bundled(UNSHARP_SCENARIO, observable={"unsharp": {"eta": 1.0}},
                   processes=[{"model": "von_neumann"}, {"model": "von_neumann"}])
    path = _write(tmp_path, doc)
    # a pointer model realizes the unsharp POVM only at eta = 1, so it is refused up front
    for values in ("1", "1,0.5"):
        code, out, err = _run(capsys, "sweep", path, "--param", "eta", "--values", values)
        assert (code, out) == (2, "")
        assert "sweep: only dilation models depend on eta and can be swept" in err


def test_sweep_rejects_non_sweepable_scenario(capsys):
    code, _, err = _run(capsys, "sweep", OIT_SCENARIO,
                        "--param", "eta", "--values", "0.5")
    assert code == 2
    assert "unsharp" in err


def test_sweep_unknown_param_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(UNSHARP_SCENARIO), "--param", "gamma", "--values", "0.5"])
    assert exc.value.code == 2


def _loose_joint_doc():
    """sigma_z/sigma_x pointers on a complex state, the commutation gate opened to 1."""
    psi = np.array([np.cos(0.3), np.exp(0.7j) * np.sin(0.3)])
    return scenario_to_json(
        psi,
        SIGMA_Z_PVM,
        [von_neumann_model(SIGMA_Z_PVM), von_neumann_model(SIGMA_X_PVM)],
        "joint",
        tolerances={"commutation": 1.0},
    )


def test_validate_and_run_accept_the_same_inputs(capsys, tmp_path):
    # shared loader: whatever validates must not be rejected by run as invalid
    cases = [OIT_SCENARIO, UNSHARP_SCENARIO,
             _write(tmp_path, _noncommuting_joint_doc())]
    for path in cases:
        v_code, _, _ = _run(capsys, "validate", path)
        r_code, _, _ = _run(capsys, "run", path)
        assert v_code == 0
        assert r_code in (0, 3)
    # the opened gate passes meters whose table has an imaginary residue of
    # 0.09: not a probability, so the meters do not commute on this state
    path = _write(tmp_path, _loose_joint_doc(), "loose.json")
    assert _run(capsys, "validate", path)[0] == 0
    code, _, err = _run(capsys, "run", path)
    assert code == 3
    assert "commute" in err
    # reproduce and oit need an accurate observable: the loader rejects a noisy one
    noisy = [_bundled(UNSHARP_SCENARIO, experiment="oit"),
             _bundled(UNSHARP_SCENARIO, experiment="reproduce", processes=[{"model": "dilation"}])]
    for doc in noisy:
        path = _write(tmp_path, doc, "noisy.json")
        v_code, _, v_err = _run(capsys, "validate", path)
        r_code, _, r_err = _run(capsys, "run", path)
        assert v_code == r_code == 2
        assert v_err == r_err == (
            f"error: the {doc['experiment']} experiment needs a projective observable "
            f"(hermitian_matrix, pvm, or an unsharp/povm observable whose effects are "
            f"projectors); use induce or joint for noisy ones\n")


def test_file_tolerance_relaxes_the_gate_as_the_tol_flag_does(capsys, tmp_path):
    flag = _run(capsys, "run", _write(tmp_path, _noncommuting_joint_doc()), "--tol", "1.0")
    doc = _noncommuting_joint_doc()
    doc["params"] = {"tolerances": {"commutation": 1.0}}
    from_file = _run(capsys, "run", _write(tmp_path, doc, "relaxed.json"))
    assert flag[0] == from_file[0] == 0
    assert flag[1] == from_file[1]


def test_run_reports_oit_on_a_reproducing_pvm_with_split_labels(capsys, tmp_path):
    # the second pointer's meter splits outcome 0 into -0.9e-8 and 0.9e-8 (the
    # second one empty); labels pair one to one within LABEL_TOL as in reproduce
    p0, p1 = np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)
    observable = Pvm((0.0, 1.0), (p0, p1), 2)
    odd = Pvm((-0.9e-8, 0.9e-8, 1.0), (p0, np.zeros((2, 2)), p1), 2)
    doc = scenario_to_json(PLUS, observable,
                           [von_neumann_model(observable), von_neumann_model(odd)], "oit")
    code, out, _ = _run(capsys, "run", _write(tmp_path, doc))
    results = json.loads(out)["results"]
    assert code == 0
    assert results["intersubjective"] is True
    assert results["off_diagonal_mass"] == 0.0
    assert results["max_diagonal_deviation"] == 0.0
    assert results["diagonal"] == pytest.approx({"0.0": 0.5, "1.0": 0.5}, abs=1e-12)


def _oit_doc(d):
    doc = scenario_to_json(np.ones(d) / np.sqrt(d), np.diag(np.arange(d, dtype=float)), [], "oit")
    doc["processes"] = [{"model": "von_neumann"}, {"model": "von_neumann"}]
    return doc


def test_validate_rejects_what_run_rejects_at_the_dimension_cap(capsys, tmp_path):
    # d = 7 pointer models compose to 7**3 = 343 > 256; d = 6 composes to 216
    path = _write(tmp_path, _oit_doc(7))
    for command in ("validate", "run"):
        code, _, err = _run(capsys, command, path)
        assert code == 2, command
        assert "compound dimension 343 exceeds the cap 256" in err
    code, out, _ = _run(capsys, "validate", _write(tmp_path, _oit_doc(6)))
    assert code == 0 and out.startswith("valid:")


def test_oversized_single_process_exits_2(capsys, tmp_path):
    # one pointer model of a 40-outcome observable: 40 * 40 = 1600 > 256
    doc = _oit_doc(40)
    doc.update(experiment="induce", processes=[{"model": "von_neumann"}])
    path = _write(tmp_path, doc)
    for command in ("validate", "run"):
        code, _, err = _run(capsys, command, path)
        assert code == 2, command
        assert "compound dimension 1600 exceeds the cap 256" in err


def _sample_doc(n_samples):
    povm = unsharp_qubit_povm(0.8)
    return scenario_to_json(GROUND, povm, [dilation_model(povm), dilation_model(povm)],
                            "sample", n_samples=n_samples, seed=5)


@pytest.mark.parametrize("n_samples", [MAX_N_SAMPLES + 1, 10**20])
def test_n_samples_above_the_cap_exits_2(capsys, tmp_path, n_samples):
    path = _write(tmp_path, _sample_doc(n_samples))
    for command in ("validate", "run"):
        code, _, err = _run(capsys, command, path)
        assert code == 2, command
        assert "params.n_samples" in err


def test_n_samples_at_the_cap_is_valid(capsys, tmp_path):
    code, out, _ = _run(capsys, "validate", _write(tmp_path, _sample_doc(MAX_N_SAMPLES)))
    assert code == 0 and out.startswith("valid:")


@pytest.mark.parametrize(
    "field,bad,message",
    [
        ("matrix", [0.0, "1.0"], "observable.hermitian_matrix.entries[1]: entries of a "
                                 "[re, im] pair must be numbers, got [0.0, '1.0']"),
        ("state", True, "system.state[1]: expected a [re, im] pair, got True"),
    ],
)
def test_bad_complex_entry_exits_2(capsys, tmp_path, field, bad, message):
    doc = scenario_to_json(PLUS, PAULI_Z, [von_neumann_model(SIGMA_Z_PVM)], "induce")
    if field == "matrix":
        doc["observable"]["hermitian_matrix"]["entries"][1] = bad
    else:
        doc["system"]["state"][1] = bad
    path = _write(tmp_path, doc)
    for command in ("validate", "run"):
        code, _, err = _run(capsys, command, path)
        assert code == 2, command
        assert err == f"error: {message}\n"


def test_console_script_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "qmeasure", "run", str(OIT_SCENARIO)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["intersubjective"] is True


def _close_after_first_line(*argv):
    """Run the CLI into a pipe whose reader takes one line and closes it, as `| head -1` does.

    The pipe holds one page and the output is longer than a page plus its
    first line, so the CLI is still writing when the reader closes.
    """
    read_fd, write_fd = os.pipe()
    fcntl.fcntl(read_fd, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen([sys.executable, "-m", "qmeasure", *map(str, argv)],
                            stdout=write_fd, stderr=subprocess.PIPE)
    os.close(write_fd)
    line = b""
    while not line.endswith(b"\n"):
        byte = os.read(read_fd, 1)
        if not byte:
            break
        line += byte
    os.close(read_fd)
    _, err = proc.communicate(timeout=60)
    return proc.returncode, line.decode(), err.decode()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_closed_stdout_exits_0_quietly(tmp_path, command):
    if command == "run":
        pvm = pvm_from_observable(np.diag(np.arange(8.0)).astype(complex))
        doc = scenario_to_json(np.ones(8) / np.sqrt(8), pvm, [von_neumann_model(pvm)], "induce")
        argv = ("run", _write(tmp_path, doc))
    else:
        etas = ",".join(repr(x) for x in np.linspace(0.0, 1.0, 500).tolist())
        argv = ("sweep", UNSHARP_SCENARIO, "--param", "eta", "--values", etas)
    full = subprocess.run([sys.executable, "-m", "qmeasure", *map(str, argv)],
                          capture_output=True, text=True)
    assert full.returncode == 0 and len(full.stdout) > 3 * 4096
    code, line, err = _close_after_first_line(*argv)
    assert (code, err) == (0, "")
    assert line == full.stdout.splitlines(keepends=True)[0]
