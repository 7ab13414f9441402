"""The eta sweep: one stacked pass per chunk, equal to the point-by-point loop.

sweep_agreement evaluates its etas in chunks of scenario.SWEEP_CHUNK, each
in one stacked pass. The rows must equal, bit for bit, what composing each
point on its own gives, whatever the chunk size, and its errors must come
in the order that loop raises them.
"""

import dataclasses
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from conftest import PAULI_X, as_custom, pointer_meter
from qmeasure import (
    PAULI_Z,
    NonCommutingMetersError,
    ParameterError,
    Povm,
    Pvm,
    ValidationError,
    agreement_probability,
    compose,
    dilation_model,
    induced_povm,
    intersubjectivity,
    joint_distribution,
    load_scenario,
    measurement,
    observables,
    pvm_from_observable,
    scenario,
    sweep_agreement,
    unsharp_qubit_povm,
    von_neumann_model,
)
from qmeasure.cli import main
from qmeasure.intersubjectivity import COMMUTATION_TOL

REPO = pathlib.Path(__file__).resolve().parent.parent
UNSHARP_SCENARIO = REPO / "scenarios" / "unsharp_eta08.json"
STATES = {"ground": [[1.0, 0.0], [0.0, 0.0]], "complex": [[0.6, 0.0], [0.0, 0.8]]}
# the endpoints, the smallest subnormal, the largest double below 1, and 99 interior points
GRID = [0.0, 1.0, 5e-324, 1 - 1e-16] + np.random.default_rng(5).uniform(0, 1, 99).tolist()
POINTER_MODELS = [("von_neumann", "von_neumann"), ("dilation", "von_neumann"),
                  ("von_neumann", "dilation")]


def _doc(models=("dilation", "dilation"), state="ground", eta=0.8):
    doc = json.loads(UNSHARP_SCENARIO.read_text())
    doc["system"]["state"] = STATES[state]
    doc["observable"] = {"unsharp": {"eta": eta}}
    doc["processes"] = [{"model": model} for model in models]
    return doc


def _process(model, eta):
    povm = unsharp_qubit_povm(eta)
    if model == "dilation":
        return dilation_model(povm)
    return von_neumann_model(Pvm(povm.outcomes, povm.effects, povm.dim))


def point_by_point(sc, etas):
    """Each point composed on its own, one process shared by equal models as the loader shares it."""
    rows = []
    for eta in etas:
        p1 = _process(sc.models[0], eta)
        p2 = p1 if sc.models[1] == sc.models[0] else _process(sc.models[1], eta)
        joint = compose(sc.psi, p1, p2, sc.tolerances["commutation"])
        rows.append((float(eta), agreement_probability(joint)))
    return rows


@pytest.mark.parametrize("state", sorted(STATES))
def test_stacked_sweep_equals_the_point_by_point_loop(state):
    sc = load_scenario(_doc(state=state))
    assert sweep_agreement(sc, GRID) == point_by_point(sc, GRID)


@pytest.mark.parametrize("state", sorted(STATES))
def test_a_sweep_stack_has_one_bound_from_the_roots(state):
    # the unsharp effects and their roots are diagonal, so every point of a dilation
    # pair's stack has the same bound from the roots, and _pair_kernel decides the
    # stack on H whole or not at all; at tolerance 0, under that bound, every point
    # takes the compound path and still reads what compose gives it alone
    instrument = measurement._dilation_stack(observables._unsharp_effects(GRID), pointer_meter(2))
    bounds = intersubjectivity._instrument_bounds(instrument, instrument, 2)
    assert np.unique(bounds).size == 1
    sc = load_scenario(_doc(state=state))
    exact = dataclasses.replace(sc, tolerances={**sc.tolerances, "commutation": 0.0})
    assert 0.0 < bounds[0]
    assert sweep_agreement(exact, GRID) == point_by_point(exact, GRID)


@pytest.mark.parametrize("models", POINTER_MODELS)
@pytest.mark.parametrize("state", sorted(STATES))
def test_a_sweep_with_a_pointer_model_is_refused_before_any_eta(monkeypatch, models, state):
    # a von_neumann model realizes the unsharp POVM only where it is projective, so
    # the sweep refuses it up front, even at eta = 1; run still composes each point
    sc = load_scenario(_doc(models, state, eta=1.0))
    etas = [1.0, 1 - 1e-10, 1.0]  # 1 - 1e-10 is projective within OP_TOL
    assert point_by_point(sc, etas)[0][1] == 1.0

    def refuse(*args, **kwargs):
        raise AssertionError("an eta was checked")

    monkeypatch.setattr(scenario, "_checked_eta", refuse)
    with pytest.raises(ValidationError) as exc:
        sweep_agreement(sc, etas)
    assert str(exc.value) == MODEL_ERROR[len("error: "):-1]


@pytest.mark.parametrize("chunk", [1, 7, scenario.SWEEP_CHUNK])
def test_sweep_rows_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    sc = load_scenario(_doc(state="complex"))
    expected = sweep_agreement(sc, GRID)
    monkeypatch.setattr(scenario, "SWEEP_CHUNK", chunk)
    assert sweep_agreement(sc, GRID) == expected


def test_sweep_composes_no_point_on_its_own(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-point call in a stacked sweep")

    sc = load_scenario(_doc())
    for name in ("compose", "dilation_model", "von_neumann_model"):
        monkeypatch.setattr(scenario, name, refuse)
    monkeypatch.setattr(intersubjectivity, "compose", refuse)
    assert len(sweep_agreement(sc, GRID)) == len(GRID)


def _cli(capsys, path, values):
    code = main(["sweep", str(path), "--param", "eta", "--values", values])
    out, err = capsys.readouterr()
    return code, out, err


ETA_ERROR = "error: sharpness eta must lie in [0, 1], got {}\n"
MODEL_ERROR = "error: sweep: only dilation models depend on eta and can be swept\n"


@pytest.mark.parametrize(
    "models, values, code, err",
    [
        (("dilation", "dilation"), "0.5,1.2", 2, ETA_ERROR.format("1.2")),
        (("dilation", "dilation"), "1.2,0.5", 2, ETA_ERROR.format("1.2")),
        (("dilation", "dilation"), "nan", 2, ETA_ERROR.format("nan")),
        (("von_neumann", "von_neumann"), "1,0.5", 2, MODEL_ERROR),
        (("von_neumann", "von_neumann"), "0.5,1", 2, MODEL_ERROR),
        (("dilation", "von_neumann"), "1,0.5", 2, MODEL_ERROR),
        (("von_neumann", "dilation"), "1,0.5", 2, MODEL_ERROR),
        (("von_neumann", "von_neumann"), "1", 2, MODEL_ERROR),
        (("dilation", "von_neumann"), "1", 2, MODEL_ERROR),
        (("von_neumann", "dilation"), "1", 2, MODEL_ERROR),
        (("von_neumann", "von_neumann"), "nan", 2, MODEL_ERROR),
    ],
)
def test_sweep_errors_are_the_recorded_ones(capsys, tmp_path, models, values, code, err):
    # exit codes and messages recorded from the point-by-point implementation; a
    # von_neumann entry is refused before any eta
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(_doc(models, eta=1.0)))
    assert _cli(capsys, path, values) == (code, "", err)


@pytest.mark.parametrize("models", [("dilation", "dilation")])
@pytest.mark.parametrize("state", sorted(STATES))
def test_sweep_of_a_sharp_pointer_pair_is_the_recorded_table(capsys, tmp_path, models, state):
    # the dilation pair is decided on H from the recorded effects, so an eta near 1
    # reads the closed form ((1 + eta)^2 + (1 - eta)^2) / 4, whatever the state
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(_doc(models, state, eta=1.0)))
    expected = "eta,agreement\n1.0,1.0\n0.9999999999,0.9999999999\n"
    assert _cli(capsys, path, "1,0.9999999999") == (0, expected, "")


def test_a_mixed_pair_reads_the_pointer_record():
    # the pointer side's effects are the projectors it records, not P^dag P pinched
    # from its meter, so verify_oit, reproduce and the joint table read the same arrays
    vn, dil = _process("von_neumann", 1 - 1e-10), _process("dilation", 1 - 1e-10)
    ground = np.array([1.0, 0.0])
    (recorded,) = vn._instrument.effects
    assert all(np.shares_memory(e, f) for e, f in zip(induced_povm(vn).effects, recorded))
    for js in (compose(ground, vn, dil), compose(ground, dil, vn)):
        assert js._meters == ()
        table = intersubjectivity._tables(js.psi, js.process1._instrument.effects,
                                          js.process2._instrument.effects)
        assert np.array_equal(joint_distribution(js).probabilities,
                              np.maximum(table[0].real, 0.0))


def _refuse_interactions(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an interaction stack was built")

    for name in ("_dilation_unitaries", "_pointer_unitaries"):
        monkeypatch.setattr(measurement, name, refuse)


@pytest.mark.parametrize("models", [("dilation", "dilation")])
@pytest.mark.parametrize("state", sorted(STATES))
def test_a_sweep_decided_on_h_builds_no_interaction(monkeypatch, models, state):
    sc = load_scenario(_doc(models, state, eta=1.0))
    expected = point_by_point(sc, GRID)
    non_local = dataclasses.replace(sc, tolerances={**sc.tolerances, "commutation": -1.0})
    message = _failing_point_error(non_local, GRID[0])
    _refuse_interactions(monkeypatch)
    assert sweep_agreement(sc, GRID) == expected
    # a bound over the tolerance needs the stack for the point's exact norm
    with pytest.raises(AssertionError, match="interaction stack was built"):
        sweep_agreement(non_local, GRID)
    monkeypatch.undo()
    with pytest.raises(NonCommutingMetersError) as exc:
        sweep_agreement(non_local, GRID)
    assert str(exc.value) == message


def _failing_point_error(sc, eta):
    with pytest.raises(NonCommutingMetersError) as exc:
        point_by_point(sc, [eta])
    return str(exc.value)


@pytest.mark.parametrize("chunk", [1, 7, scenario.SWEEP_CHUNK])
def test_a_failing_point_raises_before_a_later_invalid_eta(monkeypatch, chunk):
    # a negative commutation tolerance makes every point non-local, so the
    # exact norm decides each point, and the first point raises
    monkeypatch.setattr(scenario, "SWEEP_CHUNK", chunk)
    sc = load_scenario(_doc(state="complex"))
    sc = dataclasses.replace(sc, tolerances={**sc.tolerances, "commutation": -1.0})
    message = _failing_point_error(sc, 0.3)
    assert "max commutator norm" in message
    with pytest.raises(NonCommutingMetersError) as exc:
        sweep_agreement(sc, [0.3, 0.5, 1.2])
    assert str(exc.value) == message
    with pytest.raises(ParameterError):
        sweep_agreement(sc, [1.2, 0.3])


@pytest.mark.parametrize("chunk", [1, 7, scenario.SWEEP_CHUNK])
def test_a_table_error_raises_in_point_order(monkeypatch, chunk):
    # every table gets an imaginary residue before it is checked, so each
    # point fails after locality
    monkeypatch.setattr(scenario, "SWEEP_CHUNK", chunk)
    check = intersubjectivity._checked_tables
    monkeypatch.setattr(intersubjectivity, "_checked_tables",
                        lambda tables: check(tables + 1e-3j))
    sc = load_scenario(_doc(state="complex"))
    message = _failing_point_error(sc, 0.25)
    assert "imaginary residue 1.000e-03" in message
    with pytest.raises(NonCommutingMetersError) as exc:
        sweep_agreement(sc, [0.25, 2.0])
    assert str(exc.value) == message
    with pytest.raises(ParameterError):
        sweep_agreement(sc, [-0.5, 0.25])
    # locality is decided before the table, at every point
    sc = dataclasses.replace(sc, tolerances={**sc.tolerances, "commutation": -1.0})
    with pytest.raises(NonCommutingMetersError, match="max commutator norm"):
        sweep_agreement(sc, [0.25])


NON_LOCAL_SWEEPS = [(("dilation", "dilation"), [0.3, 0.7])]


@pytest.mark.parametrize("models, etas", NON_LOCAL_SWEEPS,
                         ids=["-".join(models) for models, _ in NON_LOCAL_SWEEPS])
def test_a_non_local_point_is_decided_from_its_own_meters(monkeypatch, models, etas):
    # a negative commutation tolerance makes every point non-local; the sweep
    # takes the exact norm from the stacked meters and composes nothing again
    sc = load_scenario(_doc(models, state="complex", eta=etas[0]))
    sc = dataclasses.replace(sc, tolerances={**sc.tolerances, "commutation": -1.0})
    message = _failing_point_error(sc, etas[0])

    def refuse(*args, **kwargs):
        raise AssertionError("a point composed again")

    monkeypatch.setattr(intersubjectivity, "compose", refuse)
    with pytest.raises(NonCommutingMetersError) as exc:
        sweep_agreement(sc, etas)
    assert str(exc.value) == message


def _turned_pointer_sides(angles):
    """Instrument stacks of a z pointer model against pointer models turned towards x.

    One point per angle. The stacks carry no roots, so their meters are
    evolved, as a custom pair's are.
    """
    z = von_neumann_model(pvm_from_observable(PAULI_Z))
    turned = [von_neumann_model(pvm_from_observable(np.cos(t) * PAULI_Z + np.sin(t) * PAULI_X))
              for t in angles]

    def side(processes):
        interactions = np.stack([p.interaction for p in processes])
        effects = np.concatenate([p._instrument.effects for p in processes])
        return measurement._Instrument(effects, z.meter, lambda: interactions)

    return side([z] * len(turned)), side(turned), z, turned


def test_each_point_of_a_stack_reads_its_own_exact_norm():
    # the unsharp family always commutes, so pointer pairs whose second axis turns
    # away from z point by point pin which point's meters the exact norm is taken from
    psi = np.array([0.6, 0.8j])
    side1, side2, z, turned = _turned_pointer_sides((0.0, 0.4, 0.2))
    with pytest.raises(NonCommutingMetersError) as exc:
        intersubjectivity._model_agreements(psi, side1, side2, COMMUTATION_TOL)
    with pytest.raises(NonCommutingMetersError) as want:
        joint_distribution(compose(psi, z, turned[1]))
    assert str(exc.value) == str(want.value)
    assert "max commutator norm 1.947e-01" in str(exc.value)


def test_a_table_error_raises_before_a_later_non_local_point(monkeypatch):
    # only point 2 is non-local; point 1's table fails its check, so it must raise
    # before point 2's exact norm decides locality, as the point-by-point loop raises
    psi = np.array([0.6, 0.8j])
    sides = _turned_pointer_sides((0.0, 0.0, 0.4))[:2]
    with pytest.raises(NonCommutingMetersError, match="max commutator norm 1.947e-01"):
        intersubjectivity._model_agreements(psi, *sides, COMMUTATION_TOL)
    tables = intersubjectivity._tables
    residue = np.array([0, 1e-3j, 0])[:, None, None]
    monkeypatch.setattr(intersubjectivity, "_tables", lambda *args: tables(*args) + residue)
    with pytest.raises(NonCommutingMetersError, match=r"imaginary residue 1\.000e-03"):
        intersubjectivity._model_agreements(psi, *sides, COMMUTATION_TOL)


def test_sweep_memory_is_bounded_by_the_chunk():
    sc = load_scenario(_doc())
    etas = np.linspace(0.0, 1.0, 8_000).tolist()
    tracemalloc.start()
    try:
        rows = sweep_agreement(sc, etas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == len(etas)
    # the rows take under 1 MB; all 8000 points in one pass would peak above 16 MB
    assert peak < 3 * 2**20


def _stacked_side(processes):
    """dilation_model processes of one shape as one _pair_kernel instrument stack.

    Its builder stacks the processes' own interactions, point by point.
    """
    record = measurement._dilation_stack(
        np.concatenate([p._instrument.effects for p in processes]), processes[0].meter)
    return record._replace(build=lambda: np.stack([p.interaction for p in processes]))


def test_a_point_over_its_bound_sends_the_whole_stack_to_the_compound_path():
    # point 1's effects are turned by 1e-9 out of point 0's basis: its bound from the
    # roots is over the tolerance while its exact norm is within it. point 0 alone is
    # decided on H, but the stack is not split: both points take the compound path.
    # Each bound is compose's on that point as a custom pair, and each row the model
    # pair's, from the effects the models record
    rng = np.random.default_rng(12)
    v = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    turn = np.array([[np.cos(1e-9), -np.sin(1e-9)], [np.sin(1e-9), np.cos(1e-9)]]) @ v

    def povm(basis, weights):
        effects = [basis @ np.diag(w) @ basis.conj().T for w in (weights, 1 - weights)]
        return dilation_model(Povm((-1.0, 1.0), effects, 2))

    left = povm(v, np.array([0.9, 0.2]))
    right = [povm(v, np.array([0.3, 0.6])), povm(turn, np.array([0.3, 0.6]))]
    psi = np.array([0.6, 0.8j])
    loose = compose(psi, left, right[1], np.inf)
    tol = np.sqrt(loose.max_commutator_norm * loose.commutator_bound)
    assert loose.max_commutator_norm < tol < loose.commutator_bound
    assert [compose(psi, left, r, tol)._meters == () for r in right] == [True, False]
    sides = _stacked_side([left, left]), _stacked_side(right)
    meters, bounds = intersubjectivity._pair_kernel(*sides, 2, tol)
    assert meters[0].shape[0] == meters[1].shape[0] == 2
    rows = intersubjectivity._model_agreements(psi, *sides, tol)
    points = [compose(psi, as_custom(left), as_custom(r), tol) for r in right]
    assert bounds.tolist() == [js.commutator_bound for js in points]
    assert rows.tolist() == [agreement_probability(compose(psi, left, r, np.inf)) for r in right]
