import json
import tracemalloc

import numpy as np
import pytest

from conftest import random_povm, random_process, random_pvm, random_state
from qmeasure import (
    DimensionError,
    ValidationError,
    load_scenario,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    povm_from_json,
    povm_to_json,
    pvm_from_json,
    pvm_to_json,
    scenario_to_json,
    state_from_json,
    state_to_json,
)
from qmeasure.scenario import DEFAULT_TOLERANCES


def test_matrix_round_trip_complex_entries():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    doc = matrix_to_json(a)
    assert doc["rows"] == 3 and doc["cols"] == 4
    assert len(doc["entries"]) == 12
    # survives an actual JSON text round trip, not just the dict form
    back = matrix_from_json(json.loads(json.dumps(doc)))
    assert max_abs(back - a) == 0.0


def test_matrix_row_major_layout():
    doc = matrix_to_json(np.array([[1, 2], [3, 4]], dtype=complex))
    assert doc["entries"] == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("rows"),
        lambda d: d.__setitem__("rows", 0),
        lambda d: d.__setitem__("rows", 2.5),
        lambda d: d.__setitem__("rows", True),
        lambda d: d.__setitem__("entries", d["entries"][:-1]),
        lambda d: d["entries"].__setitem__(0, [1.0]),
        lambda d: d["entries"].__setitem__(0, [1.0, "0"]),
        lambda d: d["entries"].__setitem__(0, [1.0, float("nan")]),
    ],
)
def test_matrix_from_json_strictness(mutate):
    doc = matrix_to_json(np.eye(2))
    mutate(doc)
    with pytest.raises(ValidationError):
        matrix_from_json(doc)


def test_state_round_trip_and_strictness():
    psi = np.array([0.6, 0.8j], dtype=complex)
    assert np.array_equal(state_from_json(state_to_json(psi)), psi)
    with pytest.raises(ValidationError):
        state_from_json([])
    with pytest.raises(ValidationError):
        state_from_json([[1.0, 0.0, 0.0]])
    with pytest.raises(ValidationError):
        state_from_json("not a state")


# A bad value at index 1 of a matrix's entries or a state's amplitudes, with
# the message it raises; the messages were recorded with the pair-at-a-time decoder.
_NOT_A_PAIR = "{where}[1]: expected a [re, im] pair, got {bad!r}"
_NOT_NUMBERS = "{where}[1]: entries of a [re, im] pair must be numbers, got {bad!r}"
BAD_ENTRIES = [
    (True, _NOT_A_PAIR),
    ("1.0", _NOT_A_PAIR),
    (None, _NOT_A_PAIR),
    ([[1, 2]], _NOT_A_PAIR),
    ([1.0, 0.0, 0.0], _NOT_A_PAIR),
    ({}, _NOT_A_PAIR),
    ([True, 0.0], _NOT_NUMBERS),
    ([0.0, "1.0"], _NOT_NUMBERS),
    ([0.0, None], _NOT_NUMBERS),
    ([10**400, 0.0], _NOT_NUMBERS),
    ([float("nan"), 0.0], "{finite}"),
    ([0.0, float("inf")], "{finite}"),
    ([float("-inf"), 0.0], "{finite}"),
]


@pytest.mark.parametrize("bad,template", BAD_ENTRIES)
def test_bad_matrix_entry_message(bad, template):
    doc = matrix_to_json(np.eye(2))
    doc["entries"][1] = bad
    where = "observable.hermitian_matrix"
    expected = template.format(where=f"{where}.entries", bad=bad,
                               finite=f"{where}: entries must be finite")
    with pytest.raises(ValidationError) as info:
        matrix_from_json(doc, where)
    assert str(info.value) == expected


@pytest.mark.parametrize("bad,template", BAD_ENTRIES)
def test_bad_state_amplitude_message(bad, template):
    expected = template.format(where="system.state", bad=bad,
                               finite="system.state: amplitudes must be finite")
    with pytest.raises(ValidationError) as info:
        state_from_json([[1.0, 0.0], bad], "system.state")
    assert str(info.value) == expected


def test_decoders_accept_numpy_scalars_ints_and_tuples():
    entries = [(1, 2), [np.float64(0.5), np.int64(3)], [2**60, -0.0], (np.float32(0.1), 1)]
    expected = [1 + 2j, 0.5 + 3j, complex(2**60, -0.0), complex(np.float32(0.1), 1)]
    state = state_from_json(entries)
    matrix = matrix_from_json({"rows": 2, "cols": 2, "entries": entries})
    assert state.tolist() == expected and matrix.ravel().tolist() == expected
    assert np.signbit(state[2].imag) and np.signbit(matrix[1, 0].imag)


def test_encoders_write_the_complex_parts_of_each_entry():
    a = np.array([[complex(1.0, -0.0), complex(-0.0, 2.5)],
                  [complex(-1e-310, -0.0), complex(3.0, 0.0)]])
    assert json.dumps(matrix_to_json(a)["entries"]) == (
        "[[1.0, -0.0], [-0.0, 2.5], [-1e-310, -0.0], [3.0, 0.0]]"
    )
    assert json.dumps(state_to_json(a[1])) == "[[-1e-310, -0.0], [3.0, 0.0]]"


def test_pvm_round_trip():
    pvm = random_pvm(np.random.default_rng(1), 3, 2)
    back = pvm_from_json(json.loads(json.dumps(pvm_to_json(pvm))))
    assert back.outcomes == pvm.outcomes
    assert back.dim == pvm.dim
    assert max(max_abs(a - b) for a, b in zip(back.projectors, pvm.projectors)) == 0.0


def test_povm_round_trip():
    povm = random_povm(np.random.default_rng(2), 2, 3)
    back = povm_from_json(json.loads(json.dumps(povm_to_json(povm))))
    assert back.outcomes == povm.outcomes
    assert max(max_abs(a - b) for a, b in zip(back.effects, povm.effects)) == 0.0


def test_povm_from_json_reruns_invariant_checks():
    povm = random_povm(np.random.default_rng(3), 2, 2)
    doc = povm_to_json(povm)
    doc["effects"][0]["entries"][0] = [0.1, 0.0]  # breaks the resolution of unity
    with pytest.raises(ValidationError):
        povm_from_json(doc)


def test_pvm_from_json_missing_field():
    doc = pvm_to_json(random_pvm(np.random.default_rng(4), 2, 2))
    doc.pop("outcomes")
    with pytest.raises(ValidationError):
        pvm_from_json(doc)


def test_pvm_from_json_outcome_type_gate():
    doc = pvm_to_json(random_pvm(np.random.default_rng(5), 2, 2))
    doc["outcomes"][0] = "minus one"
    with pytest.raises(ValidationError):
        pvm_from_json(doc)


def _custom_process_doc(seed):
    """A one-process induce scenario whose process is written out as custom."""
    rng = np.random.default_rng(seed)
    process = random_process(rng, 2, 3)
    doc = scenario_to_json(random_state(rng, 2), random_pvm(rng, 2, 2), [process], "induce")
    return process, json.loads(json.dumps(doc))


def test_process_round_trip():
    process, doc = _custom_process_doc(6)
    back = load_scenario(doc).processes[0]
    assert back.system_dim == 2 and back.apparatus_dim == 3
    assert np.array_equal(back.interaction, process.interaction)
    assert np.array_equal(back.apparatus_state, process.apparatus_state)
    assert back.meter.outcomes == process.meter.outcomes
    assert all(np.array_equal(a, b)
               for a, b in zip(back.meter.projectors, process.meter.projectors))


def test_custom_process_strictness():
    mutations = [
        lambda p: p.__setitem__("apparatus_dim", -1),
        lambda p: p.__setitem__("apparatus_dim", True),
        lambda p: p.pop("meter"),
        lambda p: p.__setitem__("extra", 1),
        lambda p: p["xi"].pop(),
        lambda p: p["unitary"]["entries"].__setitem__(0, [2.0, 0.0]),
        lambda p: p["meter"]["outcomes"].__setitem__(0, "zero"),
    ]
    for mutate in mutations:
        _, doc = _custom_process_doc(7)
        mutate(doc["processes"][0])
        with pytest.raises(ValidationError):
            load_scenario(doc)


def test_oversized_process_is_rejected_before_allocation():
    # one pointer model of a 40-outcome observable: a 1600 x 1600 complex
    # interaction alone would take 41 MB
    doc = scenario_to_json(np.ones(40) / np.sqrt(40), np.diag(np.arange(40.0)), [], "induce")
    doc["processes"] = [{"model": "von_neumann"}]
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match="compound dimension 1600 exceeds the cap 256"):
            load_scenario(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_scenario_tolerances_survive_the_round_trip():
    rng = np.random.default_rng(8)
    tolerances = {"commutation": 1.0, "oit": 1e-6, "reproducibility": 2e-9}
    doc = scenario_to_json(random_state(rng, 2), random_pvm(rng, 2, 2),
                           [random_process(rng, 2, 2)], "induce", tolerances=tolerances)
    loaded = load_scenario(json.loads(json.dumps(doc)))
    assert loaded.tolerances == {**DEFAULT_TOLERANCES, **tolerances}
