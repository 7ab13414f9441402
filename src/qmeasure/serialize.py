"""JSON encoding for states, operators, and observables.

Complex numbers are written as [re, im] pairs so files stay diffable and
language neutral. Matrices carry explicit row/column counts and a dense
row-major entry list; decoding is strict and raises ValidationError on any
shape or type mismatch rather than guessing. Both directions work on whole
arrays: encoding stacks the real and imaginary parts and emits one nested
list, and decoding checks the type of every pair in one pass, then converts
the whole entry list with a single numpy call. The first bad pair is
reported by its index, as it would be by a pair-at-a-time decoder. Measuring
processes are encoded only inside scenario files (see scenario.py).
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager

import numpy as np

from .errors import QmeasureError, ValidationError
from .observables import Povm, Pvm


def _require(cond: bool, message: str):
    if not cond:
        raise ValidationError(message)


@contextmanager
def _field(where: str):
    """Re-raise a qmeasure error from the block as its own class, naming the field first."""
    try:
        yield
    except QmeasureError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _is_number(x) -> bool:
    """A real number that converts to a float: no bool, no oversized integer."""
    if type(x) is float:
        return True
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    try:
        float(x)
    except OverflowError:
        return False
    return True


def _is_count(x, minimum: int = 1) -> bool:
    """An integer of at least minimum that passes _is_number."""
    return isinstance(x, numbers.Integral) and _is_number(x) and x >= minimum


def _from_pair(entry, where: str) -> complex:
    _require(
        isinstance(entry, (list, tuple)) and len(entry) == 2,
        f"{where}: expected a [re, im] pair, got {entry!r}",
    )
    re, im = entry
    _require(
        _is_number(re) and _is_number(im),
        f"{where}: entries of a [re, im] pair must be numbers, got {entry!r}",
    )
    return complex(re, im)


def _complex_entries(entries: list, where: str) -> np.ndarray:
    """entries, a list of [re, im] pairs, as a complex vector; finiteness is the caller's check."""
    for i, e in enumerate(entries):
        if not (isinstance(e, (list, tuple)) and len(e) == 2
                and _is_number(e[0]) and _is_number(e[1])):
            _from_pair(e, f"{where}[{i}]")
    return np.array(entries, dtype=float).view(complex).ravel()


def _pairs(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], -1).reshape(-1, 2).tolist()


def matrix_to_json(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    _require(a.ndim == 2, f"expected a matrix, got ndim {a.ndim}")
    rows, cols = a.shape
    return {
        "rows": int(rows),
        "cols": int(cols),
        "entries": _pairs(a),
    }


def matrix_from_json(data, where: str = "matrix") -> np.ndarray:
    _require(isinstance(data, dict), f"{where}: expected an object, got {type(data).__name__}")
    for key in ("rows", "cols", "entries"):
        _require(key in data, f"{where}: missing field {key!r}")
    rows, cols = data["rows"], data["cols"]
    _require(_is_count(rows), f"{where}: rows must be a positive integer, got {rows!r}")
    _require(_is_count(cols), f"{where}: cols must be a positive integer, got {cols!r}")
    entries = data["entries"]
    _require(isinstance(entries, list), f"{where}: entries must be a list")
    _require(
        len(entries) == rows * cols,
        f"{where}: expected {rows * cols} entries for a {rows}x{cols} matrix, "
        f"got {len(entries)}",
    )
    out = _complex_entries(entries, f"{where}.entries").reshape(rows, cols)
    _require(bool(np.isfinite(out).all()), f"{where}: entries must be finite")
    return out


def state_to_json(psi: np.ndarray) -> list:
    psi = np.asarray(psi, dtype=complex)
    _require(psi.ndim == 1, f"expected a state vector, got ndim {psi.ndim}")
    return _pairs(psi)


def state_from_json(data, where: str = "state") -> np.ndarray:
    _require(isinstance(data, list) and len(data) >= 1,
             f"{where}: expected a non-empty list of [re, im] pairs")
    out = _complex_entries(data, where)
    _require(bool(np.isfinite(out).all()), f"{where}: amplitudes must be finite")
    return out


def pvm_to_json(pvm: Pvm) -> dict:
    return {
        "dim": int(pvm.dim),
        "outcomes": [float(x) for x in pvm.outcomes],
        "projectors": [matrix_to_json(p) for p in pvm.projectors],
    }


def pvm_from_json(data, where: str = "pvm") -> Pvm:
    outcomes, ops = _labeled_ops_from_json(data, "projectors", where)
    with _field(where):
        return Pvm(outcomes=outcomes, projectors=ops, dim=data["dim"])


def povm_to_json(povm: Povm) -> dict:
    return {
        "dim": int(povm.dim),
        "outcomes": [float(x) for x in povm.outcomes],
        "effects": [matrix_to_json(e) for e in povm.effects],
    }


def povm_from_json(data, where: str = "povm") -> Povm:
    outcomes, ops = _labeled_ops_from_json(data, "effects", where)
    with _field(where):
        return Povm(outcomes=outcomes, effects=ops, dim=data["dim"])


def _labeled_ops_from_json(data, op_field: str, where: str):
    _require(isinstance(data, dict), f"{where}: expected an object")
    for key in ("dim", "outcomes", op_field):
        _require(key in data, f"{where}: missing field {key!r}")
    dim = data["dim"]
    _require(_is_count(dim), f"{where}: dim must be a positive integer, got {dim!r}")
    outcomes = data["outcomes"]
    _require(isinstance(outcomes, list) and len(outcomes) >= 1,
             f"{where}: outcomes must be a non-empty list")
    for i, x in enumerate(outcomes):
        _require(_is_number(x),
                 f"{where}.outcomes[{i}]: outcome labels must be real numbers, got {x!r}")
    ops = data[op_field]
    _require(isinstance(ops, list) and len(ops) == len(outcomes),
             f"{where}: {op_field} must be a list matching outcomes in length")
    mats = [matrix_from_json(m, f"{where}.{op_field}[{i}]") for i, m in enumerate(ops)]
    return [float(x) for x in outcomes], mats
