"""Scenario files: strict loading, experiment execution, parameter sweeps.

A scenario file is a JSON object naming a system state, one observable, one
or two measuring processes, and an experiment to run. Loading builds every
library object and checks every invariant; running then executes the named
experiment and returns a plain-dict report ready for json.dump. Validation
and execution share this single loader, so a file accepted by `validate` is
exactly a file `run` can execute.

The scenario holds its observable once, as the file declared it: a Pvm for
hermitian_matrix and pvm, a Povm for povm and unsharp. A PVM is derived
from a declared Povm only where one is required, by the von_neumann model
and by the reproduce and oit experiments; the loader rejects a noisy
observable there.

Schema sketch (see the README for a worked example):

    {
      "schema_version": "1",
      "system": {"dim": 2, "state": [[re, im], ...]},
      "observable": {"hermitian_matrix": {...}} | {"pvm": {...}}
                    | {"povm": {...}} | {"unsharp": {"eta": 0.8}},
      "processes": [{"model": "von_neumann" | "dilation"}
                    | {"model": "custom", "apparatus_dim": n, "xi": [...],
                       "unitary": {...}, "meter": {...}}],
      "experiment": "induce" | "reproduce" | "joint" | "oit" | "sample",
      "params": {"tolerances": {...}, "n_samples": n, "seed": n}
    }
"""

from __future__ import annotations

import json
import pickle
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, ValidationError
from .intersubjectivity import (
    COMMUTATION_TOL,
    OIT_TOL,
    _model_agreements,
    compose,
    joint_distribution,
    sample_outcomes,
    table_agreement,
    verify_oit,
)
from .linalg import _check_dim
from .measurement import (
    REPRO_TOL,
    MeasurementProcess,
    _dilation_stack,
    _pointer,
    check_reproducibility,
    dilation_model,
    induced_povm,
    von_neumann_model,
)
from .observables import (
    CLUSTER_TOL,
    Povm,
    Pvm,
    _checked_eta,
    _derived,
    _unsharp_effects,
    as_povm,
    born_povm,
    is_projective,
    pvm_from_observable,
    unsharp_qubit_povm,
)
from .serialize import (
    _field,
    _is_count,
    _is_number,
    _require,
    matrix_from_json,
    matrix_to_json,
    povm_from_json,
    povm_to_json,
    pvm_from_json,
    pvm_to_json,
    state_from_json,
    state_to_json,
)

SCHEMA_VERSION = "1"
STATE_NORM_GATE = 1e-8  # looser than the library's norm invariant; gated then renormalized

# per experiment: its process count, the tolerance the CLI --tol flag replaces
# (or None), and whether it needs a projective observable
_Experiment = namedtuple("_Experiment", "processes decision needs_pvm")
EXPERIMENTS = {
    "induce": _Experiment(1, None, False),
    "reproduce": _Experiment(1, "reproducibility", True),
    "joint": _Experiment(2, "commutation", False),
    "oit": _Experiment(2, "oit", True),
    "sample": _Experiment(2, "commutation", False),
}

DEFAULT_TOLERANCES = {
    "cluster": CLUSTER_TOL,
    "reproducibility": REPRO_TOL,
    "commutation": COMMUTATION_TOL,
    "oit": OIT_TOL,
}

DEFAULT_N_SAMPLES = 10000
MAX_N_SAMPLES = 10**8  # bounds run time (about 1.5 s at the cap); sampling memory is one chunk
DEFAULT_SEED = 0
SWEEP_CHUNK = 256  # sweep points evaluated in one stacked pass


@dataclass(frozen=True, eq=False)
class Scenario:
    """A loaded scenario; observable is a Pvm when the experiment is reproduce or oit."""

    system_dim: int
    psi: np.ndarray
    observable: object  # the Pvm or Povm built from the file's observable field
    kind: str  # that field's name: hermitian_matrix, pvm, povm or unsharp
    processes: tuple
    models: tuple
    experiment: str
    tolerances: dict
    n_samples: int
    seed: int


def _check_keys(data: dict, allowed, required, where: str):
    for key in data:
        _require(key in allowed, f"{where}: unknown field {key!r}")
    for key in required:
        _require(key in data, f"{where}: missing field {key!r}")


def _gated_state(raw, where: str, dim: Optional[int] = None) -> np.ndarray:
    vec = state_from_json(raw, where)
    if dim is not None:
        _require(
            vec.shape[0] == dim,
            f"{where}: expected {dim} amplitudes, got {vec.shape[0]}",
        )
    with np.errstate(over="ignore"):  # an overflowing norm is inf, which the gate rejects
        norm = float(np.linalg.norm(vec))
    _require(
        abs(norm - 1.0) <= STATE_NORM_GATE,
        f"{where}: norm {norm!r} deviates from 1 beyond {STATE_NORM_GATE}",
    )
    return vec / norm


def _projective_pvm(observable) -> Optional[Pvm]:
    """The PVM of a projective observable, or None; only a Povm is tested."""
    if isinstance(observable, Pvm):
        return observable
    return (_derived(Pvm, observable.outcomes, observable.effects, observable.dim)
            if is_projective(observable) else None)


def _build_observable(data, dim: int, cluster_tol: float):
    """The observable field's name and the Pvm or Povm it declares."""
    where = "observable"
    _require(isinstance(data, dict), f"{where}: expected an object")
    kinds = ("hermitian_matrix", "pvm", "povm", "unsharp")
    present = [k for k in data if k in kinds]
    _check_keys(data, kinds, (), where)
    _require(
        len(present) == 1,
        f"{where}: exactly one of {', '.join(kinds)} is required",
    )
    kind = present[0]
    if kind == "hermitian_matrix":
        a = matrix_from_json(data[kind], f"{where}.hermitian_matrix")
        _require(a.shape == (dim, dim),
                 f"{where}: matrix shape {a.shape} does not match system dim {dim}")
        with _field(f"{where}.hermitian_matrix"):
            return kind, pvm_from_observable(a, cluster_tol)
    if kind == "pvm":
        pvm = pvm_from_json(data[kind], f"{where}.pvm")
        _require(pvm.dim == dim,
                 f"{where}: pvm dim {pvm.dim} does not match system dim {dim}")
        return kind, pvm
    if kind == "povm":
        povm = povm_from_json(data[kind], f"{where}.povm")
        _require(povm.dim == dim,
                 f"{where}: povm dim {povm.dim} does not match system dim {dim}")
        return kind, povm
    block = data["unsharp"]
    _require(isinstance(block, dict), f"{where}.unsharp: expected an object")
    _check_keys(block, ("eta",), ("eta",), f"{where}.unsharp")
    eta = block["eta"]
    _require(_is_number(eta), f"{where}.unsharp.eta: must be a number, got {eta!r}")
    _require(dim == 2, f"{where}: the unsharp observable needs a 2-dimensional system")
    return kind, unsharp_qubit_povm(float(eta))


def _build_process(entry, index: int, observable, pvm: Optional[Pvm], system_dim: int):
    """One checked process; pvm is the observable's PVM when the load needs one, else None."""
    where = f"processes[{index}]"
    _require(isinstance(entry, dict), f"{where}: expected an object")
    _require("model" in entry, f"{where}: missing field 'model'")
    model = entry["model"]
    if model in ("von_neumann", "dilation"):
        _check_keys(entry, ("model",), ("model",), where)
        if model == "dilation":
            povm = as_povm(observable) if isinstance(observable, Pvm) else observable
            return dilation_model(povm)
        _require(pvm is not None, f"{where}: the von_neumann model needs a projective observable")
        return von_neumann_model(pvm)
    if model == "custom":
        fields = ("model", "apparatus_dim", "xi", "unitary", "meter")
        _check_keys(entry, fields, fields, where)
        apparatus_dim = entry["apparatus_dim"]
        _require(
            _is_count(apparatus_dim),
            f"{where}.apparatus_dim: must be a positive integer, got {apparatus_dim!r}",
        )
        xi = _gated_state(entry["xi"], f"{where}.xi", apparatus_dim)
        interaction = matrix_from_json(entry["unitary"], f"{where}.unitary")
        meter = pvm_from_json(entry["meter"], f"{where}.meter")
        with _field(where):
            return MeasurementProcess(system_dim, apparatus_dim, xi, interaction, meter)
    raise ValidationError(
        f"{where}: unknown model {model!r} (expected von_neumann, dilation, or custom)"
    )


def _entry_key(entry):
    """entry's pickled bytes, equal for two entries only if their types and values are.

    Unlike ==, pickle tells true from 1, 1 from 1.0, -0.0 from 0.0 and a list
    from a tuple, at C speed. An entry pickle cannot encode (an object it
    refuses, or nesting deeper than the recursion limit, which a JSON file
    can reach) gets a key equal to no other.
    """
    try:
        return pickle.dumps(entry)
    except (pickle.PicklingError, TypeError, AttributeError, RecursionError):
        return object()


def _checked_tolerance(value, where: str) -> float:
    _require(_is_number(value) and value >= 0,
             f"{where}: must be a non-negative number, got {value!r}")
    return float(value)


def _checked_seed(value, where: str) -> int:
    _require(_is_count(value, 0), f"{where}: must be a non-negative integer, got {value!r}")
    return int(value)


def _build_tolerances(data) -> dict:
    tolerances = dict(DEFAULT_TOLERANCES)
    if data is None:
        return tolerances
    where = "params.tolerances"
    _require(isinstance(data, dict), f"{where}: expected an object")
    _check_keys(data, tuple(DEFAULT_TOLERANCES), (), where)
    for key, value in data.items():
        tolerances[key] = _checked_tolerance(value, f"{where}.{key}")
    return tolerances


def load_scenario(data) -> Scenario:
    """Build and invariant-check every object a scenario file declares.

    The observable is kept as declared (see the module docstring). Its PVM
    is taken at most once, and only when a von_neumann entry or a reproduce
    or oit experiment needs it; a noisy observable there raises
    ValidationError, and for reproduce and oit the scenario holds the PVM.
    An entry equal to an earlier one, with the same JSON types and values
    (see _entry_key), holds that entry's process, so each distinct entry is
    built and checked once: a von_neumann or dilation pair, or two equal
    custom entries, is one process that compose evolves once.

    Each process's H x K and, for two-process experiments, the compound
    H x K1 x K2 must fit linalg.MAX_DIM, the cap compose applies; a model
    process over it raises DimensionError before its interaction is built.
    """
    _require(isinstance(data, dict), "scenario: expected a JSON object at top level")
    _check_keys(
        data,
        ("schema_version", "system", "observable", "processes", "experiment", "params"),
        ("schema_version", "system", "observable", "processes", "experiment"),
        "scenario",
    )
    version = data["schema_version"]
    _require(
        version == SCHEMA_VERSION,
        f"scenario: unsupported schema_version {version!r} (expected {SCHEMA_VERSION!r})",
    )

    system = data["system"]
    _require(isinstance(system, dict), "system: expected an object")
    _check_keys(system, ("dim", "state"), ("dim", "state"), "system")
    dim = system["dim"]
    _require(_is_count(dim), f"system.dim: must be a positive integer, got {dim!r}")
    psi = _gated_state(system["state"], "system.state", dim)

    experiment = data["experiment"]
    _require(isinstance(experiment, str) and experiment in EXPERIMENTS,
             f"experiment: unknown experiment {experiment!r} (expected one of "
             f"{', '.join(EXPERIMENTS)})")

    params = data.get("params", {})
    _require(isinstance(params, dict), "params: expected an object")
    _check_keys(params, ("tolerances", "n_samples", "seed"), (), "params")
    tolerances = _build_tolerances(params.get("tolerances"))
    n_samples = params.get("n_samples", DEFAULT_N_SAMPLES)
    _require(_is_count(n_samples) and n_samples <= MAX_N_SAMPLES,
             f"params.n_samples: must be a positive integer at most {MAX_N_SAMPLES}, "
             f"got {n_samples!r}")
    seed = _checked_seed(params.get("seed", DEFAULT_SEED), "params.seed")

    kind, observable = _build_observable(data["observable"], dim, tolerances["cluster"])

    entries = data["processes"]
    _require(isinstance(entries, list), "processes: expected a list")
    spec = EXPERIMENTS[experiment]
    _require(
        len(entries) == spec.processes,
        f"processes: the {experiment} experiment needs exactly {spec.processes} "
        f"process(es), got {len(entries)}",
    )
    wants_pvm = spec.needs_pvm or any(
        isinstance(entry, dict) and entry.get("model") == "von_neumann" for entry in entries)
    pvm = _projective_pvm(observable) if wants_pvm else None
    keys = [_entry_key(entry) for entry in entries]
    built = {}  # an entry equal to an earlier one holds that entry's process
    for i, (key, entry) in enumerate(zip(keys, entries)):
        if key not in built:
            built[key] = _build_process(entry, i, observable, pvm, dim)
    processes = tuple(built[key] for key in keys)
    models = tuple(entry["model"] for entry in entries)
    if spec.processes == 2:
        # compose's own cap, checked here so that validate rejects what run would
        _check_dim(processes[0].total_dim * processes[1].apparatus_dim)
    if spec.needs_pvm:
        _require(
            pvm is not None,
            f"the {experiment} experiment needs a projective observable "
            f"(hermitian_matrix, pvm, or an unsharp/povm observable whose effects "
            f"are projectors); use induce or joint for noisy ones",
        )
        observable = pvm

    return Scenario(
        system_dim=dim,
        psi=psi,
        observable=observable,
        kind=kind,
        processes=processes,
        models=models,
        experiment=experiment,
        tolerances=tolerances,
        n_samples=n_samples,
        seed=seed,
    )


def load_scenario_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValidationError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:
            # malformed JSON, bad UTF-8, or an integer beyond int()'s digit limit
            raise ValidationError(f"{path}: {exc}") from None
    return load_scenario(data)


def _label_key(x) -> str:
    return str(float(x))


def _prob_map(outcomes, values) -> dict:
    return {_label_key(x): float(p) for x, p in zip(outcomes, values)}


def run_experiment(
    scenario: Scenario,
    tol_override: Optional[float] = None,
    seed_override: Optional[int] = None,
) -> dict:
    """Execute the scenario's experiment and return a JSON-ready report.

    tol_override replaces the experiment's decision tolerance (see
    EXPERIMENTS); seed_override replaces the sampling seed. Both are
    the CLI flags' hooks, default to the scenario's own parameters, and are
    checked as the loader checks the values they replace.
    """
    tolerances = dict(scenario.tolerances)
    decision = EXPERIMENTS[scenario.experiment].decision
    if tol_override is not None and decision is not None:
        tolerances[decision] = _checked_tolerance(tol_override, "tol_override")
    diagnostics = {"tolerances": tolerances}
    experiment = scenario.experiment

    if experiment == "induce":
        pi = induced_povm(scenario.processes[0])
        dist = born_povm(pi, scenario.psi)
        results = {
            "induced_povm": povm_to_json(pi),
            "projective": bool(is_projective(pi)),
            "distribution": _prob_map(dist.outcomes, dist.probabilities),
        }
    elif experiment == "reproduce":
        report = check_reproducibility(
            scenario.processes[0],
            scenario.observable,
            tol=tolerances["reproducibility"],
        )
        results = {
            "reproducible": bool(report.reproducible),
            "max_operator_deviation": float(report.max_operator_deviation),
            "per_outcome_deviation": {
                _label_key(x): float(d)
                for x, d in report.per_outcome_deviation.items()
            },
        }
    else:
        joint = compose(scenario.psi, *scenario.processes, tolerances["commutation"])
        # the scenario's one locality verdict, under the report's existing keys
        diagnostics["max_commutator_norm"] = joint.locality_value
        diagnostics["commuting"] = joint.commuting
        if experiment == "joint":
            dist = joint_distribution(joint)
            results = {
                "outcomes1": list(dist.outcomes1),
                "outcomes2": list(dist.outcomes2),
                "joint_table": dist.probabilities.tolist(),
                "marginal1": _prob_map(dist.outcomes1, dist.marginal1()),
                "marginal2": _prob_map(dist.outcomes2, dist.marginal2()),
                "agreement_probability": table_agreement(dist),
            }
        elif experiment == "oit":
            report = verify_oit(joint, scenario.observable, tol=tolerances["oit"],
                                reproducibility_tol=tolerances["reproducibility"])
            dist = report.joint
            results = {
                "intersubjective": bool(report.intersubjective),
                "off_diagonal_mass": float(report.off_diagonal_mass),
                "diagonal": {_label_key(x): p for x, p in report.diagonal.items()},
                "expected_diagonal": {
                    _label_key(x): p for x, p in report.expected_diagonal.items()
                },
                "max_diagonal_deviation": float(report.max_diagonal_deviation),
                "outcomes1": list(dist.outcomes1),
                "outcomes2": list(dist.outcomes2),
                "joint_table": dist.probabilities.tolist(),
            }
        else:
            seed = (scenario.seed if seed_override is None
                    else _checked_seed(seed_override, "seed_override"))
            sample = sample_outcomes(joint, scenario.n_samples, seed)
            results = {
                "n_samples": int(scenario.n_samples),
                "seed": int(seed),
                "outcomes1": list(sample.empirical.outcomes1),
                "outcomes2": list(sample.empirical.outcomes2),
                "counts": sample.counts.tolist(),
                "empirical_table": sample.empirical.probabilities.tolist(),
                "empirical_agreement": table_agreement(sample.empirical),
                "analytic_agreement": table_agreement(sample.analytic),
            }

    return {"experiment": experiment, "results": results, "diagnostics": diagnostics}


def sweep_agreement(scenario: Scenario, etas):
    """Agreement probability as a function of the unsharpness eta.

    At each eta the observable is unsharp_qubit_povm(eta), realized by the
    scenario's dilation models. Only the unsharp family with dilation
    models can be swept: a custom interaction does not depend on eta, and
    a von_neumann model realizes the unsharp POVM only where it is
    projective, at eta = 1.

    The etas are checked one by one, and each run of SWEEP_CHUNK checked
    etas is evaluated in one stacked pass (see _sweep_chunk), so memory is
    bounded by the chunk, not by the number of etas. Errors come in the
    order a point-by-point loop gives them: a point's locality or table
    error before any later eta's, and the error of an eta out of range only
    after every eta before it has been evaluated.
    """
    _require(
        scenario.kind == "unsharp",
        "sweep: only the unsharp observable has an eta to sweep",
    )
    _require(
        all(m == "dilation" for m in scenario.models),
        "sweep: only dilation models depend on eta and can be swept",
    )
    _require(
        len(scenario.processes) == 2,
        "sweep: agreement needs a two-process scenario",
    )
    rows, chunk, error = [], [], None
    for eta in etas:
        try:
            chunk.append(_checked_eta(eta))
        except ParameterError as exc:  # raised after the etas before it
            error = exc
            break
        if len(chunk) == SWEEP_CHUNK:
            rows += _sweep_chunk(scenario, chunk)
            chunk = []
    if chunk:
        rows += _sweep_chunk(scenario, chunk)
    if error is not None:
        raise error
    return rows


def _sweep_chunk(scenario: Scenario, etas: list) -> list:
    """The (eta, agreement) rows of checked etas, from one stacked pass.

    The loader shares one dilation process between both entries, so one
    instrument stack (from one _dilation_stack of the chunk's effects on the
    pointer meter) is passed as both. The chunk is decided on H as a whole
    or not at all (see intersubjectivity._pair_kernel): every unsharp point
    has diagonal effects and roots, so every point's bound from the roots is
    the same. An interaction stack is built only when that bound is over the
    commutation tolerance.
    """
    _, meter = _pointer(scenario.observable.outcomes)
    instrument = _dilation_stack(_unsharp_effects(etas), meter)
    agreements = _model_agreements(scenario.psi, instrument, instrument,
                                   scenario.tolerances["commutation"])
    return list(zip(etas, agreements.tolist()))


def scenario_to_json(
    psi,
    observable,
    processes,
    experiment: str,
    tolerances: Optional[dict] = None,
    n_samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> dict:
    """Serialize programmatically built objects into a scenario document.

    The observable may be a Pvm, a Povm, or a Hermitian matrix; processes are
    written out explicitly as custom processes, so the document reloads to
    numerically identical objects regardless of how they were first built.
    """
    psi = np.asarray(psi, dtype=complex)
    if isinstance(observable, Pvm):
        obs = {"pvm": pvm_to_json(observable)}
    elif isinstance(observable, Povm):
        obs = {"povm": povm_to_json(observable)}
    else:
        obs = {"hermitian_matrix": matrix_to_json(np.asarray(observable, dtype=complex))}
    doc = {
        "schema_version": SCHEMA_VERSION,
        "system": {"dim": int(psi.shape[0]), "state": state_to_json(psi)},
        "observable": obs,
        "processes": [
            {
                "model": "custom",
                "apparatus_dim": int(p.apparatus_dim),
                "xi": state_to_json(p.apparatus_state),
                "unitary": matrix_to_json(p.interaction),
                "meter": pvm_to_json(p.meter),
            }
            for p in processes
        ],
        "experiment": experiment,
    }
    params = {}
    if tolerances is not None:
        params["tolerances"] = {k: float(v) for k, v in tolerances.items()}
    if n_samples is not None:
        params["n_samples"] = int(n_samples)
    if seed is not None:
        params["seed"] = int(seed)
    if params:
        doc["params"] = params
    return doc
