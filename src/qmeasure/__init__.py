"""Finite-dimensional quantum measurement schemes and observer agreement.

Builds PVM/POVM observables on small Hilbert spaces, realizes them through
indirect measuring processes (pointer models and dilations), and analyzes
when two observers measuring the same system must agree.
"""

from .errors import (
    DimensionError,
    NonCommutingMetersError,
    NotHermitianError,
    ParameterError,
    PreconditionError,
    QmeasureError,
    ValidationError,
)
from .intersubjectivity import (
    JointDistribution,
    JointScenario,
    OitReport,
    SampleResult,
    agreement_probability,
    compose,
    joint_distribution,
    sample_outcomes,
    table_agreement,
    verify_oit,
)
from .linalg import (
    PAULI_Z,
    as_operator,
    as_state,
    is_hermitian,
    is_projector,
    is_unitary,
    max_abs,
)
from .measurement import (
    MeasurementProcess,
    ReproducibilityReport,
    check_reproducibility,
    dilation_model,
    induced_povm,
    von_neumann_model,
)
from .observables import (
    OutcomeDistribution,
    Povm,
    Pvm,
    as_povm,
    born_povm,
    is_projective,
    pvm_from_observable,
    unsharp_qubit_povm,
)
from .scenario import (
    Scenario,
    load_scenario,
    load_scenario_file,
    run_experiment,
    scenario_to_json,
    sweep_agreement,
)
from .serialize import (
    matrix_from_json,
    matrix_to_json,
    povm_from_json,
    povm_to_json,
    pvm_from_json,
    pvm_to_json,
    state_from_json,
    state_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionError",
    "JointDistribution",
    "JointScenario",
    "MeasurementProcess",
    "NonCommutingMetersError",
    "NotHermitianError",
    "OitReport",
    "OutcomeDistribution",
    "PAULI_Z",
    "ParameterError",
    "Povm",
    "PreconditionError",
    "Pvm",
    "QmeasureError",
    "ReproducibilityReport",
    "SampleResult",
    "Scenario",
    "ValidationError",
    "agreement_probability",
    "as_operator",
    "as_povm",
    "as_state",
    "born_povm",
    "check_reproducibility",
    "compose",
    "dilation_model",
    "induced_povm",
    "is_hermitian",
    "is_projective",
    "is_projector",
    "is_unitary",
    "joint_distribution",
    "load_scenario",
    "load_scenario_file",
    "matrix_from_json",
    "matrix_to_json",
    "max_abs",
    "povm_from_json",
    "povm_to_json",
    "pvm_from_json",
    "pvm_from_observable",
    "pvm_to_json",
    "run_experiment",
    "sample_outcomes",
    "scenario_to_json",
    "state_from_json",
    "state_to_json",
    "sweep_agreement",
    "table_agreement",
    "unsharp_qubit_povm",
    "verify_oit",
    "von_neumann_model",
]
