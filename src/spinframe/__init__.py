"""Two exchange-coupled spin qubits with an anisotropic interaction term.

The package models the coupled-spin Hamiltonian, builds the pair of local
qubit rotations that carry it to the isotropic Heisenberg form, synthesizes
exchange-based gates in that rotated frame, and quantifies how miscalibration
of the anisotropy parameters degrades those gates.
"""

from .analysis import (
    SweepTable,
    concurrence,
    gate_error_sweep,
    thermal_state,
)
from .frame import (
    RotationPlan,
    assemble,
    eigenstates,
    rotation_matrix,
    rotation_plan,
    verify_isotropization,
)
from .gates import (
    CNOT,
    SQRT_SWAP,
    SWAP,
    GateReport,
    gate_report,
)
from .linalg import kron, phase_distance
from .model import (
    ExchangeParams,
    FieldSpec,
    build_hamiltonian,
    build_isotropic,
    build_zeeman,
    compensating_fields,
)

__version__ = "0.1.0"

__all__ = [
    "ExchangeParams",
    "FieldSpec",
    "build_hamiltonian",
    "build_isotropic",
    "build_zeeman",
    "compensating_fields",
    "RotationPlan",
    "rotation_matrix",
    "rotation_plan",
    "assemble",
    "eigenstates",
    "verify_isotropization",
    "SWAP",
    "SQRT_SWAP",
    "CNOT",
    "GateReport",
    "gate_report",
    "SweepTable",
    "gate_error_sweep",
    "thermal_state",
    "concurrence",
    "kron",
    "phase_distance",
    "__version__",
]
