"""Two exchange-coupled spin qubits with an anisotropic interaction term.

The package models the coupled-spin Hamiltonian, builds the pair of local
qubit rotations that carry it to the isotropic Heisenberg form, synthesizes
exchange-based gates in that rotated frame, and quantifies how miscalibration
of the anisotropy parameters degrades those gates.
"""

from .analysis import (
    SweepConfig,
    SweepResult,
    SweepRow,
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
    cnot,
    corrected_swap,
    phase_shifted_swap,
    sqrt_swap,
)
from .linalg import expm_unitary, fidelity, herm_eig, kron, phase_distance, require_unitary
from .model import (
    ExchangeParams,
    FieldSpec,
    build_hamiltonian,
    build_isotropic,
    build_zeeman,
    compensating_fields,
    spin_operators,
)

__version__ = "0.1.0"

__all__ = [
    "ExchangeParams",
    "FieldSpec",
    "spin_operators",
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
    "corrected_swap",
    "sqrt_swap",
    "cnot",
    "phase_shifted_swap",
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "fidelity",
    "gate_error_sweep",
    "thermal_state",
    "concurrence",
    "kron",
    "herm_eig",
    "expm_unitary",
    "phase_distance",
    "require_unitary",
    "__version__",
]
