"""The package namespace and its read-only constants."""

import numpy as np
import pytest

import spinframe as sf
from spinframe import frame, gates, linalg, model

PUBLIC = [
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


def test_package_exports_exactly_its_24_names():
    assert sf.__all__ == PUBLIC
    assert all(hasattr(sf, name) for name in PUBLIC)
    assert sf.kron is linalg.kron


def test_linalg_helpers_live_in_their_modules_only():
    from spinframe.linalg import expm_unitary, herm_eig, require_unitary
    from spinframe.model import spin_operators

    for name, fn in (("herm_eig", herm_eig), ("expm_unitary", expm_unitary),
                     ("require_unitary", require_unitary), ("spin_operators", spin_operators)):
        assert callable(fn) and not hasattr(sf, name)
    assert not hasattr(gates, "pulse") and not hasattr(linalg, "fidelity")


@pytest.mark.parametrize("name", [
    "sf.SWAP", "gates.SQRT_SWAP", "gates.CNOT", "gates._HADAMARD", "model.SIGMA_Z",
    "gates._CNOT_LEFT", "gates._CNOT_MIDDLE", "gates._CNOT_RIGHT",
    "frame.PSI_PLUS", "frame.PSI_MINUS", "frame.PHI_PLUS", "frame.PHI_MINUS",
])
def test_module_constants_refuse_an_in_place_write(name):
    module, attr = name.split(".")
    constant = getattr({"sf": sf, "gates": gates, "frame": frame, "model": model}[module], attr)
    before = constant.copy()
    with pytest.raises(ValueError, match="read-only"):
        constant[(0,) * constant.ndim] = 0
    assert np.array_equal(constant, before)
