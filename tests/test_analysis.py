import math

import numpy as np
import pytest

from spinframe.analysis import (
    SweepConfig,
    concurrence,
    fidelity,
    gate_error_sweep,
    thermal_state,
)
from spinframe.frame import PSI_MINUS
from spinframe.gates import SWAP
from spinframe.linalg import kron
from spinframe.model import ExchangeParams, build_hamiltonian, build_isotropic

THETA0 = 5 * math.pi / 6


def haar_qubit(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def werner(p):
    return p * np.outer(PSI_MINUS, PSI_MINUS.conj()) + (1 - p) * np.eye(4) / 4


def test_fidelity_identity_vs_swap():
    assert fidelity(np.eye(4), SWAP) == pytest.approx(0.5, abs=1e-15)


def test_fidelity_phase_insensitive():
    u = SWAP * np.exp(0.3j)
    assert fidelity(u, SWAP) == pytest.approx(1.0, abs=1e-15)


def test_thermal_state_infinite_temperature():
    rho = thermal_state(build_isotropic(1.0), 0.0)
    np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-15)


def test_thermal_state_ground_projector_limit():
    """beta J >> 1 projects onto the singlet."""
    rho = thermal_state(build_isotropic(1.0), 200.0)
    np.testing.assert_allclose(
        rho, np.outer(PSI_MINUS, PSI_MINUS.conj()), atol=1e-12
    )


def test_thermal_state_properties():
    rho = thermal_state(build_hamiltonian(ExchangeParams(1.0, "z", 0.3)), 2.0)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
    assert np.linalg.eigvalsh(rho).min() > 0


def test_thermal_state_rejects_negative_beta():
    with pytest.raises(ValueError):
        thermal_state(build_isotropic(1.0), -1.0)


def test_concurrence_bell_state():
    rho = np.outer(PSI_MINUS, PSI_MINUS.conj())
    assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_maximally_mixed():
    assert concurrence(np.eye(4) / 4) == 0.0


def test_concurrence_product_state():
    v = np.kron([1.0, 0.0], [math.cos(0.3), math.sin(0.3)]).astype(complex)
    assert concurrence(np.outer(v, v.conj())) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.9, 1.0])
def test_concurrence_werner_closed_form(p):
    assert concurrence(werner(p)) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-12)


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(21)
    rho = werner(0.8)
    base = concurrence(rho)
    for _ in range(20):
        u = kron(haar_qubit(rng), haar_qubit(rng))
        assert concurrence(u @ rho @ u.conj().T) == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("beta", [0.0, 0.1, 1.0, 10.0, 50.0])
def test_concurrence_thermal_closed_form(beta):
    """Gibbs state of the exchange pair: C = max(0, (e^bJ - 3)/(e^bJ + 3))."""
    J = 1.0
    for h in (build_isotropic(J), build_hamiltonian(ExchangeParams(J, "z", 0.4))):
        c = concurrence(thermal_state(h, beta))
        x = math.exp(beta * J)
        assert c == pytest.approx(max(0.0, (x - 3) / (x + 3)), abs=1e-12)


def test_concurrence_validation():
    with pytest.raises(ValueError):
        concurrence(np.eye(2))
    with pytest.raises(ValueError):
        concurrence(np.eye(4))  # trace 4
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.1
    with pytest.raises(ValueError):
        concurrence(bad)
    negative = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
    with pytest.raises(ValueError):
        concurrence(negative)


def sweep(corrected, dths, dws=(0.0, 0.05, 0.1)):
    cfg = SweepConfig(
        tan_omega0=5e-3,
        theta0=THETA0,
        delta_omega_ratios=dws,
        delta_theta_ratios=dths,
        corrected=corrected,
    )
    return gate_error_sweep(cfg)


def test_sweep_exact_parameters_give_exact_gate():
    rows = sweep(True, (0.0,), (0.0,)).rows
    assert rows[0].error < 1e-12
    assert rows[0].fidelity == pytest.approx(1.0, abs=1e-12)


def test_sweep_frozen_endpoints():
    """Regression anchors for the error curves at the reference point."""
    got = {row.delta_omega_ratio: row.error for row in sweep(False, (0.1,)).rows}
    assert got[0.0] == pytest.approx(6.249882815057006e-06, rel=1e-6)
    assert got[0.1] == pytest.approx(7.562354898071888e-06, rel=1e-6)
    got = {row.delta_omega_ratio: row.error for row in sweep(True, (0.1,)).rows}
    assert got[0.0] == pytest.approx(4.2591914028999867e-07, rel=1e-6)
    assert got[0.1] == pytest.approx(5.310098897259863e-07, rel=1e-6)
    got = {row.delta_omega_ratio: row.error for row in sweep(True, (0.01,)).rows}
    assert got[0.0] == pytest.approx(4.283357557532952e-09, rel=1e-6)
    assert got[0.1] == pytest.approx(6.721064937931231e-08, rel=1e-6)


def test_sweep_correction_never_hurts():
    dws = tuple(float(x) for x in np.linspace(0.0, 0.1, 11))
    plain = sweep(False, (0.1, 0.01), dws).rows
    fixed = sweep(True, (0.1, 0.01), dws).rows
    for a, b in zip(fixed, plain):
        assert (a.delta_omega_ratio, a.delta_theta_ratio) == (
            b.delta_omega_ratio,
            b.delta_theta_ratio,
        )
        assert a.error <= b.error


def test_sweep_rows_sorted_by_theta_then_omega():
    rows = sweep(True, (0.1, 0.01), (0.1, 0.0)).rows
    keys = [(r.delta_theta_ratio, r.delta_omega_ratio) for r in rows]
    assert keys == sorted(keys)


def test_sweep_other_gates_run():
    for gate in ("sqrt_swap", "cnot"):
        cfg = SweepConfig(
            tan_omega0=5e-3,
            theta0=THETA0,
            delta_omega_ratios=(0.0,),
            delta_theta_ratios=(0.0,),
            corrected=True,
            gate=gate,
        )
        rows = gate_error_sweep(cfg).rows
        assert rows[0].error < 1e-9


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(
            tan_omega0=-0.1,
            theta0=0.0,
            delta_omega_ratios=(0.0,),
            delta_theta_ratios=(0.0,),
            corrected=True,
        )
    with pytest.raises(ValueError):
        SweepConfig(
            tan_omega0=0.1,
            theta0=0.0,
            delta_omega_ratios=(),
            delta_theta_ratios=(0.0,),
            corrected=True,
        )
    with pytest.raises(ValueError):
        SweepConfig(
            tan_omega0=0.1,
            theta0=0.0,
            delta_omega_ratios=(0.0,),
            delta_theta_ratios=(0.0,),
            corrected=True,
            gate="psw",
        )


def test_sweep_result_echoes_config():
    cfg = SweepConfig(
        tan_omega0=5e-3,
        theta0=THETA0,
        delta_omega_ratios=(0.0,),
        delta_theta_ratios=(0.1,),
        corrected=False,
    )
    result = gate_error_sweep(cfg)
    assert result.config is cfg
    assert len(result.rows) == 1


@pytest.mark.parametrize("tan0, ratio", [(5e-3, -2.0), (5e-3, -1.5), (1000.0, 0.1)])
def test_sweep_config_rejects_omega_outside_quarter_turn(tan0, ratio):
    with pytest.raises(ValueError, match="delta_omega_ratios"):
        SweepConfig(
            tan_omega0=tan0,
            theta0=THETA0,
            delta_omega_ratios=(0.0, ratio),
            delta_theta_ratios=(0.0,),
            corrected=True,
        )


def test_sweep_config_accepts_omega_zero():
    cfg = SweepConfig(
        tan_omega0=5e-3,
        theta0=THETA0,
        delta_omega_ratios=(-1.0,),
        delta_theta_ratios=(0.0,),
        corrected=False,
    )
    (row,) = gate_error_sweep(cfg).rows
    assert row.error < 1e-12


_PUBLIC_GATES = {"swap": "corrected_swap", "sqrt_swap": "sqrt_swap", "cnot": "cnot"}


def test_every_table_gate_has_its_public_function():
    from spinframe import gates

    assert set(_PUBLIC_GATES) == set(gates.GATES)


@pytest.mark.parametrize("gate", sorted(_PUBLIC_GATES))
@pytest.mark.parametrize("t0", [0.0, 0.005, 0.37, 5.0])
def test_sweep_at_zero_misestimation_is_the_public_gate(gate, t0):
    from spinframe import gates

    # The point exactly as gate_error_sweep builds it.
    p = ExchangeParams(1.0, "xy", math.tan(math.atan(t0)), theta=THETA0)
    target = gates.GATES[gate].target
    rows = {}
    for corrected in (True, False):
        cfg = SweepConfig(t0, THETA0, (0.0,), (0.0,), corrected=corrected, gate=gate)
        (rows[corrected],) = gate_error_sweep(cfg).rows
    public = getattr(gates, _PUBLIC_GATES[gate])(p)
    assert rows[True].fidelity == fidelity(public.matrix, target)
    bare = gates.pulse(build_hamiltonian(p), gates.GATES[gate].area / p.J)
    if gate == "cnot":
        bare = gates._cnot_from_w(bare)
    assert rows[False].fidelity == fidelity(bare, target)
