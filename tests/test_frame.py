import math

import numpy as np
import pytest

from spinframe.frame import (
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    RotationPlan,
    assemble,
    eigenstates,
    rotation_matrix,
    rotation_plan,
    ry,
    rz,
    verify_fields,
    verify_isotropization,
)
from spinframe.model import ExchangeParams, build_hamiltonian

TAN_OMEGAS = [1e-4, 5e-3, 0.1, 0.5]
THETAS = [0.0, math.pi / 6, 5 * math.pi / 6, 3 * math.pi / 2]


def grid():
    for ratio in TAN_OMEGAS:
        yield ExchangeParams(1.0, "z", ratio)
        for theta in THETAS:
            yield ExchangeParams(1.0, "xy", ratio, theta=theta)


@pytest.mark.parametrize("p", list(grid()), ids=str)
def test_rotation_matrix_unitary(p):
    t = rotation_matrix(p)
    np.testing.assert_allclose(t.conj().T @ t, np.eye(4), atol=1e-14)


def test_rotation_matrix_z_closed_form():
    p = ExchangeParams(1.0, "z", 0.3)
    w = p.omega
    expected = np.diag([1.0, np.exp(-0.5j * w), np.exp(0.5j * w), 1.0])
    np.testing.assert_allclose(rotation_matrix(p), expected, atol=1e-15)


@pytest.mark.parametrize("p", list(grid()), ids=str)
def test_isotropization_on_grid(p):
    assert verify_isotropization(p) < 1e-12


def test_isotropization_both_orientations_at_reference_point():
    assert verify_isotropization(ExchangeParams(1.0, "z", 5e-3)) < 1e-12
    assert (
        verify_isotropization(ExchangeParams(1.0, "xy", 5e-3, theta=5 * math.pi / 6))
        < 1e-12
    )


def test_plan_angles_xy():
    p = ExchangeParams(1.0, "xy", 0.1, theta=0.4)
    w = p.omega
    plan = rotation_plan(p)
    np.testing.assert_allclose(plan.qubit1, (-3 * math.pi / 4, w / 2, 0.4 + math.pi / 2), atol=1e-15)
    np.testing.assert_allclose(plan.qubit2, (math.pi / 4, w / 2, 0.4 - math.pi / 2), atol=1e-15)


def test_plan_angles_z():
    p = ExchangeParams(1.0, "z", 0.1)
    w = p.omega
    plan = rotation_plan(p)
    np.testing.assert_allclose(plan.qubit1, (-w / 2, 0.0, 0.0), atol=1e-15)
    np.testing.assert_allclose(plan.qubit2, (w / 2, 0.0, 0.0), atol=1e-15)


def test_plan_wraps_onto_4pi_circle():
    plan = RotationPlan(qubit1=(5 * math.pi, 0.0, 0.0), qubit2=(0.0, 0.0, -5 * math.pi))
    assert plan.qubit1[0] == pytest.approx(math.pi, abs=1e-12)
    assert plan.qubit2[2] == pytest.approx(-math.pi, abs=1e-12)


def test_plan_rejects_non_finite_angles():
    with pytest.raises(ValueError):
        RotationPlan(qubit1=(math.inf, 0.0, 0.0), qubit2=(0.0, 0.0, 0.0))


@pytest.mark.parametrize("p", list(grid()), ids=str)
def test_assemble_reproduces_closed_form_exactly(p):
    """Entrywise, not just up to a global phase."""
    diff = np.abs(assemble(rotation_plan(p)) - rotation_matrix(p)).max()
    assert diff < 1e-12


@pytest.mark.parametrize("tan_omega", TAN_OMEGAS)
def test_z_plan_assembles_to_the_rotation_bit_for_bit(tan_omega):
    """Along z both sides multiply the same Rz factors, so decompose's distance is
    that of T to itself: the rounding floor of T's unitarity."""
    p = ExchangeParams(1.0, "z", tan_omega)
    assert np.array_equal(assemble(rotation_plan(p)), rotation_matrix(p))


def test_assemble_full_turn_is_minus_identity():
    # spin-half hallmark: a 2 pi z rotation on one qubit flips the sign
    plan = RotationPlan(qubit1=(2 * math.pi, 0.0, 0.0), qubit2=(0.0, 0.0, 0.0))
    np.testing.assert_allclose(assemble(plan), -np.eye(4), atol=1e-14)


def test_rz_ry_conventions():
    np.testing.assert_allclose(
        rz(0.7), np.diag([np.exp(0.35j), np.exp(-0.35j)]), atol=1e-15
    )
    c, s = math.cos(0.35), math.sin(0.35)
    np.testing.assert_allclose(ry(0.7), [[c, s], [-s, c]], atol=1e-15)


@pytest.mark.parametrize("p", list(grid()), ids=str)
def test_eigenstates_diagonalize_hamiltonian(p):
    h = build_hamiltonian(p)
    states = eigenstates(p)
    energies = [0.25, 0.25, 0.25, -0.75]
    for v, e in zip(states, energies):
        assert np.abs(h @ v - e * v).max() < 1e-12


@pytest.mark.parametrize("p", list(grid()), ids=str)
def test_eigenstates_orthonormal(p):
    m = np.column_stack(eigenstates(p))
    np.testing.assert_allclose(m.conj().T @ m, np.eye(4), atol=1e-12)


BELL_ORDER = {
    "xy": (PSI_PLUS, PHI_MINUS, PHI_PLUS, PSI_MINUS),
    "z": (PHI_MINUS, PHI_PLUS, PSI_PLUS, PSI_MINUS),
}


@pytest.mark.parametrize("p", list(grid()), ids=str)
def test_rotation_maps_eigenstates_onto_bell_basis(p):
    t = rotation_matrix(p)
    for v, bell in zip(eigenstates(p), BELL_ORDER[p.orientation]):
        assert abs(np.vdot(bell, t @ v)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", list(grid()), ids=str)
def test_verify_fields_residual(p):
    for B in (0.1, 1.0, -2.5):
        assert verify_fields(p, B) < 1e-12
