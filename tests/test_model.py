import math
import sys

import numpy as np
import pytest

from spinframe.frame import rotation_matrix
from spinframe.model import (
    ExchangeParams,
    FieldSpec,
    build_hamiltonian,
    build_isotropic,
    build_zeeman,
    compensating_fields,
    spin_operators,
)

GRID = [
    ExchangeParams(1.0, "z", 0.0),
    ExchangeParams(1.0, "z", 5e-3),
    ExchangeParams(2.5, "z", 0.5),
    ExchangeParams(1.0, "xy", 5e-3, theta=5 * math.pi / 6),
    ExchangeParams(1.0, "xy", 0.1, theta=0.0),
    ExchangeParams(0.7, "xy", 0.5, theta=3 * math.pi / 2),
]


def test_spin_operator_diagonals():
    s1x, s1y, s1z, s2x, s2y, s2z = spin_operators()
    np.testing.assert_array_equal(np.diag(s1z).real, [0.5, 0.5, -0.5, -0.5])
    np.testing.assert_array_equal(np.diag(s2z).real, [0.5, -0.5, 0.5, -0.5])
    assert np.abs(np.diag(s1x)).max() == 0


def test_spin_operator_commutators():
    """Same-site su(2), different sites commute."""
    s1x, s1y, s1z, s2x, s2y, s2z = spin_operators()
    np.testing.assert_allclose(s1x @ s1y - s1y @ s1x, 1j * s1z, atol=1e-15)
    np.testing.assert_allclose(s2x @ s2y - s2y @ s2x, 1j * s2z, atol=1e-15)
    np.testing.assert_allclose(s1x @ s2y, s2y @ s1x, atol=1e-15)


@pytest.mark.parametrize("p", GRID, ids=str)
def test_hamiltonian_hermitian_traceless(p):
    h = build_hamiltonian(p)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-14)
    assert abs(np.trace(h)) < 1e-14


@pytest.mark.parametrize("p", GRID, ids=str)
def test_spectrum_is_heisenberg_spectrum(p):
    """The anisotropy rotates the eigenbasis but never the spectrum."""
    w = np.linalg.eigvalsh(build_hamiltonian(p))
    np.testing.assert_allclose(w, [-0.75 * p.J, 0.25 * p.J, 0.25 * p.J, 0.25 * p.J], atol=1e-12)


@pytest.mark.parametrize("orientation,theta", [("z", None), ("xy", 1.2)])
def test_zero_anisotropy_is_isotropic(orientation, theta):
    p = ExchangeParams(1.3, orientation, 0.0, theta=theta)
    np.testing.assert_allclose(build_hamiltonian(p), build_isotropic(1.3), atol=1e-15)


def test_z_orientation_golden_matrix():
    """Closed form: diag (J/4, -J/4, -J/4, J/4), <01|H|10> = (J/2) e^{i w}."""
    J, ratio = 2.0, 0.3
    p = ExchangeParams(J, "z", ratio)
    w = math.atan(ratio)
    golden = np.diag([J / 4, -J / 4, -J / 4, J / 4]).astype(complex)
    golden[1, 2] = 0.5 * J * np.exp(1j * w)
    golden[2, 1] = 0.5 * J * np.exp(-1j * w)
    np.testing.assert_allclose(build_hamiltonian(p), golden, atol=1e-15)


def test_hamiltonian_scales_linearly_in_J():
    a = build_hamiltonian(ExchangeParams(1.0, "xy", 0.2, theta=0.9))
    b = build_hamiltonian(ExchangeParams(3.0, "xy", 0.2, theta=0.9))
    np.testing.assert_allclose(b, 3.0 * a, atol=1e-14)


def test_hamiltonian_continuous_at_zero_coupling():
    base = build_hamiltonian(ExchangeParams(1.0, "xy", 0.0, theta=0.4))
    near = build_hamiltonian(ExchangeParams(1.0, "xy", 1e-9, theta=0.4))
    assert np.abs(near - base).max() < 1e-8


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(J=0.0, orientation="z", b_over_J=0.1),
        dict(J=-1.0, orientation="z", b_over_J=0.1),
        dict(J=math.inf, orientation="z", b_over_J=0.1),
        dict(J=1.0, orientation="diag", b_over_J=0.1),
        dict(J=1.0, orientation="z", b_over_J=-0.1),
        dict(J=1.0, orientation="z", b_over_J=math.nan),
        dict(J=1.0, orientation="xy", b_over_J=0.1),
        dict(J=1.0, orientation="xy", b_over_J=0.1, theta=math.inf),
        dict(J=1.0, orientation="z", b_over_J=0.1, theta=0.0),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        ExchangeParams(**kwargs)


def test_J_must_be_a_normal_float():
    """The smallest normal J is accepted; a subnormal one has lost digits and is not."""
    ExchangeParams(sys.float_info.min, "z", 0.1)
    build_isotropic(sys.float_info.min)
    for J in (1e-308, 1e-320):
        with pytest.raises(ValueError, match="J must be"):
            ExchangeParams(J, "z", 0.1)
        with pytest.raises(ValueError, match="J must be"):
            build_isotropic(J)


def test_axis_is_unit_vector():
    for p in GRID:
        assert np.linalg.norm(p.axis()) == pytest.approx(1.0, abs=1e-15)


def test_zeeman_uniform_z_field():
    f = FieldSpec(b1=(0.0, 0.0, 2.0), b2=(0.0, 0.0, 2.0))
    np.testing.assert_allclose(
        build_zeeman(f), np.diag([2.0, 0.0, 0.0, -2.0]), atol=1e-15
    )


def test_fieldspec_validation():
    with pytest.raises(ValueError):
        FieldSpec(b1=(0.0, 0.0), b2=(0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        FieldSpec(b1=(0.0, 0.0, math.nan), b2=(0.0, 0.0, 1.0))


def test_compensating_fields_z_orientation():
    f = compensating_fields(ExchangeParams(1.0, "z", 0.3), 0.8)
    assert f.b1 == (0.0, 0.0, 0.8)
    assert f.b2 == (0.0, 0.0, 0.8)


def test_compensating_fields_regular_at_zero_coupling():
    f = compensating_fields(ExchangeParams(1.0, "xy", 0.0, theta=1.1), 0.8)
    np.testing.assert_allclose(f.b1, (0.0, 0.0, 0.8), atol=1e-15)
    np.testing.assert_allclose(f.b2, (0.0, 0.0, 0.8), atol=1e-15)


@pytest.mark.parametrize("p", GRID, ids=str)
@pytest.mark.parametrize("B", [0.1, 1.0])
def test_compensating_fields_magnitude_and_transform(p, B):
    """|B1| = |B2| = B and T maps the pair onto a uniform z field."""
    f = compensating_fields(p, B)
    assert np.linalg.norm(f.b1) == pytest.approx(B, abs=1e-13)
    assert np.linalg.norm(f.b2) == pytest.approx(B, abs=1e-13)
    t = rotation_matrix(p)
    s1z, s2z = spin_operators()[2], spin_operators()[5]
    residual = t @ build_zeeman(f) @ t.conj().T - B * (s1z + s2z)
    assert np.abs(residual).max() < 1e-12


def test_compensating_fields_rejects_non_finite_B():
    with pytest.raises(ValueError):
        compensating_fields(ExchangeParams(1.0, "z", 0.1), math.inf)


def test_shared_operator_constants_are_read_only():
    """No caller can change the operator basis that every later call reads."""
    from spinframe import model

    for constant in (*spin_operators(), model.S1, model.S2, model.PAIR, model.SIGMA_Y):
        with pytest.raises(ValueError):
            constant[0, 0] = 1.0
    with pytest.raises(ValueError):
        spin_operators()[2] += 1.0
