import re

import numpy as np
import pytest

from spinframe.linalg import (
    expm_unitary,
    herm_eig,
    kron,
    phase_distance,
    require_unitary,
)

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def heisenberg():
    sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex) / 2
    sz = np.diag([1.0, -1.0]).astype(complex) / 2
    eye = np.eye(2, dtype=complex)
    return sum(np.kron(s, eye) @ np.kron(eye, s) for s in (sx, sy, sz))


def random_hermitian(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return a + a.conj().T


def test_kron_frozen_example():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1], [1, 0]], dtype=complex)
    expected = np.array(
        [[0, 1, 0, 2], [1, 0, 2, 0], [0, 3, 0, 4], [3, 0, 4, 0]], dtype=complex
    )
    np.testing.assert_array_equal(kron(a, b), expected)


def test_kron_mixed_product():
    """(A x B)(C x D) = AC x BD."""
    rng = np.random.default_rng(10)
    for _ in range(5):
        a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
        np.testing.assert_allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12)


def test_kron_is_np_kron_bit_for_bit():
    """Signed zeros, subnormals and magnitudes near the float range included."""
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, -1e300, 1e300, 0.5, -3.0])
    rng = np.random.default_rng(12)
    for _ in range(300):
        a, b = (rng.choice(values, size=(2, 2)) + 1j * rng.choice(values, size=(2, 2))
                for _ in range(2))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got, want = kron(a, b).view(float), np.kron(a, b).view(float)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_kron_rejects_wrong_shape():
    with pytest.raises(ValueError):
        kron(np.eye(3), np.eye(2))


def test_herm_eig_heisenberg_spectrum():
    w, v = herm_eig(heisenberg())
    np.testing.assert_allclose(w, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)
    np.testing.assert_allclose((v * w) @ v.conj().T, heisenberg(), atol=1e-12)


def test_herm_eig_matches_characteristic_polynomial():
    """Every reported eigenvalue is a root of det(h - x I)."""
    rng = np.random.default_rng(11)
    h = random_hermitian(rng)
    w, _ = herm_eig(h)
    scale = np.abs(h).max() ** 4
    for x in w:
        assert abs(np.linalg.det(h - x * np.eye(4))) < 1e-10 * max(scale, 1.0)
    assert list(w) == sorted(w)


def test_herm_eig_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        herm_eig(m)


def test_herm_eig_refuses_a_stack_with_one_non_hermitian_member():
    rng = np.random.default_rng(14)
    stack = np.stack([random_hermitian(rng) for _ in range(20)])
    stack[13, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="matrix is not Hermitian"):
        herm_eig(stack)
    with pytest.raises(ValueError, match="matrix is not Hermitian"):
        expm_unitary(stack, 1.0)


@pytest.mark.parametrize("shape", [(), (4,), (3, 3), (4, 3), (2, 4, 3), (5, 3, 4)])
def test_herm_eig_refuses_a_shape_other_than_a_stack_of_4x4(shape):
    with pytest.raises(ValueError, match=r"h must have shape \(\.\.\., 4, 4\)"):
        herm_eig(np.zeros(shape))


@pytest.mark.parametrize("where", [(0, 0), (1, 2)])
def test_a_nan_entry_fails_the_hermitian_check(where):
    h = heisenberg()
    h[where] = np.nan
    with pytest.raises(ValueError, match="matrix is not Hermitian"):
        herm_eig(h)
    stack = np.stack([heisenberg()] * 3)
    stack[(1, *where)] = np.nan
    with pytest.raises(ValueError, match="matrix is not Hermitian"):
        herm_eig(stack)


def test_a_nan_matrix_is_not_unitary():
    with pytest.raises(ValueError, match="matrix is not unitary"):
        require_unitary(np.full((4, 4), np.nan))
    u = SWAP.copy()
    u[3, 3] = np.nan
    with pytest.raises(ValueError, match="u is not unitary"):
        require_unitary(u, "u")


def test_expm_unitary_zero_time():
    np.testing.assert_allclose(expm_unitary(heisenberg(), 0.0), np.eye(4), atol=1e-15)


def test_expm_unitary_heisenberg_full_pulse():
    """exp(-i S1.S2 pi) is SWAP up to the phase e^{-i pi/4}."""
    u = expm_unitary(heisenberg(), np.pi)
    np.testing.assert_allclose(u, np.exp(-0.25j * np.pi) * SWAP, atol=1e-12)


def test_expm_unitary_group_property():
    rng = np.random.default_rng(12)
    h = random_hermitian(rng)
    u = expm_unitary(h, 0.7) @ expm_unitary(h, 0.5)
    np.testing.assert_allclose(u, expm_unitary(h, 1.2), atol=1e-12)


def test_expm_unitary_is_unitary():
    rng = np.random.default_rng(13)
    for _ in range(5):
        u = expm_unitary(random_hermitian(rng), rng.uniform(0, 10))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


def test_phase_distance_identity_vs_swap():
    # tr(SWAP) = 2, so the distance is exactly 1 - 2/4
    assert phase_distance(np.eye(4), SWAP) == pytest.approx(0.5, abs=1e-15)


def test_phase_distance_ignores_global_phase():
    u = expm_unitary(heisenberg(), 1.3)
    assert phase_distance(u, np.exp(0.42j) * u) == pytest.approx(0.0, abs=1e-12)


def test_phase_distance_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        phase_distance(np.eye(4), 2 * np.eye(4))


@pytest.mark.parametrize("name", ["u", "v"])
def test_phase_distance_refuses_a_stack(name):
    """A stack of unitaries passes require_unitary, but u^dag v of stacks is not a
    distance, so each argument must be one 4x4 matrix."""
    args = {"u": SWAP, "v": SWAP, name: np.stack([SWAP, SWAP])}
    message = f"{name} must have shape (4, 4), got (2, 4, 4)"
    with pytest.raises(ValueError, match=re.escape(message)):
        phase_distance(**args)


def test_require_unitary_passes_through():
    u = require_unitary(SWAP)
    np.testing.assert_array_equal(u, SWAP)
