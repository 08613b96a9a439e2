"""Dense complex linear algebra for two-qubit (4x4) operators."""

from __future__ import annotations

import numpy as np

__all__ = ["kron", "herm_eig", "expm_unitary", "fidelity", "phase_distance", "require_unitary"]

_IDENTITY_4 = np.eye(4)
_IDENTITY_4.flags.writeable = False


def _as_matrix(a, shape: tuple[int, int], name: str) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {m.shape}")
    return m


def kron(a, b) -> np.ndarray:
    """Tensor product of two single-qubit operators, qubit 1 leftmost: np.kron's
    bits, from one broadcast product instead of np.kron's general-rank set-up."""
    a = _as_matrix(a, (2, 2), "a")
    b = _as_matrix(b, (2, 2), "b")
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def herm_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian 4x4 matrix.

    Returns (w, v): eigenvalues w ascending, orthonormal eigenvectors in the
    columns of v, so that h = v @ diag(w) @ v^dag.
    """
    h = _as_matrix(h, (4, 4), "h")
    if np.abs(h - h.conj().T).max() > 1e-12:
        raise ValueError("matrix is not Hermitian")
    return np.linalg.eigh(h)


def expm_unitary(h, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h, computed through the eigendecomposition."""
    w, v = herm_eig(h)
    return (v * np.exp(-1j * w * float(t))) @ v.conj().T


def require_unitary(u, name: str = "matrix", atol: float = 1e-10) -> np.ndarray:
    u = _as_matrix(u, (4, 4), name)
    if np.abs(u.conj().T @ u - _IDENTITY_4).max() > atol:
        raise ValueError(f"{name} is not unitary")
    return u


def fidelity(u, u0) -> float:
    """Phase-insensitive gate fidelity |tr(u^dag u0)| / 4."""
    u = require_unitary(u, "u")
    u0 = require_unitary(u0, "u0")
    return float(abs(np.trace(u.conj().T @ u0))) / 4.0


def phase_distance(u, v) -> float:
    """1 - fidelity(u, v), zero iff the unitaries agree up to a global phase.

    With A = u^dag v and m = tr A / 4, |A - m I|_F^2 / 4 = 1 - |m|^2 for unitary
    A, so the distance is that sum of squares over 1 + |m|: never negative, and
    free of the cancellation in 1 - |m| near zero.
    """
    a = require_unitary(u, "u").conj().T @ require_unitary(v, "v")
    m = a.trace() / 4.0
    a.flat[::5] -= m  # the diagonal
    return float(np.vdot(a, a).real) / 4.0 / (1.0 + abs(m))
