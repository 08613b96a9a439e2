"""Dense complex linear algebra for two-qubit (4x4) operators."""

from __future__ import annotations

import numpy as np

__all__ = ["kron", "herm_eig", "expm_unitary", "phase_distance", "require_unitary"]

# The largest entry of |u^dag u - I| that require_unitary accepts.
UNITARY_TOL = 1e-10

# Complex, so that u^dag u - I runs without a float-to-complex cast (same bits).
_IDENTITY_4 = np.eye(4, dtype=complex)
_IDENTITY_4.flags.writeable = False


def _as_matrix(a, shape: tuple[int, int], name: str, stack: bool = False) -> np.ndarray:
    """a as a complex array of the given shape; with stack, of shape (..., *shape)."""
    m = np.asarray(a, dtype=complex)
    if (m.shape[-2:] if stack else m.shape) != shape:
        want = "(..., %d, %d)" % shape if stack else shape
        raise ValueError(f"{name} must have shape {want}, got {m.shape}")
    return m


def kron(a, b) -> np.ndarray:
    """Tensor product of two single-qubit operators, qubit 1 leftmost: np.kron's
    bits, from one broadcast product instead of np.kron's general-rank set-up."""
    a = _as_matrix(a, (2, 2), "a")
    b = _as_matrix(b, (2, 2), "b")
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def herm_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian 4x4 matrix, or of each matrix in a stack
    (..., 4, 4), with the bits of one call per matrix.

    Returns (w, v): eigenvalues w ascending, orthonormal eigenvectors in the
    columns of v, so that h = v @ diag(w) @ v^dag.  Every matrix of the stack
    must be Hermitian to 1e-12; a NaN entry fails.
    """
    h = _as_matrix(h, (4, 4), "h", stack=True)
    if not np.abs(h - h.conj().swapaxes(-1, -2)).max(initial=0.0) <= 1e-12:
        raise ValueError("matrix is not Hermitian")
    return np.linalg.eigh(h)


def expm_unitary(h, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h, or for each matrix in a stack (..., 4, 4),
    computed through the eigendecomposition."""
    w, v = herm_eig(h)
    return (v * np.exp(-1j * w * float(t))[..., None, :]) @ v.conj().swapaxes(-1, -2)


def require_unitary(u, name: str = "matrix") -> np.ndarray:
    """u, if it is a 4x4 matrix, or a stack (..., 4, 4) of them, whose every member
    is within UNITARY_TOL of unitary: one check over the whole stack, which a NaN
    entry in any member fails, and which an empty stack passes."""
    u = _as_matrix(u, (4, 4), name, stack=True)
    if not np.abs(u.conj().swapaxes(-1, -2) @ u - _IDENTITY_4).max(initial=0.0) <= UNITARY_TOL:
        raise ValueError(f"{name} is not unitary")
    return u


def phase_distance(u, v) -> float:
    """1 - |tr(u^dag v)| / 4, zero iff the unitaries agree up to a global phase.

    With A = u^dag v and m = tr A / 4, |A - m I|_F^2 / 4 = 1 - |m|^2 for unitary
    A, so the distance is that sum of squares over 1 + |m|: never negative, and
    free of the cancellation in 1 - |m| near zero.  u and v are single 4x4
    matrices, not stacks.
    """
    u = require_unitary(_as_matrix(u, (4, 4), "u"), "u")
    v = require_unitary(_as_matrix(v, (4, 4), "v"), "v")
    a = u.conj().T @ v
    m = a.trace() / 4.0
    a.flat[::5] -= m  # the diagonal
    return float(np.vdot(a, a).real) / 4.0 / (1.0 + abs(m))
