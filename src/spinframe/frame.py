"""Local rotations that carry the anisotropic exchange onto the isotropic one.

For either axis orientation a product of single-qubit rotations T = U(-omega)
(x) U(omega) gives T H T^dag = J S1.S2: the qubits rotate symmetrically, by one
closed form at opposite angles (the counter-rotation gauge).  This module holds
that form, the per-qubit ZYZ factorizations of T, and the model eigenvectors
that T maps onto the Bell basis.

Rotation convention: R^z(a) = exp(+i a S^z), R^y(g) = exp(+i g S^y) with
S = sigma/2, so all angles live on a 4 pi circle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import kron
from .model import (
    S1,
    S2,
    ExchangeParams,
    build_hamiltonian,
    build_isotropic,
    build_zeeman,
    compensating_fields,
)

__all__ = [
    "RotationPlan",
    "rotation_matrix",
    "rotation_plan",
    "assemble",
    "eigenstates",
    "verify_isotropization",
    "verify_fields",
    "rz",
    "ry",
    "PSI_PLUS",
    "PSI_MINUS",
    "PHI_PLUS",
    "PHI_MINUS",
]

_SQRT2 = math.sqrt(2.0)
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / _SQRT2
PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / _SQRT2
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / _SQRT2
PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / _SQRT2


def rz(angle: float) -> np.ndarray:
    """Single-qubit z rotation exp(+i angle sigma_z / 2)."""
    return np.array(
        [[np.exp(0.5j * angle), 0.0], [0.0, np.exp(-0.5j * angle)]], dtype=complex
    )


def ry(angle: float) -> np.ndarray:
    """Single-qubit y rotation exp(+i angle sigma_y / 2)."""
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, s], [-s, c]], dtype=complex)


def _wrap(angle: float) -> float:
    """Wrap onto (-2 pi, 2 pi]; a 4 pi shift leaves the rotation unchanged."""
    r = math.remainder(angle, 4 * math.pi)
    if r <= -2 * math.pi:
        r += 4 * math.pi
    return r


@dataclass(frozen=True)
class RotationPlan:
    """Per-qubit ZYZ angles (alpha, gamma, beta).

    assemble(plan) = (Rz(alpha1) Ry(gamma1) Rz(beta1)) (x) (Rz(alpha2) Ry(gamma2)
    Rz(beta2)).  Angles are stored wrapped into (-2 pi, 2 pi].
    """

    qubit1: tuple[float, float, float]
    qubit2: tuple[float, float, float]

    def __post_init__(self) -> None:
        for name, angles in (("qubit1", self.qubit1), ("qubit2", self.qubit2)):
            angles = tuple(float(a) for a in angles)
            if len(angles) != 3 or not all(math.isfinite(a) for a in angles):
                raise ValueError(f"{name} needs three finite angles")
            object.__setattr__(self, name, tuple(_wrap(a) for a in angles))


def _local_rotation(p: ExchangeParams, omega: float) -> np.ndarray:
    """Qubit 2's factor of T at anisotropy angle omega; qubit 1's is the same at -omega.

    Axis z: Rz(omega/2).  Axis xy: the ZYZ product Rz(pi/4) Ry(omega/2) Rz(theta - pi/2)
    in closed form.  Qubit 1's product Rz(-3 pi/4) Ry(omega/2) Rz(theta + pi/2) equals
    it at -omega, since Rz(+-pi) = +-i sigma_z and sigma_z Ry(g) sigma_z = Ry(-g).
    """
    if p.orientation == "z":
        return rz(omega / 2)
    th = p.reduced_theta
    c, s = math.cos(omega / 4), math.sin(omega / 4)
    x, y = cmath.exp(0.5j * (th - math.pi / 4)), cmath.exp(0.5j * (3 * math.pi / 4 - th))
    return np.array([[c * x, s * y], [-s * y.conjugate(), c * x.conjugate()]])


def rotation_matrix(p: ExchangeParams) -> np.ndarray:
    """The isotropizing rotation T = U(-omega) (x) U(omega) in the {00,01,10,11} basis,
    U being _local_rotation: the two qubits rotate symmetrically."""
    return kron(_local_rotation(p, -p.omega), _local_rotation(p, p.omega))


def rotation_plan(p: ExchangeParams) -> RotationPlan:
    """ZYZ factorization of rotation_matrix(p), entry by entry, not merely up to phase.
    Qubit 1's triple is not _local_rotation's at -omega, so assemble checks T."""
    w = p.omega
    if p.orientation == "z":
        return RotationPlan(qubit1=(-w / 2, 0.0, 0.0), qubit2=(w / 2, 0.0, 0.0))
    th = p.reduced_theta
    return RotationPlan(
        qubit1=(-3 * math.pi / 4, w / 2, th + math.pi / 2),
        qubit2=(math.pi / 4, w / 2, th - math.pi / 2),
    )


def assemble(plan: RotationPlan) -> np.ndarray:
    u1, u2 = (rz(a) @ ry(g) @ rz(b) for a, g, b in (plan.qubit1, plan.qubit2))
    return kron(u1, u2)


def eigenstates(p: ExchangeParams) -> tuple[np.ndarray, ...]:
    """The four eigenvectors (phi1, phi2, phi3, phi4) in closed form.

    phi1..phi3 belong to the J/4 eigenvalue, phi4 to -3J/4.  T maps them
    one-to-one onto Bell states: (psi+, phi-, phi+, psi-) for orientation xy
    and (phi-, phi+, psi+, psi-) for orientation z.
    """
    w = p.omega
    if p.orientation == "z":
        t = math.tan(w / 2)
        norm = 1.0 / math.sqrt(1.0 + t * t)
        return (
            PHI_MINUS.copy(),
            PHI_PLUS.copy(),
            norm * (PSI_PLUS + 1j * t * PSI_MINUS),
            norm * (PSI_MINUS + 1j * t * PSI_PLUS),
        )
    c, s = math.cos(w / 2), math.sin(w / 2)
    st, ct = math.sin(p.reduced_theta), math.cos(p.reduced_theta)
    phi2 = ((st + ct * c) * PHI_MINUS + 1j * (ct - st * c) * PHI_PLUS - 1j * s * PSI_MINUS) / _SQRT2
    phi3 = ((ct + st * c) * PHI_PLUS - 1j * (st - ct * c) * PHI_MINUS + s * PSI_MINUS) / _SQRT2
    phi4 = -1j * ct * s * PHI_MINUS - st * s * PHI_PLUS + c * PSI_MINUS
    return (PSI_PLUS.copy(), phi2, phi3, phi4)


def verify_isotropization(p: ExchangeParams) -> float:
    """Largest entry of |T H T^dag - J S1.S2|, in units of J."""
    t = rotation_matrix(p)
    h = build_hamiltonian(p)
    return float(np.abs(t @ h @ t.conj().T - build_isotropic(p.J)).max()) / p.J


def verify_fields(p: ExchangeParams, B: float) -> float:
    """Largest entry of |T (B1.S1 + B2.S2) T^dag - B (S1z + S2z)|, over max(1, |B|).

    B1, B2 are the compensating fields of magnitude B from
    compensating_fields(p, B).  Relative for |B| > 1, so a rounding-level
    residual stays at the rounding floor however large B is.
    """
    t = rotation_matrix(p)
    zeeman = build_zeeman(compensating_fields(p, B))
    residual = float(np.abs(t @ zeeman @ t.conj().T - B * (S1[2] + S2[2])).max())
    return residual / max(1.0, abs(B))
