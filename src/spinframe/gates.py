"""Two-qubit gates from exchange pulses inside the rotation sandwich.

T exp(-i H t) T^dag equals exp(-i J S1.S2 t) exactly when T is the
isotropizing rotation, so the swap family comes out at the isotropic pulse
areas: J t = pi for swap, pi/2 for its square root.  Global phases are
tracked nowhere; distances are phase insensitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import expm_unitary, kron, phase_distance
from .model import ExchangeParams, build_hamiltonian, build_zeeman, compensating_fields
from .frame import rotation_matrix, rz

__all__ = [
    "SWAP",
    "SQRT_SWAP",
    "CNOT",
    "GateReport",
    "corrected_swap",
    "sqrt_swap",
    "cnot",
    "phase_shifted_swap",
]

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
SQRT_SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
        [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

_IDENTITY_2 = np.eye(2, dtype=complex)
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_Z_FLIP = np.diag([1.0, -1.0]).astype(complex)


@dataclass(frozen=True)
class GateReport:
    matrix: np.ndarray
    label: str
    phase_distance_to_target: float
    target_label: str


def _sandwiched(p: ExchangeParams, t: float) -> np.ndarray:
    """T exp(-i H t) T^dag."""
    rot = rotation_matrix(p)
    return rot @ expm_unitary(build_hamiltonian(p), t) @ rot.conj().T


def corrected_swap(p: ExchangeParams) -> GateReport:
    """Swap gate from one exchange pulse of duration pi/J inside the sandwich."""
    u = _sandwiched(p, math.pi / p.J)
    return GateReport(u, "swap", phase_distance(u, SWAP), "SWAP")


def sqrt_swap(p: ExchangeParams) -> GateReport:
    """Square root of swap: half the pulse area of corrected_swap."""
    u = _sandwiched(p, math.pi / (2 * p.J))
    return GateReport(u, "sqrt_swap", phase_distance(u, SQRT_SWAP), "SQRT_SWAP")


def _z1(angle: float) -> np.ndarray:
    return kron(rz(angle), _IDENTITY_2)


def _z2(angle: float) -> np.ndarray:
    return kron(_IDENTITY_2, rz(angle))


def _cnot_from_w(w: np.ndarray) -> np.ndarray:
    raw = (
        _z1(math.pi / 2)
        @ _z2(-math.pi / 2)
        @ w
        @ _z1(math.pi)
        @ w
    )
    # raw alone is the conditional phase flip diag(-1,1,1,1) up to a global
    # phase; the fixed dressing below carries it to the canonical CNOT.
    return kron(_IDENTITY_2, _HADAMARD) @ raw @ kron(_Z_FLIP, _Z_FLIP @ _HADAMARD)


def cnot(p: ExchangeParams) -> GateReport:
    """Controlled-NOT with qubit 1 the control.

    Core sequence: Rz1(pi/2) Rz2(-pi/2) W Rz1(pi) W, with W = sqrt_swap(p).
    That product is diag(-1,1,1,1) up to a global phase, a conditional phase
    flip rather than CNOT, so it is dressed with fixed single-qubit gates,
    (I x H) on the left and (Z x ZH) on the right.  The dressing is parameter
    independent; it was derived once from the w = 0 algebra and is reused
    verbatim everywhere.
    """
    u = _cnot_from_w(sqrt_swap(p).matrix)
    return GateReport(
        u, "cnot [(I x H) . seq . (Z x ZH)]", phase_distance(u, CNOT), "CNOT"
    )


def phase_shifted_swap(p: ExchangeParams, B: float) -> GateReport:
    """Swap pulse with the compensating fields left on.

    Evolves H + B1.S1 + B2.S2 for pi/J inside the sandwich, with the fields
    from compensating_fields(p, B).  In the rotated frame that is the
    isotropic exchange plus a uniform z field, so the result is
    SWAP . (D x D) with D = diag(e^{-i B pi/(2J)}, e^{+i B pi/(2J)}) up to a
    global phase: a swap whose outputs each carry a field phase.  The
    distance to plain SWAP is reported for reference; it is nonzero whenever
    B tau_s is not a multiple of 2 pi.
    """
    h = build_hamiltonian(p) + build_zeeman(compensating_fields(p, B))
    rot = rotation_matrix(p)
    u = rot @ expm_unitary(h, math.pi / p.J) @ rot.conj().T
    return GateReport(u, f"psw(B={B!r})", phase_distance(u, SWAP), "SWAP")
