"""Two-qubit gates from exchange pulses inside the rotation sandwich.

T exp(-i H t) T^dag equals exp(-i J S1.S2 t) exactly when T is the
isotropizing rotation, so the swap family comes out at the isotropic pulse
areas: J t = pi for swap, pi/2 for its square root.  dress() turns a bare
pulse exp(-i H t) into a GATES row's gate: the frame sandwich, then the row's pulse
sequence if it has one (cnot's).  realize() makes every gate through it, psw (swap,
fields on) included, and the sweep dresses its grid of pulses once per block.  Global
phases are tracked nowhere; distances are phase insensitive.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .linalg import UNITARY_TOL, expm_unitary, kron, phase_distance
from .model import (IDENTITY_2, SIGMA_Z, ExchangeParams, build_hamiltonian, build_zeeman,
                    compensating_fields)
from .frame import rotation_matrix, rz

__all__ = [
    "SWAP",
    "SQRT_SWAP",
    "CNOT",
    "GATES",
    "GateReport",
    "dress",
    "realize",
    "gate_report",
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

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
# cnot's pulse sequence left . w . middle . w . right, for a square-root-of-swap pulse w,
# with qubit 1 the control.  The core Rz1(pi/2) Rz2(-pi/2) w Rz1(pi) w is diag(-1,1,1,1)
# up to a global phase, a conditional phase flip rather than CNOT; the fixed dressing
# (I x H) on the left and (Z x ZH) on the right, derived once from the w = 0 algebra,
# carries it to the canonical CNOT.
_CNOT_LEFT = (
    kron(IDENTITY_2, _HADAMARD)
    @ kron(rz(math.pi / 2), IDENTITY_2)
    @ kron(IDENTITY_2, rz(-math.pi / 2))
)
_CNOT_MIDDLE = kron(rz(math.pi), IDENTITY_2)
_CNOT_RIGHT = kron(SIGMA_Z, SIGMA_Z @ _HADAMARD)
for _constant in (SWAP, SQRT_SWAP, CNOT, _HADAMARD, _CNOT_LEFT, _CNOT_MIDDLE, _CNOT_RIGHT):
    _constant.flags.writeable = False


@dataclass(frozen=True)
class GateReport:
    matrix: np.ndarray
    label: str
    phase_distance_to_target: float
    target_label: str


# A gate: pulse area J t, target, target label, report label, whether it has fields (_row),
# and the pulse sequence (left, middle, right) that dress applies, or None.
GateSpec = namedtuple("GateSpec", "area target target_label label fields sequence")
GATES = {
    "swap": GateSpec(math.pi, SWAP, "SWAP", "swap", False, None),
    "sqrt_swap": GateSpec(math.pi / 2, SQRT_SWAP, "SQRT_SWAP", "sqrt_swap", False, None),
    "cnot": GateSpec(math.pi / 2, CNOT, "CNOT", "cnot [(I x H) . seq . (Z x ZH)]", False,
                     (_CNOT_LEFT, _CNOT_MIDDLE, _CNOT_RIGHT)),
    "psw": GateSpec(math.pi, SWAP, "SWAP.(D x D)", "psw", True, None),
}


def dress(u: np.ndarray, frame: np.ndarray | None, spec: GateSpec) -> np.ndarray:
    """A bare pulse u = exp(-i H t), or a stack (..., 4, 4) of them, as the gate of the
    GATES row spec: frame u frame^dag (u when frame is None), then, for a row with a
    sequence (left, middle, right), left . u . middle . u . right."""
    if frame is not None:
        u = frame @ u @ frame.conj().T
    if spec.sequence is None:
        return u
    left, middle, right = spec.sequence
    return left @ u @ middle @ u @ right


def _row(gate: str, p: ExchangeParams, B: float | None) -> tuple:
    """(GATES[gate], term its pulse adds to H/J or None, target, label) at p.  A field row
    needs B (no default), others ignore it; its term, compensating_fields(p, B/J)'s B1.S1 +
    B2.S2, T(p) carries to B/J (S1z + S2z), commuting with the exchange: its target gains
    D x D, D = Rz(-area B/J).  B/J must be finite, and an ulp of the field phase B pi/J at
    most UNITARY_TOL, which every matrix is held to: |B/J| >= 2^19/pi is refused."""
    if gate not in GATES:
        raise ValueError(f"gate must be one of {sorted(GATES)}")
    spec = GATES[gate]
    if not spec.fields:
        return spec, None, spec.target, spec.label
    if B is None:
        raise ValueError(f"gate {gate} needs a field B")
    b = B / p.J
    if not math.isfinite(b):
        raise ValueError(f"B must be finite in units of J; B/J = {b!r} for B = {B!r}")
    if math.ulp(spec.area * b) > UNITARY_TOL:  # the field phase B pi/J, D's angle
        raise ValueError(f"B/J = {b!r} for B = {B!r} is too large: an ulp of the field "
                         f"phase B pi/J exceeds {UNITARY_TOL:g}, so |B/J| must be below 2^19/pi")
    d = rz(-spec.area * b)
    return (spec, build_zeeman(compensating_fields(p, b)), spec.target @ kron(d, d),
            f"{spec.label}(B={B!r})")


def _realize(gate: str, p: ExchangeParams, frame: np.ndarray | None, B) -> tuple:
    """(gate matrix, GATES row, target, label) of GATES[gate] at p and field B, in frame."""
    spec, term, target, label = _row(gate, p, B)
    h = build_hamiltonian(p) / p.J
    return (dress(expm_unitary(h if term is None else h + term, spec.area), frame, spec),
            spec, target, label)


def realize(gate: str, p: ExchangeParams, frame: np.ndarray | None = None,
            B: float | None = None) -> np.ndarray:
    """GATES[gate] as its exchange pulse on H(p), plus a field row's fields for B, produces
    it in frame (None: bare); H/J is exponentiated over the area J t, so no time overflows."""
    return _realize(gate, p, frame, B)[0]


def gate_report(gate: str, p: ExchangeParams, B: float | None = None) -> GateReport:
    """GATES[gate] (at field B) realized in the frame T(p), with its distance to target."""
    u, spec, target, label = _realize(gate, p, rotation_matrix(p), B)
    return GateReport(u, label, phase_distance(u, target), spec.target_label)
