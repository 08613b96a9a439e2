"""Two-qubit gates from exchange pulses inside the rotation sandwich.

T exp(-i H t) T^dag equals exp(-i J S1.S2 t) exactly when T is the
isotropizing rotation, so the swap family comes out at the isotropic pulse
areas: J t = pi for swap, pi/2 for its square root.  dress() turns a bare
pulse exp(-i H t) into a GATES row's gate: the frame sandwich, then the cnot
sequence for cnot.  realize() and phase_shifted_swap() (the swap row, fields on)
make every gate through it, and the sweep dresses its stack of pulses once per
block.  Global phases are tracked nowhere; distances are phase insensitive.
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

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
# The constant factors of _cnot_from_w: left . w . middle . w . right.
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


def dress(u: np.ndarray, frame: np.ndarray | None, gate: str) -> np.ndarray:
    """A bare pulse u = exp(-i H t), or a stack of them, as the GATES row gate: frame u
    frame^dag (u when frame is None), then _cnot_from_w for "cnot".  Any other gate,
    None included, is refused."""
    _gate_spec(gate)
    if frame is not None:
        u = frame @ u @ frame.conj().T
    return _cnot_from_w(u) if gate == "cnot" else u


def _cnot_from_w(w: np.ndarray) -> np.ndarray:
    """CNOT with qubit 1 the control, from a square-root-of-swap pulse w.

    Core sequence Rz1(pi/2) Rz2(-pi/2) W Rz1(pi) W: diag(-1,1,1,1) up to a
    global phase, a conditional phase flip rather than CNOT.  The fixed dressing
    (I x H) on the left and (Z x ZH) on the right, derived once from the w = 0
    algebra, carries it to the canonical CNOT.
    """
    return _CNOT_LEFT @ w @ _CNOT_MIDDLE @ w @ _CNOT_RIGHT


# A gate: its exchange pulse area J t, its target and the target's label, its report label.
GateSpec = namedtuple("GateSpec", "area target target_label label")
GATES = {
    "swap": GateSpec(math.pi, SWAP, "SWAP", "swap"),
    "sqrt_swap": GateSpec(math.pi / 2, SQRT_SWAP, "SQRT_SWAP", "sqrt_swap"),
    "cnot": GateSpec(math.pi / 2, CNOT, "CNOT", "cnot [(I x H) . seq . (Z x ZH)]"),
}


def _gate_spec(gate: str) -> GateSpec:
    """GATES[gate]; a gate not in the table is a ValueError that names the table's gates."""
    if gate not in GATES:
        raise ValueError(f"gate must be one of {sorted(GATES)}")
    return GATES[gate]


def realize(gate: str, p: ExchangeParams, frame: np.ndarray | None = None) -> np.ndarray:
    """GATES[gate] as its exchange pulse on H(p) produces it, in frame (None: bare).
    The pulse exponentiates H/J over the area J t, so no time area/J can overflow."""
    return dress(expm_unitary(build_hamiltonian(p) / p.J, _gate_spec(gate).area), frame, gate)


def gate_report(gate: str, p: ExchangeParams) -> GateReport:
    """GATES[gate] realized in the isotropizing frame T(p), with its distance to target."""
    spec = _gate_spec(gate)
    u = realize(gate, p, rotation_matrix(p))
    return GateReport(u, spec.label, phase_distance(u, spec.target), spec.target_label)


def phase_shifted_swap(p: ExchangeParams, B: float) -> GateReport:
    """Swap pulse with the compensating fields left on.

    Evolves H + B1.S1 + B2.S2 for pi/J inside the sandwich, with the fields
    from compensating_fields(p, B).  In the rotated frame that is the
    isotropic exchange plus a uniform z field, so the result is
    SWAP . (D x D) with D = Rz(-pi B/J) = diag(e^{-i B pi/(2J)}, e^{+i B pi/(2J)})
    up to a global phase: a swap whose outputs each carry a field phase.  The
    distance is to that closed form, so psw is checked like every gate.  As in
    realize, H/J is exponentiated over the pulse area, so B/J must be finite.
    The field phase B pi/J must also keep digits at UNITARY_TOL, the tolerance
    require_unitary holds every matrix to: an ulp of it above UNITARY_TOL, which
    is |B/J| >= 2^19/pi, is refused.
    """
    swap = GATES["swap"]
    b = B / p.J
    if not math.isfinite(b):
        raise ValueError(f"B must be finite in units of J; B/J = {b!r} for B = {B!r}")
    if math.ulp(swap.area * b) > UNITARY_TOL:  # the field phase B pi/J, D's angle
        raise ValueError(f"B/J = {b!r} for B = {B!r} is too large: an ulp of the field "
                         f"phase B pi/J exceeds {UNITARY_TOL:g}, so |B/J| must be below 2^19/pi")
    h = build_hamiltonian(p) / p.J + build_zeeman(compensating_fields(p, b))
    u = dress(expm_unitary(h, swap.area), rotation_matrix(p), "swap")
    d = rz(-swap.area * b)
    return GateReport(u, f"psw(B={B!r})", phase_distance(u, swap.target @ kron(d, d)),
                      f"{swap.target_label}.(D x D)")
