"""Two-spin exchange model with an anisotropic antisymmetric coupling.

Units: hbar = 1, spin operators S = sigma/2, energies in units of the
exchange strength J > 0.  The Hamiltonian is

    H = J cos(w) S1.S2 + 2 J sin^2(w/2) (n.S1)(n.S2) + J sin(w) n.(S1 x S2)

where w = arctan(b/J) in [0, pi/2) measures the antisymmetric
(Dzyaloshinskii-Moriya) coupling strength b >= 0 against J, and the unit
axis n is either (cos(theta), sin(theta), 0) for the "xy" orientation or
(0, 0, 1) for "z".  The cross product uses the standard orientation,
(S1 x S2)^a = eps_abc S1^b S2^c.  One formula, _coupling, computes the nine
entries of a coupling tensor K, of isotropic, symmetric and antisymmetric parts,
in float arithmetic; build_hamiltonian contracts them once with the two-spin
basis, and _xy_hamiltonians runs the formula on arrays over a sweep's (theta, omega)
grid, with an omega axis broadcast against a theta axis, each value's trigonometry
taken once, and contracts the grid's entries in one product:

    H = sum_ab K_ab S1^a S2^b,
    K = J [cos(w) 1 + 2 sin^2(w/2) n n^T + sin(w) [n]],  [n]_ab = eps_abc n_c.

The spectrum is {-3J/4, J/4 (x3)} for every w and n: the anisotropy only
rotates the eigenbasis, which is what the frame module exploits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import kron

__all__ = [
    "ExchangeParams",
    "FieldSpec",
    "spin_operators",
    "build_hamiltonian",
    "build_isotropic",
    "build_zeeman",
    "compensating_fields",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
_IDENTITY_3 = np.eye(3)
_ORIENTATIONS = ("xy", "z")  # the axis orientations; the CLI's orientation choices

# The two-spin operator basis, built once: S1[a] = S^a x I, S2[a] = I x S^a and
# PAIR[a, b] = S1^a S2^b.  Read-only, so no caller can change them for the next.
S1 = np.stack([kron(s / 2, IDENTITY_2) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])
S2 = np.stack([kron(IDENTITY_2, s / 2) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])
PAIR = S1[:, None] @ S2[None, :]
# The same bases with each operator flattened to a row of 16, for _combine.
_S1_ROWS, _S2_ROWS, _PAIR_ROWS = S1.reshape(3, 16), S2.reshape(3, 16), PAIR.reshape(9, 16)
for _constant in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2, _IDENTITY_3, S1, S2, PAIR,
                  _S1_ROWS, _S2_ROWS, _PAIR_ROWS):
    _constant.flags.writeable = False


def _require_normal_J(J: float) -> None:
    if not (math.isfinite(J) and J >= sys.float_info.min):  # a subnormal J has lost digits
        raise ValueError(f"J must be finite and at least {sys.float_info.min!r}; got {J!r}")


@dataclass(frozen=True)
class ExchangeParams:
    """Exchange parameters of the two-spin pair.

    theta (the axis azimuth, radians) is required for orientation "xy" and
    must be omitted for orientation "z", where the axis has no azimuth.
    b_over_J is the antisymmetric coupling in units of J; the anisotropy
    angle omega = arctan(b_over_J) is recomputed on every access so it can
    never go stale.  Every trigonometric function of theta takes
    reduced_theta, so a large theta keeps its digits; theta keeps the value given.
    """

    J: float
    orientation: str
    b_over_J: float
    theta: float | None = None

    def __post_init__(self) -> None:
        _require_normal_J(self.J)
        if self.orientation not in _ORIENTATIONS:
            raise ValueError(f"orientation must be {' or '.join(map(repr, _ORIENTATIONS))}")
        if not (math.isfinite(self.b_over_J) and self.b_over_J >= 0):
            raise ValueError(f"b_over_J must be nonnegative and finite; got {self.b_over_J!r}")
        if self.orientation == "xy":
            if self.theta is None or not math.isfinite(self.theta):
                raise ValueError("orientation 'xy' requires a finite theta")
        elif self.theta is not None:
            raise ValueError("orientation 'z' takes no theta")

    @property
    def omega(self) -> float:
        return math.atan(self.b_over_J)

    @property
    def reduced_theta(self) -> float | None:
        """theta reduced exactly by fmod onto (-4 pi, 4 pi), where it is theta itself;
        4 pi, not 2 pi, since frame.rotation_plan's angles live on a 4 pi circle."""
        return None if self.theta is None else math.fmod(self.theta, 4 * math.pi)

    def axis(self) -> np.ndarray:
        """Unit anisotropy axis n."""
        if self.orientation == "z":
            return np.array([0.0, 0.0, 1.0])
        th = self.reduced_theta
        return np.array([math.cos(th), math.sin(th), 0.0])


@dataclass(frozen=True)
class FieldSpec:
    """Static magnetic field on each qubit, in energy units (g mu_B absorbed)."""

    b1: tuple[float, float, float]
    b2: tuple[float, float, float]

    def __post_init__(self) -> None:
        for name, vec in (("b1", self.b1), ("b2", self.b2)):
            vec = tuple(float(x) for x in vec)
            if len(vec) != 3 or not all(math.isfinite(x) for x in vec):
                raise ValueError(f"{name} must be three finite components")
            object.__setattr__(self, name, vec)


def spin_operators() -> tuple[np.ndarray, ...]:
    """The six two-qubit spin operators (S1x, S1y, S1z, S2x, S2y, S2z), read-only."""
    return (*S1, *S2)


def _combine(coeffs, rows: np.ndarray) -> np.ndarray:
    """sum_i coeffs[i] basis[i] over a flattened basis: the one dot np.tensordot makes
    for it, without tensordot's axis bookkeeping, so the result is bit for bit its own."""
    coeffs = np.asarray(coeffs)
    return np.dot(coeffs.reshape(1, coeffs.size), rows).reshape(4, 4)


def _angle_terms(w: float) -> tuple[float, float, float]:
    """c, t, s = cos w, 2 sin^2(w/2), sin w, the three weights of K at anisotropy angle w."""
    return math.cos(w), 2.0 * math.sin(w / 2) ** 2, math.sin(w)


def _coupling(J, c, t, s, x, y, z) -> tuple:
    """The nine entries of J K by rows, from c, t, s (_angle_terms) and the unit axis
    (x, y, z), each summed as (c 1 + t n n^T) + s [n], with c 1's 0.0 off the diagonal.
    Floats give floats; float64 arrays give arrays whose members have the floats' bits
    (IEEE + and * elementwise); exact polynomials give the formula itself, which
    tests/test_symbolic.py certifies."""
    txy, txz, tyz = t * (x * y), t * (x * z), t * (y * z)
    return (J * (c + t * (x * x)), J * (0.0 + txy + s * z), J * (0.0 + txz - s * y),
            J * (0.0 + txy - s * z), J * (c + t * (y * y)), J * (0.0 + tyz + s * x),
            J * (0.0 + txz + s * y), J * (0.0 + tyz - s * x), J * (c + t * (z * z)))


def build_hamiltonian(p: ExchangeParams) -> np.ndarray:
    """Full anisotropic exchange Hamiltonian, in the {00,01,10,11} basis."""
    return _combine(_coupling(p.J, *_angle_terms(p.omega), *p.axis().tolist()), _PAIR_ROWS)


def _xy_hamiltonians(omegas, thetas) -> np.ndarray:
    """The (theta, omega) grid, shape (len(thetas), len(omegas), 4, 4), of H at J = 1 and
    orientation xy: member [i, j] is H at omega = omegas[j] (each in [0, pi/2)), as given,
    and theta = thetas[i] (each finite), reduced as ExchangeParams.reduced_theta reduces
    it, with no dataclass: build_hamiltonian's _coupling and _combine at that point, bit
    for bit.  The trigonometry is by math, once per axis value; the omega axis's weights
    (n_omega,) broadcast against the theta axis's cos and sin (n_theta, 1) through
    _coupling, and the grid's nine entries are contracted in one product with _PAIR_ROWS."""
    c, t, s = np.array([_angle_terms(w) for w in omegas]).T
    reduced = [math.fmod(theta, 4 * math.pi) for theta in thetas]
    x, y = np.array([(math.cos(th), math.sin(th)) for th in reduced]).T[:, :, None]
    k = np.stack(np.broadcast_arrays(*_coupling(1.0, c, t, s, x, y, 0.0)), axis=-1)
    return (k @ _PAIR_ROWS).reshape(len(thetas), len(omegas), 4, 4)


def build_isotropic(J: float) -> np.ndarray:
    """Isotropic exchange J S1.S2, the target of the frame change."""
    _require_normal_J(J)
    return _combine(J * _IDENTITY_3, _PAIR_ROWS)


def build_zeeman(f: FieldSpec) -> np.ndarray:
    """Field term B1.S1 + B2.S2 alone; add it to an exchange Hamiltonian."""
    return _combine(f.b1, _S1_ROWS) + _combine(f.b2, _S2_ROWS)


def compensating_fields(p: ExchangeParams, B: float) -> FieldSpec:
    """Per-qubit fields that the frame change maps onto a uniform z field.

    The returned fields satisfy T (B1.S1 + B2.S2) T^dag = B (S1z + S2z) with
    T the isotropizing rotation, and both have magnitude |B|.  For the z
    orientation the fields already point along z.  For the xy orientation the
    z components are written as B cos(w/2) directly (the product
    sin(w/2) cot(w/2) simplified algebraically), so w -> 0 is regular.
    """
    if not math.isfinite(B):
        raise ValueError("B must be finite")
    if p.orientation == "z":
        return FieldSpec(b1=(0.0, 0.0, B), b2=(0.0, 0.0, B))
    s, c = math.sin(p.omega / 2), math.cos(p.omega / 2)
    st, ct = math.sin(p.reduced_theta), math.cos(p.reduced_theta)
    return FieldSpec(
        b1=(-B * s * st, B * s * ct, B * c),
        b2=(B * s * st, -B * s * ct, B * c),
    )
