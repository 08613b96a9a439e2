"""Gate fidelities, parameter-misestimation sweeps, thermal states, concurrence."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import expm_unitary, herm_eig, require_unitary
from .model import PAIR, ExchangeParams, _xy_hamiltonians
from .frame import rotation_matrix
from .gates import _row, dress

__all__ = [
    "SweepTable",
    "gate_error_sweep",
    "thermal_state",
    "concurrence",
]

class SweepTable(NamedTuple):
    """The sweep's rows as a grid; the field names are its CSV columns.  The first three
    fields are the grid's axes: the sorted omega ratios, the sorted theta ratios and the
    mode's blocks (corrected or not).  The last three hold one value per row, in CSV order:
    block, then theta, then omega fastest, so row k sits at omega ratio k % n_w, theta ratio
    (k // n_w) % n_th and block k // (n_w n_th)."""

    delta_omega_ratio: tuple[float, ...]
    delta_theta_ratio: tuple[float, ...]
    corrected: tuple[bool, ...]
    fidelity: tuple[float, ...]
    error: tuple[float, ...]
    log10_error: tuple[float, ...]


# The CLI's --mode choices in order, each with its blocks: is the pulse sandwiched by T?
_MODES = {"both": (False, True), "corrected": (True,), "uncorrected": (False,)}


def _overlaps(dressed: np.ndarray, target: np.ndarray) -> np.ndarray:
    """u^dag target for each member u of a stack (..., 4, 4), as one stacked product:
    each member has the bits of its own u.conj().T @ target."""
    return dressed.conj().swapaxes(-1, -2) @ target


def gate_error_sweep(reference: ExchangeParams, delta_omega_ratios, delta_theta_ratios,
                     gate: str = "swap", mode: str = "both",
                     B: float | None = None) -> SweepTable:
    """Fidelity of the realized gate against its target on a grid of misestimations
    around the reference point (omega0, theta0), orientation xy.

    Ratios are relative deviations: a row is evaluated at omega = omega0 (1 + r_w) and theta =
    theta0 (1 + r_th).  A corrected row sandwiches the pulse by the reference rotation T(omega0,
    theta0), an uncorrected one is the bare pulse; either way the target is gates._row's at the
    reference and field B.  A field row (psw) sets its fields from the estimate: every pulse
    adds one term, set at the reference (no other row adds one: a zero could flip a signed
    zero).  Each axis is sorted once, and the grid's Hamiltonians are one (theta, omega) array
    built from the two axes (model._xy_hamiltonians), their pulses exp(-i H t) one stacked
    expm_unitary call, dressed (gates.dress) as one array per block.  The target is checked
    unitary once per call, and each block's dressed array once; each block's overlaps u^dag
    target are one stacked product (_overlaps), and a row does only its trace and scalar work,
    appending its three values to the table's columns; no per-row object is built.  A row is
    evaluated at the omega and theta that its ratios give and that were range-checked: its gate
    is realize's at that point, bit for bit (fields aside), and its fidelity
    |tr(u^dag target)| / 4.  mode "both" gives the uncorrected block, then the corrected one.
    The result is a SweepTable, whose docstring gives the rows' order.
    error = 1 - fidelity below fidelity 1 and 0 otherwise, which is max(0, 1 - fidelity) for
    every float, and log10_error is its log10 (-inf at 0).  J drops out (only J t enters, and T
    does not depend on J), so rows take J = 1, and B enters as B/J at the reference J.
    """
    if reference.orientation != "xy":
        raise ValueError("sweep requires orientation xy")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {', '.join(_MODES)}")
    spec, term, target, _ = _row(gate, reference, B)
    axes = []
    for name, ratios, x0 in (("delta_omega_ratios", delta_omega_ratios, reference.omega),
                             ("delta_theta_ratios", delta_theta_ratios, reference.theta)):
        pairs = () if isinstance(ratios, (str, bytes)) else tuple(
            (r, x0 * (1.0 + r)) for r in map(float, ratios))
        if not pairs or not all(math.isfinite(r) for r, _ in pairs):
            raise ValueError(f"{name} must be a nonempty list of finite ratios")
        axes.append(pairs)
    for r, omega in axes[0]:
        if not 0.0 <= omega < math.pi / 2:
            raise ValueError(f"delta_omega_ratios value {r!r} puts omega0 (1 + r) = {omega!r} "
                             f"outside [0, pi/2), with omega0 = atan(b/J) = {reference.omega!r} at "
                             f"b/J = {reference.b_over_J!r}")
    for r, theta in axes[1]:
        if not math.isfinite(theta):
            raise ValueError(f"delta_theta_ratios value {r!r} puts theta0 (1 + r) past the "
                             "float range")
    (r_ws, omegas), (r_ths, thetas) = (zip(*sorted(pairs)) for pairs in axes)
    target = require_unitary(target, f"target {spec.target_label}")
    h = _xy_hamiltonians(omegas, thetas)
    pulses = expm_unitary(h if term is None else h + term, spec.area)
    fidelity, error, log10_error = [], [], []
    for corrected in _MODES[mode]:
        sandwich = rotation_matrix(reference) if corrected else None
        dressed = require_unitary(dress(pulses, sandwich, spec), "u")
        for m in _overlaps(dressed, target).reshape(-1, 4, 4):  # theta, then omega fastest
            f = float(abs(m.trace())) / 4.0  # np.trace's method, undispatched
            e = 1.0 - f if f < 1.0 else 0.0  # max(0.0, 1.0 - f), nan included
            fidelity.append(f)
            error.append(e)
            log10_error.append(math.log10(e) if e > 0 else -math.inf)
    return SweepTable(r_ws, r_ths, _MODES[mode], tuple(fidelity), tuple(error),
                      tuple(log10_error))


def thermal_state(h, beta) -> np.ndarray:
    """Gibbs state exp(-beta h) / tr(exp(-beta h)) for Hermitian h, beta >= 0; for an
    array of betas, the stack (..., 4, 4) of their states, from one decomposition of h.

    The exponent is shifted by the ground energy, so large beta underflows
    toward the ground projector instead of 0/0.
    """
    beta = np.asarray(beta, dtype=float)
    if not np.all((beta >= 0) & (beta < math.inf)):
        raise ValueError("beta must be nonnegative and finite")
    w, v = herm_eig(h)
    with np.errstate(over="ignore"):  # a product past the float range is -inf, and exp(-inf) is 0
        weights = np.exp(-beta[..., None] * (w - w[0]))
    return (v * weights[..., None, :]) @ v.conj().T / weights.sum(-1)[..., None, None]


def concurrence(rho):
    """Wootters concurrence of a two-qubit density matrix, a float; for a stack
    (..., 4, 4), the array of each member's concurrence, with the same bits.

    Computed as the singular values of sqrt(rho) (sy x sy) conj(sqrt(rho)):
    their squares are the eigenvalues of rho rho~, but the SVD keeps the
    small ones accurate near pure states, where sqrt-of-eigenvalue loses
    half the digits.  The result is clamped to [0, 1], where rounding can leave it.
    Every member must pass the Hermitian, unit-trace and PSD checks.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError("density matrix must be 4x4")
    if not np.abs(rho - rho.conj().swapaxes(-1, -2)).max(initial=0.0) <= 1e-10:
        raise ValueError("density matrix must be Hermitian")
    if not np.all(abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0) <= 1e-10):
        raise ValueError("density matrix must have unit trace")
    w, v = np.linalg.eigh(rho)
    if not np.all(w[..., 0] >= -1e-10):
        raise ValueError("density matrix must be positive semidefinite")

    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    yy = 4 * PAIR[1, 1]  # sigma_y x sigma_y = 4 S1^y S2^y
    lam = np.linalg.svd(root @ yy @ root.conj(), compute_uv=False)
    c = np.minimum(1.0, np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]))
    return float(c) if rho.ndim == 2 else c
