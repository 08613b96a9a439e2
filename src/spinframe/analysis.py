"""Gate fidelities, parameter-misestimation sweeps, thermal states, concurrence."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import expm_unitary, herm_eig, require_unitary
from .model import PAIR, ExchangeParams, _xy_hamiltonians
from .frame import rotation_matrix
from .gates import _gate_spec, dress

__all__ = [
    "SweepRow",
    "gate_error_sweep",
    "thermal_state",
    "concurrence",
]

class SweepRow(NamedTuple):
    """One row of the sweep table; the fields are its CSV columns."""

    delta_omega_ratio: float
    delta_theta_ratio: float
    corrected: bool
    fidelity: float
    error: float
    log10_error: float


# The blocks of each mode, in order: whether the pulse is sandwiched by T(reference).
_MODES = {"both": (False, True), "uncorrected": (False,), "corrected": (True,)}


def gate_error_sweep(reference: ExchangeParams, delta_omega_ratios, delta_theta_ratios,
                     gate: str = "swap", mode: str = "both") -> tuple[SweepRow, ...]:
    """Fidelity of the realized gate against the canonical target on a grid of
    misestimations around the reference point (omega0, theta0), orientation xy.

    Ratios are relative deviations: a row is evaluated at omega = omega0 (1 + r_w)
    and theta = theta0 (1 + r_th).  A corrected row sandwiches the pulse by the
    reference rotation T(omega0, theta0), an uncorrected one is the bare pulse;
    either way the target is the canonical gate.  The grid's Hamiltonians are one
    stack built from their coupling entries (model._xy_hamiltonians, no ExchangeParams
    per point), their pulses exp(-i H t) one stacked expm_unitary call, dressed
    (gates.dress) as one stack per block.  The target is checked unitary once per
    call, and each block's dressed stack once.  A row's gate is the
    realize(gate, p, T or None) of its point bit for bit, and its fidelity is
    |tr(u^dag target)| / 4.  mode "both" gives the uncorrected block, then the
    corrected one; inside a block rows are sorted by (delta_theta_ratio,
    delta_omega_ratio).  error = max(0, 1 - fidelity), and log10_error is its
    log10 (-inf at 0).  J drops out (only J t enters, and T does not depend on J),
    so every row is evaluated at J = 1.
    """
    if reference.orientation != "xy":
        raise ValueError("sweep requires orientation xy")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {', '.join(_MODES)}")
    spec = _gate_spec(gate)
    axes = []
    for name, ratios, x0 in (("delta_omega_ratios", delta_omega_ratios, reference.omega),
                             ("delta_theta_ratios", delta_theta_ratios, reference.theta)):
        pairs = () if isinstance(ratios, (str, bytes)) else tuple(
            (r, x0 * (1.0 + r)) for r in map(float, ratios))
        if not pairs or not all(math.isfinite(r) for r, _ in pairs):
            raise ValueError(f"{name} must be a nonempty list of finite ratios")
        axes.append(pairs)
    omegas, thetas = axes
    for r, omega in omegas:
        if not 0.0 <= omega < math.pi / 2:
            raise ValueError(f"delta_omega_ratios value {r!r} puts omega0 (1 + r) = {omega!r} "
                             f"outside [0, pi/2), with omega0 = atan(b/J) = {reference.omega!r} at "
                             f"b/J = {reference.b_over_J!r}")
    for r, theta in thetas:
        if not math.isfinite(theta):
            raise ValueError(f"delta_theta_ratios value {r!r} puts theta0 (1 + r) past the "
                             "float range")
    grid = [(r_w, r_th, omega, theta)
            for r_th, theta in sorted(thetas) for r_w, omega in sorted(omegas)]
    area, target = spec.area, require_unitary(spec.target, f"target {spec.target_label}")
    pulses = expm_unitary(_xy_hamiltonians([(w, th) for _, _, w, th in grid]), area)
    rows = []
    for corrected in _MODES[mode]:
        sandwich = rotation_matrix(reference) if corrected else None
        dressed = require_unitary(dress(pulses, sandwich, gate), "u")
        for (r_w, r_th, _, _), u in zip(grid, dressed):
            f = float(abs((u.conj().T @ target).trace())) / 4.0  # np.trace's method, undispatched
            error = max(0.0, 1.0 - f)
            log10_error = math.log10(error) if error > 0 else -math.inf
            rows.append(SweepRow(r_w, r_th, corrected, f, error, log10_error))
    return tuple(rows)


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
