"""Gate fidelities, parameter-misestimation sweeps, thermal states, concurrence."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import fidelity, herm_eig
from .model import PAIR, ExchangeParams
from .frame import rotation_matrix
from .gates import GATES, realize

__all__ = [
    "fidelity",
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "gate_error_sweep",
    "thermal_state",
    "concurrence",
]

@dataclass(frozen=True)
class SweepConfig:
    """Error sweep around a reference point (omega0 via its tangent, theta0).

    Ratios are relative deviations: the evaluated parameters are
    omega = omega0 (1 + r_w) and theta = theta0 (1 + r_th).  corrected selects
    whether the pulse is sandwiched by the reference rotation T(omega0,
    theta0); either way the comparison target is the canonical gate.
    """

    tan_omega0: float
    theta0: float
    delta_omega_ratios: tuple[float, ...]
    delta_theta_ratios: tuple[float, ...]
    corrected: bool
    gate: str = "swap"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tan_omega0) and self.tan_omega0 >= 0):
            raise ValueError("tan_omega0 must be nonnegative and finite")
        if not math.isfinite(self.theta0):
            raise ValueError("theta0 must be finite")
        if self.gate not in GATES:
            raise ValueError(f"gate must be one of {sorted(GATES)}")
        for name in ("delta_omega_ratios", "delta_theta_ratios"):
            ratios = tuple(float(r) for r in getattr(self, name))
            if not ratios or not all(math.isfinite(r) for r in ratios):
                raise ValueError(f"{name} must be a nonempty list of finite ratios")
            object.__setattr__(self, name, ratios)
        omega0 = math.atan(self.tan_omega0)
        for r in self.delta_omega_ratios:
            if not 0.0 <= omega0 * (1.0 + r) < math.pi / 2:
                raise ValueError(
                    f"delta_omega_ratios value {r!r} puts omega0 (1 + r) outside [0, pi/2)"
                )


@dataclass(frozen=True)
class SweepRow:
    delta_omega_ratio: float
    delta_theta_ratio: float
    fidelity: float
    error: float


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    rows: tuple[SweepRow, ...]


def gate_error_sweep(cfg: SweepConfig) -> SweepResult:
    """Fidelity of the realized gate against the canonical target on a grid.

    Rows are sorted by (delta_theta_ratio, delta_omega_ratio).  J drops out
    (only J t enters), so everything is evaluated at J = 1.
    """
    omega0 = math.atan(cfg.tan_omega0)
    reference = ExchangeParams(1.0, "xy", cfg.tan_omega0, theta=cfg.theta0)
    sandwich = rotation_matrix(reference) if cfg.corrected else None
    target = GATES[cfg.gate].target

    rows = []
    for r_th in sorted(cfg.delta_theta_ratios):
        for r_w in sorted(cfg.delta_omega_ratios):
            omega = omega0 * (1.0 + r_w)
            p = ExchangeParams(
                1.0, "xy", math.tan(omega), theta=cfg.theta0 * (1.0 + r_th)
            )
            f = fidelity(realize(cfg.gate, p, sandwich), target)
            rows.append(SweepRow(r_w, r_th, f, max(0.0, 1.0 - f)))
    return SweepResult(config=cfg, rows=tuple(rows))


def thermal_state(h, beta: float) -> np.ndarray:
    """Gibbs state exp(-beta h) / tr(exp(-beta h)) for Hermitian h, beta >= 0.

    The exponent is shifted by the ground energy, so large beta underflows
    toward the ground projector instead of 0/0.
    """
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError("beta must be nonnegative and finite")
    w, v = herm_eig(h)
    weights = np.exp(-beta * (w - w[0]))
    return (v * weights) @ v.conj().T / weights.sum()


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    Computed as the singular values of sqrt(rho) (sy x sy) conj(sqrt(rho)):
    their squares are the eigenvalues of rho rho~, but the SVD keeps the
    small ones accurate near pure states, where sqrt-of-eigenvalue loses
    half the digits.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("density matrix must be 4x4")
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError("density matrix must have unit trace")
    w, v = np.linalg.eigh(rho)
    if w[0] < -1e-10:
        raise ValueError("density matrix must be positive semidefinite")

    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    yy = 4 * PAIR[1, 1]  # sigma_y x sigma_y = 4 S1^y S2^y
    lam = np.linalg.svd(root @ yy @ root.conj(), compute_uv=False)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
