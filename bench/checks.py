"""Output checks for the benchmark.  Each check returns a list of error strings;
an empty list means the output passed.

The structural checks run right after each call, outside the timed region.
The oracle (``oracle_fidelity``) recomputes a sample of sweep rows from the
benchmark's own Pauli construction with ``scipy.linalg.expm``; it runs after
the timed loop, so scipy's import does not count toward the workload's time
or peak memory.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import Call

SWEEP_HEADER = "delta_omega_ratio,delta_theta_ratio,corrected,fidelity,error,log10_error"
ORACLE_ATOL = 1e-12
ANCHOR_ATOL = 1e-12
# Default --tol of each verification command, by (command, gate).  The CLI
# verifies nothing for psw; 1e-10 is this benchmark's own tolerance there.
TOLERANCES = {
    ("transform", None): 1e-12,
    ("decompose", None): 1e-12,
    ("gate", "swap"): 1e-12,
    ("gate", "sqrt_swap"): 1e-12,
    ("gate", "cnot"): 1e-10,
    ("gate", "psw"): 1e-10,
    ("fields", None): 1e-12,
    ("thermal", None): 1e-12,
}


def check_exit(code) -> list[str]:
    return [] if code == 0 else [f"exit code {code!r}, expected 0"]


def check_rerun(first: bytes, second: bytes) -> list[str]:
    """Two runs of the same command line must write the same bytes."""
    if first == second:
        return []
    n = min(len(first), len(second))
    at = next((i for i in range(n) if first[i] != second[i]), n)
    return [f"rerun output differs at byte {at} ({len(first)} vs {len(second)} bytes)"]


def ratio_values(spec: str) -> list[float]:
    """The ratio list the CLI builds from a comma list or start:stop:count."""
    if ":" in spec:
        start, stop, count = spec.split(":")
        return [float(x) for x in np.linspace(float(start), float(stop), int(count))]
    return [float(tok) for tok in spec.split(",")]


def expected_grid(call: Call) -> list[tuple[float, float, bool]]:
    """(omega ratio, theta ratio, corrected) of every row, in output order."""
    omegas = sorted(ratio_values(call.omega_ratios))
    thetas = sorted(ratio_values(call.theta_ratios))
    return [(w, t, corrected) for corrected in (False, True) for t in thetas for w in omegas]


def parse_sweep(data: bytes, fmt: str) -> list[tuple]:
    """Rows (r_w, r_th, corrected, fidelity, error, log10_error) of a sweep output."""
    text = data.decode("utf-8")
    if fmt == "json":
        rows = []
        for r in json.loads(text)["rows"]:
            log10e = r["log10_error"]
            rows.append((r["delta_omega_ratio"], r["delta_theta_ratio"], r["corrected"],
                         r["fidelity"], r["error"],
                         float("-inf") if log10e is None else log10e))
        return rows
    lines = text.split("\n")
    if lines[0] != SWEEP_HEADER:
        raise ValueError(f"bad CSV header {lines[0]!r}")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    rows = []
    for line in lines[1:-1]:
        w, t, c, f, e, l10 = line.split(",")
        if c not in ("true", "false"):
            raise ValueError(f"bad corrected flag {c!r}")
        rows.append((float(w), float(t), c == "true", float(f), float(e), float(l10)))
    return rows


def check_sweep(call: Call, data: bytes) -> tuple[list[str], list[tuple]]:
    """Structure and internal consistency of one sweep output; returns (errors, rows)."""
    try:
        rows = parse_sweep(data, call.fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable sweep output: {exc}"], []
    grid = expected_grid(call)
    if len(rows) != len(grid):
        return [f"{len(rows)} rows, expected {len(grid)}"], rows
    errors = []
    for i, ((w, t, c, f, e, l10), (ew, et, ec)) in enumerate(zip(rows, grid)):
        if (w, t, c) != (ew, et, ec):
            errors.append(f"row {i}: grid point {(w, t, c)}, expected {(ew, et, ec)}")
        elif not (0.0 <= f <= 1.0 + 1e-12):
            errors.append(f"row {i}: fidelity {f!r} outside [0, 1]")
        elif e != max(0.0, 1.0 - f):
            errors.append(f"row {i}: error {e!r} is not max(0, 1 - fidelity)")
        elif l10 != (math.log10(e) if e > 0 else float("-inf")):
            errors.append(f"row {i}: log10_error {l10!r} is not log10({e!r})")
        if len(errors) >= 3:
            break
    if call.fmt == "json":
        cfg = json.loads(data)["config"]
        if (cfg["gate"], cfg["tan_omega0"], cfg["theta0"]) != (call.gate, call.tan_omega, call.theta):
            errors.append(f"config echo {cfg} does not match the command line")
    return errors, rows


def check_anchor(call: Call, data: bytes) -> list[str]:
    """Swap at zero misestimation: uncorrected error sin^2(omega0/2), corrected ~0."""
    errors, rows = check_sweep(call, data)
    if errors:
        return errors
    expected = math.sin(math.atan(call.tan_omega) / 2) ** 2
    (_, _, _, _, uncorrected, _), (_, _, _, _, corrected, _) = rows
    if abs(uncorrected - expected) > ANCHOR_ATOL:
        errors.append(f"anchor: uncorrected swap error {uncorrected!r}, expected sin^2(w/2) = {expected!r}")
    if corrected > ANCHOR_ATOL:
        errors.append(f"anchor: corrected swap error {corrected!r}, expected ~0")
    return errors


def check_verify(call: Call, data: bytes) -> list[str]:
    """Reported residual or distance of a single-matrix command within its tolerance."""
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return [f"unparsable JSON output: {exc}"]
    tol = TOLERANCES[(call.command, call.gate)]
    if call.command in ("transform", "decompose", "fields", "thermal") and doc.get("tolerance") != tol:
        return [f"reported tolerance {doc.get('tolerance')!r}, expected {tol!r}"]
    if call.command == "transform":
        return _within("isotropization residual", doc["residual"], tol)
    if call.command == "decompose":
        return _within("assembly distance", doc["assembly_distance"], tol)
    if call.command == "fields":
        errors = _within("field transform residual", doc["residual"], tol)
        for name in ("b1", "b2"):
            if abs(math.hypot(*doc[name]) - call.B) > tol:
                errors.append(f"|{name}| = {math.hypot(*doc[name])!r}, expected B = {call.B!r}")
        return errors
    if call.command == "thermal":
        betas = tuple(r["beta"] for r in doc["rows"])
        if betas != call.betas:
            return [f"thermal betas {betas}, expected {call.betas}"]
        return _within("concurrence difference", max(r["difference"] for r in doc["rows"]), tol)
    m = np.array(doc["matrix"], dtype=float)
    if m.shape != (4, 4, 2):
        return [f"gate matrix has shape {m.shape}"]
    u = m[..., 0] + 1j * m[..., 1]
    if call.gate != "psw":
        return _within("gate distance", doc["phase_distance"], tol)
    # psw: SWAP . (D x D), D = diag(e^{-i B pi/2}, e^{+i B pi/2}) at J = 1, up to phase.
    d = np.diag([np.exp(-0.5j * math.pi * call.B), np.exp(0.5j * math.pi * call.B)])
    expected = _SWAP @ np.kron(d, d)
    return _within("psw distance to SWAP.(D x D)", _phase_distance(u, expected), tol)


def _within(what: str, value: float, tol: float) -> list[str]:
    return [] if value <= tol else [f"{what} {value!r} exceeds tolerance {tol!r}"]


# --- independent reference for sweep rows -----------------------------------

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_I2 = np.eye(2, dtype=complex)
_S1 = [np.kron(s / 2, _I2) for s in _SIGMA]
_S2 = [np.kron(_I2, s / 2) for s in _SIGMA]
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
_SQRT_SWAP = np.array([[1, 0, 0, 0], [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
                       [0, (1 - 1j) / 2, (1 + 1j) / 2, 0], [0, 0, 0, 1]])
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_TARGETS = {"swap": _SWAP, "sqrt_swap": _SQRT_SWAP, "cnot": _CNOT}


def _phase_distance(u, v) -> float:
    return 1.0 - abs(np.trace(u.conj().T @ v)) / 4.0


def _hamiltonian(omega: float, theta: float) -> np.ndarray:
    """H at J = 1 for the xy axis n = (cos theta, sin theta, 0), from the model's formula."""
    n = (math.cos(theta), math.sin(theta), 0.0)
    dot = sum(a @ b for a, b in zip(_S1, _S2))
    ns1 = sum(c * s for c, s in zip(n, _S1))
    ns2 = sum(c * s for c, s in zip(n, _S2))
    cross = sum(
        n[a] * (_S1[(a + 1) % 3] @ _S2[(a + 2) % 3] - _S1[(a + 2) % 3] @ _S2[(a + 1) % 3])
        for a in range(3)
    )
    return (math.cos(omega) * dot + 2 * math.sin(omega / 2) ** 2 * ns1 @ ns2
            + math.sin(omega) * cross)


def oracle_fidelity(gate: str, tan0: float, theta0: float, r_w: float, r_th: float,
                    corrected: bool) -> float:
    """Fidelity of one sweep row, rebuilt with scipy's expm and the ZYZ form of T."""
    from scipy.linalg import expm

    def rz(a):
        return expm(0.5j * a * _SIGMA[2])

    def ry(a):
        return expm(0.5j * a * _SIGMA[1])

    omega0 = math.atan(tan0)
    h = _hamiltonian(omega0 * (1.0 + r_w), theta0 * (1.0 + r_th))
    pulse = expm(-1j * h * (math.pi if gate == "swap" else math.pi / 2))
    if corrected:
        t = np.kron(rz(-3 * math.pi / 4) @ ry(omega0 / 2) @ rz(theta0 + math.pi / 2),
                    rz(math.pi / 4) @ ry(omega0 / 2) @ rz(theta0 - math.pi / 2))
        pulse = t @ pulse @ t.conj().T
    u = pulse
    if gate == "cnot":
        z1 = lambda a: np.kron(rz(a), _I2)  # noqa: E731
        z2 = lambda a: np.kron(_I2, rz(a))  # noqa: E731
        raw = z1(math.pi / 2) @ z2(-math.pi / 2) @ pulse @ z1(math.pi) @ pulse
        zflip = np.diag([1.0, -1.0]).astype(complex)
        u = np.kron(_I2, _HADAMARD) @ raw @ np.kron(zflip, zflip @ _HADAMARD)
    return 1.0 - _phase_distance(u, _TARGETS[gate])


def check_oracle(call: Call, rows: list[tuple]) -> list[str]:
    errors = []
    for r_w, r_th, corrected, f, _, _ in rows:
        ref = oracle_fidelity(call.gate, call.tan_omega, call.theta, r_w, r_th, corrected)
        if abs(f - ref) > ORACLE_ATOL:
            errors.append(f"oracle: fidelity {f!r} at {(r_w, r_th, corrected)}, reference {ref!r}")
    return errors
