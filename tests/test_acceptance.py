"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v` for the checklist.  Each test prints
its verdict on the real stdout so the lines survive output capture.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

import spinframe as sf
from spinframe.linalg import expm_unitary, phase_distance
from spinframe.model import S1, S2

TAN_OMEGAS = (1e-4, 5e-3, 0.1, 0.5)
THETAS = (0.0, math.pi / 6, 5 * math.pi / 6, 3 * math.pi / 2)
REFERENCE = sf.ExchangeParams(1.0, "xy", 5e-3, theta=5 * math.pi / 6)


def grid(J=1.0):
    for ratio in TAN_OMEGAS:
        yield sf.ExchangeParams(J, "z", ratio)
        for theta in THETAS:
            yield sf.ExchangeParams(J, "xy", ratio, theta=theta)


def report(capsys, number, name, ok):
    with capsys.disabled():
        print(f"[acceptance] {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_1_isotropization(capsys):
    """Frame change residual < 1e-12 across the parameter grid."""
    start = time.perf_counter()
    worst = max(sf.verify_isotropization(p) for p in grid())
    elapsed = time.perf_counter() - start
    report(capsys, 1, "isotropization residual", worst < 1e-12 and elapsed < 1.0)


def test_2_local_rotation_factorization(capsys):
    """assemble(rotation_plan) reproduces the closed-form T up to phase."""
    start = time.perf_counter()
    worst = max(
        phase_distance(sf.assemble(sf.rotation_plan(p)), sf.rotation_matrix(p))
        for p in grid()
    )
    elapsed = time.perf_counter() - start
    report(capsys, 2, "ZYZ factorization", worst < 1e-12 and elapsed < 1.0)


def test_3_eigenstates_and_spectrum(capsys):
    start = time.perf_counter()
    worst_vec, worst_spec = 0.0, 0.0
    energies = (0.25, 0.25, 0.25, -0.75)
    for p in grid():
        h = sf.build_hamiltonian(p)
        for v, e in zip(sf.eigenstates(p), energies):
            worst_vec = max(worst_vec, float(np.abs(h @ v - e * p.J * v).max()))
        spec = np.linalg.eigvalsh(h)
        worst_spec = max(
            worst_spec,
            float(np.abs(spec - np.array([-0.75, 0.25, 0.25, 0.25]) * p.J).max()),
        )
    elapsed = time.perf_counter() - start
    ok = worst_vec < 1e-12 and worst_spec < 1e-12 and elapsed < 1.0
    report(capsys, 3, "closed-form eigenstates", ok)


def test_4_error_study_decades(capsys):
    """Swap error orders at the reference point, factor-3 band tolerance."""
    start = time.perf_counter()
    ratios = tuple(float(x) for x in np.linspace(0.0, 0.1, 50))

    reference = sf.ExchangeParams(1.0, "xy", 5e-3, theta=5 * math.pi / 6)

    def errors(corrected, dth):
        mode = "corrected" if corrected else "uncorrected"
        return sf.gate_error_sweep(reference, ratios, (dth,), mode=mode).error

    ok = True
    uncorrected = errors(False, 0.1)
    ok &= all(5e-6 / 3 <= e <= 1e-5 * 3 for e in uncorrected)
    for dth in (0.1, 0.01):
        corrected = errors(True, dth)
        ok &= all(1e-8 / 3 <= e <= 5e-7 * 3 for e in corrected)
        ok &= all(c <= u for c, u in zip(corrected, errors(False, dth)))
    elapsed = time.perf_counter() - start
    report(capsys, 4, "error decades and correction gain", ok and elapsed < 10.0)


def test_5_gate_constructions(capsys):
    start = time.perf_counter()
    swap_report = sf.gate_report("swap", REFERENCE)
    root = sf.gate_report("sqrt_swap", REFERENCE).matrix
    cnot_report = sf.gate_report("cnot", REFERENCE)
    ok = (
        swap_report.phase_distance_to_target < 1e-12
        and phase_distance(root @ root, swap_report.matrix) < 1e-12
        and cnot_report.phase_distance_to_target < 1e-10
    )
    elapsed = time.perf_counter() - start
    report(capsys, 5, "swap, sqrt-swap, cnot synthesis", ok and elapsed < 1.0)


def test_6_compensating_fields_and_phase_shifted_swap(capsys):
    start = time.perf_counter()
    s1z, s2z = S1[2], S2[2]

    worst = 0.0
    for p in grid():
        for B in (0.1 * p.J, p.J):
            f = sf.compensating_fields(p, B)
            t = sf.rotation_matrix(p)
            residual = t @ sf.build_zeeman(f) @ t.conj().T - B * (s1z + s2z)
            worst = max(worst, float(np.abs(residual).max()))
    ok = worst < 1e-12

    # swap plus equal-and-opposite output phases, checked on product states
    rng = np.random.default_rng(1234)
    for p in (REFERENCE, sf.ExchangeParams(1.0, "z", 5e-3)):
        B = p.J
        u = sf.gate_report("psw", p, B=B).matrix
        half = B * math.pi / (2 * p.J)
        d = np.diag([np.exp(-1j * half), np.exp(1j * half)])
        target = sf.SWAP @ np.kron(d, d)
        for _ in range(50):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            b = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            deficit = 1.0 - abs(np.vdot(target @ v, u @ v))
            ok &= deficit < 1e-10
    elapsed = time.perf_counter() - start
    report(capsys, 6, "compensating fields and shifted swap", ok and elapsed < 2.0)


def test_7_thermal_entanglement_invariance(capsys):
    start = time.perf_counter()
    worst = 0.0
    for p in grid():
        h = sf.build_hamiltonian(p)
        h0 = sf.build_isotropic(p.J)
        for beta_J in (0.1, 1.0, 10.0):
            beta = beta_J / p.J
            diff = abs(
                sf.concurrence(sf.thermal_state(h, beta))
                - sf.concurrence(sf.thermal_state(h0, beta))
            )
            worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    report(capsys, 7, "thermal concurrence invariance", worst < 1e-12 and elapsed < 2.0)


def test_8_sweep_determinism(capsys, tmp_path):
    args = [
        sys.executable,
        "-m",
        "spinframe.cli",
        "sweep",
        "--orientation",
        "xy",
        "--theta",
        "5pi/6",
        "--tan-omega",
        "0.005",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ra = subprocess.run([*args, "--out", str(a)], capture_output=True)
    rb = subprocess.run([*args, "--out", str(b)], capture_output=True)
    ok = (
        ra.returncode == 0
        and rb.returncode == 0
        and a.read_bytes() == b.read_bytes()
        and len(a.read_bytes().splitlines()) == 201
    )
    report(capsys, 8, "byte-identical sweep reruns", ok)
