import math
import re
import sys

import numpy as np
import pytest

from spinframe.analysis import concurrence, gate_error_sweep
from spinframe.gates import (
    CNOT,
    SQRT_SWAP,
    SWAP,
    dress,
    gate_report,
    phase_shifted_swap,
    realize,
)
from spinframe.frame import rotation_matrix
from spinframe.gates import _cnot_from_w
from spinframe.linalg import expm_unitary, phase_distance
from spinframe.model import ExchangeParams, build_hamiltonian

REFERENCE = ExchangeParams(1.0, "xy", 5e-3, theta=5 * math.pi / 6)

POINTS = [
    REFERENCE,
    ExchangeParams(1.0, "z", 5e-3),
    ExchangeParams(2.0, "xy", 0.5, theta=0.3),
    ExchangeParams(0.5, "z", 0.2),
]


@pytest.mark.parametrize("p", POINTS, ids=str)
def test_corrected_swap_hits_target(p):
    report = gate_report("swap", p)
    assert report.phase_distance_to_target < 1e-12
    assert report.target_label == "SWAP"


def test_uncorrected_swap_error_closed_form():
    """Without the frame sandwich the pulse misses SWAP by sin^2(w/2)."""
    for p in POINTS:
        u = expm_unitary(build_hamiltonian(p), math.pi / p.J)
        eps = phase_distance(u, SWAP)
        assert eps == pytest.approx(math.sin(p.omega / 2) ** 2, abs=1e-12)


def test_uncorrected_swap_error_decade_at_reference():
    u = expm_unitary(build_hamiltonian(REFERENCE), math.pi)
    assert 5e-6 <= phase_distance(u, SWAP) <= 1e-5


@pytest.mark.parametrize("p", POINTS, ids=str)
def test_sqrt_swap_squares_to_swap(p):
    report = gate_report("sqrt_swap", p)
    w = report.matrix
    assert report.phase_distance_to_target < 1e-12
    assert phase_distance(w @ w, gate_report("swap", p).matrix) < 1e-12


def test_sqrt_swap_entangles():
    w = gate_report("sqrt_swap", REFERENCE).matrix
    state = w @ np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    assert concurrence(np.outer(state, state.conj())) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("p", POINTS, ids=str)
def test_cnot_hits_target(p):
    report = gate_report("cnot", p)
    assert report.phase_distance_to_target < 1e-10
    assert report.target_label == "CNOT"


def test_cnot_core_sequence_is_conditional_phase_flip():
    """Undressed, the pulse sequence gives diag(-1,1,1,1) up to a phase."""
    w = gate_report("sqrt_swap", REFERENCE).matrix

    # build the raw product independently of the module helper
    def z1(angle):
        return np.kron(np.diag([np.exp(0.5j * angle), np.exp(-0.5j * angle)]), np.eye(2))

    def z2(angle):
        return np.kron(np.eye(2), np.diag([np.exp(0.5j * angle), np.exp(-0.5j * angle)]))

    raw = z1(math.pi / 2) @ z2(-math.pi / 2) @ w @ z1(math.pi) @ w
    target = np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex)
    assert phase_distance(raw, target) < 1e-10


def test_cnot_dressing_is_parameter_independent():
    """The same fixed single-qubit dressing works at every operating point."""
    for p in POINTS:
        u = _cnot_from_w(gate_report("sqrt_swap", p).matrix)
        assert phase_distance(u, CNOT) < 1e-10


def test_cnot_flips_target_conditionally():
    u = gate_report("cnot", REFERENCE).matrix
    e = np.eye(4, dtype=complex)
    # column action: |10> -> |11>, |11> -> |10>, |00> and |01> fixed
    assert abs(np.vdot(e[3], u @ e[2])) == pytest.approx(1.0, abs=1e-8)
    assert abs(np.vdot(e[2], u @ e[3])) == pytest.approx(1.0, abs=1e-8)
    assert abs(np.vdot(e[0], u @ e[0])) == pytest.approx(1.0, abs=1e-8)
    assert abs(np.vdot(e[1], u @ e[1])) == pytest.approx(1.0, abs=1e-8)


def test_phase_shifted_swap_zero_field_is_swap():
    u0 = phase_shifted_swap(REFERENCE, 0.0).matrix
    assert phase_distance(u0, gate_report("swap", REFERENCE).matrix) < 1e-12


@pytest.mark.parametrize("B", [0.1, 1.0])
def test_phase_shifted_swap_closed_form(B):
    """Swap followed by equal and opposite z phases on both outputs."""
    p = REFERENCE
    report = phase_shifted_swap(p, B)
    half = B * math.pi / (2 * p.J)
    d = np.diag([np.exp(-1j * half), np.exp(1j * half)])
    target = SWAP @ np.kron(d, d)
    assert phase_distance(report.matrix, target) < 1e-12
    assert report.target_label == "SWAP.(D x D)" and report.phase_distance_to_target < 1e-12


def test_phase_shifted_swap_still_swaps_populations():
    u = phase_shifted_swap(REFERENCE, 1.0).matrix
    e = np.eye(4, dtype=complex)
    assert abs(np.vdot(e[2], u @ e[1])) == pytest.approx(1.0, abs=1e-10)
    assert abs(np.vdot(e[1], u @ e[2])) == pytest.approx(1.0, abs=1e-10)


def test_gate_labels():
    assert gate_report("swap", REFERENCE).label == "swap"
    assert gate_report("sqrt_swap", REFERENCE).label == "sqrt_swap"
    assert phase_shifted_swap(REFERENCE, 1.0).label == "psw(B=1.0)"


def test_phase_shifted_swap_refuses_a_field_past_the_float_range_in_units_of_J():
    p = ExchangeParams(sys.float_info.min, "xy", 0.37, theta=0.3)
    with pytest.raises(ValueError, match="B must be finite in units of J"):
        phase_shifted_swap(p, 10.0)
    assert np.isfinite(phase_shifted_swap(ExchangeParams(1e308, "z", 0.3), 1e308).matrix).all()


PSW_BOUND = 2**19 / math.pi  # math.pi times it is 2^19, where an ulp first exceeds 1e-10


@pytest.mark.parametrize("J", [1.0, 2.0, 0.25])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_phase_shifted_swap_refuses_a_field_phase_without_digits_at_1e_10(J, sign):
    """Just below 2^19/pi in units of J the gate builds; at and above it B/J is refused,
    with B and B/J named."""
    p = ExchangeParams(J, "xy", 0.37, theta=0.3)
    below = sign * math.nextafter(PSW_BOUND, 0.0)
    assert math.ulp(math.pi * below) < 1e-10
    assert np.isfinite(phase_shifted_swap(p, below * J).matrix).all()
    for b_over_J in (sign * PSW_BOUND, sign * math.nextafter(PSW_BOUND, math.inf), sign * 1e300):
        named = re.escape(f"B/J = {b_over_J!r} for B = {b_over_J * J!r} ")
        with pytest.raises(ValueError, match=named):
            phase_shifted_swap(p, b_over_J * J)


@pytest.mark.parametrize("call", [
    lambda p: gate_report("psw", p),
    lambda p: realize("bogus", p),
    lambda p: gate_error_sweep(p, (0.0,), (0.0,), gate="psw"),
], ids=["gate_report", "realize", "gate_error_sweep"])
def test_every_gate_entry_point_refuses_an_unknown_gate_alike(call):
    with pytest.raises(ValueError) as info:
        call(REFERENCE)
    assert str(info.value) == "gate must be one of ['cnot', 'sqrt_swap', 'swap']"


@pytest.mark.parametrize("gate", ["CNOT", "psw", ""])
def test_dress_refuses_an_unknown_gate_as_realize_does(gate):
    u = realize("sqrt_swap", REFERENCE)
    for frame in (None, rotation_matrix(REFERENCE)):
        with pytest.raises(ValueError) as info:
            dress(u, frame, gate)
        assert str(info.value) == "gate must be one of ['cnot', 'sqrt_swap', 'swap']"


def test_dress_applies_the_cnot_sequence_for_cnot_alone():
    u = realize("sqrt_swap", REFERENCE)
    t = rotation_matrix(REFERENCE)
    for gate in (None, "swap", "sqrt_swap"):
        assert np.array_equal(dress(u, None, gate), u)
        assert np.array_equal(dress(u, t, gate), t @ u @ t.conj().T)
    assert np.array_equal(dress(u, None, "cnot"), _cnot_from_w(u))
    assert np.array_equal(dress(u, t, "cnot"), _cnot_from_w(t @ u @ t.conj().T))
