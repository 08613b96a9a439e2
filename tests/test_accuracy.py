"""A 40-digit oracle for the gate distances: how many of their printed digits are right.

The oracle rebuilds each gate in mpmath from the float inputs the package gets:
omega = atan(b/J) and the reduced theta as ExchangeParams computes them, and the
pulse area as GATES holds it.  H comes from the model's formula, the pulse from
mp.expm, T from its closed form, and the cnot dressing from exact Hadamard and z
rotations.  The true distance is |A - m I|_F^2 / 4 / (1 + |m|), with A = u^dag
target and m = tr A / 4, which has no subtraction that cancels.

GATE holds a computed distance to |computed - true| <= 1e-15 sqrt(true) + 1e-13 true,
about ten times above phase_distance's worst case: eleven or more correct digits
wherever the true distance is above 1e-8.  Its last term, 1e-29, is the floor at a
true distance near 0, where the computed one is the squared rounding of the
realized matrix (at most 2.1e-30 over 18,000 seeded gate_report points).
"""

import math

import mpmath
import numpy as np
import pytest

from spinframe.frame import rotation_matrix
from spinframe.gates import GATES, SWAP, gate_report, realize
from spinframe.linalg import phase_distance
from spinframe.model import ExchangeParams

MP = mpmath.MPContext()
MP.dps = 40

_SIGMAS = [MP.matrix([[0, 1], [1, 0]]), MP.matrix([[0, -1j], [1j, 0]]),
           MP.matrix([[1, 0], [0, -1]])]


def kron(a, b):
    return MP.matrix([[a[i // 2, j // 2] * b[i % 2, j % 2] for j in range(4)]
                      for i in range(4)])


_I2 = MP.eye(2)
_PAIR = [[kron(sa / 2, _I2) * kron(_I2, sb / 2) for sb in _SIGMAS] for sa in _SIGMAS]


def rz(angle):
    return MP.diag([MP.exp(0.5j * angle), MP.exp(-0.5j * angle)])


_HADAMARD = MP.matrix([[1, 1], [1, -1]]) / MP.sqrt(2)
_Z_FLIP = MP.diag([1, -1])
_CNOT_LEFT = kron(_I2, _HADAMARD) * kron(rz(MP.pi / 2), _I2) * kron(_I2, rz(-MP.pi / 2))
_CNOT_MIDDLE = kron(rz(MP.pi), _I2)
_CNOT_RIGHT = kron(_Z_FLIP, _Z_FLIP * _HADAMARD)


def angles(p):
    """omega and theta of p, exactly as the package's floats hold them."""
    return MP.mpf(p.omega), MP.mpf(p.reduced_theta)


def hamiltonian(omega, theta):
    """H / J = sum_ab K_ab S1^a S2^b, K = cos(w) 1 + 2 sin^2(w/2) n n^T + sin(w) [n]."""
    n = [MP.cos(theta), MP.sin(theta), 0]
    cross = [[0, n[2], -n[1]], [-n[2], 0, n[0]], [n[1], -n[0], 0]]
    h = MP.matrix(4, 4)
    for a in range(3):
        for b in range(3):
            k = (MP.cos(omega) if a == b else 0) + 2 * MP.sin(omega / 2) ** 2 * n[a] * n[b]
            h += (k + MP.sin(omega) * cross[a][b]) * _PAIR[a][b]
    return h


def zeeman(omega, theta, b):
    """(B1.S1 + B2.S2) / J with the fields of compensating_fields' closed form at B/J = b."""
    s, c, st, ct = MP.sin(omega / 2), MP.cos(omega / 2), MP.sin(theta), MP.cos(theta)
    b1, b2 = (-b * s * st, b * s * ct, b * c), (b * s * st, -b * s * ct, b * c)
    h = MP.matrix(4, 4)
    for sigma, x1, x2 in zip(_SIGMAS, b1, b2):
        h += x1 * kron(sigma / 2, _I2) + x2 * kron(_I2, sigma / 2)
    return h


def rotation(omega, theta):
    """T = U(-omega) x U(omega), with U frame._local_rotation's closed form."""
    def u(w):
        c, s = MP.cos(w / 4), MP.sin(w / 4)
        x, y = MP.exp(0.5j * (theta - MP.pi / 4)), MP.exp(0.5j * (3 * MP.pi / 4 - theta))
        return MP.matrix([[c * x, s * y], [-s * MP.conj(y), c * MP.conj(x)]])
    return kron(u(-omega), u(omega))


def true_gate(gate, pulse, frame):
    u = pulse if frame is None else frame * pulse * frame.H
    return _CNOT_LEFT * u * _CNOT_MIDDLE * u * _CNOT_RIGHT if gate == "cnot" else u


def true_distance(u, target):
    a = u.H * MP.matrix(target.tolist())
    m = sum(a[i, i] for i in range(4)) / 4
    s = sum(abs(a[i, j] - (m if i == j else 0)) ** 2 for i in range(4) for j in range(4))
    return float(s / 4 / (1 + abs(m)))


def gate_bound(true):
    return 1e-15 * math.sqrt(true) + 1e-13 * true + 1e-29


def assert_within_gate(cases):
    """cases: (label, computed, true); every one inside GATE, or the list of those outside."""
    outside = [(label, c, t) for label, c, t in cases if not abs(c - t) <= gate_bound(t)]
    assert not outside, outside


@pytest.fixture(scope="module")
def points():
    """50 seeded points (gate, p, reference, oracle pulse).  The gates without fields take
    turns (psw has its own case below); b/J is log-uniform on [1e-3, 1e2] and theta
    uniform on [-7, 7].  The reference misestimates omega and theta by ratios of random
    sign and magnitude log-uniform on [1e-8, 1e-1]."""
    rng = np.random.default_rng(20081)
    plain = [gate for gate in sorted(GATES) if not GATES[gate].fields]
    out = []
    for i in range(50):
        gate = plain[i % len(plain)]
        p = ExchangeParams(1.0, "xy", 10 ** rng.uniform(-3, 2), theta=rng.uniform(-7, 7))
        r_w, r_th = (rng.choice((-1, 1)) * 10 ** rng.uniform(-8, -1) for _ in range(2))
        if p.omega * (1 + r_w) >= math.pi / 2:
            r_w = -r_w
        reference = ExchangeParams(1.0, "xy", math.tan(p.omega * (1 + r_w)),
                                   theta=p.theta * (1 + r_th))
        pulse = MP.expm(-1j * MP.mpf(GATES[gate].area) * hamiltonian(*angles(p)))
        out.append((gate, p, reference, pulse))
    return out


def test_gate_report_distance_meets_the_gate(points):
    assert_within_gate(
        (f"{gate} {p}", gate_report(gate, p).phase_distance_to_target,
         true_distance(true_gate(gate, pulse, rotation(*angles(p))), GATES[gate].target))
        for gate, p, _, pulse in points)


def test_realized_distance_meets_the_gate(points):
    cases = []
    for gate, p, reference, pulse in points:
        target = GATES[gate].target
        for frame, oracle_frame in ((rotation_matrix(reference), rotation(*angles(reference))),
                                    (None, None)):
            computed = phase_distance(realize(gate, p, frame), target)
            true = true_distance(true_gate(gate, pulse, oracle_frame), target)
            cases.append((f"{gate} {p} frame {reference if frame is not None else None}",
                          computed, true))
    assert min(t for _, _, t in cases) < 1e-15  # the small misestimations are sampled
    assert_within_gate(cases)


def test_bare_swap_distance_is_the_squared_sine_of_half_omega(points):
    """The bare swap is (W x W^dag) SWAP with W a rotation by omega, so its distance
    to SWAP is 1 - cos^2(omega/2) = sin^2(omega/2)."""
    assert_within_gate(
        (str(p), phase_distance(realize("swap", p), SWAP), float(MP.sin(angles(p)[0] / 2) ** 2))
        for _, p, _, _ in points)


def test_one_minus_the_trace_fails_the_gate_at_a_small_misestimation():
    """At tan omega0 = 0.1, theta0 = 1 and r_w = 1e-6 the corrected swap's distance is
    2.4835e-15.  1 - |tr(u^dag SWAP)| / 4 of the realized matrix gives 2.109e-15, which
    GATE refuses; phase_distance of the same matrix passes.  So the gate can fail."""
    reference = ExchangeParams(1.0, "xy", 0.1, theta=1.0)
    p = ExchangeParams(1.0, "xy", math.tan(reference.omega * (1 + 1e-6)), theta=1.0)
    u = realize("swap", p, rotation_matrix(reference))
    pulse = MP.expm(-1j * MP.mpf(GATES["swap"].area) * hamiltonian(*angles(p)))
    true = true_distance(true_gate("swap", pulse, rotation(*angles(reference))), SWAP)
    assert true == pytest.approx(2.4835e-15, rel=1e-4)
    one_minus_trace = 1.0 - float(abs(np.trace(u.conj().T @ SWAP))) / 4.0
    assert abs(one_minus_trace - true) > 1e6 * gate_bound(true)
    assert_within_gate([("phase_distance", phase_distance(u, SWAP), true)])


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
def test_phase_shifted_swap_distance_meets_the_gate(points, b):
    """psw at J = 1 and B/J = b: the oracle's pulse is H/J plus the compensating fields,
    in T, and its target is SWAP.(D x D) with D = Rz(-pi b); the true distance is below
    4e-32 here.  The computed distance is rounding noise that grows with B/J, so GATE's
    1e-29 floor holds it only up to a B/J of a few.  Its largest value over these 50
    points is 6.6e-31 at B/J = 0.5 and 1 and 2.6e-30 at 2, then 7.6e-30 at 3, and past
    the floor at 10 (5.3e-29) and 100 (5.9e-27); over 1,000 seeded points, 3.9e-30 at 2
    and 8.1e-30 at 3.  So the floor depends on B, which a printed numerical floor must
    take into account; GATE is not widened for it."""
    cases = []
    for _, p, _, _ in points:
        omega, theta = angles(p)
        h = hamiltonian(omega, theta) + zeeman(omega, theta, MP.mpf(b))
        pulse = MP.expm(-1j * MP.mpf(GATES["swap"].area) * h)
        d = rz(-MP.pi * b)
        true = true_distance(true_gate("swap", pulse, rotation(omega, theta)),
                             MP.matrix(SWAP.tolist()) * kron(d, d))
        computed = gate_report("psw", p, B=b).phase_distance_to_target
        cases.append((f"psw B/J={b} {p}", computed, true))
    assert_within_gate(cases)
