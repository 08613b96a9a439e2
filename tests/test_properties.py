"""Property tests over the parameter domain the API accepts.

Draws J in [1e-2, 1e2] (log-uniform from the smallest normal float to 1e308 where
named CLI_J), b/J = tan(w) with w over [0, atan(1e3)) (1e6 or 1e16 where named),
theta in [0, 2 pi) (in [-1e8, 1e8] where named WIDE_THETA) and both orientations, and
JSON documents of the shapes the CLI writes.  derandomize keeps each run on the
same examples.
"""

import json
import math
import random
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinframe.frame import (
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    _local_rotation,
    assemble,
    eigenstates,
    rotation_matrix,
    rotation_plan,
    ry,
    rz,
    verify_fields,
    verify_isotropization,
)
from spinframe.analysis import concurrence, gate_error_sweep, thermal_state
from spinframe.cli import _json, _Table
from spinframe.gates import GATES, SWAP, gate_report, realize
from spinframe.linalg import (UNITARY_TOL, expm_unitary, herm_eig, phase_distance,
                              require_unitary)
from spinframe.model import (
    PAIR,
    S1,
    S2,
    ExchangeParams,
    FieldSpec,
    _xy_hamiltonians,
    build_hamiltonian,
    build_isotropic,
    build_zeeman,
    spin_operators,
)
from sweep_oracle import fidelity, point_gate, point_hamiltonian, point_target
from table_oracle import CORNER_AXES, expanded_rows, grid_tables


THETA = st.floats(0.0, 2 * math.pi, exclude_max=True)
WIDE_THETA = st.floats(-1e8, 1e8)
# Every J the CLI accepts, log-uniform: 10^e rounds just below the smallest normal float
# at the low end, so it is clamped there.
CLI_J = st.floats(math.log10(sys.float_info.min), 308.0).map(
    lambda e: max(10.0 ** e, sys.float_info.min))


@st.composite
def exchange_params(draw, max_b_over_J=1e3, thetas=THETA, Js=st.floats(1e-2, 1e2)):
    J = draw(Js)
    # Drawn as w, not as b/J, which hypothesis would put at the ends of its range:
    # w spreads over [0, pi/2) up to atan(max_b_over_J).
    b_over_J = math.tan(draw(st.floats(0.0, math.atan(max_b_over_J), exclude_max=True)))
    if draw(st.sampled_from(["xy", "z"])) == "z":
        return ExchangeParams(J, "z", b_over_J)
    return ExchangeParams(J, "xy", b_over_J, theta=draw(thetas))


PROPERTY = settings(derandomize=True, deadline=None)


def assert_table_gates_hit_their_targets(p):
    """Each GATES row in the frame within the CLI's default tolerance of its target, at the
    field B = J/2, where psw's target is SWAP.(D x D) with D = Rz(-pi/2)."""
    frame = rotation_matrix(p)
    for name, spec in GATES.items():
        target = point_target(name, 0.5)
        assert phase_distance(realize(name, p, frame, B=0.5 * p.J), target) <= 1e-12, name


@PROPERTY
@given(exchange_params())
def test_every_table_gate_in_the_frame_hits_its_target(p):
    assert_table_gates_hit_their_targets(p)


@PROPERTY
@given(exchange_params(max_b_over_J=1e16, thetas=WIDE_THETA, Js=CLI_J))
def test_every_table_gate_hits_its_target_at_the_cli_extremes(p):
    assert_table_gates_hit_their_targets(p)


@PROPERTY
@given(exchange_params())
def test_bare_swap_distance_is_sin_squared_half_omega(p):
    distance = phase_distance(realize("swap", p), SWAP)
    assert abs(distance - math.sin(p.omega / 2) ** 2) <= 1e-12


@PROPERTY
@given(exchange_params())
def test_isotropization_residual_is_in_units_of_J(p):
    assert verify_isotropization(p) <= 1e-12


def hamiltonian_oracle(p):
    """H term by term: J cos(w) S1.S2 + 2 J sin^2(w/2) (n.S1)(n.S2) + J sin(w) n.(S1 x S2)."""
    s1x, s1y, s1z, s2x, s2y, s2z = spin_operators()
    n = p.axis()
    w = p.omega
    n_s1 = n[0] * s1x + n[1] * s1y + n[2] * s1z
    n_s2 = n[0] * s2x + n[1] * s2y + n[2] * s2z
    cross = (
        n[0] * (s1y @ s2z - s1z @ s2y)
        + n[1] * (s1z @ s2x - s1x @ s2z)
        + n[2] * (s1x @ s2y - s1y @ s2x)
    )
    heisenberg = s1x @ s2x + s1y @ s2y + s1z @ s2z
    return (
        p.J * math.cos(w) * heisenberg
        + 2.0 * p.J * math.sin(w / 2) ** 2 * (n_s1 @ n_s2)
        + p.J * math.sin(w) * cross
    )


def zeeman_oracle(f):
    """B1.S1 + B2.S2 term by term."""
    s1x, s1y, s1z, s2x, s2y, s2z = spin_operators()
    b1, b2 = f.b1, f.b2
    return (
        b1[0] * s1x + b1[1] * s1y + b1[2] * s1z
        + b2[0] * s2x + b2[1] * s2y + b2[2] * s2z
    )


@PROPERTY
@given(exchange_params(max_b_over_J=1e6))
def test_hamiltonian_is_the_term_by_term_sum(p):
    assert np.abs(build_hamiltonian(p) - hamiltonian_oracle(p)).max() <= 1e-15 * p.J


@PROPERTY
@given(st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6))
def test_zeeman_is_the_term_by_term_sum(b):
    f = FieldSpec(b1=b[:3], b2=b[3:])
    assert np.abs(build_zeeman(f) - zeeman_oracle(f)).max() <= 1e-15 * max(abs(x) for x in b)


@PROPERTY
@given(exchange_params())
def test_rotation_is_unitary(p):
    t = rotation_matrix(p)
    assert np.abs(t.conj().T @ t - np.eye(4)).max() <= 1e-14


@PROPERTY
@given(exchange_params(), st.floats(-100.0, 100.0))
def test_compensating_fields_map_onto_a_uniform_z_field(p, B):
    assert verify_fields(p, B) <= 1e-14


@st.composite
def unitaries(draw):
    """A Haar-random 4x4 unitary from a drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def check_phase_distance(u, v):
    """phase_distance(u, v) >= 0 and equal to 1 - fidelity(u, v).

    The two agree to rounding when u^dag v is unitary to rounding; a unitarity
    defect delta = |u^dag v|_F^2 / 4 - 1 shifts 1 - fidelity by up to |delta|.
    """
    a = u.conj().T @ v
    defect = abs(np.vdot(a, a).real / 4 - 1)
    d = phase_distance(u, v)
    assert d >= 0
    assert abs(d - (1 - fidelity(u, v))) <= 1e-15 + defect


ANGLES = st.floats(0.0, 2 * math.pi)


@PROPERTY
@given(unitaries(), unitaries(), ANGLES)
def test_phase_distance_of_random_unitaries(u, w, phase):
    check_phase_distance(u, w)
    check_phase_distance(u, np.exp(1j * phase) * u)
    assert phase_distance(u, np.exp(1j * phase) * u) <= 1e-24


@PROPERTY
@given(exchange_params(), st.floats(-10.0, 10.0), ANGLES)
def test_phase_distance_of_phase_shifted_swaps(p, B, phase):
    u = gate_report("psw", p, B=B).matrix
    check_phase_distance(u, SWAP)
    check_phase_distance(u, np.exp(1j * phase) * u)
    assert phase_distance(u, np.exp(1j * phase) * u) <= 1e-24


PSW_B_OVER_J = math.nextafter(2**19 / math.pi, 0.0)  # the largest |B/J| psw builds


@PROPERTY
@given(exchange_params(thetas=WIDE_THETA), st.floats(-PSW_B_OVER_J, PSW_B_OVER_J))
def test_phase_shifted_swap_is_its_closed_form(p, b):
    """psw is SWAP.(D x D), D = diag(e^{-i b pi/2}, e^{+i b pi/2}) at b = B/J, and the
    distance it reports is to that form."""
    assume(b * p.J / p.J == b)  # B/J as the gate computes it is the drawn b
    report = gate_report("psw", p, B=b * p.J)
    d = np.diag([np.exp(-0.5j * math.pi * b), np.exp(0.5j * math.pi * b)])
    assert phase_distance(report.matrix, SWAP @ np.kron(d, d)) <= 1e-16
    assert report.phase_distance_to_target <= 1e-16


@PROPERTY
@given(exchange_params(thetas=WIDE_THETA), st.floats(-100.0, 100.0))
def test_residuals_keep_their_digits_at_any_theta(p, B):
    assert verify_isotropization(p) <= 1e-14
    assert verify_fields(p, B) <= 1e-14


@PROPERTY
@given(exchange_params(thetas=WIDE_THETA))
def test_zyz_plan_assembles_to_the_closed_form_entry_by_entry(p):
    """Equal as matrices, global phase included, not merely up to phase."""
    assert np.abs(assemble(rotation_plan(p)) - rotation_matrix(p)).max() <= 1e-14


@PROPERTY
@given(exchange_params(thetas=WIDE_THETA))
def test_each_qubit_of_the_plan_is_the_one_factor_at_minus_and_plus_omega(p):
    """T = U(-omega) (x) U(omega): the plan's ZYZ triples, assembled one qubit at a
    time, are _local_rotation at -omega and +omega, though qubit 1's triple is not
    U's own triple at -omega.  So the symmetry is checked, not assumed."""
    plan = rotation_plan(p)
    for (a, g, b), omega in ((plan.qubit1, -p.omega), (plan.qubit2, p.omega)):
        assert np.abs(rz(a) @ ry(g) @ rz(b) - _local_rotation(p, omega)).max() <= 1e-15


@PROPERTY
@given(exchange_params(thetas=WIDE_THETA))
def test_closed_form_eigenstates_are_orthonormal_eigenvectors(p):
    h = build_hamiltonian(p)
    phis = eigenstates(p)
    for phi, energy in zip(phis, (0.25, 0.25, 0.25, -0.75)):
        assert np.abs(h @ phi - energy * p.J * phi).max() <= 1e-14 * p.J
    gram = np.array([[np.vdot(a, b) for b in phis] for a in phis])
    assert np.abs(gram - np.eye(4)).max() <= 1e-14


@PROPERTY
@given(exchange_params(thetas=WIDE_THETA))
def test_theta_is_kept_as_given_and_reduced_only_for_trigonometry(p):
    if p.theta is None:
        assert p.reduced_theta is None
        return
    assert abs(p.reduced_theta) < 4 * math.pi
    if abs(p.theta) < 4 * math.pi:
        assert p.reduced_theta == p.theta
    assert abs(math.sin(p.reduced_theta) - math.sin(p.theta)) <= 1e-16 * max(1.0, abs(p.theta))


@st.composite
def sweep_cases(draw):
    """A reference point (tan omega0 in [1e-3, 2], theta0 in [0, 2 pi)), signed ratio
    lists with duplicates, omega ratios inside the quarter-turn bound, a gate, a mode and
    a field B in [-3, 3] (which only psw reads)."""
    tan0 = draw(st.floats(1e-3, 2.0))
    reference = ExchangeParams(1.0, "xy", tan0, theta=draw(THETA))
    top = min(1.0, 0.999 * (math.pi / (2 * reference.omega) - 1.0))
    ratios = []
    for bound in (top, 1.0):
        drawn = draw(st.lists(st.floats(-1.0, bound), min_size=1, max_size=3))
        ratios.append(drawn + draw(st.lists(st.sampled_from(drawn), max_size=2)))
    gate = draw(st.sampled_from(sorted(GATES)))
    mode = draw(st.sampled_from(["both", "uncorrected", "corrected"]))
    return reference, *ratios, gate, mode, draw(st.floats(-3.0, 3.0))


def reference_above_one():
    """A reference point drawn by random.Random(0) as sweep_cases draws one, whose
    corrected zero-misestimation swap row rounds to a fidelity above 1."""
    rng = random.Random(0)
    return ExchangeParams(1.0, "xy", rng.uniform(1e-3, 2.0), theta=rng.uniform(0.0, 2 * math.pi))


ABOVE_ONE = (reference_above_one(), [0.05, 0.0], [0.0, -0.0], "swap", "both", 0.0)
# omega0 (1 + 0.1) at tan omega0 = 0.23 is a point where atan(tan omega) is an ulp below
# omega: its rows are evaluated at omega itself.
ROUND_TRIP_MOVES = (ExchangeParams(1.0, "xy", 0.23, theta=0.3), [0.0, 0.1], [0.0], "swap", "both",
                    0.0)


def test_the_above_one_example_has_a_fidelity_above_one():
    fidelities = [row.fidelity for row in gate_error_sweep(*ABOVE_ONE).rows()
                  if row.corrected and row.delta_omega_ratio == 0.0]
    assert len(fidelities) == 2 and min(fidelities) > 1.0


@PROPERTY
@given(sweep_cases())
@example(ABOVE_ONE)
@example(ROUND_TRIP_MOVES)
def test_sweep_rows_are_the_per_point_oracle(case):
    """Every row of every gate, psw with its fields set at the reference, is its point's
    gate and fidelity, bit for bit."""
    reference, dws, dths, gate, mode, B = case
    rows = gate_error_sweep(reference, dws, dths, gate, mode, B).rows()
    expected = []
    for corrected in {"both": (False, True), "uncorrected": (False,), "corrected": (True,)}[mode]:
        frame = rotation_matrix(reference) if corrected else None
        for r_th in sorted(dths):
            for r_w in sorted(dws):
                u = point_gate(gate, reference.omega * (1.0 + r_w),
                               reference.theta * (1.0 + r_th), frame, B, reference)
                f = fidelity(u, point_target(gate, B))
                expected.append((r_w, r_th, corrected, f, max(0.0, 1.0 - f)))
    assert [row[:5] for row in rows] == expected
    for row in rows:
        assert row.log10_error == (math.log10(row.error) if row.error > 0 else -math.inf)
        if row.fidelity >= 1.0:
            assert (row.error, row.log10_error) == (0.0, -math.inf)
    if not GATES[gate].fields or B * 2.5 / 2.5 == B:  # rows depend on J only through B/J
        scaled = gate_error_sweep(replace(reference, J=2.5), dws, dths, gate, mode, B * 2.5)
        assert scaled.rows() == rows
    with pytest.raises(ValueError, match="sweep requires orientation xy"):
        gate_error_sweep(ExchangeParams(1.0, "z", reference.b_over_J), dws, dths, gate, mode, B)


@PROPERTY
@given(sweep_cases(), st.data())
def test_permuting_either_ratio_list_gives_the_same_rows(case, data):
    reference, dws, dths, gate, mode, B = case
    rows = gate_error_sweep(reference, dws, dths, gate, mode, B).rows()
    for permuted in ((data.draw(st.permutations(dws)), dths),
                     (dws, data.draw(st.permutations(dths)))):
        assert gate_error_sweep(reference, *permuted, gate, mode, B).rows() == rows


@PROPERTY
@given(sweep_cases())
def test_corrected_psw_rows_at_zero_field_are_the_swap_rows(case):
    """At B = 0 the fields vanish, so psw is swap: its corrected rows agree to 1e-15."""
    reference, dws, dths = case[:3]
    psw, swap = (gate_error_sweep(reference, dws, dths, gate, "corrected", 0.0).rows()
                 for gate in ("psw", "swap"))
    assert [row[:3] for row in psw] == [row[:3] for row in swap]
    for a, b in zip(psw, swap):
        assert abs(a.fidelity - b.fidelity) <= 1e-15 and abs(a.error - b.error) <= 1e-15


def corrected_errors(reference, r_w, r_th, B):
    """The corrected psw and swap errors at omega0 (1 + r_w), theta0 (1 + r_th), each the
    per-point phase_distance (not the sweep's 1 - fidelity), with psw's fields for B set
    at the reference (J = 1)."""
    frame, point = rotation_matrix(reference), (reference.omega * (1.0 + r_w),
                                                reference.theta * (1.0 + r_th))
    return tuple(phase_distance(point_gate(gate, *point, frame, B, reference),
                                point_target(gate, B)) for gate in ("psw", "swap"))


def g(nu):
    """4 sin^2(nu pi/2) / nu^2, the weight of a misestimation term at frequency nu (in
    units of J) over the swap pulse; pi^2 at nu = 0."""
    return math.pi ** 2 if nu == 0 else 4.0 * math.sin(nu * math.pi / 2) ** 2 / nu ** 2


@PROPERTY
@given(st.floats(0.05, 1.4), THETA, st.floats(0.1, 2.5), st.floats(-6.0, -4.0),
       st.floats(0.0, 2 * math.pi))
def test_the_psw_error_is_the_swap_error_times_f_of_B(omega0, theta0, b, exponent, direction):
    """To second order in the misestimation, the corrected psw error is the corrected swap
    error times f(b) = [g(1 + b) + g(1 - b)] / (2 g(1)), b = B/J, whatever the reference and
    whichever of omega and theta is misestimated: to 1e-5 relative at |r| <= 1e-4."""
    reference = ExchangeParams(1.0, "xy", math.tan(omega0), theta=theta0)
    r = 10.0 ** exponent
    psw, swap = corrected_errors(reference, r * math.cos(direction), r * math.sin(direction), b)
    f = (g(1.0 + b) + g(1.0 - b)) / (2.0 * g(1.0))
    assert psw / swap == pytest.approx(f, rel=1e-5)


@pytest.mark.parametrize("tan0, theta0", [(0.37, 0.0), (0.1, 5 * math.pi / 6), (1.0, -2.1)])
def test_at_B_equal_3J_the_psw_error_is_fourth_order(tan0, theta0):
    """f(3) = 0: at B/J = 3 psw's error is fourth order in the misestimation, so error / r^4
    stays bounded as r -> 0, where the swap's second-order error / r^4 grows as r^-2."""
    reference = ExchangeParams(1.0, "xy", tan0, theta=theta0)
    quartic, swap = [], []
    for r in (1e-2, 1e-3, 1e-4):
        psw_error, swap_error = corrected_errors(reference, r, r, 3.0)
        quartic.append(psw_error / r ** 4)
        swap.append(swap_error / r ** 4)
    assert max(quartic) <= 1.05 * min(quartic)
    assert swap[-1] >= 1e3 * swap[0]


@st.composite
def realized_stacks(draw):
    """A stack of 1-6 realized gates, bare or in their frame, with 0-3 members
    perturbed: scaled by 1 +- eps, eps from UNITARY_TOL / 10 to 10 UNITARY_TOL (the
    check's boundary is near eps = UNITARY_TOL / 2), or given one NaN entry."""
    members = []
    for p in draw(st.lists(exchange_params(), min_size=1, max_size=6)):
        frame = rotation_matrix(p) if draw(st.booleans()) else None
        members.append(realize(draw(st.sampled_from(sorted(GATES))), p, frame, B=p.J))
    stack = np.stack(members)
    for k in draw(st.lists(st.integers(0, len(stack) - 1), max_size=3, unique=True)):
        if draw(st.booleans()):
            stack[k, draw(st.integers(0, 3)), draw(st.integers(0, 3))] = np.nan
        else:
            eps = draw(st.floats(0.1, 10.0)) * UNITARY_TOL
            stack[k] *= 1.0 + draw(st.sampled_from([-eps, eps]))
    return stack


def is_unitary(u):
    """Whether require_unitary passes u; a refusal must be its one message."""
    try:
        require_unitary(u, "u")
    except ValueError as e:
        assert str(e) == "u is not unitary"
        return False
    return True


@PROPERTY
@given(realized_stacks())
def test_a_stack_is_unitary_exactly_when_every_member_is(stack):
    every = all(is_unitary(u) for u in stack)
    assert is_unitary(stack) == every
    # Any number of leading dimensions.
    assert is_unitary(stack.reshape(1, len(stack), 1, 4, 4)) == every
    if every:
        assert np.array_equal(require_unitary(stack), stack)


@PROPERTY
@given(st.lists(st.integers(0, 3), max_size=3), st.sampled_from(["u", "target SWAP", "matrix"]))
def test_an_empty_stack_is_unitary_and_a_stack_of_3x3_is_refused(leading, name):
    empty = np.zeros((*leading, 0, 4, 4))
    assert require_unitary(empty, name).shape == empty.shape
    shape = (*leading, 3, 3)
    message = f"{name} must have shape (..., 4, 4), got {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        require_unitary(np.zeros(shape), name)


def assert_same_bits(a, b):
    """Equal entries, and equal signs of the zeros among them."""
    assert np.array_equal(a, b)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(a)), np.signbit(part(b)))


def test_stacked_exponential_is_the_per_matrix_one_bit_for_bit():
    """herm_eig and expm_unitary on a stack give each matrix's own call's bits: 150
    random Hermitian matrices, some with entries set to +-0, and 50 Hamiltonians."""
    rng = np.random.default_rng(15)
    a = rng.normal(size=(150, 4, 4)) + 1j * rng.normal(size=(150, 4, 4))
    zeros = rng.choice([0.0, -0.0], size=(*a.shape, 2)).view(complex)[..., 0]
    a = np.where(rng.random(a.shape) < 0.3, zeros, a)
    random = a + a.conj().swapaxes(-1, -2)
    hamiltonians = [build_hamiltonian(ExchangeParams(1.0, "xy", b, theta=t))
                    for b, t in zip(rng.uniform(0.0, 2.0, 50), rng.uniform(0.0, 7.0, 50))]
    stack = np.concatenate((random, hamiltonians))
    w, v = herm_eig(stack)
    u = expm_unitary(stack, 1.3)
    for i, h in enumerate(stack):
        for got, want in zip((w[i], v[i], u[i]), (*herm_eig(h), expm_unitary(h, 1.3))):
            assert_same_bits(got, want)
    # Any number of leading dimensions.
    assert_same_bits(expm_unitary(stack.reshape(8, 25, 4, 4), 1.3), u.reshape(8, 25, 4, 4))



BELL_STATES = [np.outer(s, s.conj()) for s in (PSI_PLUS, PSI_MINUS, PHI_PLUS, PHI_MINUS)]


@PROPERTY
@given(st.lists(exchange_params(thetas=WIDE_THETA), min_size=1, max_size=3),
       st.lists(st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, 50.0, 1e3])),
                min_size=1, max_size=5))
def test_stacked_thermal_states_and_concurrences_are_the_per_matrix_ones(params, betas):
    """thermal_state over an array of betas gives each beta's own state, and concurrence
    of a stack each member's own float, bit for bit: Gibbs states of xy and z
    Hamiltonians from infinite temperature to near-pure ground states, and the Bell states."""
    states = []
    for p in params:
        h = build_hamiltonian(p)
        stacked = thermal_state(h, np.array(betas))
        for beta, state in zip(betas, stacked):
            assert_same_bits(state, thermal_state(h, beta))
        states += list(stacked)
    states = np.stack(states + BELL_STATES)
    got = concurrence(states)
    assert got.shape == (len(states),)
    want = [concurrence(rho) for rho in states]
    assert all(type(c) is float for c in want)
    assert got.tobytes() == np.array(want).tobytes()
    # Any number of leading dimensions.
    assert concurrence(states.reshape(1, -1, 4, 4)).tobytes() == got.tobytes()

def tensordot_hamiltonian(p):
    """H as np.tensordot of the coupling tensor K with PAIR."""
    n, w = p.axis(), p.omega
    x, y, z = n
    cross = np.array([[0.0, z, -y], [-z, 0.0, x], [y, -x, 0.0]])
    k = math.cos(w) * np.eye(3) + 2.0 * math.sin(w / 2) ** 2 * np.outer(n, n) + math.sin(w) * cross
    return np.tensordot(p.J * k, PAIR, axes=2)


# The kernel's corners: w = 0 and w = pi/4 on the axes where n has zeros of either sign,
# and at the README's theta, where every entry of n n^T is rounded.
KERNEL_CORNERS = [ExchangeParams(1.0, "z", b_over_J) for b_over_J in (0.0, 1.0)] + [
    ExchangeParams(1.0, "xy", b_over_J, theta=theta) for b_over_J in (0.0, 1.0)
    for theta in (0.0, -0.0, math.pi / 2, -math.pi / 2, 4 * math.pi, 5 * math.pi / 6)]


def with_kernel_corners(test):
    for p in KERNEL_CORNERS:
        test = example(p, [0.0, -0.0, 1.0, -0.0, 0.0, -1.0])(test)
    return test


@PROPERTY
@given(exchange_params(max_b_over_J=1e16, thetas=WIDE_THETA, Js=CLI_J),
       st.lists(st.floats(-100.0, 100.0), min_size=6, max_size=6))
@with_kernel_corners
def test_operator_builds_are_bit_for_bit_their_tensordot_forms(p, b):
    f = FieldSpec(tuple(b[:3]), tuple(b[3:]))
    assert_same_bits(build_hamiltonian(p), tensordot_hamiltonian(p))
    assert_same_bits(build_isotropic(p.J), np.tensordot(p.J * np.eye(3), PAIR, axes=2))
    assert_same_bits(build_zeeman(f),
                     np.tensordot(f.b1, S1, axes=1) + np.tensordot(f.b2, S2, axes=1))


# The sweep's corners, as its two axes: b/J 0, 5e-324, a w that atan(tan(w)) moves down
# by an ulp, and b/J 1e16 (whose atan rounds to the float pi/2, just past the sweep's
# range, so the largest w below it as well) and each kernel-corner theta.
SWEEP_CORNERS = ([0.0, 5e-324, 0.4690491288269313, math.atan(1e16),
                  math.nextafter(math.pi / 2, 0)],
                 [0.0, -0.0, math.pi / 2, -math.pi / 2, 4 * math.pi, 5 * math.pi / 6])


def map_grid(seed):
    """The omega and theta axes of a 21 x 21 map sweep, ratios -0.1:0.1:21 on both, around
    a reference point drawn as the benchmark's map workload draws one: tan(omega0)
    log-uniform in [1e-3, 0.3], theta0 uniform in [0, 2 pi)."""
    rng = random.Random(seed)
    p = ExchangeParams(1.0, "xy", 10 ** rng.uniform(-3.0, math.log10(0.3)),
                       theta=rng.uniform(0.0, 2 * math.pi))
    ratios = np.linspace(-0.1, 0.1, 21).tolist()
    return [p.omega * (1.0 + r) for r in ratios], [p.theta * (1.0 + r) for r in ratios]


def axis(values):
    """An axis of 1-8 values: 1-6 draws from values, then up to 2 repeats of them."""
    return st.lists(values, min_size=1, max_size=6).flatmap(
        lambda drawn: st.lists(st.sampled_from(drawn), max_size=2).map(lambda extra: drawn + extra))


@PROPERTY
@given(axis(st.floats(0.0, math.pi / 2, exclude_max=True)),
       axis(st.one_of(WIDE_THETA, st.sampled_from([0.0, -0.0, 4 * math.pi, -4 * math.pi,
                                                   40.3, -1e8]))))
@example(*SWEEP_CORNERS)
@example(SWEEP_CORNERS[0][-1:], SWEEP_CORNERS[1][-1:])
@example(*map_grid(7))
@example(SWEEP_CORNERS[0][:2], SWEEP_CORNERS[1][:3])
def test_stacked_xy_hamiltonians_are_each_points_own_bit_for_bit(omegas, thetas):
    """The sweep's (theta, omega) array of H at J = 1 over an omega axis and a theta axis
    holds at [i, j] the own H of the point (omegas[j], thetas[i]), bit for bit: a one-point
    grid too, a map sweep's 441 points, and axes of different lengths, so a transposed
    layout fails."""
    grid = _xy_hamiltonians(omegas, thetas)
    assert grid.shape == (len(thetas), len(omegas), 4, 4)
    for i, theta in enumerate(thetas):
        for j, w in enumerate(omegas):
            assert_same_bits(grid[i, j], point_hamiltonian(w, theta))


@PROPERTY
@given(exchange_params(max_b_over_J=1e16, thetas=WIDE_THETA, Js=st.just(1.0)),
       st.sampled_from(sorted(GATES)), st.sampled_from(["none", "own", "other"]),
       st.floats(-100.0, 100.0))
def test_the_per_point_oracle_is_realize_bit_for_bit(p, gate, framed, B):
    """At J = 1 and orientation xy, the sweep's per-point oracle at (p.omega, p.theta), with
    a field row's fields set at p, is realize(gate, p, frame, B=B), bare, in p's own frame
    or in another point's; its target is gate_report's."""
    assume(p.orientation == "xy")
    frame = {"none": None, "own": rotation_matrix(p),
             "other": rotation_matrix(ExchangeParams(1.0, "xy", 0.37, theta=-2.1))}[framed]
    assert_same_bits(point_gate(gate, p.omega, p.theta, frame, B, p), realize(gate, p, frame, B=B))
    u = gate_report(gate, p, B=B).matrix
    assert gate_report(gate, p, B=B).phase_distance_to_target == phase_distance(
        u, point_target(gate, B))


@pytest.mark.parametrize("gate", ["swap", "sqrt_swap"])
def test_a_swap_family_error_is_the_relative_rotations_closed_form(gate):
    """The key identity, over 500 seeded (p, p0) pairs: omega0 in [0, 1.3], theta0 in
    [-7, 7], and omega and theta each misestimated by up to 20%.  With V1 = U(p, -w) U(p0,
    -w0)^dag and V2 = U(p, w) U(p0, w0)^dag (U = _local_rotation) and W = V1^dag V2, the
    pulse of area a in the frame T(p0) misses its target by sin^2(a/2) |W - (tr W/2) I|_F^2
    / 2, to 1e-10 relative."""
    rng = np.random.default_rng(32)
    area, target = GATES[gate].area, GATES[gate].target
    for _ in range(500):
        p0 = ExchangeParams(1.0, "xy", math.tan(rng.uniform(0.0, 1.3)), theta=rng.uniform(-7, 7))
        r_w, r_th = rng.uniform(-0.2, 0.2, 2)
        p = replace(p0, b_over_J=math.tan(p0.omega * (1 + r_w)), theta=p0.theta * (1 + r_th))
        v1 = _local_rotation(p, -p.omega) @ _local_rotation(p0, -p0.omega).conj().T
        v2 = _local_rotation(p, p.omega) @ _local_rotation(p0, p0.omega).conj().T
        w = v1.conj().T @ v2
        closed = math.sin(area / 2) ** 2 * np.linalg.norm(w - np.trace(w) / 2 * np.eye(2)) ** 2 / 2
        error = phase_distance(realize(gate, p, rotation_matrix(p0)), target)
        assert abs(error - closed) <= 1e-10 * closed, (p0, p)


def json_default_oracle(o):
    """An independent json.dumps hook: a matrix as [re, im] pairs, a table as a list of
    row objects, each row expanded from its grid point, with a non-finite number as null."""
    if isinstance(o, _Table):
        return [{c: v if isinstance(v, bool) or math.isfinite(v) else None
                 for c, v in zip(o.columns, row)} for row in expanded_rows(o)]
    if isinstance(o, np.ndarray):
        return [[[float(z.real), float(z.imag)] for z in row] for row in o]
    raise TypeError(f"{type(o).__name__} is not JSON serializable")


def json_oracle(doc):
    return json.dumps(doc, allow_nan=False, default=json_default_oracle)


FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308]))
TEXT = st.one_of(st.text(), st.sampled_from(['"quoted"', "back\\slash", "tab\tnew\nline\x00\x1f",
                                             "\u00e9t\u00e9 \u03c9 \U0001f600", "\ud800"]))
MATRICES = hnp.arrays(complex, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=4),
                      elements=st.complex_numbers(allow_nan=False, allow_infinity=False))

JSON_TABLES = grid_tables(lambda k: st.lists(TEXT, unique=True, min_size=k, max_size=k).map(tuple))
DOCUMENTS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), FINITE, FINITE.map(np.float64), TEXT,
              MATRICES),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=12,
)
# A table is the value of the top-level document's "rows", the one place a report puts one.
PAIRS = st.dictionaries(TEXT.filter(lambda key: key != "rows"), DOCUMENTS, max_size=3)
REPORTS = st.one_of(DOCUMENTS, st.builds(
    lambda before, table, after: {**before, "rows": table, **after}, PAIRS, JSON_TABLES, PAIRS))
CORNER_TABLE = _Table(("w", "th", "corrected", "f", "100%"), CORNER_AXES,
                      ([np.float64(k / 3) for k in range(32)],
                       [[1.5, math.nan, math.inf, -math.inf][k % 4] for k in range(32)]))


@PROPERTY
@given(REPORTS)
@example({"parameters": "x", "rows": CORNER_TABLE, "residual": 1e-17})
@example({"rows": CORNER_TABLE})
# Nested "rows" keys and a string holding '"rows": 0' before the table: a writer that splices
# the table in at text matching "rows" instead of at the top-level key fails here.
@example({"before": {"rows": 0, "inner": {"rows": None}}, "note": '"rows": 0', "rows": CORNER_TABLE,
          "after": []})
def test_json_writer_is_compact_json_dumps(doc):
    assert _json(doc) == json_oracle(doc)


@PROPERTY
@given(JSON_TABLES, st.integers(0, 5))
def test_json_writer_refuses_a_table_below_the_top_level(table, where):
    """A table is written only as the value of a top-level dict's "rows"; anywhere else it
    is a TypeError, as any other object json cannot write."""
    doc = [table, [table], {"rows": {"inner": table}}, {"rows": table, "list": [table]},
           {"table": table}, {"rows": 1.0, "table": table}][where]
    with pytest.raises(TypeError, match="^_Table is not JSON serializable$"):
        _json(doc)


@PROPERTY
@given(st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 3))
def test_json_writer_refuses_a_non_finite_number_as_json_does(x, where):
    doc = [{"value": x}, [1.0, x], np.array([[1.0, complex(2.0, x)]]), x][where]
    with pytest.raises(ValueError) as expected:
        json_oracle({"before": 1.0, "doc": doc})
    with pytest.raises(ValueError) as got:
        _json({"before": 1.0, "doc": doc})
    assert str(got.value) == str(expected.value)
