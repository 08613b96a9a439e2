"""Property tests over the parameter domain the API accepts.

Draws J in [1e-2, 1e2] (log-uniform from the smallest normal float to 1e308 where
named CLI_J), b/J in {0} u [1e-6, 1e3] (1e6 or 1e16 where named), theta in
[0, 2 pi) (in [-1e8, 1e8] where named WIDE_THETA) and both orientations, and
JSON documents of the shapes the CLI writes.  derandomize keeps each run on the
same examples.
"""

import json
import math
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
from spinframe.gates import GATES, SWAP, phase_shifted_swap, realize
from spinframe.linalg import (UNITARY_TOL, expm_unitary, herm_eig, phase_distance,
                              require_unitary)
from spinframe.model import (
    PAIR,
    S1,
    S2,
    ExchangeParams,
    FieldSpec,
    build_hamiltonian,
    build_isotropic,
    build_zeeman,
    spin_operators,
)


THETA = st.floats(0.0, 2 * math.pi, exclude_max=True)
WIDE_THETA = st.floats(-1e8, 1e8)
# Every J the CLI accepts, log-uniform: 10^e rounds just below the smallest normal float
# at the low end, so it is clamped there.
CLI_J = st.floats(math.log10(sys.float_info.min), 308.0).map(
    lambda e: max(10.0 ** e, sys.float_info.min))


@st.composite
def exchange_params(draw, max_b_over_J=1e3, thetas=THETA, Js=st.floats(1e-2, 1e2)):
    J = draw(Js)
    b_over_J = draw(st.one_of(st.just(0.0), st.floats(1e-6, max_b_over_J)))
    if draw(st.sampled_from(["xy", "z"])) == "z":
        return ExchangeParams(J, "z", b_over_J)
    return ExchangeParams(J, "xy", b_over_J, theta=draw(thetas))


PROPERTY = settings(derandomize=True, deadline=None)


def assert_table_gates_hit_their_targets(p):
    """Each GATES row in the frame within the CLI's default tolerance of its target."""
    frame = rotation_matrix(p)
    for name, spec in GATES.items():
        assert phase_distance(realize(name, p, frame), spec.target) <= 1e-12, name


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


def fidelity(u, u0):
    """The sweep's fidelity |tr(u^dag u0)| / 4, each matrix checked unitary: a
    tests-local oracle, as the package keeps only the sweep's inline copy."""
    u = require_unitary(u, "u")
    u0 = require_unitary(u0, "u0")
    return float(abs(np.trace(u.conj().T @ u0))) / 4.0


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
    u = phase_shifted_swap(p, B).matrix
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
    report = phase_shifted_swap(p, b * p.J)
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
    lists with duplicates, omega ratios inside the quarter-turn bound, a gate and a mode."""
    tan0 = draw(st.floats(1e-3, 2.0))
    reference = ExchangeParams(1.0, "xy", tan0, theta=draw(THETA))
    top = min(1.0, 0.999 * (math.pi / (2 * reference.omega) - 1.0))
    ratios = []
    for bound in (top, 1.0):
        drawn = draw(st.lists(st.floats(-1.0, bound), min_size=1, max_size=3))
        ratios.append(drawn + draw(st.lists(st.sampled_from(drawn), max_size=2)))
    gate = draw(st.sampled_from(sorted(GATES)))
    mode = draw(st.sampled_from(["both", "uncorrected", "corrected"]))
    return reference, *ratios, gate, mode


@PROPERTY
@given(sweep_cases())
def test_sweep_rows_are_the_per_point_oracle(case):
    reference, dws, dths, gate, mode = case
    rows = gate_error_sweep(reference, dws, dths, gate, mode)
    expected = []
    for corrected in {"both": (False, True), "uncorrected": (False,), "corrected": (True,)}[mode]:
        frame = rotation_matrix(reference) if corrected else None
        for r_th in sorted(dths):
            for r_w in sorted(dws):
                p = ExchangeParams(1.0, "xy", math.tan(reference.omega * (1.0 + r_w)),
                                   theta=reference.theta * (1.0 + r_th))
                f = fidelity(realize(gate, p, frame), GATES[gate].target)
                expected.append((r_w, r_th, corrected, f, max(0.0, 1.0 - f)))
    assert [row[:5] for row in rows] == expected
    for row in rows:
        assert row.log10_error == (math.log10(row.error) if row.error > 0 else -math.inf)
    assert gate_error_sweep(replace(reference, J=2.5), dws, dths, gate, mode) == rows
    with pytest.raises(ValueError, match="sweep requires orientation xy"):
        gate_error_sweep(ExchangeParams(1.0, "z", reference.b_over_J), dws, dths, gate, mode)


@PROPERTY
@given(sweep_cases(), st.data())
def test_permuting_either_ratio_list_gives_the_same_rows(case, data):
    reference, dws, dths, gate, mode = case
    rows = gate_error_sweep(reference, dws, dths, gate, mode)
    assert gate_error_sweep(reference, data.draw(st.permutations(dws)), dths, gate, mode) == rows
    assert gate_error_sweep(reference, dws, data.draw(st.permutations(dths)), gate, mode) == rows


@st.composite
def realized_stacks(draw):
    """A stack of 1-6 realized gates, bare or in their frame, with 0-3 members
    perturbed: scaled by 1 +- eps, eps from UNITARY_TOL / 10 to 10 UNITARY_TOL (the
    check's boundary is near eps = UNITARY_TOL / 2), or given one NaN entry."""
    members = []
    for p in draw(st.lists(exchange_params(), min_size=1, max_size=6)):
        frame = rotation_matrix(p) if draw(st.booleans()) else None
        members.append(realize(draw(st.sampled_from(sorted(GATES))), p, frame))
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


def json_default_oracle(o):
    """An independent json.dumps hook: a matrix as [re, im] pairs, a table as a list
    of row objects with a non-finite number as null."""
    if isinstance(o, _Table):
        return [{c: v if isinstance(v, bool) or math.isfinite(v) else None
                 for c, v in zip(o.columns, row)} for row in o.rows]
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


@st.composite
def tables(draw):
    columns = tuple(draw(st.lists(TEXT, unique=True, max_size=4)))
    cell = st.one_of(st.floats(), st.floats().map(np.float64), st.booleans(),
                     st.integers(-2**53, 2**53),
                     st.sampled_from([math.inf, -math.inf, math.nan]))
    rows = draw(st.lists(st.tuples(*[cell] * len(columns)), max_size=4))
    return _Table(columns, rows)


DOCUMENTS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), FINITE, FINITE.map(np.float64), TEXT,
              MATRICES, tables()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=12,
)


@PROPERTY
@given(DOCUMENTS)
def test_json_writer_is_compact_json_dumps(doc):
    assert _json(doc) == json_oracle(doc)


@PROPERTY
@given(st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 3))
def test_json_writer_refuses_a_non_finite_number_as_json_does(x, where):
    doc = [{"value": x}, [1.0, x], np.array([[1.0, complex(2.0, x)]]), x][where]
    with pytest.raises(ValueError) as expected:
        json_oracle({"before": 1.0, "doc": doc})
    with pytest.raises(ValueError) as got:
        _json({"before": 1.0, "doc": doc})
    assert str(got.value) == str(expected.value)
