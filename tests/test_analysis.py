import math
import re
from pathlib import Path

import numpy as np
import pytest

from spinframe.analysis import (
    _overlaps,
    concurrence,
    gate_error_sweep,
    thermal_state,
)
from spinframe.frame import PSI_MINUS, rotation_matrix
from spinframe.gates import GATES, SWAP, dress
from spinframe.linalg import expm_unitary, kron, require_unitary
from spinframe.model import ExchangeParams, _xy_hamiltonians, build_hamiltonian, build_isotropic
from sweep_oracle import fidelity, point_gate, point_hamiltonian, point_target

THETA0 = 5 * math.pi / 6


def haar_qubit(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def werner(p):
    return p * np.outer(PSI_MINUS, PSI_MINUS.conj()) + (1 - p) * np.eye(4) / 4


def test_fidelity_identity_vs_swap():
    assert fidelity(np.eye(4), SWAP) == pytest.approx(0.5, abs=1e-15)


def test_fidelity_phase_insensitive():
    u = SWAP * np.exp(0.3j)
    assert fidelity(u, SWAP) == pytest.approx(1.0, abs=1e-15)


def test_thermal_state_infinite_temperature():
    rho = thermal_state(build_isotropic(1.0), 0.0)
    np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-15)


def test_thermal_state_ground_projector_limit():
    """beta J >> 1 projects onto the singlet."""
    rho = thermal_state(build_isotropic(1.0), 200.0)
    np.testing.assert_allclose(
        rho, np.outer(PSI_MINUS, PSI_MINUS.conj()), atol=1e-12
    )


def test_thermal_state_properties():
    rho = thermal_state(build_hamiltonian(ExchangeParams(1.0, "z", 0.3)), 2.0)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
    assert np.linalg.eigvalsh(rho).min() > 0


def test_thermal_state_rejects_negative_beta():
    with pytest.raises(ValueError):
        thermal_state(build_isotropic(1.0), -1.0)


def test_concurrence_bell_state():
    rho = np.outer(PSI_MINUS, PSI_MINUS.conj())
    assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_maximally_mixed():
    assert concurrence(np.eye(4) / 4) == 0.0


def test_concurrence_product_state():
    v = np.kron([1.0, 0.0], [math.cos(0.3), math.sin(0.3)]).astype(complex)
    assert concurrence(np.outer(v, v.conj())) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.9, 1.0])
def test_concurrence_werner_closed_form(p):
    assert concurrence(werner(p)) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-12)


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(21)
    rho = werner(0.8)
    base = concurrence(rho)
    for _ in range(20):
        u = kron(haar_qubit(rng), haar_qubit(rng))
        assert concurrence(u @ rho @ u.conj().T) == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("beta", [0.0, 0.1, 1.0, 10.0, 50.0])
def test_concurrence_thermal_closed_form(beta):
    """Gibbs state of the exchange pair: C = max(0, (e^bJ - 3)/(e^bJ + 3))."""
    J = 1.0
    for h in (build_isotropic(J), build_hamiltonian(ExchangeParams(J, "z", 0.4))):
        c = concurrence(thermal_state(h, beta))
        x = math.exp(beta * J)
        assert c == pytest.approx(max(0.0, (x - 3) / (x + 3)), abs=1e-12)


@pytest.mark.parametrize("p", [ExchangeParams(1.0, "xy", 0.1, theta=0.3),
                               ExchangeParams(1.0, "xy", 0.37, theta=THETA0),
                               ExchangeParams(1.0, "z", 0.1), ExchangeParams(1.0, "z", 0.3)],
                         ids=str)
@pytest.mark.parametrize("beta", [50.0, 1e308])
def test_concurrence_of_a_near_pure_ground_state_is_at_most_1(p, beta):
    """Rounding put xy, theta 0.3, tan omega 0.1 at 1.0000000000000002 for beta 50."""
    c = concurrence(thermal_state(build_hamiltonian(p), beta))
    assert 1.0 - 1e-12 <= c <= 1.0


def test_concurrence_validation():
    for rho in (np.eye(2) / 2, np.eye(3) / 3, np.stack([np.eye(3) / 3] * 2), np.ones(4) / 4):
        with pytest.raises(ValueError, match="density matrix must be 4x4"):
            concurrence(rho)
    with pytest.raises(ValueError):
        concurrence(np.eye(4))  # trace 4
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.1
    with pytest.raises(ValueError):
        concurrence(bad)
    negative = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
    with pytest.raises(ValueError):
        concurrence(negative)



@pytest.mark.parametrize("bad, message", [
    (np.eye(4) / 4 + np.triu(np.full((4, 4), 0.1), 1), "Hermitian"),
    (np.eye(4) / 2, "unit trace"),
    (np.diag([0.6, 0.5, 0.0, -0.1]), "positive semidefinite"),
], ids=["hermitian", "trace", "psd"])
def test_a_stack_with_one_bad_member_is_refused(bad, message):
    good = thermal_state(build_isotropic(1.0), 1.0)
    stack = np.stack([good, good, bad, good])
    with pytest.raises(ValueError, match=f"^density matrix must (be|have) {message}$"):
        concurrence(stack)
    with pytest.raises(ValueError, match=f"^density matrix must (be|have) {message}$"):
        concurrence(bad)


def test_an_empty_stack_has_no_concurrences():
    assert concurrence(np.empty((0, 4, 4))).shape == (0,)
    assert thermal_state(build_isotropic(1.0), np.empty(0)).shape == (0, 4, 4)


def test_thermal_state_refuses_one_bad_beta_of_many():
    for beta in ([0.1, -1.0], [1.0, math.nan], [math.inf, 1.0]):
        with pytest.raises(ValueError, match="beta must be nonnegative and finite"):
            thermal_state(build_isotropic(1.0), np.array(beta))


def test_concurrence_refuses_an_all_nan_matrix():
    with pytest.raises(ValueError, match="density matrix must be Hermitian"):
        concurrence(np.full((4, 4), np.nan))


def test_concurrence_refuses_a_nan_off_diagonal_pair():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = rho[1, 0] = np.nan
    with pytest.raises(ValueError, match="density matrix must be Hermitian"):
        concurrence(rho)


REFERENCE = ExchangeParams(1.0, "xy", 5e-3, theta=THETA0)
# Each mode's blocks, the table's third axis: is the pulse sandwiched by T?
BLOCKS = {"both": (False, True), "uncorrected": (False,), "corrected": (True,)}


def sweep(corrected, dths, dws=(0.0, 0.05, 0.1)):
    mode = "corrected" if corrected else "uncorrected"
    return gate_error_sweep(REFERENCE, dws, dths, mode=mode)


def test_sweep_exact_parameters_give_exact_gate():
    table = sweep(True, (0.0,), (0.0,))
    assert table.error[0] < 1e-12
    assert table.fidelity[0] == pytest.approx(1.0, abs=1e-12)


def test_sweep_frozen_endpoints():
    """Regression anchors for the error curves at the reference point."""
    def errors(corrected, dth):  # one theta ratio, one block: the errors run along omega
        table = sweep(corrected, (dth,))
        return dict(zip(table.delta_omega_ratio, table.error))

    got = errors(False, 0.1)
    assert got[0.0] == pytest.approx(6.249882815057006e-06, rel=1e-6)
    assert got[0.1] == pytest.approx(7.562354898071888e-06, rel=1e-6)
    got = errors(True, 0.1)
    assert got[0.0] == pytest.approx(4.2591914028999867e-07, rel=1e-6)
    assert got[0.1] == pytest.approx(5.310098897259863e-07, rel=1e-6)
    got = errors(True, 0.01)
    assert got[0.0] == pytest.approx(4.283357557532952e-09, rel=1e-6)
    assert got[0.1] == pytest.approx(6.721064937931231e-08, rel=1e-6)


def test_sweep_correction_never_hurts():
    dws = tuple(float(x) for x in np.linspace(0.0, 0.1, 11))
    plain = sweep(False, (0.1, 0.01), dws)
    fixed = sweep(True, (0.1, 0.01), dws)
    assert fixed[:2] == plain[:2]
    for a, b in zip(fixed.error, plain.error):
        assert a <= b


def test_sweep_rows_sorted_by_theta_then_omega():
    """The axes come sorted, and row k is the point at omega ratio k % 2, theta ratio k // 2."""
    table = sweep(True, (0.1, 0.01), (0.1, 0.0))
    assert table[:3] == ((0.0, 0.1), (0.01, 0.1), (True,))
    expected = [sweep(True, (r_th,), (r_w,)).error[0]
                for r_th in (0.01, 0.1) for r_w in (0.0, 0.1)]
    assert list(table.error) == expected


def test_sweep_other_gates_run():
    for gate in ("sqrt_swap", "cnot"):
        table = gate_error_sweep(REFERENCE, (0.0,), (0.0,), gate, "corrected")
        assert table.error[0] < 1e-9


def test_sweep_config_validation():
    reference = ExchangeParams(1.0, "xy", 0.1, theta=0.0)
    with pytest.raises(ValueError):
        gate_error_sweep(ExchangeParams(1.0, "xy", -0.1, theta=0.0), (0.0,), (0.0,))
    with pytest.raises(ValueError, match="delta_omega_ratios"):
        gate_error_sweep(reference, (), (0.0,))
    with pytest.raises(ValueError, match="gate"):
        gate_error_sweep(reference, (0.0,), (0.0,), gate="bogus")
    with pytest.raises(ValueError, match="mode"):
        gate_error_sweep(reference, (0.0,), (0.0,), mode="bare")


@pytest.mark.parametrize("tan0, ratio", [(5e-3, -2.0), (5e-3, -1.5), (1000.0, 0.1)])
def test_sweep_config_rejects_omega_outside_quarter_turn(tan0, ratio):
    reference = ExchangeParams(1.0, "xy", tan0, theta=THETA0)
    with pytest.raises(ValueError, match="delta_omega_ratios"):
        gate_error_sweep(reference, (0.0, ratio), (0.0,), mode="corrected")


@pytest.mark.parametrize("theta0, ratio", [(1e308, 0.9), (-1e308, 1.0), (1e300, 1e10)])
def test_sweep_config_rejects_a_theta_ratio_past_the_float_range(theta0, ratio):
    """theta0 (1 + r) overflows: the error names the theta ratio, not theta."""
    reference = ExchangeParams(1.0, "xy", 0.1, theta=theta0)
    with pytest.raises(ValueError, match=re.escape(f"delta_theta_ratios value {ratio!r} ")):
        gate_error_sweep(reference, (0.0,), (0.0, ratio))


@pytest.mark.parametrize("text", ["10", "0.1", b"1"])
@pytest.mark.parametrize("axis", ["delta_omega_ratios", "delta_theta_ratios"])
def test_sweep_refuses_a_string_ratio_list(axis, text):
    """A string is iterable, but its characters are not the ratios: "10" would sweep
    0.0 and 1.0, and b"1" the ratio 49.0."""
    ratios = {"delta_omega_ratios": (0.0,), "delta_theta_ratios": (0.0,), axis: text}
    with pytest.raises(ValueError) as info:
        gate_error_sweep(REFERENCE, **ratios)
    assert str(info.value) == f"{axis} must be a nonempty list of finite ratios"


def test_sweep_refuses_a_bad_gate_then_both_ratio_lists_then_each_range():
    """The refusal order: the gate before any ratio, both lists' finiteness before
    either range, the omega range before the theta range."""
    bad_gate = re.escape("gate must be one of ['cnot', 'psw', 'sqrt_swap', 'swap']")
    with pytest.raises(ValueError, match=bad_gate):
        gate_error_sweep(REFERENCE, "x", (), gate="PSW")
    with pytest.raises(ValueError, match="^B/J = 1e[+]300 for B = 1e[+]300 is too large"):
        gate_error_sweep(REFERENCE, "x", (), gate="psw", B=1e300)
    with pytest.raises(ValueError, match="^delta_theta_ratios must be a nonempty list"):
        gate_error_sweep(REFERENCE, (0.0, -2.0), (0.0, math.nan))
    far = ExchangeParams(1.0, "xy", 5e-3, theta=1e308)
    with pytest.raises(ValueError, match="^delta_omega_ratios value -2.0 "):
        gate_error_sweep(far, (0.0, -2.0), (0.0, 1.0))


@pytest.mark.parametrize("first, second", [(-1.5, -2.0), (-2.0, -1.5)])
def test_sweep_names_the_first_bad_ratio_given(first, second):
    """Each range check reads its ratios in input order, not in the rows' sorted order."""
    with pytest.raises(ValueError, match=re.escape(f"delta_omega_ratios value {first!r} ")):
        gate_error_sweep(REFERENCE, (0.0, first, second), (0.0,))
    far = ExchangeParams(1.0, "xy", 0.1, theta=1e308)
    with pytest.raises(ValueError, match=re.escape(f"delta_theta_ratios value {-first!r} ")):
        gate_error_sweep(far, (0.0,), (0.0, -first, -second))


def test_sweep_error_gives_b_over_J_and_omega0_when_atan_rounds_to_a_quarter_turn():
    """At b/J = 2e16, atan(b/J) rounds to pi/2 and the ratio 0 is refused: the message
    shows that the reference is at fault.  Negative ratios still give rows there."""
    reference = ExchangeParams(1.0, "xy", 2e16, theta=THETA0)
    assert reference.omega == math.pi / 2
    with pytest.raises(ValueError) as info:
        gate_error_sweep(reference, (-0.1, 0.0), (0.0,))
    assert str(info.value) == (
        "delta_omega_ratios value 0.0 puts omega0 (1 + r) = 1.5707963267948966 outside"
        " [0, pi/2), with omega0 = atan(b/J) = 1.5707963267948966 at b/J = 2e+16")
    table = gate_error_sweep(reference, (-0.5, -0.1), (0.0,), mode="corrected")
    assert table[:3] == ((-0.5, -0.1), (0.0,), (True,))
    assert len(table.error) == 2


def test_sweep_config_accepts_omega_zero():
    (error,) = sweep(False, (0.0,), (-1.0,)).error
    assert error < 1e-12


def test_every_table_gate_has_its_public_function():
    import spinframe

    assert "gate_report" in spinframe.__all__
    for gate, spec in GATES.items():
        label = spinframe.gate_report(gate, ExchangeParams(1.0, "z", 0.1), B=0.5).label
        assert label == spec.label + ("(B=0.5)" if spec.fields else "")


@pytest.mark.parametrize("gate", sorted(GATES))
@pytest.mark.parametrize("t0", [0.0, 0.005, 0.37, 5.0])
def test_sweep_at_zero_misestimation_is_the_public_gate(gate, t0):
    """At B = 0.7 J, which only psw reads, and its target SWAP.(D x D)."""
    from spinframe import gates

    # The ratios 0 evaluate the reference point itself.
    p = ExchangeParams(1.0, "xy", t0, theta=THETA0)
    spec, d = GATES[gate], gates.rz(-GATES[gate].area * 0.7)
    target = spec.target @ np.kron(d, d) if spec.fields else spec.target
    table = gate_error_sweep(p, (0.0,), (0.0,), gate, B=0.7)
    fidelities = dict(zip(table.corrected, table.fidelity))
    public = gates.gate_report(gate, p, B=0.7)
    assert fidelities[True] == fidelity(public.matrix, target)
    assert fidelities[False] == fidelity(gates.realize(gate, p, B=0.7), target)


@pytest.mark.parametrize("gate", ["swap", "cnot"])
@pytest.mark.parametrize("mode", ["both", "uncorrected", "corrected"])
def test_sweep_exponentiates_each_grid_point_once(monkeypatch, gate, mode):
    from spinframe import analysis

    calls = []

    def counted(h, t):
        calls.append(h)
        return expm_unitary(h, t)

    monkeypatch.setattr(analysis, "expm_unitary", counted)
    reference = ExchangeParams(1.0, "xy", 0.1, theta=THETA0)
    table = gate_error_sweep(reference, (-0.1, 0.0, 0.1), (0.0, 0.2), gate, mode)
    assert table[:3] == ((-0.1, 0.0, 0.1), (0.0, 0.2), BLOCKS[mode])
    assert len(table.error) == 6 * len(BLOCKS[mode])
    # One call, whose (theta, omega) array holds the Hamiltonian of each of the 6 grid
    # points: member [i, j] is row 3 i + j's, as the rows run theta outer, omega inner.
    (stack,) = calls
    assert stack.shape == (2, 3, 4, 4)
    grid = [(reference.omega * (1 + r_w), THETA0 * (1 + r_th))
            for r_th in (0.0, 0.2) for r_w in (-0.1, 0.0, 0.1)]
    assert np.array_equal(stack, np.stack([point_hamiltonian(*point) for point in grid])
                          .reshape(2, 3, 4, 4))


def test_sweep_refuses_a_hamiltonian_that_is_not_hermitian(monkeypatch):
    from spinframe import analysis, model

    skew = 1e-6j * np.diag([1.0, -1.0, 0.0, 0.0])
    monkeypatch.setattr(analysis, "_xy_hamiltonians",
                        lambda omegas, thetas: model._xy_hamiltonians(omegas, thetas) + skew)
    reference = ExchangeParams(1.0, "xy", 0.1, theta=THETA0)
    with pytest.raises(ValueError, match="matrix is not Hermitian"):
        gate_error_sweep(reference, (0.0,), (0.0,))


def test_sweep_builds_no_exchange_params_per_grid_point(monkeypatch):
    """A 5 x 5 sweep in both modes constructs no ExchangeParams: its grid's
    Hamiltonians come from their coupling rows, not from one dataclass a point."""
    reference = ExchangeParams(1.0, "xy", 0.1, theta=THETA0)
    built = []
    check = ExchangeParams.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(ExchangeParams, "__post_init__", counted)
    ratios = (-0.2, -0.1, 0.0, 0.1, 0.2)
    assert len(gate_error_sweep(reference, ratios, ratios).error) == 50
    assert built == []


@pytest.fixture(scope="module")
def seeded_pulses():
    """Each gate's pulses at 20,402 seeded points (the (theta, omega) grid of 202 seeded
    theta and 101 seeded omega values, as many as the rows of a 101 x 101 sweep in both
    modes), and the frame of a seeded reference point."""
    rng = np.random.default_rng(11)
    h = _xy_hamiltonians(rng.uniform(0.0, math.pi / 2, 101).tolist(),
                         rng.uniform(-7.0, 7.0, 202).tolist())
    frame = rotation_matrix(ExchangeParams(1.0, "xy", 0.37, theta=-2.1))
    return {gate: expm_unitary(h, spec.area) for gate, spec in GATES.items()}, frame


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (21, 21), (202, 101)],
                         ids=["1", "2", "441", "20402"])
@pytest.mark.parametrize("framed", [False, True])
@pytest.mark.parametrize("gate", sorted(GATES))
def test_stacked_overlaps_are_each_members_own_product_bit_for_bit(seeded_pulses, gate,
                                                                   framed, shape):
    """The sweep's one overlap product per block gives each member u of its (theta, omega)
    array the bytes of u.conj().T @ target, at every grid size a sweep makes (1, 2, 441 and
    20,402 members), bare or in a frame."""
    pulses, frame = seeded_pulses
    dressed = dress(pulses[gate][:shape[0], :shape[1]], frame if framed else None,
                    GATES[gate])
    target = GATES[gate].target
    stacked = _overlaps(dressed, target)
    assert stacked.shape == (*shape, 4, 4)
    each = np.stack([np.stack([u.conj().T @ target for u in row]) for row in dressed])
    assert stacked.tobytes() == each.tobytes()


@pytest.mark.parametrize("gate", ["swap", "cnot"])
def test_sweep_refuses_a_pulse_that_is_not_unitary(monkeypatch, gate):
    from spinframe import analysis

    monkeypatch.setattr(analysis, "expm_unitary", lambda h, t: 1.01 * expm_unitary(h, t))
    reference = ExchangeParams(1.0, "xy", 0.1, theta=THETA0)
    with pytest.raises(ValueError, match="u is not unitary"):
        gate_error_sweep(reference, (0.0,), (0.0,), gate, "corrected")


@pytest.mark.parametrize("gate", sorted(GATES))
@pytest.mark.parametrize("mode", ["both", "uncorrected", "corrected"])
def test_sweep_checks_the_target_once_and_each_block_once(monkeypatch, gate, mode):
    from spinframe import analysis

    checked = []

    def counted(u, name="matrix"):
        checked.append((name, np.array(u)))
        return require_unitary(u, name)

    monkeypatch.setattr(analysis, "require_unitary", counted)
    reference = ExchangeParams(1.0, "xy", 0.1, theta=THETA0)
    table = gate_error_sweep(reference, (-0.1, 0.0, 0.1), (0.0, 0.2), gate, mode, B=0.6)
    assert table[:3] == ((-0.1, 0.0, 0.1), (0.0, 0.2), BLOCKS[mode])
    # The target's check (psw's at B = 0.6 J), then one check per block of a (theta, omega)
    # array whose member [i, j] is the gate of its row 3 i + j.
    (name, target), *stacks = checked
    assert name == f"target {GATES[gate].target_label}"
    assert np.array_equal(target, point_target(gate, 0.6))
    assert [name for name, _ in stacks] == ["u"] * len(BLOCKS[mode])
    for (_, stack), corrected in zip(stacks, BLOCKS[mode]):
        assert stack.shape == (2, 3, 4, 4)
        frame = rotation_matrix(reference) if corrected else None
        want = np.stack([point_gate(gate, reference.omega * (1 + r_w), THETA0 * (1 + r_th),
                                    frame, 0.6, reference)
                         for r_th in (0.0, 0.2) for r_w in (-0.1, 0.0, 0.1)])
        np.testing.assert_allclose(stack, want.reshape(2, 3, 4, 4), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("gate", sorted(GATES))
@pytest.mark.parametrize("mode", ["both", "uncorrected", "corrected"])
@pytest.mark.parametrize("k", [0, 2, 5])
def test_sweep_refuses_a_block_whose_row_k_is_not_unitary(monkeypatch, gate, mode, k):
    """Row k of each block's (theta, omega) array, member [k // 3, k % 3], scaled by 1.01:
    the first, a middle and the last row."""
    from spinframe import analysis

    scale = np.ones((2, 3))
    scale[divmod(k, 3)] = 1.01
    monkeypatch.setattr(analysis, "dress",
                        lambda u, frame, spec: dress(u, frame, spec) * scale[..., None, None])
    reference = ExchangeParams(1.0, "xy", 0.1, theta=THETA0)
    with pytest.raises(ValueError, match="^u is not unitary$"):
        gate_error_sweep(reference, (-0.1, 0.0, 0.1), (0.0, 0.2), gate, mode, 0.5)


@pytest.mark.parametrize("gate", sorted(GATES))
def test_sweep_refuses_a_target_that_is_not_unitary(monkeypatch, gate):
    from spinframe import gates

    spec = GATES[gate]
    monkeypatch.setitem(gates.GATES, gate, spec._replace(target=1.01 * spec.target))
    reference = ExchangeParams(1.0, "xy", 0.1, theta=THETA0)
    with pytest.raises(ValueError, match=f"^target {re.escape(spec.target_label)} is not unitary$"):
        gate_error_sweep(reference, (0.0,), (0.0,), gate, B=0.5)


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["table"].error) == 100
