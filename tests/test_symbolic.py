"""Symbolic certificates: closed forms proved for symbolic angles, not sampled.

Each angle enters through a unit-modulus exponential, so every matrix entry is a
Laurent polynomial with rational coefficients in

    a = e^{i pi/8},  z = e^{i omega/4},  q = e^{i theta/2},  and J,

with i = a^4 and cos, sin written through e^{+-i phase}.  Each generator has its
inverse beside it in the ring, so the complex conjugate of an entry swaps every
generator with its inverse.  An identity holds when every coefficient of the
difference vanishes once a^8 = -1 (the minimal polynomial of a) is applied: that is
exact arithmetic over the rationals, a proof for all omega, theta and J.

A certificate proves a formula as the source writes it, so the source's own
functions are called where they take ring elements (model._coupling), and
transcribed where they use math or cmath (frame._local_rotation, frame.rotation_plan
and frame.assemble, frame.eigenstates and its Bell states, model.compensating_fields).
A seeded numeric check then ties each source function to the certified expression,
lambdified, to 1e-14, so a drift in either fails here.
"""

import cmath
import math
import random

import numpy as np
import sympy as sp
from sympy import QQ
from sympy.polys.rings import ring

from spinframe.frame import (_local_rotation, assemble, eigenstates, rotation_matrix,
                             rotation_plan)
from spinframe.model import (PAIR, S1, S2, ExchangeParams, _angle_terms, _coupling,
                             build_hamiltonian, compensating_fields)

R, a, ai, z, zi, q, qi, J = ring("a ai z zi q qi J", QQ)
I = a**4
# Phases are linear in pi/8, omega/4 and theta/2, which cis turns into exponents.
P, W, Q = sp.symbols("P W Q")
PI, OMEGA, THETA = 8 * P, 4 * W, 2 * Q


def cis(phase):
    """e^{i phase} as a ring monomial."""
    phase = sp.expand(phase)
    monomial = R(1)
    for unit, g, g_inv in ((P, a, ai), (W, z, zi), (Q, q, qi)):
        n = int(phase.coeff(unit))
        monomial *= g**n if n >= 0 else g_inv**-n
    return monomial


def cos(phase):
    return (cis(phase) + cis(-phase)) * QQ(1, 2)


def sin(phase):
    return (cis(phase) - cis(-phase)) * QQ(1, 2) * ai**4  # 1/(2i), i = a^4


def conj(p):
    """The complex conjugate for real omega, theta and J: each generator to its inverse."""
    return R({(m[1], m[0], m[3], m[2], m[5], m[4], m[6]): c for m, c in p.terms()})


def vanishes(p) -> bool:
    """p = 0 once each g g^-1 = 1 and a^8 = -1."""
    reduced = {}
    for m, c in p.terms():
        n = m[0] - m[1]
        key = (n % 8, m[2] - m[3], m[4] - m[5], m[6])
        reduced[key] = reduced.get(key, 0) + (-c if n // 8 % 2 else c)
    return not any(reduced.values())


def matmul(A, B):
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), R(0)) for j in range(len(B[0]))]
            for i in range(len(A))]


def local_rotation(omega):
    """frame._local_rotation's closed form at orientation xy, transcribed."""
    c, s = cos(omega / 4), sin(omega / 4)
    x, y = cis((THETA - PI / 4) / 2), cis((3 * PI / 4 - THETA) / 2)
    return [[c * x, s * y], [-s * conj(y), c * conj(x)]]


def z_rotation(omega):
    """frame._local_rotation's z form, Rz(omega/2) = diag(e^{i omega/4}, e^{-i omega/4}),
    transcribed."""
    return [[cis(omega / 4), R(0)], [R(0), cis(-omega / 4)]]


def kron(A, B):
    return [[A[i // 2][j // 2] * B[i % 2][j % 2] for j in range(4)] for i in range(4)]


def rz(angle):
    """frame.rz, exp(+i angle sigma_z / 2), transcribed."""
    return [[cis(angle / 2), R(0)], [R(0), cis(-angle / 2)]]


def ry(angle):
    """frame.ry, exp(+i angle sigma_y / 2), transcribed."""
    c, s = cos(angle / 2), sin(angle / 2)
    return [[c, s], [-s, c]]


def assembled(plan):
    """frame.assemble transcribed: (Rz(a1) Ry(g1) Rz(b1)) (x) (Rz(a2) Ry(g2) Rz(b2)) for
    plan = ((a1, g1, b1), (a2, g2, b2)).  Every half-angle of frame.rotation_plan's angles
    is linear in pi/8, omega/4 and theta/2, so each factor is in the ring."""
    u1, u2 = (matmul(matmul(rz(a), ry(g)), rz(b)) for a, g, b in plan)
    return kron(u1, u2)


def operator_sum(coefficients, operators):
    """sum_i coefficients[i] operators[i] as a 4x4 of ring elements, from the operators'
    exact entries."""
    basis = [R(QQ(*v.real.as_integer_ratio())) + QQ(*v.imag.as_integer_ratio()) * I
             for v in operators.reshape(-1)]
    flat = [sum((k * basis[16 * i + e] for i, k in enumerate(coefficients)), R(0))
            for e in range(16)]
    return [flat[4 * r:4 * r + 4] for r in range(4)]


def pair_sum(coefficients):
    """sum_ab K_ab S1^a S2^b, from model.PAIR."""
    return operator_sum(coefficients, PAIR)


def field_sum(b1, b2):
    """B1.S1 + B2.S2, from model.S1 and model.S2."""
    return operator_sum((*b1, *b2), np.concatenate((S1, S2)))


def fields():
    """model.compensating_fields' closed form at orientation xy and B = 1, transcribed:
    B1 and B2, each as three ring elements."""
    s, c, st, ct = sin(OMEGA / 2), cos(OMEGA / 2), sin(THETA), cos(THETA)
    return (-s * st, s * ct, c), (s * st, -s * ct, c)


def z_fields():
    """model.compensating_fields' form at orientation z and B = 1, transcribed: both fields
    already along z."""
    return (R(0), R(0), R(1)), (R(0), R(0), R(1))


def coupling(x, y, z):
    """model._coupling itself, on c, t, s = cos w, 2 sin^2(w/2), sin w and the axis."""
    return _coupling(J, cos(OMEGA), 2 * sin(OMEGA / 2) ** 2, sin(OMEGA), x, y, z)


ISOTROPIC = pair_sum([J, 0, 0, 0, J, 0, 0, 0, J])


UNIFORM_Z = field_sum((0, 0, 1), (0, 0, 1))  # S1z + S2z


def rotates_to(t, h, target) -> bool:
    """t h t^dag = target, entry by entry."""
    t_dag = [[conj(t[j][i]) for j in range(4)] for i in range(4)]
    rotated = matmul(matmul(t, h), t_dag)
    return all(vanishes(rotated[i][j] - target[i][j]) for i in range(4) for j in range(4))


def equal(A, B) -> bool:
    """A = B, entry by entry: not up to a phase."""
    return all(vanishes(A[i][j] - B[i][j]) for i in range(4) for j in range(4))


# frame's Bell states, transcribed: 1/sqrt(2) = cos(pi/4).
R2 = cos(PI / 4)
PSI_P, PSI_M = [R(0), R2, R2, R(0)], [R(0), R2, -R2, R(0)]
PHI_P, PHI_M = [R2, R(0), R(0), R2], [R2, R(0), R(0), -R2]


def xy_eigenstates():
    """frame.eigenstates' closed form at orientation xy, transcribed."""
    c, s, st, ct = cos(OMEGA / 2), sin(OMEGA / 2), sin(THETA), cos(THETA)
    return (PSI_P,
            combine((R2 * (st + ct * c), PHI_M), (R2 * I * (ct - st * c), PHI_P),
                    (-R2 * I * s, PSI_M)),
            combine((R2 * (ct + st * c), PHI_P), (-R2 * I * (st - ct * c), PHI_M), (R2 * s, PSI_M)),
            combine((-I * ct * s, PHI_M), (-st * s, PHI_P), (c, PSI_M)))


def z_eigenstates():
    """frame.eigenstates' closed form at orientation z, transcribed with norm = cos(omega/2)
    and norm tan(omega/2) = sin(omega/2), which hold for omega = atan(b/J) in [0, pi/2)."""
    c, s = cos(OMEGA / 2), sin(OMEGA / 2)
    return (PHI_M, PHI_P, combine((c, PSI_P), (I * s, PSI_M)), combine((c, PSI_M), (I * s, PSI_P)))


def combine(*terms):
    """sum_k c_k v_k over (c_k, v_k) pairs, v_k a 4-vector of ring elements."""
    return [sum((c * v[e] for c, v in terms), R(0)) for e in range(4)]


def maps_onto(t, states, targets) -> bool:
    """t states[k] = targets[k] for each k, entry by entry: not up to a phase."""
    return all(vanishes(sum((t[i][j] * v[j] for j in range(4)), R(0)) - b[i])
               for v, b in zip(states, targets) for i in range(4))


def isotropizes(t, h) -> bool:
    """t h t^dag = J S1.S2, entry by entry."""
    return rotates_to(t, h, ISOTROPIC)


U_MINUS, U_PLUS = local_rotation(-OMEGA), local_rotation(OMEGA)
T = kron(U_MINUS, U_PLUS)
COUPLING = coupling(cos(THETA), sin(THETA), 0)
H = pair_sum(COUPLING)
Z_MINUS, Z_PLUS = z_rotation(-OMEGA), z_rotation(OMEGA)
T_Z = kron(Z_MINUS, Z_PLUS)
H_Z = pair_sum(coupling(0, 0, 1))
B1, B2 = fields()
B1_Z, B2_Z = z_fields()
# frame.rotation_plan's angles, transcribed: qubit 1's (alpha, gamma, beta), then qubit 2's.
PLAN = ((-3 * PI / 4, OMEGA / 2, THETA + PI / 2), (PI / 4, OMEGA / 2, THETA - PI / 2))
PLAN_Z = ((-OMEGA / 2, 0, 0), (OMEGA / 2, 0, 0))
XY_STATES, Z_STATES = xy_eigenstates(), z_eigenstates()


def test_the_xy_frame_isotropizes_the_coupling_for_every_omega_and_theta():
    """T H T^dag = J S1.S2 exactly, with T = U(-omega) (x) U(omega) and H from
    model._coupling's nine entries."""
    assert isotropizes(T, H)
    # The certificate can fail: the same T leaves H at theta flipped anisotropic.
    assert not isotropizes(T, pair_sum(coupling(cos(-THETA), sin(-THETA), 0)))


def test_the_z_frame_isotropizes_the_coupling_for_every_omega():
    """T H T^dag = J S1.S2 exactly at axis (0, 0, 1), with T = Rz(-omega/2) (x) Rz(omega/2)
    and H from model._coupling's nine entries."""
    assert isotropizes(T_Z, H_Z)
    # The certificate can fail: Rz(omega/2) on both qubits commutes with H_Z.
    assert not isotropizes(kron(Z_PLUS, Z_PLUS), H_Z)


def test_the_xy_frame_maps_the_compensating_fields_onto_a_uniform_z_field():
    """T (B1.S1 + B2.S2) T^dag = B (S1z + S2z) exactly for every omega and theta, with B1
    and B2 compensating_fields' closed form; the identity is linear in B, so B = 1."""
    assert rotates_to(T, field_sum(B1, B2), UNIFORM_Z)
    # The certificate can fail: B1's x component with its sign flipped.
    assert not rotates_to(T, field_sum((-B1[0], *B1[1:]), B2), UNIFORM_Z)


def test_the_z_frame_maps_the_compensating_fields_onto_a_uniform_z_field():
    """T (B1.S1 + B2.S2) T^dag = B (S1z + S2z) exactly for every omega at axis (0, 0, 1),
    with T = Rz(-omega/2) (x) Rz(omega/2) and B1, B2 compensating_fields' z form; B = 1."""
    assert rotates_to(T_Z, field_sum(B1_Z, B2_Z), UNIFORM_Z)
    # The certificate can fail: B2's z component with its sign flipped.
    assert not rotates_to(T_Z, field_sum(B1_Z, (*B2_Z[:2], -B2_Z[2])), UNIFORM_Z)


def test_the_zyz_plans_assemble_to_the_frame_entry_by_entry():
    """assemble(rotation_plan(p)) = rotation_matrix(p) exactly, not merely up to a phase,
    for every omega and theta at orientation xy and every omega at orientation z."""
    assert equal(assembled(PLAN), T)
    assert equal(assembled(PLAN_Z), T_Z)
    # The certificate can fail: qubit 1's beta at theta - pi/2, and each plan up to -1.
    assert not equal(assembled(((-3 * PI / 4, OMEGA / 2, THETA - PI / 2), PLAN[1])), T)
    assert not equal(assembled(PLAN), [[-e for e in row] for row in T])
    assert not equal(assembled(PLAN_Z), [[-e for e in row] for row in T_Z])


def test_the_frames_map_the_eigenstates_onto_bell_states():
    """T phi_k is the k-th Bell state exactly, with no phase, as frame.eigenstates' docstring
    says: (psi+, phi-, phi+, psi-) at orientation xy for every omega and theta, and (phi-,
    phi+, psi+, psi-) at orientation z for every omega."""
    assert maps_onto(T, XY_STATES, (PSI_P, PHI_M, PHI_P, PSI_M))
    assert maps_onto(T_Z, Z_STATES, (PHI_M, PHI_P, PSI_P, PSI_M))
    # The certificate can fail: phi3's s psi- term with its sign flipped, and psi- up to i.
    flipped = combine((R(1), XY_STATES[2]), (-2 * R2 * sin(OMEGA / 2), PSI_M))
    assert not maps_onto(T, (flipped,), (PHI_P,))
    assert not maps_onto(T_Z, Z_STATES[3:], ([I * e for e in PSI_M],))


def lambdified(entries):
    """Each ring element as a numpy function of (omega, theta, J)."""
    functions = [sp.lambdify(R.symbols, e.as_expr()) for e in entries]

    def evaluate(omega, theta, j):
        a_, z_, q_ = cmath.exp(1j * math.pi / 8), cmath.exp(0.25j * omega), cmath.exp(0.5j * theta)
        values = (a_, 1 / a_, z_, 1 / z_, q_, 1 / q_, j)
        return np.array([complex(f(*values)) for f in functions])

    return evaluate


def flat(matrix):
    return [e for row in matrix for e in row]


def test_the_source_is_the_certified_expression_at_seeded_points():
    rotation = {sign: lambdified(flat(u)) for sign, u in ((-1, U_MINUS), (1, U_PLUS))}
    z_rotations = {sign: lambdified(flat(u)) for sign, u in ((-1, Z_MINUS), (1, Z_PLUS))}
    entries, hamiltonian = lambdified(COUPLING), lambdified(flat(H))
    frame_z, hamiltonian_z = lambdified(flat(T_Z)), lambdified(flat(H_Z))
    field_components, z_field_components = lambdified((*B1, *B2)), lambdified((*B1_Z, *B2_Z))
    rng = random.Random(5)
    for _ in range(50):
        j = 10 ** rng.uniform(-1.0, 1.0)
        p = ExchangeParams(j, "xy", math.tan(rng.uniform(0.0, math.pi / 2)),
                           theta=rng.uniform(-2 * math.pi, 2 * math.pi))
        w, th = p.omega, p.reduced_theta
        for sign in (-1, 1):
            np.testing.assert_allclose(_local_rotation(p, sign * w).reshape(-1),
                                       rotation[sign](w, th, j), rtol=0, atol=1e-14)
        k = _coupling(j, *_angle_terms(w), math.cos(th), math.sin(th), 0.0)
        np.testing.assert_allclose(k, entries(w, th, j), rtol=0, atol=1e-14 * j)
        np.testing.assert_allclose(build_hamiltonian(p).reshape(-1), hamiltonian(w, th, j),
                                   rtol=0, atol=1e-14 * j)
        B = rng.uniform(-3.0, 3.0)
        f = compensating_fields(p, B)
        np.testing.assert_allclose((*f.b1, *f.b2), B * field_components(w, th, j),
                                   rtol=0, atol=1e-14)
        # Orientation z at the same omega and J; theta does not enter.
        pz = ExchangeParams(j, "z", p.b_over_J)
        for sign in (-1, 1):
            np.testing.assert_allclose(_local_rotation(pz, sign * w).reshape(-1),
                                       z_rotations[sign](w, 0.0, j), rtol=0, atol=1e-14)
        np.testing.assert_allclose(rotation_matrix(pz).reshape(-1), frame_z(w, 0.0, j),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(build_hamiltonian(pz).reshape(-1), hamiltonian_z(w, 0.0, j),
                                   rtol=0, atol=1e-14 * j)
        fz = compensating_fields(pz, B)
        np.testing.assert_allclose((*fz.b1, *fz.b2), B * z_field_components(w, 0.0, j),
                                   rtol=0, atol=1e-14)


def test_the_plans_source_is_the_certified_assembly_at_seeded_points():
    """assemble(rotation_plan(p)) is the certified assembly, lambdified, to 1e-14 at both
    orientations, theta up to 4 pi either way."""
    plans = {"xy": lambdified(flat(assembled(PLAN))), "z": lambdified(flat(assembled(PLAN_Z)))}
    rng = random.Random(34)
    for _ in range(50):
        tan_omega, theta = math.tan(rng.uniform(0.0, math.pi / 2)), rng.uniform(-13.0, 13.0)
        for p in (ExchangeParams(1.0, "xy", tan_omega, theta=theta),
                  ExchangeParams(1.0, "z", tan_omega)):
            th = 0.0 if p.theta is None else p.reduced_theta
            np.testing.assert_allclose(assemble(rotation_plan(p)).reshape(-1),
                                       plans[p.orientation](p.omega, th, 1.0), rtol=0, atol=1e-14)


def test_the_eigenstates_source_is_the_certified_expression_at_seeded_points():
    """frame.eigenstates(p) is the certified closed form, lambdified, to 1e-14 at both
    orientations, theta up to 4 pi either way."""
    states = {"xy": [lambdified(v) for v in XY_STATES], "z": [lambdified(v) for v in Z_STATES]}
    rng = random.Random(35)
    for _ in range(50):
        tan_omega, theta = math.tan(rng.uniform(0.0, math.pi / 2)), rng.uniform(-13.0, 13.0)
        for p in (ExchangeParams(1.0, "xy", tan_omega, theta=theta),
                  ExchangeParams(1.0, "z", tan_omega)):
            th = 0.0 if p.theta is None else p.reduced_theta
            for got, want in zip(eigenstates(p), states[p.orientation]):
                np.testing.assert_allclose(got, want(p.omega, th, 1.0), rtol=0, atol=1e-14)
