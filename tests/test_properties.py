"""Property tests over the parameter domain the API accepts.

Draws J in [1e-2, 1e2], b/J in {0} u [1e-6, 1e3], theta in [0, 2 pi) and both
orientations.  derandomize keeps each run on the same examples.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from spinframe.frame import rotation_matrix, verify_isotropization
from spinframe.gates import GATES, SWAP, realize
from spinframe.linalg import phase_distance
from spinframe.model import ExchangeParams


@st.composite
def exchange_params(draw):
    J = draw(st.floats(1e-2, 1e2))
    b_over_J = draw(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)))
    if draw(st.sampled_from(["xy", "z"])) == "z":
        return ExchangeParams(J, "z", b_over_J)
    theta = draw(st.floats(0.0, 2 * math.pi, exclude_max=True))
    return ExchangeParams(J, "xy", b_over_J, theta=theta)


PROPERTY = settings(derandomize=True, deadline=None)


@PROPERTY
@given(exchange_params())
def test_every_table_gate_in_the_frame_hits_its_target(p):
    frame = rotation_matrix(p)
    for name, spec in GATES.items():
        tol = 1e-10 if name == "cnot" else 1e-12
        assert phase_distance(realize(name, p, frame), spec.target) <= tol, name


@PROPERTY
@given(exchange_params())
def test_bare_swap_distance_is_sin_squared_half_omega(p):
    distance = phase_distance(realize("swap", p), SWAP)
    assert abs(distance - math.sin(p.omega / 2) ** 2) <= 1e-12


@PROPERTY
@given(exchange_params())
def test_isotropization_residual_scales_with_J(p):
    assert verify_isotropization(p) <= 1e-12 * p.J
