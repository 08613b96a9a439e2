"""The sweep's per-point oracle, shared by the sweep's tests.

A sweep row is evaluated at the omega and theta its ratios give.  point_gate builds
that one point's gate from the model's formula at the point's own (omega, theta), with
no ExchangeParams in between (whose omega is atan(b/J), not a given omega), with a
field row's compensating fields set at the sweep's reference point; point_target is
the row's target at B, and fidelity is the sweep's |tr(u^dag target)| / 4.
"""

import math

import numpy as np

from spinframe.frame import rz
from spinframe.gates import GATES, dress
from spinframe.linalg import expm_unitary, kron, require_unitary
from spinframe.model import (_PAIR_ROWS, _angle_terms, _combine, _coupling, build_zeeman,
                             compensating_fields)


def fidelity(u, u0):
    """The sweep's fidelity |tr(u^dag u0)| / 4, each matrix checked unitary: a
    tests-local oracle, as the package keeps only the sweep's inline copy."""
    u = require_unitary(u, "u")
    u0 = require_unitary(u0, "u0")
    return float(abs(np.trace(u.conj().T @ u0))) / 4.0


def point_hamiltonian(omega, theta):
    """H at J = 1 and orientation xy, at anisotropy angle omega as given and axis azimuth
    theta reduced by fmod onto (-4 pi, 4 pi), as ExchangeParams.reduced_theta is."""
    th = math.fmod(theta, 4 * math.pi)
    return _combine(_coupling(1.0, *_angle_terms(omega), math.cos(th), math.sin(th), 0.0),
                    _PAIR_ROWS)


def point_gate(gate, omega, theta, frame=None, B=0.0, estimate=None):
    """GATES[gate] as its pulse on point_hamiltonian(omega, theta) gives it, in frame.  A
    field row's pulse adds the compensating fields of B (in units of J = 1) set at the
    estimate, an ExchangeParams, as realize adds its own point's: the sweep's rows set
    them at its reference point.  Any other row reads neither B nor the estimate."""
    spec = GATES[gate]
    h = point_hamiltonian(omega, theta)
    if spec.fields:
        h = h + build_zeeman(compensating_fields(estimate, B))
    return dress(expm_unitary(h, spec.area), frame, spec)


def point_target(gate, B=0.0):
    """GATES[gate]'s target at field B (units of J): a field row's times D x D, with
    D = Rz(-area B)."""
    spec = GATES[gate]
    if not spec.fields:
        return spec.target
    d = rz(-spec.area * B)
    return spec.target @ kron(d, d)
