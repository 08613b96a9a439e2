"""Every verification check can fail: a table of named defects, each monkeypatched
into the package, against the CLI's checked reports at their default tolerances.

A defect is caught by a check when the check exits 2.  The caught/missed matrix is
frozen below.  The sweep's check is its reference point's isotropization residual, the
value `transform` checks, so it catches what `transform` catches.  Three blind spots are
rows of it, not failures:

- the cnot sequence puts Rz1(pi) between its two pulses, which flips the sign of
  the flip-flop part S1xS2x + S1yS2y and so cancels it, so `gate cnot` cannot see
  a symmetric term that in the frame only changes the flip-flop coefficient;
- `thermal` compares concurrences, which local unitaries leave alone, so it sees
  no defect of T, nor the Dzyaloshinskii-Moriya sign flip (H conjugated by SWAP);
- `gate psw` runs at B = 0.5 J: at an odd B/J, the default B = J among them, its
  target SWAP.(D x D) has D = Rz(-pi B/J) proportional to sigma_z, and a T whose
  qubit-1 factor is still the sigma_z-conjugate of its qubit-2 factor, as both T
  defects below leave it, maps that target onto itself, so psw sees neither.
"""

import dataclasses
import math

import numpy as np
import pytest

import spinframe
from spinframe import analysis, cli, frame, gates, model
from spinframe.frame import RotationPlan
from spinframe.gates import SWAP
from spinframe.model import PAIR, FieldSpec

POINT = ("--orientation", "xy", "--theta", "0.3", "--tan-omega", "0.37")

CHECKS = {
    "transform": ("transform",),
    "decompose": ("decompose",),
    "gate swap": ("gate", "--gate", "swap"),
    "gate sqrt_swap": ("gate", "--gate", "sqrt_swap"),
    "gate cnot": ("gate", "--gate", "cnot"),
    "gate psw": ("gate", "--gate", "psw", "--B", "0.5"),
    "fields": ("fields",),
    "thermal": ("thermal",),
    "sweep": ("sweep", "--delta-omega-ratios", "0", "--delta-theta-ratios", "0"),
}

_MODULES = (spinframe, analysis, cli, frame, gates, model)


def _replace(monkeypatch, name: str, make):
    """Replace the function `name` of model or frame, in every module that holds it,
    by make(original)."""
    original = getattr(model, name, None) or getattr(frame, name)
    new = make(original)
    for module in _MODULES:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, new)


def t_at_omega_over_2(monkeypatch):
    """T's factors at angle omega/2 where omega/4 belongs."""
    _replace(monkeypatch, "_local_rotation", lambda f: lambda p, omega: f(p, 2 * omega))


def t_with_theta_flipped(monkeypatch):
    _replace(monkeypatch, "_local_rotation",
             lambda f: lambda p, omega: f(dataclasses.replace(p, theta=-p.theta), omega))


def dm_sign_flipped(monkeypatch):
    """-sin(w) n.(S1 x S2): K transposed, which is H with the qubits exchanged."""
    _replace(monkeypatch, "build_hamiltonian", lambda f: lambda p: SWAP @ f(p) @ SWAP)


def symmetric_term_10_percent_large(monkeypatch):
    def make(f):
        def build(p):
            n = p.axis()
            extra = 0.1 * 2.0 * p.J * math.sin(p.omega / 2) ** 2 * np.outer(n, n)
            return f(p) + np.tensordot(extra, PAIR, axes=2)
        return build
    _replace(monkeypatch, "build_hamiltonian", make)


def plan_qubits_swapped(monkeypatch):
    _replace(monkeypatch, "rotation_plan", lambda f: lambda p: RotationPlan(
        qubit1=f(p).qubit2, qubit2=f(p).qubit1))


def fields_swapped(monkeypatch):
    _replace(monkeypatch, "compensating_fields",
             lambda f: lambda p, B: FieldSpec(f(p, B).b2, f(p, B).b1))


# defect -> the checks that catch it; every other check misses it.
CAUGHT = {
    t_at_omega_over_2: {"transform", "decompose", "gate swap", "gate sqrt_swap", "gate cnot",
                        "gate psw", "fields", "sweep"},
    t_with_theta_flipped: {"transform", "decompose", "gate swap", "gate sqrt_swap", "gate cnot",
                           "gate psw", "fields", "sweep"},
    dm_sign_flipped: {"transform", "gate swap", "gate sqrt_swap", "gate cnot", "gate psw",
                      "sweep"},
    symmetric_term_10_percent_large: {"transform", "gate swap", "gate sqrt_swap", "gate psw",
                                      "thermal", "sweep"},
    plan_qubits_swapped: {"decompose"},
    fields_swapped: {"gate psw", "fields"},
}


def _caught(capsys, monkeypatch, defect) -> set[str]:
    caught = set()
    with monkeypatch.context() as patch:
        defect(patch)
        for name, command in CHECKS.items():
            code = cli.main([*command, *POINT])
            out, err = capsys.readouterr()
            assert code in (0, 2) and out, (name, err)
            if code == 2:
                assert err.startswith("error: ") and "exceeds tolerance" in err, (name, err)
                caught.add(name)
    return caught


def test_every_check_passes_without_a_defect(capsys, monkeypatch):
    assert _caught(capsys, monkeypatch, lambda patch: None) == set()


@pytest.mark.parametrize("defect", CAUGHT, ids=lambda d: d.__name__)
def test_each_defect_is_caught_by_the_frozen_checks(capsys, monkeypatch, defect):
    caught = _caught(capsys, monkeypatch, defect)
    assert caught == CAUGHT[defect]
    assert caught


def test_each_check_catches_a_defect():
    assert set().union(*CAUGHT.values()) == set(CHECKS)


@pytest.mark.parametrize("defect", [t_at_omega_over_2, t_with_theta_flipped],
                         ids=lambda d: d.__name__)
def test_psw_at_B_equal_to_J_misses_a_T_that_keeps_its_sigma_z_symmetry(capsys, monkeypatch,
                                                                        defect):
    """The psw blind spot: each T defect keeps qubit 1's factor the sigma_z-conjugate of
    qubit 2's (up to phase), so at B = J, where D is proportional to sigma_z, psw passes."""
    p = model.ExchangeParams(1.0, "xy", 0.37, theta=0.3)
    z = np.diag([1.0, -1.0])
    with monkeypatch.context() as patch:
        defect(patch)
        u1, u2 = frame._local_rotation(p, -p.omega), frame._local_rotation(p, p.omega)
        assert abs(np.vdot(z @ u2 @ z, u1)) == pytest.approx(2.0, abs=1e-12)
        assert cli.main(["gate", "--gate", "psw", "--B", "1", *POINT]) == 0
    assert capsys.readouterr().err == ""
