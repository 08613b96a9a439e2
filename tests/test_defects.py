"""Every verification check can fail: a table of named defects, each monkeypatched
into the package, against the CLI's checked reports at their default tolerances.

A defect is caught by a check when the check exits 2.  The caught/missed matrix is
frozen below.  Two blind spots are rows of it, not failures:

- the cnot sequence puts Rz1(pi) between its two pulses, which flips the sign of
  the flip-flop part S1xS2x + S1yS2y and so cancels it, so `gate cnot` cannot see
  a symmetric term that in the frame only changes the flip-flop coefficient;
- `thermal` compares concurrences, which local unitaries leave alone, so it sees
  no defect of T, nor the Dzyaloshinskii-Moriya sign flip (H conjugated by SWAP).
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
    "fields": ("fields",),
    "thermal": ("thermal",),
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
                        "fields"},
    t_with_theta_flipped: {"transform", "decompose", "gate swap", "gate sqrt_swap", "gate cnot",
                           "fields"},
    dm_sign_flipped: {"transform", "gate swap", "gate sqrt_swap", "gate cnot"},
    symmetric_term_10_percent_large: {"transform", "gate swap", "gate sqrt_swap", "thermal"},
    plan_qubits_swapped: {"decompose"},
    fields_swapped: {"fields"},
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
