"""Seeded command lines for the benchmark workloads.

Each workload is an endless sequence of cycles.  A cycle is a fixed list of
command kinds whose parameters are drawn from a seeded generator, so the same
seed gives the same command lines, and any whole number of cycles does the
same work per call and per row.  That is what makes the per-layer counts
repeat exactly: the worker only ever stops at the end of a cycle.

The program receives only the generated argv (plus ``--out``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

SWEEP_GATES = ("swap", "sqrt_swap", "cnot")

# Ratio lists in the CLI's own grammar: comma values or start:stop:count.
# sweep_map: signed ratios with an odd count, so 0 is on the grid.  21 x 21
# keeps a call near half a second, so a run holds enough calls for steady
# percentiles and for the speed gauge between them (see gauge.py).
MAP_RATIOS = "-0.1:0.1:21"
# The README defaults of `spinframe sweep`, passed by omitting the flags.
DEFAULT_OMEGA = "0:0.1:50"
DEFAULT_THETA = "0.01,0.1"


@dataclass(frozen=True)
class Call:
    """One CLI command and what the checks need to know about it."""

    argv: tuple[str, ...]
    command: str
    fmt: str
    tan_omega: float
    theta: float | None = None
    gate: str | None = None
    B: float | None = None
    betas: tuple[float, ...] = ()
    omega_ratios: str | None = None
    theta_ratios: str | None = None
    rerun: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rerun_every: int
    oracle_rows_per_call: int
    make_cycle: Callable[[random.Random], list[Call]] = field(repr=False)


def _num(x: float) -> str:
    return repr(float(x))


def _reference(rng: random.Random) -> tuple[float, float]:
    """tan(omega0) log-uniform in [1e-3, 0.3], theta0 uniform in [0, 2 pi)."""
    return 10 ** rng.uniform(-3.0, math.log10(0.3)), rng.uniform(0.0, 2 * math.pi)


def _sweep_call(rng, gate, fmt, omega_ratios, theta_ratios, grid_flags) -> Call:
    tan0, theta0 = _reference(rng)
    argv = ["sweep", "--orientation", "xy", "--theta", _num(theta0),
            "--tan-omega", _num(tan0), "--gate", gate, "--format", fmt] + grid_flags
    return Call(tuple(argv), "sweep", fmt, tan0, theta0, gate,
                omega_ratios=omega_ratios, theta_ratios=theta_ratios)


def _sweep_map_cycle(rng: random.Random) -> list[Call]:
    # "=" keeps argparse from reading the leading "-0.1" as a flag.
    flags = ["--mode", "both", f"--delta-omega-ratios={MAP_RATIOS}",
             f"--delta-theta-ratios={MAP_RATIOS}"]
    return [_sweep_call(rng, g, "csv", MAP_RATIOS, MAP_RATIOS, flags) for g in SWEEP_GATES]


def _sweep_default_cycle(rng: random.Random) -> list[Call]:
    return [
        _sweep_call(rng, g, fmt, DEFAULT_OMEGA, DEFAULT_THETA, [])
        for g in SWEEP_GATES
        for fmt in ("csv", "json")
    ]


def _verify_cycle(rng: random.Random) -> list[Call]:
    calls = []
    for orientation in ("xy", "z"):
        for command, gate in (("transform", None), ("decompose", None), ("gate", "swap"),
                              ("gate", "sqrt_swap"), ("gate", "cnot"), ("gate", "psw"),
                              ("fields", None), ("thermal", None)):
            tan = 10 ** rng.uniform(-4.0, 1.0)
            theta = rng.uniform(0.0, 2 * math.pi) if orientation == "xy" else None
            argv = [command, "--orientation", orientation, "--tan-omega", _num(tan)]
            if theta is not None:
                argv += ["--theta", _num(theta)]
            B, betas = None, ()
            if gate is not None:
                argv += ["--gate", gate]
            if gate == "psw" or command == "fields":
                B = rng.uniform(0.1, 2.0)
                argv += ["--B", _num(B)]
            if command == "thermal":
                betas = tuple(10 ** rng.uniform(-2.0, math.log10(20.0)) for _ in range(3))
                argv += ["--beta", ",".join(_num(b) for b in betas)]
            argv += ["--format", "json"]
            calls.append(Call(tuple(argv), command, "json", tan, theta, gate, B, betas))
    return calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_map",
            "the paper's misestimation map: signed 21x21 2-D sweeps, where per-row "
            "compute in model/linalg/analysis dominates",
            rerun_every=12, oracle_rows_per_call=16, make_cycle=_sweep_map_cycle,
        ),
        Workload(
            "sweep_default",
            "many 200-row README-default sweeps: per-call parser, config, engine "
            "set-up and row emission costs show",
            rerun_every=25, oracle_rows_per_call=4, make_cycle=_sweep_default_cycle,
        ),
        Workload(
            "verify_mix",
            "single-matrix commands, no sweep: cli parse/format, frame, gates and "
            "one 4x4 matrix at a time in linalg",
            rerun_every=157, oracle_rows_per_call=0, make_cycle=_verify_cycle,
        ),
    )
}


def warmup_call(name: str) -> Call:
    """A small command of the workload's kind, run once before timing starts."""
    if name == "verify_mix":
        argv = ("gate", "--orientation", "xy", "--theta", "1.0", "--tan-omega", "0.01",
                "--gate", "swap", "--format", "json")
        return Call(argv, "gate", "json", 0.01, 1.0, "swap")
    argv = ("sweep", "--orientation", "xy", "--theta", "1.0", "--tan-omega", "0.01",
            "--delta-omega-ratios", "0,0.05", "--delta-theta-ratios", "0.01",
            "--format", "csv")
    return Call(argv, "sweep", "csv", 0.01, 1.0, "swap",
                omega_ratios="0,0.05", theta_ratios="0.01")


def anchor_call(call: Call) -> Call:
    """Swap at zero misestimation around the reference point of a sweep call."""
    argv = ("sweep", "--orientation", "xy", "--theta", _num(call.theta),
            "--tan-omega", _num(call.tan_omega), "--gate", "swap", "--mode", "both",
            "--delta-omega-ratios", "0", "--delta-theta-ratios", "0", "--format", "csv")
    return Call(argv, "sweep", "csv", call.tan_omega, call.theta, "swap",
                omega_ratios="0", theta_ratios="0")


def cycles(name: str, seed: int) -> Iterator[list[Call]]:
    """Endless seeded cycles of calls; every rerun_every-th call is marked for a rerun."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    index = 0
    offset = None
    while True:
        cycle = workload.make_cycle(rng)
        if offset is None:
            offset = rng.randrange(min(len(cycle), workload.rerun_every))
        marked = []
        for call in cycle:
            if index % workload.rerun_every == offset:
                call = replace(call, rerun=True)
            marked.append(call)
            index += 1
        yield marked
