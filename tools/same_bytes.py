"""One SHA-256 digest of what the CLI writes over a fixed corpus of command lines.

    python tools/same_bytes.py CHECKOUT

imports spinframe.cli from CHECKOUT/src and runs every argv of the corpus in this
process, inside a temporary directory, twice: once writing to stdout and once with
``--out FILE`` appended.  It prints the number of argvs and one digest over each run's
argv as listed, exit code, stdout, stderr and the bytes of FILE (or its absence).  The
temporary directory's path is hashed as a fixed placeholder, so the digest depends on
the program alone.

Two checkouts that print the same digest wrote the same bytes for every argv, which
is how a change that must keep its outputs is checked against its parent.  Two fresh
runs of one checkout must print the same digest: output is byte-deterministic for
identical input (no ``--stamp``).

The corpus: the README's command lines; the Hamiltonian's corners (theta -0, +-pi/2
and 4 pi, tan omega 0 and 1e16, J 1e308 and the smallest normal float); CSV cells
of -0, -inf, 0, a subnormal and 1e+308; each verification command at both orientations
in each of its formats; every sweep gate x mode x format at three seeded reference
points, with signed ratio lists; each gate's 21 x 21 map sweep (ratios -0.1:0.1:21 on
both axes, both modes, CSV, and swap's also as JSON) at a fourth; the README's default
sweep axes as JSON; a JSON thermal table whose beta axis holds 0, a subnormal and
1e+308; a CSV and a JSON sweep whose axes hold duplicates and signed zeros at theta
40.3; a sweep whose omega0 (1 + 0.1) is a point that atan(tan(omega)) would move by an
ulp; psw sweeps at B 0.5 and 3 (both modes, CSV and JSON); and refusals of the sweep's
ratios and gate, a z sweep, a psw sweep's B/J and a ``--tol 0`` sweep.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import sys
import tempfile
import warnings
from pathlib import Path

XY = ("--orientation", "xy", "--theta", "0.3", "--tan-omega", "0.37")
Z = ("--orientation", "z", "--tan-omega", "0.37")
README_REFERENCE = ("--orientation", "xy", "--theta", "5pi/6", "--tan-omega", "0.005")


def corpus() -> list[tuple[str, ...]]:
    """The argvs, in a fixed order; none writes a timestamp or names a file."""
    argvs = [
        ("transform", *README_REFERENCE),
        ("decompose", *README_REFERENCE),
        ("gate", "--gate", "cnot", "--orientation", "z", "--tan-omega", "0.005"),
        ("gate", "--gate", "psw", "--B", "1.0", "--orientation", "xy", "--theta", "0",
         "--tan-omega", "0.005"),
        ("fields", "--orientation", "xy", "--theta", "0", "--tan-omega", "0.005", "--B", "1.0"),
        ("sweep", *README_REFERENCE),
        ("thermal", "--orientation", "z", "--tan-omega", "0.3", "--beta", "0.1,1,10"),
        ("transform", "--orientation", "xy", "--theta", "-pi/2", "--tan-omega", "0.1"),
        ("sweep", "--orientation", "xy", "--theta", "0.3", "--tan-omega", "0.1",
         "--delta-omega-ratios", "-0.1,0,0.05"),
        # The Hamiltonian's corners: signed zeros of the axis, w = 0 and w near pi/2,
        # J at both ends of the float range.
        ("transform", "--orientation", "xy", "--theta", "-0", "--tan-omega", "0"),
        ("transform", "--orientation", "xy", "--theta", "pi/2", "--tan-omega", "1e16"),
        ("transform", "--orientation", "z", "--tan-omega", "0", "--J", "1e308"),
        ("gate", "--gate", "cnot", "--orientation", "xy", "--theta", "-pi/2", "--tan-omega", "0",
         "--J", "1e308"),
        ("gate", "--gate", "swap", "--orientation", "xy", "--theta", "4pi", "--tan-omega", "1e16",
         "--J", "2.2250738585072014e-308"),
        ("thermal", "--orientation", "xy", "--theta", "-0", "--tan-omega", "1e16", "--beta", "1"),
        # The CSV cells' corners: -0 and -inf, then 0, a subnormal and 1e+308.
        ("sweep", "--orientation", "xy", "--theta", "0.3", "--tan-omega", "0.1",
         "--delta-omega-ratios", "-0,0.05", "--delta-theta-ratios", "-0", "--format", "csv"),
        ("thermal", "--orientation", "z", "--tan-omega", "0", "--beta", "0,5e-324,1e308",
         "--format", "csv"),
    ]
    commands = [("transform",), ("decompose",), ("fields", "--B", "0.5"),
                *(("gate", "--gate", gate) for gate in ("swap", "sqrt_swap", "cnot")),
                ("gate", "--gate", "psw", "--B", "0.5")]
    for orientation in (XY, Z):
        for command in commands:
            for fmt in ((), ("--format", "json")):
                argvs.append((*command, *orientation, *fmt))
        for fmt in ((), ("--format", "json"), ("--format", "csv")):
            argvs.append(("thermal", *orientation, "--beta", "0.1,1,10,100", *fmt))
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        reference = ("--orientation", "xy", "--theta", repr(rng.uniform(-7.0, 7.0)),
                     "--tan-omega", repr(rng.uniform(1e-3, 1.0)))
        omega_ratios = ",".join(repr(rng.uniform(-0.2, 0.2)) for _ in range(4))
        theta_ratios = f"{rng.uniform(-0.2, 0.0)!r}:{rng.uniform(0.0, 0.2)!r}:3"
        for gate in ("swap", "sqrt_swap", "cnot"):
            for mode in ("both", "uncorrected", "corrected"):
                for fmt in ("csv", "json"):
                    argvs.append(("sweep", *reference, "--gate", gate, "--mode", mode,
                                  "--format", fmt, "--delta-omega-ratios", omega_ratios,
                                  "--delta-theta-ratios", theta_ratios))
    # The benchmark's map shape: a signed 21 x 21 grid in both modes, as CSV, and once
    # as JSON.
    rng = random.Random(4)
    tan_omega, theta = 10 ** rng.uniform(-3.0, math.log10(0.3)), rng.uniform(0.0, 2 * math.pi)
    for gate, fmt in (("swap", "csv"), ("sqrt_swap", "csv"), ("cnot", "csv"), ("swap", "json")):
        argvs.append(("sweep", "--orientation", "xy", "--theta", repr(theta), "--tan-omega",
                      repr(tan_omega), "--gate", gate, "--mode", "both", "--format", fmt,
                      "--delta-omega-ratios=-0.1:0.1:21", "--delta-theta-ratios=-0.1:0.1:21"))
    # The README's default axes (50 omega ratios x 2 theta ratios, both modes) as JSON,
    # and a JSON table whose one axis holds 0, a subnormal and 1e+308.
    argvs += [("sweep", *README_REFERENCE, "--format", "json"),
              ("thermal", "--orientation", "z", "--tan-omega", "0", "--beta", "0,5e-324,1e308",
               "--format", "json")]
    # The axes' corners: duplicate values and a signed zero on each axis, at a theta past
    # 4 pi, where each axis value is reduced by fmod before its cos and sin.
    for gate, fmt in (("cnot", "csv"), ("swap", "json")):
        argvs.append(("sweep", "--orientation", "xy", "--theta", "40.3", "--tan-omega", "0.37",
                      "--gate", gate, "--format", fmt,
                      "--delta-omega-ratios=-0.05,-0,0,0.05,0.05",
                      "--delta-theta-ratios=0.1,-0,0,-0.1,0.1"))
    # A row evaluated at the omega it is range-checked at, which atan(tan(omega)) is not.
    argvs.append(("sweep", "--orientation", "xy", "--theta", "0.3", "--tan-omega", "0.23",
                  "--delta-omega-ratios", "0,0.1", "--delta-theta-ratios", "0"))
    # The field gate: the fields set at the reference, and B echoed in the JSON config.
    for B in ("0.5", "3"):
        for fmt in ("csv", "json"):
            argvs.append(("sweep", *XY, "--gate", "psw", "--B", B, "--mode", "both",
                          "--format", fmt, "--delta-omega-ratios=-0.1,0,0.01",
                          "--delta-theta-ratios=-0.01,0.1"))
    far = ("--orientation", "xy", "--theta", "1e308", "--tan-omega", "0.1")
    argvs += [
        # An omega ratio out of range and a theta ratio that is not finite: theta is named.
        ("sweep", *README_REFERENCE, "--delta-omega-ratios", "-2,0", "--delta-theta-ratios",
         "0,nan"),
        # Two omega ratios out of range, and two theta ratios past the float range:
        # the first one given is named.
        ("sweep", *README_REFERENCE, "--delta-omega-ratios", "-1.5,-2"),
        ("sweep", *far, "--delta-theta-ratios", "1.5,2"),
        ("sweep", *README_REFERENCE, "--delta-omega-ratios", "0:inf:3"),
        ("gate", "--gate", "bogus", *XY),
        ("sweep", "--gate", "psw", "--B", "1", "--J", "1e-300", *XY),
        ("sweep", *Z),
        ("sweep", *XY, "--tol", "0"),
    ]
    return argvs


def run(main, argv: list[str]) -> tuple[int, str, str]:
    """main(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def feed(h, *parts) -> None:
    """Each part into h, length-prefixed so that no two records hash alike."""
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode("utf-8")
        h.update(len(data).to_bytes(8, "big") + data)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/same_bytes.py CHECKOUT", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve() / "src"
    if not (src / "spinframe" / "cli.py").is_file():
        print(f"error: no spinframe package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from spinframe import cli

    if Path(cli.__file__).resolve().parent != src / "spinframe":
        print(f"error: spinframe was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    warnings.simplefilter("always")  # a warning is written on every run, not only the first
    h = hashlib.sha256()
    argvs = corpus()
    with tempfile.TemporaryDirectory() as tmp:
        for i, listed in enumerate(argvs):
            feed(h, "\0".join(listed), *run(cli.main, list(listed)))
            out = Path(tmp, f"out{i}")
            code, stdout, stderr = run(cli.main, [*listed, "--out", str(out)])
            written = out.read_bytes() if out.exists() else b""
            feed(h, "\0".join((*listed, "--out", "OUT")), code,
                 stdout.replace(tmp, "<tmp>"), stderr.replace(tmp, "<tmp>"),
                 out.exists(), written)
    print(f"{len(argvs)} argvs, sha256 {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
