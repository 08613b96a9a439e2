"""Tests that every check of the benchmark can fail, and that the tracer and
the seeded workloads behave as the benchmark relies on.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from spinframe import cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from gauge import NOMINAL_S, Gauge  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Call, anchor_call, cycles  # noqa: E402

TAN0, THETA0 = 0.02, 2.5


def sweep_call(gate="swap", fmt="csv") -> Call:
    argv = ("sweep", "--orientation", "xy", "--theta", repr(THETA0), "--tan-omega", repr(TAN0),
            "--gate", gate, "--format", fmt, "--delta-omega-ratios=-0.1:0.1:3",
            "--delta-theta-ratios=-0.05,0.05")
    return Call(argv, "sweep", fmt, TAN0, THETA0, gate,
                omega_ratios="-0.1:0.1:3", theta_ratios="-0.05,0.05")


def output(call: Call, tmp_path: Path) -> tuple[int, bytes]:
    path = tmp_path / f"out.{call.fmt}"
    code = cli.main([*call.argv, "--out", str(path)])
    return code, path.read_bytes() if path.exists() else b""


def replace_field(data: bytes, row: int, column: int, value: float) -> bytes:
    lines = data.decode().split("\n")
    fields = lines[row + 1].split(",")
    fields[column] = format(value, ".17g")
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines).encode()


@pytest.mark.parametrize("gate", ["swap", "sqrt_swap", "cnot"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_output_passes_structure_and_oracle(tmp_path, gate, fmt):
    call = sweep_call(gate, fmt)
    code, data = output(call, tmp_path)
    errors, rows = checks.check_sweep(call, data)
    assert code == 0 and errors == [] and len(rows) == 12
    assert checks.check_oracle(call, rows) == []


def test_corrupted_row_is_flagged(tmp_path):
    call = sweep_call()
    _, data = output(call, tmp_path)
    _, rows = checks.check_sweep(call, data)
    # An error column that no longer matches its fidelity breaks the structure.
    bad = replace_field(data, 4, 4, rows[4][4] + 1e-9)
    assert checks.check_sweep(call, bad)[0]
    # A consistent but wrong row (fidelity, error and log10 shifted together)
    # passes the structure and is caught by the independent oracle.
    f = rows[4][3] - 1e-9
    bad = replace_field(replace_field(replace_field(data, 4, 3, f), 4, 4, 1.0 - f),
                        4, 5, math.log10(1.0 - f))
    errors, bad_rows = checks.check_sweep(call, bad)
    assert errors == []
    assert checks.check_oracle(call, [bad_rows[4]])
    # A dropped row and a moved grid point are both flagged.
    lines = data.decode().split("\n")
    assert checks.check_sweep(call, "\n".join(lines[:3] + lines[4:]).encode())[0]
    assert checks.check_sweep(call, replace_field(data, 0, 0, 0.25))[0]


def test_wrong_exit_code_is_flagged(tmp_path):
    call = Call(("transform", "--orientation", "z", "--tan-omega", "0.1", "--format", "json",
                 "--tol", "-1"), "transform", "json", 0.1)
    code, _ = output(call, tmp_path)
    assert code == 2
    assert checks.check_exit(code)
    assert checks.check_exit(0) == []


def test_verify_outputs_pass_and_out_of_tolerance_is_flagged(tmp_path):
    reported = {"transform": "residual", "decompose": "assembly_distance",
                "fields": "residual", "gate": "phase_distance"}
    for call in next(cycles("verify_mix", 3)):
        code, data = output(call, tmp_path)
        assert checks.check_exit(code) == [] and checks.check_verify(call, data) == [], call
        doc = json.loads(data)
        if call.command == "thermal":
            doc["rows"][0]["difference"] = 1e-6
        elif call.gate == "psw":
            doc["matrix"][0][0] = [-x for x in doc["matrix"][0][0]]
        else:
            doc[reported[call.command]] = 1e-6
        assert checks.check_verify(call, json.dumps(doc).encode()), call


def test_anchor_is_checked(tmp_path):
    anchor = anchor_call(sweep_call())
    code, data = output(anchor, tmp_path)
    assert code == 0 and checks.check_anchor(anchor, data) == []
    assert checks.check_anchor(anchor, replace_field(data, 0, 4, 0.5))


def test_a_crashing_call_counts_as_failed(tmp_path):
    import worker

    class Crashing:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    run = worker.Run(Crashing, "verify_mix", 1, tmp_path)
    call = next(cycles("verify_mix", 1))[0]
    index = run.record(call, *run.call(call))
    assert run.failed == {index} and "boom" in run.messages[0]


def test_changed_byte_between_reruns_is_flagged(tmp_path):
    call = sweep_call("cnot")
    _, first = output(call, tmp_path)
    _, second = output(call, tmp_path)
    assert checks.check_rerun(first, second) == []
    changed = bytearray(second)
    changed[len(changed) // 2] ^= 1
    assert checks.check_rerun(first, bytes(changed))
    assert checks.check_rerun(first, second[:-1])


def test_tracer_spans_account_for_the_call(tmp_path):
    import spinframe
    from spinframe import linalg, model

    original = linalg.kron
    tracer = Tracer()
    tracer.install()
    try:
        assert model.kron is not original and spinframe.kron is not original
        code, data = output(sweep_call("cnot"), tmp_path)
    finally:
        tracer.uninstall()
    assert code == 0 and model.kron is original and spinframe.kron is original
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name_ix"]]
    roots = a["parent"] < 0
    assert [n for n, r in zip(names, roots) if r] == ["cli.main"]
    assert abs(a["self"].sum() - a["dur"][roots].sum()) < 1e-9
    assert (a["self"] >= 0).all()
    rows = 3 * 2 * 2
    assert names.count("model.spin_operators") == 2 * rows
    assert names.count("linalg.kron") == 17 * rows
    assert "gates._cnot_from_w" in names


def test_gauge_scales_by_the_samples_near_each_call():
    g = Gauge()
    g.times, g.seconds = [0.0, 1.0, 10.0], [2 * NOMINAL_S, 2 * NOMINAL_S, NOMINAL_S]
    assert g.factors([0.2, 10.1, 5.0], [0.3, 0.1, 0.1]) == [0.5, 1.0, 1.0]
    g = Gauge()
    g.keep_up(0.02)
    assert g.total >= 0.25 * 0.02 and len(g.times) == len(g.seconds) >= 1


def test_workloads_are_seeded():
    for name in WORKLOADS:
        a, b, c = cycles(name, 7), cycles(name, 7), cycles(name, 8)
        first = [next(a) for _ in range(3)]
        assert first == [next(b) for _ in range(3)]
        assert first != [next(c) for _ in range(3)]
        assert any(call.rerun for cycle in first for call in cycle)


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
