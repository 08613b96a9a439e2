import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinframe.cli import _csv_lines, _Table, main, parse_angle
from table_oracle import CORNER_AXES, CORNERS, expanded_rows, grid_tables


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "spinframe.cli", *args],
        capture_output=True,
        text=True,
    )


XY_ARGS = ("--orientation", "xy", "--theta", "5pi/6", "--tan-omega", "0.005")


def test_parse_angle_forms():
    assert parse_angle("5pi/6") == pytest.approx(5 * math.pi / 6, abs=1e-15)
    assert parse_angle("-pi/2") == pytest.approx(-math.pi / 2, abs=1e-15)
    assert parse_angle("pi") == pytest.approx(math.pi, abs=1e-15)
    assert parse_angle("2pi") == pytest.approx(2 * math.pi, abs=1e-15)
    assert parse_angle("0.25") == 0.25
    assert parse_angle(1.5) == 1.5


def test_parse_angle_rejects_garbage():
    with pytest.raises(ValueError):
        parse_angle("5pi/")


def test_every_refusal_is_a_value_error():
    """parse_angle refuses an unparsable angle and a zero denominator with the same type,
    the one type every CLI refusal has."""
    import spinframe.cli

    for text in ("5pi/", "pi/0"):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse_angle(text)
    assert not hasattr(spinframe.cli, "UsageError")


def test_transform_json_schema():
    r = run_cli("transform", *XY_ARGS, "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert set(doc) == {
        "parameters",
        "hamiltonian",
        "rotation",
        "transformed",
        "residual",
        "tolerance",
    }
    assert doc["residual"] < 1e-12
    # matrices serialize as 4x4 [re, im] pairs
    assert len(doc["rotation"]) == 4
    assert len(doc["rotation"][0][0]) == 2


def test_transform_human_output_mentions_residual():
    r = run_cli("transform", *XY_ARGS)
    assert r.returncode == 0
    assert re.search(r"^residual: \S+$", r.stdout, re.MULTILINE)


def test_decompose_reports_half_angle():
    r = run_cli("decompose", *XY_ARGS, "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    omega = math.atan(0.005)
    assert doc["qubit1"]["gamma"] == pytest.approx(omega / 2, abs=1e-15)
    assert doc["qubit2"]["gamma"] == pytest.approx(omega / 2, abs=1e-15)
    assert doc["assembly_distance"] < 1e-12


def test_gate_json_schema_is_exact():
    r = run_cli("gate", "--gate", "cnot", *XY_ARGS, "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert list(doc) == ["parameters", "label", "matrix", "phase_distance", "target", "tolerance"]
    assert doc["target"] == "CNOT"
    assert doc["tolerance"] == 1e-12
    assert doc["phase_distance"] <= 1e-12
    u = [[complex(re, im) for re, im in row] for row in doc["matrix"]]
    # CNOT column action survives the round trip
    assert abs(u[3][2]) == pytest.approx(1.0, abs=1e-8)


def test_gate_psw_is_checked_against_its_closed_form():
    """psw's target is SWAP.(D x D), the swap with its field phases, checked at 1e-12."""
    r = run_cli("gate", "--gate", "psw", "--B", "1.0", *XY_ARGS, "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["label"] == "psw(B=1.0)"
    assert doc["phase_distance"] <= 1e-12
    assert (doc["target"], doc["tolerance"]) == ("SWAP.(D x D)", 1e-12)


def test_fields_json():
    r = run_cli("fields", *XY_ARGS, "--B", "0.5", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert set(doc) == {"parameters", "B", "b1", "b2", "residual", "tolerance"}
    assert doc["residual"] < 1e-12
    b1 = doc["b1"]
    assert math.hypot(*b1) == pytest.approx(0.5, abs=1e-12)


def test_tolerance_failure_exits_2():
    # float rounding leaves a ~1e-16 residual; tol 0 must flag it
    r = run_cli(
        "transform",
        "--orientation",
        "xy",
        "--theta",
        "0.3",
        "--tan-omega",
        "0.37",
        "--tol",
        "0",
    )
    assert r.returncode == 2
    assert r.stderr.startswith("error:")


@pytest.mark.parametrize(
    "args",
    [
        ("transform", "--orientation", "xy", "--tan-omega", "0.1"),  # no theta
        ("transform", "--orientation", "z", "--theta", "1.0", "--tan-omega", "0.1"),
        ("transform", "--orientation", "xy", "--theta", "0.1"),  # no coupling
        ("sweep", "--orientation", "z", "--tan-omega", "0.1"),
        ("transform", *XY_ARGS, "--format", "csv"),  # no csv form
        ("nonsense",),
        (),
    ],
)
def test_usage_errors_exit_1(args):
    r = run_cli(*args)
    assert r.returncode == 1
    assert r.stderr.startswith("error:")


def test_missing_config_file_exits_3():
    r = run_cli("transform", "--config", "/nonexistent/path.cfg")
    assert r.returncode == 3
    assert r.stderr.startswith("error:")


def test_unwritable_out_exits_3(tmp_path):
    r = run_cli("transform", *XY_ARGS, "--out", str(tmp_path / "no" / "dir" / "x.json"))
    assert r.returncode == 3
    assert r.stderr.startswith("error:")


def test_unknown_config_key_exits_1(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("orientation = xy\nwibble = 3\n")
    r = run_cli("transform", "--config", str(cfg))
    assert r.returncode == 1
    assert "wibble" in r.stderr


def test_a_config_file_opening_with_a_bracket_is_json(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("  \n[1, 2]\n")
    code, out, err = _run_in_process(capsys, "transform", "--config", str(cfg))
    assert (code, out, err) == (1, "", f"error: config {cfg} must be a JSON object\n")


@pytest.mark.parametrize("data, at", [
    (b"orientation = xy\xff\n", 16),
    ("orientation = xy\ntan_omega = 0.37\n".encode("utf-16"), 0),
], ids=["stray byte", "utf-16"])
def test_a_config_file_that_is_not_utf8_is_named(capsys, tmp_path, data, at):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(data)
    code, out, err = _run_in_process(capsys, "transform", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == f"error: config {cfg} is not UTF-8: invalid start byte at byte {at}\n"


@pytest.mark.parametrize("text, args, want", [
    ('{"orientation": xy}', (), "config {cfg} is bad JSON: Expecting value: line 1 column 17"
     " (char 16)"),
    ("orientation = xy\n\ntheta 0.3\n", (), "config {cfg} line 3 is not 'key = value'"),
    ("tan_omega = 0.1\n", (), "orientation is required (xy or z)"),
    (None, ("--delta-omega-ratios", "0:1"), "delta_omega_ratios: range must be start:stop:count"),
    (None, ("--delta-theta-ratios", "0:1:2:3"),
     "delta_theta_ratios: range must be start:stop:count"),
    (None, ("--delta-omega-ratios", "0:1:0"), "delta_omega_ratios: count must be >= 1"),
    (None, ("--beta", ","), "beta: must not be empty"),
], ids=["bad json", "line without =", "no orientation", "range of 2", "range of 4", "count 0",
        "empty list"])
def test_each_config_and_series_refusal_is_one_line_naming_its_input(capsys, tmp_path, text,
                                                                     args, want):
    """Exit 1, nothing on stdout, and one error line that names the file, its line or
    the option at fault."""
    cfg = tmp_path / "run.cfg"
    if text is None:
        command = "thermal" if args[0] == "--beta" else "sweep"
        argv = (command, "--orientation", "xy", "--theta", "0.3", "--tan-omega", "0.1", *args)
    else:
        cfg.write_text(text)
        argv = ("sweep", "--config", str(cfg))
    assert _run_in_process(capsys, *argv) == (1, "", f"error: {want.format(cfg=cfg)}\n")


def test_a_flat_config_may_hold_comments_and_blank_lines(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# the README's point\n\norientation = xy  # axis in the plane\n"
                   "   \ntheta = 5pi/6\n# tan_omega = 9\ntan_omega = 0.005\n")
    want = _run_in_process(capsys, "decompose", *XY_ARGS)
    assert want[0] == 0
    assert _run_in_process(capsys, "decompose", "--config", str(cfg)) == want


def test_a_range_too_long_for_any_array_exits_1_naming_its_option(capsys):
    """A count of 1e16 asks numpy for 71 PiB, beyond any address space, so nothing is
    allocated: the MemoryError is a usage error, not a traceback."""
    code, out, err = _run_in_process(capsys, "sweep", *XY_ARGS, "--delta-omega-ratios",
                                     "0:0.1:10000000000000000")
    assert (code, out) == (1, "")
    assert err.startswith("error: delta_omega_ratios: ") and err.count("\n") == 1


@pytest.mark.parametrize("name, text", [
    ("run.cfg", "orientation = xy\ntheta = 0.3\ntan_omega = 0.37\n"),
    ("run.json", json.dumps({"orientation": "xy", "theta": 0.3, "tan_omega": 0.37})),
], ids=["flat", "json"])
def test_a_config_file_with_a_byte_order_mark_reads_as_without(capsys, tmp_path, name, text):
    """Windows editors such as Notepad open a UTF-8 file with the mark U+FEFF."""
    plain, marked = tmp_path / name, tmp_path / ("bom-" + name)
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(text.encode("utf-8-sig"))
    want = _run_in_process(capsys, "transform", "--config", str(plain))
    assert want[0] == 0
    assert _run_in_process(capsys, "transform", "--config", str(marked)) == want


SWEEP_ARGS = (
    "sweep",
    *XY_ARGS,
    "--delta-omega-ratios",
    "0:0.1:5",
    "--delta-theta-ratios",
    "0.01,0.1",
)

CSV_HEADER = "delta_omega_ratio,delta_theta_ratio,corrected,fidelity,error,log10_error"


def test_sweep_csv_shape_and_roundtrip():
    r = run_cli(*SWEEP_ARGS)
    assert r.returncode == 0
    lines = r.stdout.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 5 * 2 * 2
    # uncorrected block first, then corrected
    flags = [line.split(",")[2] for line in lines[1:]]
    assert flags == ["false"] * 10 + ["true"] * 10
    for line in lines[1:]:
        dw, dth, flag, fid, err, log10e = line.split(",")
        assert flag in ("true", "false")
        err = float(err)
        # 17 significant digits round-trip and log10 is consistent
        assert float(f"{err:.17g}") == err
        if err > 0:
            assert float(log10e) == pytest.approx(math.log10(err), abs=1e-12)
        else:
            assert float(log10e) == -math.inf
        assert float(fid) <= 1.0 + 1e-12
        assert float(dw) >= 0.0 and float(dth) > 0.0


def test_sweep_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*SWEEP_ARGS, "--out", str(a)).returncode == 0
    assert run_cli(*SWEEP_ARGS, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().decode().splitlines()[0] == CSV_HEADER


def test_sweep_json_form():
    r = run_cli(*SWEEP_ARGS, "--format", "json", "--mode", "corrected")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["config"]["gate"] == "swap"
    assert doc["config"]["mode"] == "corrected"
    assert len(doc["rows"]) == 10
    for row in doc["rows"]:
        assert row["corrected"] is True
        assert row["error"] >= 0.0


def test_thermal_csv():
    r = run_cli(
        "thermal",
        "--orientation",
        "z",
        "--tan-omega",
        "0.3",
        "--beta",
        "0.1,1,10",
        "--format",
        "csv",
    )
    assert r.returncode == 0
    lines = r.stdout.strip().split("\n")
    assert lines[0] == "beta,concurrence,concurrence_isotropic,difference"
    assert len(lines) == 4
    for line in lines[1:]:
        beta, c, c0, diff = map(float, line.split(","))
        assert abs(c - c0) <= 1e-12
        assert diff <= 1e-12


def test_config_file_forms_agree(tmp_path):
    flat = tmp_path / "run.cfg"
    flat.write_text(
        "orientation = xy\n"
        "theta = 5pi/6  # axis azimuth\n"
        "tan_omega = 0.005\n"
    )
    as_json = tmp_path / "run.json"
    as_json.write_text(
        json.dumps({"orientation": "xy", "theta": "5pi/6", "tan_omega": 0.005})
    )
    a = run_cli("decompose", "--config", str(flat), "--format", "json")
    b = run_cli("decompose", "--config", str(as_json), "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("orientation = xy\ntheta = 5pi/6\ntan_omega = 0.1\n")
    r = run_cli("decompose", "--config", str(cfg), "--tan-omega", "0.005", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["qubit1"]["gamma"] == pytest.approx(math.atan(0.005) / 2, abs=1e-15)


def test_angle_notation_matches_decimal():
    a = run_cli("decompose", "--orientation", "xy", "--theta", "5pi/6",
                "--tan-omega", "0.005", "--format", "json")
    b = run_cli("decompose", "--orientation", "xy", "--theta",
                repr(5 * math.pi / 6), "--tan-omega", "0.005", "--format", "json")
    assert a.stdout == b.stdout


def test_stamp_adds_csv_comment():
    r = run_cli(
        "thermal", "--orientation", "z", "--tan-omega", "0.1", "--format", "csv", "--stamp"
    )
    assert r.returncode == 0
    assert r.stdout.startswith("# stamp: ")


def test_main_returns_int_in_process(capsys):
    code = main(["decompose", *XY_ARGS, "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["parameters", "qubit1", "qubit2", "assembly_distance", "tolerance"]


def _run_in_process(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_bad_tol_flag_exits_1(capsys, tol):
    for command in (("gate", "--gate", "swap"), ("transform",)):
        code, out, err = _run_in_process(capsys, *command, *XY_ARGS, "--tol", tol)
        assert code == 1
        assert out == ""
        assert err.startswith("error: tol")


@pytest.mark.parametrize("line", ["tol = nan", "tol = inf", "tol = -1", '"tol": "nan"'])
def test_bad_tol_config_exits_1(capsys, tmp_path, line):
    cfg = tmp_path / "run.cfg"
    if line.startswith('"'):
        cfg.write_text('{"orientation": "z", "tan_omega": 0.1, ' + line + "}")
    else:
        cfg.write_text(f"orientation = z\ntan_omega = 0.1\n{line}\n")
    code, out, err = _run_in_process(capsys, "thermal", "--config", str(cfg))
    assert code == 1
    assert err.startswith("error: tol")


@pytest.mark.parametrize(
    "text",
    [
        "orientation = z\ntan_omega = 0.1\nstamp = off\n",
        '{"orientation": "z", "tan_omega": 0.1, "stamp": "false"}',
    ],
)
def test_stamp_config_must_be_a_json_bool(capsys, tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = _run_in_process(capsys, "thermal", "--config", str(cfg), "--format", "csv")
    assert code == 1
    assert out == ""
    assert err.startswith("error: stamp")


@pytest.mark.parametrize(
    "text",
    [
        "orientation = z\ntan_omega = 0.1\nstamp = false\n",
        '{"orientation": "z", "tan_omega": 0.1, "stamp": false}',
    ],
)
def test_stamp_false_in_config_adds_no_stamp(capsys, tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, _ = _run_in_process(capsys, "thermal", "--config", str(cfg), "--format", "csv")
    assert code == 0
    assert out.startswith("beta,")


def test_closed_stdout_pipe_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run(
            [sys.executable, "-m", "spinframe.cli", *SWEEP_ARGS],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert r.returncode == 0
    assert r.stderr == ""


@pytest.mark.parametrize("gate", [("--gate", "swap"), ("--gate", "psw", "--B", "3")],
                         ids=["swap", "psw"])
def test_a_reader_that_leaves_after_the_header_ends_the_sweep_quietly(gate):
    """A 41 x 41 sweep in both modes writes about 340 KB, more than a pipe holds: the
    reader takes the header and closes the pipe while the sweep is still writing.
    stdout is buffered, as by default: unbuffered (PYTHONUNBUFFERED), the text layer
    takes the short write that the closed pipe ends with as complete, and no
    BrokenPipeError is raised at all."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "spinframe.cli", "sweep", *XY_ARGS, *gate, "--mode", "both",
         "--delta-omega-ratios=-0.1:0.1:41", "--delta-theta-ratios=-0.1:0.1:41"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    header = proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait(timeout=60)  # stderr, one line at most, cannot fill its pipe
    with proc.stderr:
        err = proc.stderr.read()
    assert header.startswith("delta_omega_ratio,delta_theta_ratio,")
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "args",
    [
        (*XY_ARGS, "--delta-omega-ratios=-2"),
        ("--orientation", "xy", "--theta", "1", "--tan-omega", "1000",
         "--delta-omega-ratios", "0.1"),
    ],
)
def test_sweep_ratio_out_of_range_exits_1(capsys, args):
    code, out, err = _run_in_process(capsys, "sweep", *args)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "delta_omega_ratios" in err


def test_sweep_theta_ratio_past_the_float_range_exits_1_naming_the_ratio(capsys):
    code, out, err = _run_in_process(capsys, "sweep", "--orientation", "xy", "--theta", "1e308",
                                     "--tan-omega", "0.1", "--delta-omega-ratios", "0",
                                     "--delta-theta-ratios", "0.9")
    assert (code, out) == (1, "")
    assert err == "error: delta_theta_ratios value 0.9 puts theta0 (1 + r) past the float range\n"


COMMON_FLAGS = {"--config", "--J", "--orientation", "--theta", "--tan-omega", "--out",
                "--format", "--tol", "--stamp"}
COMMAND_FLAGS = {
    "transform": COMMON_FLAGS,
    "decompose": COMMON_FLAGS,
    "gate": COMMON_FLAGS | {"--gate", "--B"},
    "fields": COMMON_FLAGS | {"--B"},
    "sweep": COMMON_FLAGS | {"--gate", "--B", "--mode", "--delta-omega-ratios",
                             "--delta-theta-ratios"},
    "thermal": COMMON_FLAGS | {"--beta"},
}


def test_each_subcommand_takes_its_flags():
    from spinframe.cli import _build_parser

    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(COMMAND_FLAGS)
    for command, expected in COMMAND_FLAGS.items():
        flags = {s for a in sub.choices[command]._actions for s in a.option_strings}
        assert flags - {"-h", "--help"} == expected, command


@pytest.mark.parametrize(
    "args",
    [
        ("transform", *XY_ARGS, "--gate", "swap"),
        ("decompose", *XY_ARGS, "--B", "1"),
        ("fields", *XY_ARGS, "--mode", "both"),
        ("thermal", "--orientation", "z", "--tan-omega", "0.1", "--gate", "swap"),
        ("sweep", *XY_ARGS, "--beta", "1"),
        ("gate", *XY_ARGS, "--gate", "swap", "--b-over-J", "0.1"),
    ],
)
def test_flag_a_subcommand_does_not_take_exits_1(capsys, args):
    code, out, err = _run_in_process(capsys, *args)
    assert code == 1
    assert err.startswith("error:")


def test_readme_config_keys_match_option_table():
    from spinframe.cli import _OPTIONS

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Config files", 1)[1].split("\n### ", 1)[0]
    listed = re.search(r"Keys match the flag\s+names \((.*?)\)\.", section, re.S).group(1)
    assert set(re.findall(r"`(\w+)`", listed)) == set(_OPTIONS)


def test_parse_angle_rejects_a_zero_denominator():
    for text in ("pi/0", "-3pi/00"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_angle(text)


def test_zero_denominator_theta_flag_exits_1(capsys):
    code, out, err = _run_in_process(
        capsys, "transform", "--orientation", "xy", "--theta", "pi/0", "--tan-omega", "0.1"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: theta: ")


def test_zero_denominator_theta_config_exits_1(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("orientation = xy\ntheta = pi/0\ntan_omega = 0.1\n")
    code, out, err = _run_in_process(capsys, "transform", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err.startswith("error: theta: ")


@pytest.mark.parametrize(
    "key, raw",
    [
        ("theta", {"theta": True}),
        ("tan_omega", {"tan_omega": False}),
        ("J", {"J": True}),
        ("B", {"B": True}),
        ("tol", {"tol": False}),
        ("beta", {"beta": True}),
        ("beta", {"beta": [0.5, True]}),
    ],
)
def test_json_bool_is_not_a_number(capsys, tmp_path, key, raw):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"orientation": "xy", "theta": 1.0, "tan_omega": 0.1, **raw}))
    command = "thermal" if key == "beta" else "fields"
    code, out, err = _run_in_process(capsys, command, "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {key}: ")


def test_flat_file_bool_is_not_a_number(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("orientation = xy\ntheta = 1\ntan_omega = 0.1\nJ = true\n")
    code, out, err = _run_in_process(capsys, "transform", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err.startswith("error: J: ")


def test_psw_refuses_a_field_phase_of_rounding_noise(capsys):
    """At B/J = 1e300 the phase B pi/J has no digits: exit 1 naming B/J, not a distance."""
    code, out, err = _run_in_process(capsys, "gate", "--gate", "psw", "--B", "1", "--J", "1e-300",
                                     "--orientation", "xy", "--theta", "5pi/6",
                                     "--tan-omega", "0.37")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: B/J = {1 / 1e-300!r} for B = 1.0 ") and err.count("\n") == 1


def test_gate_choices_are_the_gate_table():
    """gate and sweep offer one choice list, the gate table's rows, psw among them."""
    from spinframe import gates
    from spinframe.cli import _build_parser

    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("gate", "sweep"):
        action = next(a for a in sub.choices[command]._actions if a.dest == "gate")
        assert action.metavar == "{" + ",".join(gates.GATES) + "}", command
        assert action.metavar == "{swap,sqrt_swap,cnot,psw}", command
        assert action.choices is None, command


def test_sweep_help_lists_the_gate_table_only(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    out = capsys.readouterr().out
    assert "--gate {swap,sqrt_swap,cnot,psw}" in out and "--B B" in out


def test_the_mode_choices_are_the_sweeps_modes_in_their_order(capsys):
    """The mode row's choices are analysis._MODES' keys: both, corrected, uncorrected,
    in the metavar and in the refusal of any other mode."""
    from spinframe import analysis

    assert tuple(analysis._MODES) == ("both", "corrected", "uncorrected")
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    assert "--mode {both,corrected,uncorrected}" in capsys.readouterr().out
    want = "error: mode: must be one of both, corrected, uncorrected, got 'all'\n"
    assert _run_in_process(capsys, "sweep", *XY_ARGS, "--mode", "all") == (1, "", want)


def test_the_orientation_choices_are_the_models_orientations_in_their_order(capsys):
    """The orientation row's choices are model._ORIENTATIONS: xy, z, in the metavar and in
    the refusal of any other orientation, which ExchangeParams refuses from the same tuple."""
    from spinframe import model

    assert model._ORIENTATIONS == ("xy", "z")
    with pytest.raises(SystemExit):
        main(["transform", "--help"])
    assert "--orientation {xy,z}" in capsys.readouterr().out
    want = "error: orientation: must be one of xy, z, got 'q'\n"
    assert _run_in_process(capsys, "transform", "--orientation", "q",
                           "--tan-omega", "0.1") == (1, "", want)
    with pytest.raises(ValueError, match=r"^orientation must be 'xy' or 'z'$"):
        model.ExchangeParams(1.0, "q", 0.1)


@pytest.mark.parametrize("given", [("--gate", "psw", "--B", "3"), "gate = psw\nB = 3\n",
                                   '{"gate": "psw", "B": 3}'],
                         ids=["flag", "config", "json config"])
def test_a_psw_sweep_runs_from_a_flag_or_a_file(capsys, tmp_path, computed, given):
    """psw is a row of the gate table, so it sweeps like every row, with its B."""
    args = ("sweep", *XY_ARGS, "--delta-omega-ratios", "0.1", "--delta-theta-ratios", "0.1")
    if isinstance(given, str):  # a config file holding the gate and B
        cfg = tmp_path / "run.cfg"
        cfg.write_text(given)
        given = ("--config", str(cfg))
    code, out, err = _run_in_process(capsys, *args, *given)
    assert (code, err) == (0, "") and computed[:1] == ["gate_error_sweep"]
    assert (code, out, err) == _run_in_process(capsys, *args, "--gate", "psw", "--B", "3.0")
    swap = _run_in_process(capsys, *args)
    assert swap[0] == 0 and swap[1].splitlines()[0] == out.splitlines()[0]
    assert swap[1] != out  # B = 3 J leaves the corrected row far closer to its target


@pytest.mark.parametrize("fault, message", [
    (("--B", "nan"), "error: B: must be finite, got 'nan'\n"),
    (("--B", "1", "--J", "1e-300"), f"error: B/J = {1 / 1e-300!r} for B = 1.0 is too large: "),
    (("--B", "10", "--J", "2.2250738585072014e-308"), "error: B must be finite in units of J; "),
], ids=["B", "B/J", "B/J past the float range"])
def test_a_psw_sweep_refuses_a_bad_B_before_writing_a_byte(capsys, tmp_path, computed, fault,
                                                           message):
    dest = tmp_path / "rows.csv"
    code, out, err = _run_in_process(capsys, "sweep", *XY_ARGS, "--gate", "psw", *fault,
                                     "--out", str(dest))
    assert (code, out) == (1, "") and err.startswith(message) and err.count("\n") == 1
    assert not dest.exists() and "build_hamiltonian" not in computed


def test_the_sweep_config_echoes_B_for_a_field_gate_only(capsys):
    args = ("sweep", *XY_ARGS, "--delta-omega-ratios", "0", "--delta-theta-ratios", "0",
            "--format", "json", "--B", "0.5")
    for gate in ("swap", "sqrt_swap", "cnot", "psw"):
        code, out, err = _run_in_process(capsys, *args, "--gate", gate)
        assert (code, err) == (0, "")
        config = json.loads(out)["config"]
        assert list(config) == ["gate", "tan_omega0", "theta0", "delta_omega_ratios",
                                "delta_theta_ratios", "mode", *(["B"] if gate == "psw" else [])]
        assert config.get("B", 0.5) == 0.5


def test_a_hash_inside_a_quoted_config_value_is_kept(capsys, tmp_path, monkeypatch):
    """A flat config cuts each line at its comment, but a '#' inside a JSON-quoted value
    belongs to the value: out = "run#1.json" writes run#1.json."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text('orientation = xy\ntheta = 5pi/6  # the README\'s\ntan_omega = 0.005\n'
                   'out = "run#1.json"  # where "it" goes\nformat = json\n')
    assert _run_in_process(capsys, "transform", "--config", str(cfg)) == (0, "", "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run#1.json", "run.cfg"]
    want = _run_in_process(capsys, "transform", *XY_ARGS, "--format", "json")
    assert (tmp_path / "run#1.json").read_text() == want[1]
    # A quote left open is refused by its key before any file is written.
    for value in ('"run#1.json', '"run#1.json" and more', '"run'):
        cfg.write_text(f"orientation = xy\nout = {value}\n")
        code, out, err = _run_in_process(capsys, "transform", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert f"config {cfg} line 2: out is not a JSON string" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run#1.json", "run.cfg"]


@pytest.mark.parametrize("name, text, shown", [
    ("run.cfg", "out = null", "None"),
    ("run.cfg", "out = 1e3", "1000.0"),
    ("run.cfg", "out = false", "False"),
    ("run.cfg", "out = [1]", "[1]"),
    ("run.cfg", 'out = ""', "''"),
    ("run.json", '"out": {"a": 1}', "{'a': 1}"),
    ("run.json", '"out": null', "None"),
    ("run.json", '"out": 2', "2"),
], ids=["flat-null", "flat-number", "flat-false", "flat-list", "flat-empty", "json-object",
        "json-null", "json-number"])
def test_a_config_out_that_is_not_a_nonempty_string_exits_1_naming_out(capsys, tmp_path,
                                                                       monkeypatch, name, text,
                                                                       shown):
    """A config value of another JSON type is not turned into a file name: it is refused
    by out's option row before any command computes, and no file is written."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / name
    cfg.write_text(f"orientation = z\ntan_omega = 0.1\n{text}\n" if name.endswith(".cfg") else
                   f'{{"orientation": "z", "tan_omega": 0.1, {text}}}')
    code, out, err = _run_in_process(capsys, "transform", "--config", str(cfg))
    assert (code, out, err) == (1, "", f"error: out: must be a nonempty file name, got {shown}\n")
    assert [p.name for p in tmp_path.iterdir()] == [name]


@pytest.mark.parametrize("command", ["transform", "sweep"])
def test_an_empty_out_flag_exits_1_naming_out(capsys, tmp_path, monkeypatch, command):
    """--out "" is refused, where it sent the report to stdout."""
    monkeypatch.chdir(tmp_path)
    code, out, err = _run_in_process(capsys, command, *XY_ARGS, "--out", "")
    assert (code, out, err) == (1, "", "error: out: must be a nonempty file name, got ''\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, text", [
    ("run.cfg", "out = report.json"),
    ("run.json", '"out": "report.json"'),
], ids=["flat", "json"])
def test_a_config_out_string_names_the_file_written(capsys, tmp_path, monkeypatch, name, text):
    """A bare flat value and a JSON string are file names (a quoted flat value is
    test_a_hash_inside_a_quoted_config_value_is_kept's)."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / name
    cfg.write_text(f"orientation = z\ntan_omega = 0.1\n{text}\n" if name.endswith(".cfg") else
                   f'{{"orientation": "z", "tan_omega": 0.1, {text}}}')
    assert _run_in_process(capsys, "transform", "--config", str(cfg)) == (0, "", "")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, "report.json"])
    want = _run_in_process(capsys, "transform", "--orientation", "z", "--tan-omega", "0.1",
                           "--format", "json")
    assert (tmp_path / "report.json").read_text() == want[1]


PSW_ARGS = ("gate", "--orientation", "xy", "--theta", "0.3", "--tan-omega", "0.37", "--gate", "psw")


@pytest.mark.parametrize("form", [(), ("--format", "json")], ids=["text", "json"])
def test_the_gate_defaults_to_swap(capsys, form):
    want = _run_in_process(capsys, "gate", "--gate", "swap", *XY_ARGS, *form)
    assert want[0] == 0
    assert _run_in_process(capsys, "gate", *XY_ARGS, *form) == want


def test_a_config_gate_beats_the_default_and_a_flag_beats_the_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gate = cnot\n")
    for flag, want in (((), "cnot"), (("--gate", "sqrt_swap"), "sqrt_swap")):
        from_file = _run_in_process(capsys, "gate", "--config", str(cfg), *XY_ARGS, *flag)
        assert from_file == _run_in_process(capsys, "gate", "--gate", want, *XY_ARGS)
        assert from_file[0] == 0 and f"label: {want}" in from_file[1]


@pytest.mark.parametrize("gate", ["swap", "sqrt_swap", "cnot", "psw"])
def test_every_gate_fails_a_distance_of_1e_11_at_the_default_tol(capsys, monkeypatch, gate):
    """Every gate, cnot included, is checked at 1e-12, so a distance of 1e-11 exits 2."""
    from spinframe import gates

    monkeypatch.setattr(gates, "phase_distance", lambda u, target: 1e-11)
    code, out, err = _run_in_process(capsys, "gate", "--gate", gate, *XY_ARGS)
    assert code == 2
    assert "\nphase_distance: 1e-11\n" in out and out.endswith("\ntolerance: 1e-12\n")
    assert err == "error: gate distance 1.000000e-11 exceeds tolerance 1.000000e-12\n"


def test_psw_fails_its_check_at_tol_0(capsys):
    """Rounding leaves psw's distance near 1e-31; tol 0 must flag it."""
    code, out, err = _run_in_process(capsys, *PSW_ARGS, "--tol", "0")
    assert code == 2
    assert out.endswith("target: SWAP.(D x D)\ntolerance: 0.0\n")
    assert err.startswith("error: gate distance ") and err.count("\n") == 1


@pytest.mark.parametrize("name, text", [
    ("run.cfg", "orientation = xy\ntheta = 0.3\ntan_omega = 0.37\ngate = psw\ntol = 1e-3\n"),
    ("run.json", json.dumps({"orientation": "xy", "theta": 0.3, "tan_omega": 0.37,
                             "gate": "psw", "tol": 1e-3})),
], ids=["flat", "json"])
def test_psw_uses_a_tol_from_a_config_file(capsys, tmp_path, name, text):
    cfg = tmp_path / name
    cfg.write_text(text)
    code, out, err = _run_in_process(capsys, "gate", "--config", str(cfg), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["tolerance"] == 1e-3


@pytest.mark.parametrize("key, args, value", [
    ("orientation", ("transform", "--tan-omega", "0.1"), "q"),
    ("gate", ("gate", *XY_ARGS), "nope"),
    ("gate", ("sweep", *XY_ARGS), "nope"),
    ("mode", ("sweep", *XY_ARGS), "x"),
    ("format", ("transform", *XY_ARGS), "xml"),
], ids=["orientation", "gate", "sweep gate", "mode", "format"])
def test_a_bad_choice_prints_one_line_from_a_flag_or_a_file(capsys, tmp_path, key, args, value):
    """The option row refuses a bad choice, from a flag or from a config file, with one
    message."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, out, err = from_file = _run_in_process(capsys, *args, "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {key}: must be one of ") and err.endswith(f", got {value!r}\n")
    assert _run_in_process(capsys, *args, "--" + key, value) == from_file


def test_parser_built_once_gives_each_call_its_own_result(capsys):
    """main reuses one parser; a usage error must leave nothing for the next call."""
    calls = [
        ("gate", *XY_ARGS, "--gate", "nope"),
        ("gate", *XY_ARGS, "--gate", "swap", "--format", "json"),
        ("thermal", "--orientation", "z", "--tan-omega", "0.1", "--format", "csv"),
    ]
    in_process = [_run_in_process(capsys, *args) for args in calls]
    for args, (code, out, err) in zip(calls, in_process):
        alone = run_cli(*args)
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr), args
    assert [code for code, _, _ in in_process] == [1, 0, 0]


SWEEP_TOL_ARGS = ("sweep", "--orientation", "xy", "--theta", "0.3", "--tan-omega", "0.37",
                  "--delta-omega-ratios", "0.1", "--delta-theta-ratios", "0.1")


@pytest.mark.parametrize("point", [SWEEP_TOL_ARGS[1:7], XY_ARGS], ids=["theta 0.3", "5pi/6"])
def test_the_sweep_residual_is_the_transform_residual(capsys, point):
    """The sweep checks the isotropization residual of its reference point, bit for bit the
    one transform reports there."""
    code, out, err = _run_in_process(capsys, "sweep", *point, "--delta-omega-ratios", "0",
                                     "--delta-theta-ratios", "0", "--format", "json")
    assert (code, err) == (0, "")
    sweep = json.loads(out)
    code, out, _ = _run_in_process(capsys, "transform", *point, "--format", "json")
    assert code == 0 and 0 < sweep["residual"] == json.loads(out)["residual"]


def test_a_sweep_at_tol_0_writes_its_csv_and_exits_2(capsys):
    """Rounding leaves the reference point's residual near 1e-16; tol 0 must flag it, after
    the same CSV as the default run."""
    code, out, err = _run_in_process(capsys, *SWEEP_TOL_ARGS, "--tol", "0")
    assert code == 2 and err.count("\n") == 1
    want = r"error: isotropization residual \S+ exceeds tolerance 0\.000000e\+00\n"
    assert re.fullmatch(want, err)
    assert (0, out, "") == _run_in_process(capsys, *SWEEP_TOL_ARGS)


@pytest.mark.parametrize("name, text", [
    ("run.cfg", "orientation = xy\ntheta = 0.3\ntan_omega = 0.37\ntol = 0.25\n"),
    ("run.json", json.dumps({"orientation": "xy", "theta": 0.3, "tan_omega": 0.37, "tol": 0.25})),
], ids=["flat", "json"])
def test_the_sweep_reads_a_tol_from_a_config_file(capsys, tmp_path, name, text):
    cfg = tmp_path / name
    cfg.write_text(text)
    code, out, err = _run_in_process(capsys, "sweep", "--config", str(cfg), "--format", "json")
    assert (code, err) == (0, "") and json.loads(out)["tolerance"] == 0.25


def test_a_nan_residual_fails_the_sweep_check(capsys, monkeypatch):
    """A CSV sweep writes its rows, then exits 2 on a NaN residual, as transform does."""
    from spinframe import frame

    want = _run_in_process(capsys, *SWEEP_TOL_ARGS)[1]
    monkeypatch.setattr(frame, "verify_isotropization", lambda p: math.nan)
    code, out, err = _run_in_process(capsys, *SWEEP_TOL_ARGS)
    assert (code, out, err) == (2, want, "error: isotropization residual nan exceeds tolerance "
                                         "1.000000e-12\n")


@pytest.mark.parametrize("point", [
    ("--theta", "0.3", "--tan-omega", "0.37", "--J", repr(sys.float_info.min)),
    ("--theta", "0.3", "--tan-omega", "0.37", "--J", "1e308"),
    ("--theta", "1e8", "--tan-omega", "0.37"),
    ("--theta", "-1e8", "--tan-omega", "0.37"),
    ("--theta", "0.3", "--tan-omega", "1e16", "--delta-omega-ratios", "-0.1,-0.01"),
], ids=["smallest J", "J 1e308", "theta 1e8", "theta -1e8", "b/J 1e16"])
def test_the_sweep_check_passes_at_the_extremes(capsys, point):
    code, out, err = _run_in_process(capsys, "sweep", "--gate", "cnot", "--orientation", "xy",
                                     *point, "--format", "json")
    assert (code, err) == (0, "")
    assert 0 <= json.loads(out)["residual"] <= 1e-15


def test_a_z_sweep_is_refused_before_its_check(capsys, tmp_path):
    """The rows come first: a z sweep exits 1 on its orientation, not 2 on a tol of 0, and
    writes nothing."""
    dest = tmp_path / "rows.csv"
    code, out, err = _run_in_process(capsys, "sweep", "--orientation", "z", "--tan-omega", "0.1",
                                     "--tol", "0", "--out", str(dest))
    assert (code, out, err) == (1, "", "error: sweep requires orientation xy\n")
    assert not dest.exists()


@pytest.fixture
def computed(monkeypatch):
    """The library functions the commands compute with, spied on: the list of the
    names called, in order."""
    from spinframe import analysis, gates, model

    calls = []
    for module, name in ((analysis, "gate_error_sweep"), (gates, "gate_report"),
                         (model, "build_hamiltonian")):
        def spy(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("args, fault, message", [
    (("gate", "--gate", "cnot", *XY_ARGS), ("--format", "csv"), "gate has no csv form"),
    (("transform", *XY_ARGS), ("--format", "csv"), "transform has no csv form"),
], ids=["gate csv", "transform csv"])
def test_a_usage_error_exits_1_before_any_computation(capsys, tmp_path, computed, args, fault,
                                                      message):
    if isinstance(fault, str):  # a config file holding the fault
        cfg = tmp_path / "run.cfg"
        cfg.write_text(fault)
        fault = ("--config", str(cfg))
    code, out, err = _run_in_process(capsys, *args, *fault)
    assert (code, out, err, computed) == (1, "", f"error: {message}\n", [])
    # Without the fault the same command computes, and the spies see it.
    assert _run_in_process(capsys, *args)[0] == 0 and computed


def test_a_usage_error_comes_before_a_model_error(capsys, computed):
    """psw refuses B/J = 1e300, but the csv request is refused first."""
    code, out, err = _run_in_process(capsys, *PSW_ARGS, "--B", "1e300", "--format", "csv")
    assert (code, out, err, computed) == (1, "", "error: gate has no csv form\n", [])


@pytest.mark.parametrize("option, args", [
    ("delta_omega_ratios", ("sweep", *XY_ARGS, "--delta-omega-ratios", "0:inf:3")),
    ("delta_theta_ratios", ("sweep", *XY_ARGS, "--delta-theta-ratios=-1e308:1e308:3")),
    ("beta", ("thermal", "--orientation", "z", "--tan-omega", "0.1", "--beta=-1e308:1e308:3")),
], ids=["delta_omega_ratios", "delta_theta_ratios", "beta"])
def test_a_non_finite_range_exits_1_naming_its_option(capsys, option, args):
    """An infinite end, or a span past the float range, is refused before numpy sees it:
    one error line, no RuntimeWarning."""
    want = f"error: {option}: range start, stop and stop - start must be finite\n"
    assert _run_in_process(capsys, *args) == (1, "", want)
    r = run_cli(*args)
    assert (r.returncode, r.stdout, r.stderr) == (1, "", want)


def test_sweep_error_gives_b_over_J_when_the_reference_is_at_fault(capsys):
    """atan(2e16) rounds to pi/2, so even the ratio 0 is refused: the message gives b/J and
    omega0 as well as the ratio."""
    code, out, err = _run_in_process(capsys, "sweep", "--orientation", "xy", "--theta", "0.3",
                                     "--tan-omega", "2e16")
    assert (code, out) == (1, "")
    assert err == ("error: delta_omega_ratios value 0.0 puts omega0 (1 + r) = 1.5707963267948966"
                   " outside [0, pi/2), with omega0 = atan(b/J) = 1.5707963267948966 at"
                   " b/J = 2e+16\n")


def test_text_matrix_prints_no_signed_zero():
    import numpy as np

    from spinframe.cli import _fmt_matrix

    exact = np.array([[0.5, 0, 0], [0, 0.25j, 0], [0, 0, -1 + 0.5j]])
    noise = np.array([[1e-17j, -1e-17, -1e-17j], [-1e-17 + 1e-17j, -1e-17, 1e-17 - 1e-17j],
                      [-1e-17j, 1e-17, -1e-17 - 1e-17j]])
    assert _fmt_matrix(exact + noise) == _fmt_matrix(exact)
    assert _fmt_matrix(exact - noise) == _fmt_matrix(exact)
    assert not re.search(r"-0\.(?!\d)", _fmt_matrix(exact + noise))


def test_gate_text_prints_no_signed_zero(capsys):
    code, out, _ = _run_in_process(capsys, "gate", "--gate", "sqrt_swap", "--orientation", "xy",
                                   "--theta", "0", "--tan-omega", "5")
    assert code == 0
    assert "0.92388 -0.382683j" in out
    assert not re.search(r"-0\.(?!\d)", out)


def test_json_and_csv_never_format_text(capsys, monkeypatch, tmp_path):
    """The text form is rendered only when text is written."""
    from spinframe import cli

    out = tmp_path / "report.json"
    sweep = ("sweep", *XY_ARGS, "--delta-omega-ratios", "0,0.1", "--delta-theta-ratios", "0.01")
    calls = [(c, *XY_ARGS, "--format", "json") for c in ("transform", "decompose", "fields", "thermal")]
    calls += [("gate", *XY_ARGS, "--gate", g, "--format", "json")
              for g in ("swap", "sqrt_swap", "cnot", "psw")]
    calls += [(*sweep, "--format", "json"), (*sweep, "--format", "csv"),
              ("thermal", *XY_ARGS, "--format", "csv"), ("transform", *XY_ARGS, "--out", str(out))]
    expected = []
    for args in calls:
        expected.append((_run_in_process(capsys, *args), out.read_bytes() if out.exists() else None))
        out.unlink(missing_ok=True)

    def refuse(m):
        raise AssertionError("text matrix formatted for a machine-readable form")

    monkeypatch.setattr(cli, "_fmt_matrix", refuse)
    for args, want in zip(calls, expected):
        got = (_run_in_process(capsys, *args), out.read_bytes() if out.exists() else None)
        out.unlink(missing_ok=True)
        assert got == want, args
        assert got[0][0] == 0, args


def test_a_table_builds_only_the_written_form(capsys, monkeypatch):
    from spinframe import cli

    built = {"csv": 0, "json": 0}
    csv_lines, write_json = cli._csv_lines, cli._json

    def count_csv(table):
        built["csv"] += 1
        return csv_lines(table)

    def count_json(doc):
        built["json"] += 1
        return write_json(doc)

    monkeypatch.setattr(cli, "_csv_lines", count_csv)
    monkeypatch.setattr(cli, "_json", count_json)
    args = ("sweep", *XY_ARGS, "--delta-omega-ratios", "0:0.1:5", "--delta-theta-ratios", "0.01")
    code, out, _ = _run_in_process(capsys, *args, "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 11
    assert built == {"csv": 1, "json": 0}
    code, out, _ = _run_in_process(capsys, *args, "--format", "json")
    assert code == 0 and len(json.loads(out)["rows"]) == 10
    assert built == {"csv": 1, "json": 1}


def _csv_lines_per_value(table):
    """The CSV writer's bytes, one value at a time, each row expanded from its grid point:
    format(v, ".17g") for a number, str(v).lower() for a bool."""
    def line(row):
        return ",".join(str(v).lower() if isinstance(v, bool) else format(v, ".17g")
                        for v in row)
    return [",".join(table.columns), *map(line, expanded_rows(table))]


CSV_TABLES = grid_tables(lambda k: st.just(tuple(f"c{i}" for i in range(k))))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(CSV_TABLES)
@example(_Table(("beta", "c", "c0"), ((0.0, 5e-324, 1e308, -0.0, 0.5, 0.5, -1e308, 1.0, 2.0),),
                (CORNERS, [-v for v in CORNERS])))
@example(_Table(("w", "th", "corrected", "f", "g"), CORNER_AXES,
                ([np.float64(k / 3) for k in range(32)], [CORNERS[k % 9] for k in range(32)])))
def test_csv_lines_write_each_values_own_format(table):
    """One %-format per line, after each axis value is formatted once, writes the bytes of
    one format() per value of each row expanded from its grid point."""
    assert _csv_lines(table) == _csv_lines_per_value(table)


ONE_OF_EACH = (
    ("transform",), ("decompose",), ("gate", "--gate", "cnot"), ("gate", "--gate", "psw"),
    ("fields", "--B", "0.5"), ("thermal",),
    ("sweep", "--delta-omega-ratios", "-0.1,0,0.05", "--delta-theta-ratios", "0.1"),
)


@pytest.mark.parametrize("command", ONE_OF_EACH, ids=lambda c: " ".join(c))
def test_json_reports_do_not_use_jsons_pure_python_encoder(capsys, monkeypatch, tmp_path,
                                                           command):
    """With json's pure-Python encoder made to raise, every report still writes.  A
    JSON report is one line, what json.dumps(doc) writes for its numbers, and a report
    to --out is the bytes of the same report on stdout."""
    import json.encoder

    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was called")

    out = tmp_path / "report"
    form = "csv" if command[0] == "sweep" else "json"
    with monkeypatch.context() as patch:
        patch.setattr(json.encoder, "_make_iterencode", refuse)
        code, text, err = _run_in_process(capsys, *command, *XY_ARGS, "--format", form)
        assert (code, err) == (0, "")
        code, written, err = _run_in_process(capsys, *command, *XY_ARGS, "--out", str(out))
        assert (code, written, err) == (0, "", "")
        code, doc, err = _run_in_process(capsys, *command, *XY_ARGS, "--format", "json")
        assert (code, err) == (0, "")
    assert out.read_bytes() == text.encode("utf-8")
    assert doc == json.dumps(json.loads(doc)) + "\n"


@pytest.mark.parametrize("command", [
    ("transform", "--orientation", "xy", "--theta", "0.3", "--tan-omega", "0.37", "--J", "1e6"),
    ("fields", "--orientation", "xy", "--theta", "0.3", "--tan-omega", "0.37", "--B", "1e5"),
])
def test_residuals_are_relative_so_large_scales_pass(capsys, command):
    """The isotropization residual is in units of J and the field residual is over
    max(1, |B|), so a rounding-level residual passes at any J or B."""
    code, out, err = _run_in_process(capsys, *command, "--format", "json")
    assert (code, err) == (0, "")
    assert 0 <= json.loads(out)["residual"] <= 1e-14


@pytest.mark.parametrize("command", ["transform", "thermal"])
def test_huge_J_prints_no_numpy_warning(capsys, command):
    """At J = 1e308 the text matrix's rounding and the Gibbs weights' exponent pass
    the float range; the numbers stay right and stderr stays empty."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run_in_process(capsys, command, "--orientation", "xy", "--theta", "0.3",
                                         "--tan-omega", "0.37", "--J", "1e308")
    assert (code, err, caught) == (0, "", [])
    assert out


# The text form (no --format) of each subcommand at one reference point, frozen
# so that a change to the renderer shows as a changed byte.  Residuals near 1e-16
# and distances near 1e-31 sit at the rounding floor of this numpy build.
GOLDEN_REF = ("--orientation", "xy", "--theta", "5pi/6", "--tan-omega", "0.1")
GOLDEN_TEXT = {
    ("transform",): (
        "parameters: J=1 orientation=xy theta=2.6179938779914944 b/J=0.10000000000000001 omega=0.099668652491162038\n"
        "hamiltonian:\n"
        "[[ 0.248759+0.j        0.012438-0.021543j -0.012438+0.021543j\n"
        "   0.00062 +0.001074j]\n"
        " [ 0.012438+0.021543j -0.248759+0.j        0.498759+0.j\n"
        "   0.012438-0.021543j]\n"
        " [-0.012438-0.021543j  0.498759+0.j       -0.248759+0.j\n"
        "  -0.012438+0.021543j]\n"
        " [ 0.00062 -0.001074j  0.012438+0.021543j -0.012438-0.021543j\n"
        "   0.248759+0.j      ]]\n"
        "rotation:\n"
        "[[-0.258658+0.965326j  0.017612+0.017612j -0.017612-0.017612j\n"
        "  -0.0006  +0.000161j]\n"
        " [-0.012453-0.02157j   0.999379+0.j        0.000621+0.j\n"
        "  -0.012453+0.02157j ]\n"
        " [ 0.012453+0.02157j   0.000621+0.j        0.999379+0.j\n"
        "   0.012453-0.02157j ]\n"
        " [-0.0006  -0.000161j  0.017612-0.017612j -0.017612+0.017612j\n"
        "  -0.258658-0.965326j]]\n"
        "transformed:\n"
        "[[ 0.25+0.j  0.  +0.j  0.  +0.j  0.  +0.j]\n"
        " [ 0.  +0.j -0.25+0.j  0.5 +0.j  0.  +0.j]\n"
        " [ 0.  +0.j  0.5 +0.j -0.25+0.j  0.  +0.j]\n"
        " [ 0.  +0.j  0.  +0.j  0.  +0.j  0.25+0.j]]\n"
        "residual: 1.1178969667087664e-16\n"
        "tolerance: 1e-12\n"
    ),
    ("decompose",): (
        "parameters: J=1 orientation=xy theta=2.6179938779914944 b/J=0.10000000000000001 omega=0.099668652491162038\n"
        "qubit1: alpha=-2.356194490192345 gamma=0.04983432624558102 beta=4.188790204786391\n"
        "qubit2: alpha=0.7853981633974483 gamma=0.04983432624558102 beta=1.0471975511965979\n"
        "assembly_distance: 9.319253801965706e-32\n"
        "tolerance: 1e-12\n"
    ),
    ("gate", "--gate", "cnot"): (
        "parameters: J=1 orientation=xy theta=2.6179938779914944 b/J=0.10000000000000001 omega=0.099668652491162038\n"
        "label: cnot [(I x H) . seq . (Z x ZH)]\n"
        "matrix:\n"
        "[[0.707107+0.707107j 0.      +0.j       0.      +0.j\n"
        "  0.      +0.j      ]\n"
        " [0.      +0.j       0.707107+0.707107j 0.      +0.j\n"
        "  0.      +0.j      ]\n"
        " [0.      +0.j       0.      +0.j       0.      +0.j\n"
        "  0.707107+0.707107j]\n"
        " [0.      +0.j       0.      +0.j       0.707107+0.707107j\n"
        "  0.      +0.j      ]]\n"
        "phase_distance: 2.071538963152543e-31\n"
        "target: CNOT\n"
        "tolerance: 1e-12\n"
    ),
    ("fields",): (
        "parameters: J=1 orientation=xy theta=2.6179938779914944 b/J=0.10000000000000001 omega=0.099668652491162038\n"
        "B: 1.0\n"
        "b1: (-0.02490685094007988, -0.04313993128476302, 0.998758526924799)\n"
        "b2: (0.02490685094007988, 0.04313993128476302, 0.998758526924799)\n"
        "residual: 2.220446049250313e-16\n"
        "tolerance: 1e-12\n"
    ),
    ("sweep", "--delta-omega-ratios", "0,0.1", "--delta-theta-ratios", "0.01"): (
        "delta_omega_ratio,delta_theta_ratio,corrected,fidelity,error,log10_error\n"
        "0,0.01,false,0.99751859510499474,0.002481404895005257,-2.605302365385429\n"
        "0.10000000000000001,0.01,false,0.99699802208838406,0.0030019779116159384,-2.5225925075952813\n"
        "0,0.01,true,0.99999829936975737,1.7006302426292308e-06,-5.7693901020498908\n"
        "0.10000000000000001,0.01,true,0.9999732950975263,2.6704902473695391e-05,-4.5734090037354083\n"
    ),
    ("thermal",): (
        "parameters: J=1 orientation=xy theta=2.6179938779914944 b/J=0.10000000000000001 omega=0.099668652491162038\n"
        "rows:\n"
        "beta,concurrence,concurrence_isotropic,difference\n"
        "0.10000000000000001,0,0,0\n"
        "1,0,0,0\n"
        "10,0.99972763751713778,0.99972763751713722,5.5511151231257827e-16\n"
        "tolerance: 1e-12\n"
    ),
}


@pytest.mark.parametrize("command", GOLDEN_TEXT, ids=lambda c: c[0])
def test_text_output_is_frozen(capsys, command):
    assert _run_in_process(capsys, *command, *GOLDEN_REF) == (0, GOLDEN_TEXT[command], "")


TEXT_COMMANDS = [("transform",), ("decompose",), ("fields",), ("thermal",)] + [
    ("gate", "--gate", g) for g in ("swap", "sqrt_swap", "cnot", "psw")]


@pytest.mark.parametrize("command", TEXT_COMMANDS, ids=" ".join)
def test_text_ends_with_the_stamp_only_when_asked(capsys, command):
    code, out, _ = _run_in_process(capsys, *command, *XY_ARGS, "--stamp")
    assert code == 0
    last = out.splitlines()[-1]
    assert re.fullmatch(r"stamp: \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", last), last
    code, out, _ = _run_in_process(capsys, *command, *XY_ARGS)
    assert code == 0 and "stamp" not in out


@pytest.mark.parametrize("command", TEXT_COMMANDS, ids=" ".join)
def test_text_prints_every_key_of_the_json_document(capsys, command):
    """Text and JSON are one document: each JSON key is a "key:" line of the
    text, and each number in it reads back as the JSON number, bit for bit."""
    code, out, _ = _run_in_process(capsys, *command, *XY_ARGS, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    code, out, _ = _run_in_process(capsys, *command, *XY_ARGS)
    assert code == 0
    lines = out.splitlines()
    heads = {line.partition(":")[0]: i for i, line in enumerate(lines)
             if re.match(r"^[A-Za-z]\w*:", line)}
    assert list(heads)[0] == "parameters"
    assert [k for k in heads if k != "parameters"] == [k for k in doc if k != "parameters"]
    for key, value in doc.items():
        text = lines[heads[key]].partition(": ")[2]
        if isinstance(value, str):
            assert text == value, key
        elif isinstance(value, float):
            assert float(text) == value, key
        elif isinstance(value, dict):
            assert {k: float(v) for k, v in (kv.split("=") for kv in text.split())} == value
        elif key == "rows":
            header, *rows = lines[heads[key] + 1:heads[key] + 2 + len(value)]
            assert header.split(",") == list(value[0])
            assert [[float(x) for x in row.split(",")] for row in rows] == [
                list(r.values()) for r in value]
        elif isinstance(value[0], float):
            assert [float(x) for x in text.strip("()").split(", ")] == value, key
        else:
            assert text == "", key  # a matrix prints on the lines under its key


@pytest.mark.parametrize("args, values", [
    (("transform", "--orientation", "xy", "--tan-omega", "0.1"), [("--theta", "-pi/2")]),
    (("decompose", "--orientation", "xy", "--tan-omega", "0.1"), [("--theta", "-5pi/6")]),
    (("sweep", "--orientation", "xy", "--theta", "0", "--tan-omega", "0.1"),
     [("--delta-omega-ratios", "-0.1,0,0.05")]),
    (("sweep", "--orientation", "xy", "--theta", "0.3", "--tan-omega", "0.1"),
     [("--delta-theta-ratios", "-0.02,0.01"), ("--delta-omega-ratios", "-0.1:0.1:3")]),
], ids=["transform", "decompose", "sweep", "sweep-two"])
def test_a_negative_value_may_be_a_separate_argument(capsys, args, values):
    separate = _run_in_process(capsys, *args, *(a for pair in values for a in pair))
    assert separate == _run_in_process(capsys, *args, *(f"{flag}={v}" for flag, v in values))
    assert separate[0] == 0 and separate[2] == ""


@pytest.mark.parametrize("args", [
    ("transform", "--orientation", "xy", "--theta", "--tan-omega", "0.1"),
    ("sweep", *XY_ARGS, "--delta-omega-ratios", "--mode", "both"),
], ids=["theta", "sweep"])
def test_a_flag_followed_by_a_flag_still_exits_1(capsys, args):
    code, out, err = _run_in_process(capsys, *args)
    assert (code, out) == (1, "")
    assert err.startswith("error: argument --") and err.endswith("expected one argument\n")


def test_console_module_reads_a_negative_theta():
    r = run_cli("transform", "--orientation", "xy", "--theta", "-pi/2", "--tan-omega", "0.1")
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout.startswith("parameters: J=1 orientation=xy theta=-1.5707963267948966 ")


JSON_COMMANDS = TEXT_COMMANDS + [("sweep", "--delta-omega-ratios", "0,0.1", "--delta-theta-ratios",
                                  "0.01")]
# The default tolerance of every report.
DEFAULT_TOL = 1e-12


@pytest.mark.parametrize("command", JSON_COMMANDS, ids=" ".join)
def test_every_json_document_starts_with_its_parameters(capsys, command):
    code, out, _ = _run_in_process(capsys, *command, *XY_ARGS, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc)[0] == "parameters"
    assert doc["parameters"] == ("J=1 orientation=xy theta=2.6179938779914944 "
                                 "b/J=0.0050000000000000001 omega=0.0049999583339583225")


@pytest.mark.parametrize("command", JSON_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("tol", [None, "0.25"])
def test_every_checked_report_ends_with_its_tolerance(capsys, command, tol):
    """The sweep, which has no text form, ends its JSON with its residual, then tolerance."""
    want = DEFAULT_TOL if tol is None else float(tol)
    flag = () if tol is None else ("--tol", tol)
    code, out, _ = _run_in_process(capsys, *command, *XY_ARGS, *flag, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc)[-1] == "tolerance" and doc["tolerance"] == want
    if command[0] == "sweep":
        assert list(doc)[-2] == "residual"
    code, out, _ = _run_in_process(capsys, *command, *XY_ARGS, *flag, "--stamp", "--format", "json")
    assert list(json.loads(out))[-2:] == ["tolerance", "stamp"]
    if command in TEXT_COMMANDS:
        code, out, _ = _run_in_process(capsys, *command, *XY_ARGS, *flag, "--stamp")
        assert code == 0
        tail = out.splitlines()[-2:]
        assert tail[0] == f"tolerance: {json.dumps(want)}" and tail[1].startswith("stamp: ")


@pytest.mark.parametrize("name, text", [
    ("run.cfg", "orientation = xy\ntheta = 0.3\nb_over_J = 0.1\n"),
    ("run.json", json.dumps({"orientation": "z", "b_over_J": 0.37})),
], ids=["flat", "json"])
def test_b_over_J_is_not_a_config_key(capsys, tmp_path, name, text):
    cfg = tmp_path / name
    cfg.write_text(text)
    code, out, err = _run_in_process(capsys, "transform", "--config", str(cfg))
    assert (code, out, err) == (1, "", "error: unknown config key(s): b_over_J\n")


@pytest.mark.parametrize("value", ["-0.1", "nan", "inf", "-1e-300"])
def test_a_tan_omega_flag_out_of_range_names_tan_omega(capsys, value):
    code, out, err = _run_in_process(capsys, "transform", "--orientation", "xy", "--theta",
                                     "0.3", "--tan-omega", value)
    want = f"error: tan_omega: must be finite and >= 0, got {value!r}\n"
    assert (code, out, err) == (1, "", want)


@pytest.mark.parametrize("name, text, shown", [
    ("run.cfg", "orientation = xy\ntheta = 0.3\ntan_omega = -0.1\n", "-0.1"),
    ("run.json", json.dumps({"orientation": "z", "tan_omega": -0.5}), "-0.5"),
    ("nan.json", '{"orientation": "z", "tan_omega": NaN}', "nan"),
], ids=["flat", "json", "json-nan"])
def test_a_tan_omega_config_value_out_of_range_names_tan_omega(capsys, tmp_path, name, text,
                                                                shown):
    cfg = tmp_path / name
    cfg.write_text(text)
    code, out, err = _run_in_process(capsys, "sweep", "--config", str(cfg))
    want = f"error: tan_omega: must be finite and >= 0, got {shown}\n"
    assert (code, out, err) == (1, "", want)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [("gate", "--gate", "swap"), ("gate", "--gate", "psw"),
                                     ("fields",)], ids=" ".join)
def test_a_non_finite_B_flag_exits_1_naming_B(capsys, command, value):
    """B is refused by its option row, also where the command does not use it (swap)."""
    code, out, err = _run_in_process(capsys, *command, "--orientation", "z", "--tan-omega", "0.1",
                                     "--B", value)
    assert (code, out, err) == (1, "", f"error: B: must be finite, got {value!r}\n")


@pytest.mark.parametrize("name, text, shown", [
    ("run.cfg", "B = nan", "'nan'"),
    ("run.cfg", "B = -inf", "'-inf'"),
    ("run.cfg", "B = Infinity", "inf"),
    ("run.json", '"B": NaN', "nan"),
    ("run.json", '"B": Infinity', "inf"),
    ("run.json", '"B": -Infinity', "-inf"),
], ids=["flat-nan", "flat-minus-inf", "flat-Infinity", "json-NaN", "json-Infinity",
        "json-minus-Infinity"])
@pytest.mark.parametrize("command", ["transform", "gate", "fields"])
def test_a_non_finite_B_in_a_config_file_exits_1_naming_B(capsys, tmp_path, command, name, text,
                                                          shown):
    cfg = tmp_path / name
    cfg.write_text(f"orientation = z\ntan_omega = 0.1\n{text}\n" if name.endswith(".cfg") else
                   f'{{"orientation": "z", "tan_omega": 0.1, {text}}}')
    code, out, err = _run_in_process(capsys, command, "--config", str(cfg))
    assert (code, out, err) == (1, "", f"error: B: must be finite, got {shown}\n")


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400", "-1e400", "9" * 400 + "pi/2",
                                   "9" * 400 + "pi/" + "9" * 400],
                         ids=["inf", "-inf", "nan", "1e400", "-1e400", "Npi/2", "Npi/N"])
def test_a_non_finite_theta_flag_exits_1_naming_theta(capsys, value):
    """theta is refused by its option row, with the value as given, not by the orientation:
    an Npi/M form past the float range is inf (or inf/inf, nan) and refused too."""
    code, out, err = _run_in_process(capsys, "transform", "--orientation", "xy", "--tan-omega",
                                     "0.1", "--theta", value)
    assert (code, out, err) == (1, "", f"error: theta: must be finite, got {value!r}\n")


@pytest.mark.parametrize("name, text, shown", [
    ("run.cfg", "theta = inf", "'inf'"),
    ("run.cfg", "theta = nan", "'nan'"),
    ("run.cfg", "theta = 1e400", "inf"),
    ("run.cfg", "theta = Infinity", "inf"),
    ("run.json", '"theta": NaN', "nan"),
    ("run.json", '"theta": -Infinity', "-inf"),
    ("run.json", '"theta": 1e400', "inf"),
    ("run.json", '"theta": "1e400"', "'1e400'"),
], ids=["flat-inf", "flat-nan", "flat-1e400", "flat-Infinity", "json-NaN",
        "json-minus-Infinity", "json-1e400", "json-string-1e400"])
@pytest.mark.parametrize("command", ["transform", "gate", "sweep"])
def test_a_non_finite_theta_in_a_config_file_exits_1_naming_theta(capsys, tmp_path, command,
                                                                  name, text, shown):
    cfg = tmp_path / name
    cfg.write_text(f"orientation = xy\ntan_omega = 0.1\n{text}\n" if name.endswith(".cfg") else
                   f'{{"orientation": "xy", "tan_omega": 0.1, {text}}}')
    code, out, err = _run_in_process(capsys, command, "--config", str(cfg))
    assert (code, out, err) == (1, "", f"error: theta: must be finite, got {shown}\n")


def test_the_coupling_is_required(capsys):
    code, out, err = _run_in_process(capsys, "transform", "--orientation", "z")
    assert (code, out, err) == (1, "", "error: tan_omega is required\n")


@pytest.mark.parametrize("value", ["-pi/2", "1"])
def test_an_abbreviated_flag_exits_1(capsys, value):
    args = ("transform", "--orientation", "xy", "--thet", value, "--tan-omega", "0.1")
    code, out, err = _run_in_process(capsys, *args)
    assert (code, out, err) == (1, "", f"error: unrecognized arguments: --thet {value}\n")


def test_the_full_flag_takes_a_negative_value(capsys):
    args = ("transform", "--orientation", "xy", "--theta", "-pi/2", "--tan-omega", "0.1")
    code, out, err = _run_in_process(capsys, *args)
    assert (code, err) == (0, "")
    assert out.startswith("parameters: J=1 orientation=xy theta=-1.5707963267948966 ")


def test_a_nan_value_fails_its_tolerance_check(capsys, monkeypatch):
    """The check passes only when value <= tol, so a NaN exits 2 rather than 0."""
    from spinframe import frame

    monkeypatch.setattr(frame, "verify_isotropization", lambda p: math.nan)
    code, out, err = _run_in_process(capsys, "transform", *XY_ARGS)
    assert code == 2
    assert "residual: NaN" in out
    assert err == "error: isotropization residual nan exceeds tolerance 1.000000e-12\n"


@pytest.mark.parametrize("gate", ["swap", "sqrt_swap", "cnot"])
@pytest.mark.parametrize("J", [repr(sys.float_info.min), "1e308"])
def test_gates_pass_at_the_ends_of_the_J_range(capsys, gate, J):
    args = ("gate", "--gate", gate, "--orientation", "xy", "--theta", "0.3",
            "--tan-omega", "0.37", "--J", J, "--format", "json")
    code, out, err = _run_in_process(capsys, *args)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert 0 <= doc["phase_distance"] <= 1e-29 < doc["tolerance"]


@pytest.mark.parametrize("command", [("transform",), ("gate", "--gate", "cnot")], ids=" ".join)
@pytest.mark.parametrize("J", ["1e-308", "1e-320"])
def test_a_subnormal_J_exits_1(capsys, command, J):
    """Below the smallest normal float J has lost digits: at 1e-320 the residual in
    units of J would read 1e-3 on exact closed forms, and a pulse time area/J at
    1e-308 would be infinite."""
    code, out, err = _run_in_process(capsys, *command, *XY_ARGS, "--J", J)
    assert (code, out) == (1, "")
    assert err.startswith("error: J must be finite and at least 2.2250738585072014e-308")


@pytest.mark.parametrize("orientation", [("--orientation", "z"),
                                         ("--orientation", "xy", "--theta", "0.3")])
def test_decompose_catches_a_plan_with_its_qubits_swapped(capsys, monkeypatch, orientation):
    """decompose compares the ZYZ plan with T = U(-omega) (x) U(omega), two independent
    derivations, so a plan with the qubits' factors exchanged exits 2."""
    from spinframe import frame

    args = ("decompose", *orientation, "--tan-omega", "0.37")
    code, _, err = _run_in_process(capsys, *args)
    assert (code, err) == (0, "")
    plan = frame.rotation_plan
    monkeypatch.setattr(frame, "rotation_plan",
                        lambda p: frame.RotationPlan(plan(p).qubit2, plan(p).qubit1))
    code, _, err = _run_in_process(capsys, *args)
    assert code == 2 and err.startswith("error: assembly distance ")


VALID_ARGV = {
    "transform": XY_ARGS,
    "decompose": ("--orientation", "z", "--tan-omega", "0.1", "--tol", "1e-9"),
    "gate": ("--gate", "psw", *XY_ARGS, "--B", "0.5", "--format", "json"),
    "fields": (*XY_ARGS, "--B", "0.5", "--stamp"),
    "sweep": (*XY_ARGS, "--delta-omega-ratios", "-0.1,0", "--mode", "corrected"),
    "thermal": ("--orientation", "z", "--tan-omega", "0.1", "--beta", "1,2"),
}


def _parse_outcome(parse, argv, capsys):
    """What parse makes of argv: the Namespace, the refusal's text, or the help exit."""
    try:
        return "parsed", parse(argv)
    except ValueError as exc:
        return "refused", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, capsys.readouterr().out


@pytest.mark.parametrize("tail", [
    (), ("--nope", "1"), ("--thet", "1"), ("--theta",), ("--theta", "-pi/2"),
    ("--config", "run.cfg"), ("-h",), ("extra",),
], ids=["valid", "unknown", "abbreviated", "no-value", "minus-pi", "config", "help", "extra"])
@pytest.mark.parametrize("command", list(VALID_ARGV))
def test_a_command_argv_parses_as_the_full_parser_parses_it(capsys, command, tail):
    """main's one pass (the command's subparser alone) gives the full parser's
    Namespace, refusal or help."""
    from spinframe import cli

    argv = cli._join_dash_values([command, *VALID_ARGV[command], *tail])
    got = _parse_outcome(cli._parse_args, argv, capsys)
    assert got == _parse_outcome(cli._build_parser().parse_args, argv, capsys)
    assert got[0] == ("parsed" if tail in ((), ("--theta", "-pi/2"), ("--config", "run.cfg"))
                      else "exit" if tail == ("-h",) else "refused")
    if got[0] == "parsed":
        assert got[1].command == command


@pytest.mark.parametrize("argv, error", [
    ([], "the following arguments are required: command"),
    (["nope"], "argument command: invalid choice: 'nope'"),
    (["--orientation", "xy", "gate"], "argument command: invalid choice: 'xy'"),
    (["-h"], None),
])
def test_an_argv_without_a_leading_command_goes_to_the_full_parser(capsys, argv, error):
    from spinframe import cli

    got = _parse_outcome(cli._parse_args, argv, capsys)
    assert got == _parse_outcome(cli._build_parser().parse_args, argv, capsys)
    if error is None:
        assert got[:2] == ("exit", 0) and got[2].startswith("usage: spinframe ")
    else:
        assert got[0] == "refused" and got[1].startswith(error)
        code, out, err = _run_in_process(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith(f"error: {error}")
        assert err.count("\n") == 1


def test_a_command_argv_skips_the_top_level_parse(capsys, monkeypatch):
    from spinframe import cli

    parser = cli._build_parser()
    calls = []
    parse_known_args = parser.parse_known_args
    monkeypatch.setattr(parser, "parse_known_args",
                        lambda *a, **k: calls.append(a) or parse_known_args(*a, **k))
    for command, argv in VALID_ARGV.items():
        assert _run_in_process(capsys, command, *argv)[0] == 0
    assert calls == []
    assert _run_in_process(capsys, "nope")[0] == 1
    assert len(calls) == 1


@pytest.mark.parametrize("betas", ["1", "0.1,1,10", "0,0.1,1,10,1000"])
def test_thermal_decomposes_each_hamiltonian_once(capsys, monkeypatch, betas):
    from spinframe import analysis

    calls = []
    herm_eig = analysis.herm_eig
    monkeypatch.setattr(analysis, "herm_eig", lambda h: calls.append(h) or herm_eig(h))
    args = ("thermal", *XY_ARGS, "--beta", betas, "--format", "json")
    code, out, err = _run_in_process(capsys, *args)
    assert (code, err, len(calls)) == (0, "", 2)
    assert len(json.loads(out)["rows"]) == len(betas.split(","))


@pytest.mark.parametrize("args, module, name, key, what", [
    (("transform", *XY_ARGS), "frame", "verify_isotropization", "residual",
     "isotropization residual"),
    (("gate", "--gate", "cnot", *XY_ARGS), "gates", "phase_distance", "phase_distance",
     "gate distance"),
    (("sweep", *XY_ARGS, "--delta-omega-ratios", "0,0.1"), "frame", "verify_isotropization",
     "residual", "isotropization residual"),
], ids=["transform", "gate", "sweep"])
def test_a_nan_check_value_is_null_in_json_and_exits_2(capsys, monkeypatch, args, module, name,
                                                       key, what):
    """JSON has no NaN: the report is written with the value as null, then the check
    fails as in the text form."""
    import importlib

    want = json.loads(_run_in_process(capsys, *args, "--format", "json")[1])
    monkeypatch.setattr(importlib.import_module(f"spinframe.{module}"), name,
                        lambda *a: math.nan)
    code, out, err = _run_in_process(capsys, *args, "--format", "json")
    assert (code, err) == (2, f"error: {what} nan exceeds tolerance 1.000000e-12\n")
    assert out.count("\n") == 1
    assert json.loads(out) == {**want, key: None}
