"""Command-line interface.

Subcommands: transform, decompose, gate, fields, sweep, thermal.  Configuration comes
from flags, or from --config pointing at a flat key = value file or a JSON object; flags
override the file.  Exit codes: 0 success, 1 usage or config error (before any command
computes), 2 numeric tolerance failure, 3 I/O error.  Outputs are byte-deterministic
unless --stamp is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

from . import analysis, frame, gates, linalg, model

__all__ = ["main", "parse_angle", "load_config", "RunConfig"]


_ANGLE_RE = re.compile(r"^([+-]?)(\d*)pi(?:/(\d+))?$")


def _number(value) -> float:
    """float(value), except that a JSON true/false is not a number."""
    if isinstance(value, bool):
        raise ValueError(f"must be a number, got {value!r}")
    return float(value)


def parse_angle(value) -> float:
    """Angle in radians; strings may use the form Npi/M, e.g. 5pi/6 or -pi/2."""
    if isinstance(value, (int, float)):
        return _number(value)
    text = str(value).strip().replace(" ", "")
    m = _ANGLE_RE.match(text)
    if m:
        sign, n, d = m.groups()
        if d is not None and int(d) == 0:
            raise ValueError(f"zero denominator in angle {value!r}")
        return (-1.0 if sign == "-" else 1.0) * float(n or 1) * math.pi / float(d or 1)
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"cannot parse angle {value!r}") from None


def load_config(path: str) -> dict:
    """Read a JSON object or a flat key = value file ('#' starts a comment).  A file whose
    first non-blank character is { or [ is JSON."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:  # from read: open errors stay OSError, exit 3
        raise ValueError(f"config {path} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    if text.lstrip().startswith(("{", "[")):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad JSON config: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError("JSON config must be an object")
        return data
    data = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not 'key = value'")
        key, _, value = line.partition("=")
        value = value.strip()
        try:
            data[key.strip()] = json.loads(value)
        except json.JSONDecodeError:
            data[key.strip()] = value
    return data


def _finite_nonnegative(value) -> float:
    """A finite number >= 0, as a tolerance or tan(omega) must be; NaN and inf are refused."""
    x = _number(value)
    if not (math.isfinite(x) and x >= 0):
        raise ValueError(f"must be finite and >= 0, got {value!r}")
    return x


def _finite(value) -> float:
    """A finite number, as B must be; NaN and inf are refused."""
    x = _number(value)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {value!r}")
    return x


def _strict_bool(value) -> bool:
    """A JSON true/false; a string such as "false" or "off" is an error."""
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


class _Choice(tuple):
    """The allowed values of an option; called as a parser, it admits only them."""

    def __call__(self, value) -> str:
        if str(value) not in self:
            raise ValueError(f"must be one of {', '.join(self)}, got {value!r}")
        return str(value)


def _parse_series(value) -> tuple[float, ...]:
    """Comma list, start:stop:count, or a JSON list from a config file."""
    if isinstance(value, (list, tuple)):
        vals = [_number(v) for v in value]
    elif isinstance(value, (int, float)):
        vals = [_number(value)]
    else:
        text = str(value).strip()
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("range must be start:stop:count")
            count, start, stop = int(parts[2]), float(parts[0]), float(parts[1])
            if count < 1:
                raise ValueError("count must be >= 1")
            if not math.isfinite(stop - start):  # an inf or nan end, or a span past the range
                raise ValueError("range start, stop and stop - start must be finite")
            vals = [float(x) for x in np.linspace(start, stop, count)]
        else:
            vals = [float(tok) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ValueError("must not be empty")
    return tuple(vals)


def _option(default, parse, help: str, commands: tuple[str, ...] | None = None):
    """A row of the option table: a config-file key, and the flag --name
    (dashes for underscores) of each subcommand in `commands` (None: all).
    parse turns a flag's string or a config-file value into the field value."""
    meta = {"parse": parse, "help": help, "commands": commands}
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class RunConfig:
    """Settings of one run.  Each field after command is declared by its option row."""

    command: str
    J: float = _option(1.0, _number, "exchange strength J, a normal float > 0 (default 1.0)")
    orientation: str | None = _option(None, _Choice(("xy", "z")), "anisotropy axis orientation")
    theta: float | None = _option(None, parse_angle, "axis azimuth: radians or Npi/M, e.g. 5pi/6")
    tan_omega: float | None = _option(None, _finite_nonnegative,
                                      "anisotropy strength b/J, as tan(omega)")
    gate: str = _option("swap", _Choice((*gates.GATES, "psw")),
                        "gate to build, or to sweep (default swap)", ("gate", "sweep"))
    B: float = _option(1.0, _finite, "field magnitude (default 1.0)", ("gate", "fields"))
    beta: tuple[float, ...] = _option((0.1, 1.0, 10.0), _parse_series,
                                      "inverse temperatures (default 0.1,1,10)", ("thermal",))
    delta_omega_ratios: tuple[float, ...] = _option(
        _parse_series("0:0.1:50"), _parse_series,
        "comma list or start:stop:count (default 0:0.1:50)", ("sweep",))
    delta_theta_ratios: tuple[float, ...] = _option(
        (0.01, 0.1), _parse_series, "comma list or start:stop:count (default 0.01,0.1)",
        ("sweep",))
    mode: str = _option("both", _Choice(("both", "corrected", "uncorrected")),
                        "which pulse variants to evaluate (default both)", ("sweep",))
    out: str | None = _option(None, str, "write the report to this file")
    format: str | None = _option(None, _Choice(("csv", "json")), "output document format")
    tol: float = _option(1e-12, _finite_nonnegative,
                         "verification tolerance, finite and >= 0 (default 1e-12)")
    stamp: bool = _option(False, _strict_bool, "include a UTC timestamp in the output metadata")


_OPTIONS = {f.name: f.metadata for f in fields(RunConfig) if f.metadata}
_VALUE_FLAGS = {"--config"} | {"--" + key.replace("_", "-") for key, row in _OPTIONS.items()
                               if row["parse"] is not _strict_bool}
# A sweep's gate is a row of the gate table: psw is a gate command only.
_SWEEP_GATE = _Choice(gates.GATES)


def _parse(key: str, command: str):
    """The parser of option key in command."""
    return _SWEEP_GATE if (command, key) == ("sweep", "gate") else _OPTIONS[key]["parse"]


def _resolve(args: argparse.Namespace) -> RunConfig:
    """The run's settings, the written form decided before a command computes."""
    raw = load_config(args.config) if args.config else {}
    unknown = set(raw) - _OPTIONS.keys()
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    raw.update((k, v) for k, v in vars(args).items() if k in _OPTIONS and v is not None)
    values = {}
    for key, value in raw.items():
        try:
            values[key] = _parse(key, args.command)(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{key}: {exc}") from None
    if "orientation" not in values:
        raise ValueError("orientation is required (xy or z)")
    if "tan_omega" not in values:
        raise ValueError("tan_omega is required")
    command = args.command
    values["format"] = form = values.get("format") or (
        "csv" if command == "sweep" else "json" if values.get("out") else "text")
    if form == "csv" and command not in ("sweep", "thermal"):
        raise ValueError(f"{command} has no csv form")
    return RunConfig(command, **values)


def _fmt_matrix(m: np.ndarray) -> str:
    """numpy's text form at 6 digits.  A real or imaginary part that prints as
    zero is cleared first: its sign is rounding noise, and one -0. would widen
    every column."""
    m = np.array(m, dtype=complex)
    for part in (m.real, m.imag):
        with np.errstate(over="ignore"):  # an entry past 1.8e302 rounds to inf, not 0
            part[np.round(part, 6) == 0] = 0.0
    return np.array2string(m, precision=6, suppress_small=True)


@dataclass(frozen=True)
class _Table:
    """Rows under named columns, rendered as CSV lines or JSON objects when written."""

    columns: tuple[str, ...]
    rows: Sequence[tuple]


def _json_plain(o):
    """json.dumps' hook: a matrix as rows of [re, im] pairs, a _Table as a list of row
    objects (a non-finite cell as null)."""
    if isinstance(o, _Table):
        return [{c: v if math.isfinite(v) else None  # a bool is finite
                 for c, v in zip(o.columns, row)} for row in o.rows]
    if isinstance(o, np.ndarray) and o.ndim == 2:
        return np.ascontiguousarray(o, complex).view(float).reshape(*o.shape, 2).tolist()
    raise TypeError(f"{type(o).__name__} is not JSON serializable")


def _json(doc) -> str:
    """doc as one line of JSON, by json's C encoder; a non-finite number is a ValueError."""
    return json.dumps(doc, allow_nan=False, default=_json_plain)


def _csv_lines(table: _Table) -> list[str]:
    """The header, then each row by one %-format built from the first row's types:
    %.17g (format(v, ".17g")'s bytes) for a number, %s for a bool, the line then
    lowercased so a bool reads true/false (%.17g writes no capital)."""
    line = ",".join("%s" if isinstance(v, bool) else "%.17g" for v in next(iter(table.rows), ()))
    return [",".join(table.columns), *[(line % row).lower() for row in table.rows]]


def _text(doc: dict) -> list[str]:
    """The text form of a JSON document: one "key: value" line per key, in order.
    A matrix (6 digits) or a table (CSV lines) goes on the lines under its key;
    a dict prints as k=v pairs, a list as (a, b, c), a number as JSON writes it."""
    lines = []
    for key, v in doc.items():
        if isinstance(v, np.ndarray):
            lines += [f"{key}:", _fmt_matrix(v)]
        elif isinstance(v, _Table):
            lines += [f"{key}:", *_csv_lines(v)]
        elif isinstance(v, dict):
            lines.append(f"{key}: " + " ".join(f"{k}={json.dumps(x)}" for k, x in v.items()))
        elif isinstance(v, list):
            lines.append(f"{key}: ({', '.join(map(json.dumps, v))})")
        else:
            lines.append(f"{key}: {v if isinstance(v, str) else json.dumps(v)}")
    return lines


def _report(cfg: RunConfig, p: model.ExchangeParams, body: dict, check: tuple) -> int:
    """Frame and write one report in cfg.format: parameters, the command's body (matrices as
    arrays, a table as the _Table under "rows"), tolerance, stamp with --stamp.
    check = (what, value): exit code 2 unless value <= cfg.tol (a NaN fails)."""
    doc = {"parameters": _params_line(p), **body, "tolerance": cfg.tol}
    if cfg.stamp:
        doc["stamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if cfg.format == "text":
        lines = _text(doc)
    elif cfg.format == "csv":
        lines = [f"# stamp: {doc['stamp']}"] if cfg.stamp else []
        lines += _csv_lines(doc["rows"])
    else:  # JSON has no NaN: a value that is not finite, as a failed check can give, is null
        lines = [_json({k: None if isinstance(v, float) and not math.isfinite(v) else v
                        for k, v in doc.items()})]
    data = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "wb") as fh:
            fh.write(data.encode("utf-8"))
    else:
        sys.stdout.write(data)
        # A closed pipe must raise here, inside main, not at interpreter exit.
        sys.stdout.flush()
    if not check[1] <= cfg.tol:
        print(f"error: {check[0]} {check[1]:.6e} exceeds tolerance {cfg.tol:.6e}", file=sys.stderr)
        return 2
    return 0


def _params_line(p: model.ExchangeParams) -> str:
    theta = "-" if p.theta is None else f"{p.theta:.17g}"
    return (f"J={p.J:.17g} orientation={p.orientation} theta={theta} "
            f"b/J={p.b_over_J:.17g} omega={p.omega:.17g}")


def cmd_transform(cfg: RunConfig, p: model.ExchangeParams) -> int:
    """print H, the rotation T, T H T^dag, and the residual"""
    h = model.build_hamiltonian(p)
    rot = frame.rotation_matrix(p)
    residual = frame.verify_isotropization(p)
    body = {"hamiltonian": h, "rotation": rot, "transformed": rot @ h @ rot.conj().T,
            "residual": residual}
    return _report(cfg, p, body, ("isotropization residual", residual))


def cmd_decompose(cfg: RunConfig, p: model.ExchangeParams) -> int:
    """per-qubit ZYZ angles of T and the reassembly distance"""
    plan = frame.rotation_plan(p)
    distance = linalg.phase_distance(frame.assemble(plan), frame.rotation_matrix(p))
    body = {name: dict(zip(("alpha", "gamma", "beta"), angles))
            for name, angles in (("qubit1", plan.qubit1), ("qubit2", plan.qubit2))}
    body["assembly_distance"] = distance
    return _report(cfg, p, body, ("assembly distance", distance))


def cmd_gate(cfg: RunConfig, p: model.ExchangeParams) -> int:
    """emit a synthesized gate matrix"""
    report = (gates.phase_shifted_swap(p, cfg.B) if cfg.gate == "psw"
              else gates.gate_report(cfg.gate, p))
    distance = report.phase_distance_to_target
    body = {"label": report.label, "matrix": report.matrix, "phase_distance": distance,
            "target": report.target_label}
    return _report(cfg, p, body, ("gate distance", distance))


def cmd_fields(cfg: RunConfig, p: model.ExchangeParams) -> int:
    """compensating per-qubit fields and their transform residual"""
    pair = model.compensating_fields(p, cfg.B)
    residual = frame.verify_fields(p, cfg.B)
    body = {"B": cfg.B, "b1": list(pair.b1), "b2": list(pair.b2), "residual": residual}
    return _report(cfg, p, body, ("field transform residual", residual))


def cmd_sweep(cfg: RunConfig, p: model.ExchangeParams) -> int:
    """gate error over parameter misestimation ratios"""
    rows = analysis.gate_error_sweep(p, cfg.delta_omega_ratios, cfg.delta_theta_ratios,
                                     cfg.gate, cfg.mode)
    residual = frame.verify_isotropization(p)  # after the rows: a z sweep is refused first
    config = {"gate": cfg.gate, "tan_omega0": p.b_over_J, "theta0": p.theta,
              "delta_omega_ratios": list(cfg.delta_omega_ratios),
              "delta_theta_ratios": list(cfg.delta_theta_ratios), "mode": cfg.mode}
    body = {"config": config, "rows": _Table(analysis.SweepRow._fields, rows),
            "residual": residual}
    return _report(cfg, p, body, ("isotropization residual", residual))


def cmd_thermal(cfg: RunConfig, p: model.ExchangeParams) -> int:
    """thermal-state concurrence against the isotropic reference"""
    states = (analysis.thermal_state(model.build_hamiltonian(p), cfg.beta),
              analysis.thermal_state(model.build_isotropic(p.J), cfg.beta))
    c, c0 = analysis.concurrence(np.stack(states)).tolist()
    rows = [(b, x, x0, abs(x - x0)) for b, x, x0 in zip(cfg.beta, c, c0)]
    columns = ("beta", "concurrence", "concurrence_isotropic", "difference")
    worst = max(d for _, _, _, d in rows)
    return _report(cfg, p, {"rows": _Table(columns, rows)}, ("concurrence difference", worst))


_COMMANDS = {f.__name__.removeprefix("cmd_"): f for f in (
    cmd_transform, cmd_decompose, cmd_gate, cmd_fields, cmd_sweep, cmd_thermal)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _add_flag(parser: argparse.ArgumentParser, key: str, command: str | None = None) -> None:
    parse = _parse(key, command)
    flag = ({"action": "store_true", "default": None} if parse is _strict_bool
            else {"metavar": "{" + ",".join(parse) + "}"} if isinstance(parse, _Choice) else {})
    parser.add_argument("--" + key.replace("_", "-"), dest=key, help=_OPTIONS[key]["help"], **flag)


@functools.cache
def _build_parser() -> _Parser:
    """Flags for every command go on a parent parser that each subparser copies (cheaper
    than adding them six times), the rest on subparsers.  Parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value or JSON config file; flags override it")
    for key, row in _OPTIONS.items():
        if row["commands"] is None:
            _add_flag(common, key)
    parser = _Parser(prog="spinframe", description=__doc__.splitlines()[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, func in _COMMANDS.items():
        sp = sub.add_parser(command, parents=[common], help=func.__doc__, allow_abbrev=False)
        for key, row in _OPTIONS.items():
            if command in (row["commands"] or ()):
                _add_flag(sp, key, command)
    parser.commands = sub.choices  # argparse's own command name -> subparser map
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The parsed argv, in one argparse pass: a command's own subparser parses what
    follows the command, as the full parser would after its own pass over all of argv.
    Anything else (help, no command, an unknown one, a flag first) goes to the full
    parser, so both routes print the same help and errors."""
    parser = _build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    return sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def _join_dash_values(argv: list[str]) -> list[str]:
    """argv with --flag=value for each value flag followed by a value that starts
    with one '-' (-pi/2, -0.1,0), which argparse alone would take for a flag."""
    joined = []
    for arg in argv:
        if joined and joined[-1] in _VALUE_FLAGS and arg[:1] == "-" and arg[:2] != "--":
            arg = joined.pop() + "=" + arg
        joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
        cfg = _resolve(args)
        return _COMMANDS[cfg.command](
            cfg, model.ExchangeParams(cfg.J, cfg.orientation, cfg.tan_omega, theta=cfg.theta))
    except ValueError as exc:  # every refusal, the parser's, the config's and the model's
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away, as in `spinframe sweep | head`: not an error.
        # Point stdout at devnull so the flush at interpreter exit cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
