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
import itertools
import json
import math
import operator
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
# A flat config line up to its comment; a value that opens as a JSON string keeps its '#'.
_UNCOMMENTED = re.compile(r'[^#=]*=\s*"(?:[^"\\]|\\.)*"[^#]*|[^#]*')


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
    """Read a JSON object (a file that opens with { or [) or a flat key = value file: '#'
    starts a comment outside a quoted value, and a value opening with '"' is a JSON string."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:  # from read: open errors stay OSError, exit 3
        raise ValueError(f"config {path} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    if text.lstrip().startswith(("{", "[")):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path} is bad JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"config {path} must be a JSON object")
        return data
    data = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = _UNCOMMENTED.match(line).group().strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config {path} line {lineno} is not 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            data[key] = json.loads(value)
        except json.JSONDecodeError:
            if value.startswith('"'):  # an unclosed quote would be cut at a '#'
                raise ValueError(f"config {path} line {lineno}: {key} is not a JSON string")
            data[key] = value
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
    orientation: str | None = _option(None, _Choice(model._ORIENTATIONS),
                                     "anisotropy axis orientation")
    theta: float | None = _option(None, parse_angle, "axis azimuth: radians or Npi/M, e.g. 5pi/6")
    tan_omega: float | None = _option(None, _finite_nonnegative,
                                      "anisotropy strength b/J, as tan(omega)")
    gate: str = _option("swap", _Choice(gates.GATES),
                        "gate to build, or to sweep (default swap)", ("gate", "sweep"))
    B: float = _option(1.0, _finite, "field magnitude (default 1.0)", ("gate", "fields", "sweep"))
    beta: tuple[float, ...] = _option((0.1, 1.0, 10.0), _parse_series,
                                      "inverse temperatures (default 0.1,1,10)", ("thermal",))
    delta_omega_ratios: tuple[float, ...] = _option(
        _parse_series("0:0.1:50"), _parse_series,
        "comma list or start:stop:count (default 0:0.1:50)", ("sweep",))
    delta_theta_ratios: tuple[float, ...] = _option(
        (0.01, 0.1), _parse_series, "comma list or start:stop:count (default 0.01,0.1)",
        ("sweep",))
    mode: str = _option("both", _Choice(analysis._MODES),
                        "which pulse variants to evaluate (default both)", ("sweep",))
    out: str | None = _option(None, str, "write the report to this file")
    format: str | None = _option(None, _Choice(("csv", "json")), "output document format")
    tol: float = _option(1e-12, _finite_nonnegative,
                         "verification tolerance, finite and >= 0 (default 1e-12)")
    stamp: bool = _option(False, _strict_bool, "include a UTC timestamp in the output metadata")


_OPTIONS = {f.name: f.metadata for f in fields(RunConfig) if f.metadata}
_VALUE_FLAGS = {"--config"} | {"--" + key.replace("_", "-") for key, row in _OPTIONS.items()
                               if row["parse"] is not _strict_bool}

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
            values[key] = _OPTIONS[key]["parse"](value)
        except (TypeError, ValueError, MemoryError) as exc:  # MemoryError: a range too long
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
    """Named columns on a grid, rendered as CSV lines or JSON objects when written.  The
    leading columns are the grid's axes, innermost first, each given as its values: nonempty,
    finite, floats or bools.  The rest are value columns, each a sequence of floats (-inf the
    only non-finite value a report gives) with one value per grid point, the first axis
    fastest: row k sits at axes[0][k % n0], axes[1][(k // n0) % n1], and so on."""

    columns: tuple[str, ...]
    axes: tuple[Sequence, ...]
    values: tuple[Sequence[float], ...]


def _json_plain(o):
    """json.dumps' hook: a matrix as rows of [re, im] pairs."""
    if isinstance(o, np.ndarray) and o.ndim == 2:
        return np.ascontiguousarray(o, complex).view(float).reshape(*o.shape, 2).tolist()
    raise TypeError(f"{type(o).__name__} is not JSON serializable")


# json.dumps(o, allow_nan=False, default=_json_plain), with its encoder built once.
_dumps = json.JSONEncoder(allow_nan=False, default=_json_plain).encode
_NULLS = dict.fromkeys(("inf", "-inf", "nan"), "null")


def _row_formats(axes: list[list[str]], sep: str, values: str) -> list[str]:
    """The %-format of each grid point's line, in row order (the first axis fastest): the
    point's cell of each axis (axes holds each axis's cells as format text, a '%' written
    '%%'), then the format of the row's values, joined by sep."""
    formats = [values]
    for cells in reversed(axes):  # the outermost first, so each inner axis varies faster
        cells = [cell + sep for cell in cells]
        formats = [cell + f for f in formats for cell in cells]
    return formats


def _json(doc) -> str:
    """doc as one line of JSON, by json's C encoder; a non-finite number is a ValueError.
    A _Table may only be the value of a top-level dict's key "rows", where _report puts it.
    Its rows are written as text, each key escaped once, each axis's cells by one encoder
    call, each value by float.__repr__ (a non-finite one as null) and each row by one
    %-format; that text goes between the encoder's text of the pairs before and after it."""
    table = doc.get("rows") if isinstance(doc, dict) else None
    if not isinstance(table, _Table):
        return _dumps(doc)
    keys = [_dumps(c).replace("%", "%%") + ": " for c in table.columns]
    axes = [[key + cell for cell in _dumps(list(axis))[1:-1].split(", ")]
            for key, axis in zip(keys, table.axes)]
    formats = _row_formats(axes, ", ", ", ".join(key + "%s" for key in keys[len(table.axes):]))
    text = [list(map(float.__repr__, column)) for column in table.values]
    rows = map(operator.mod, itertools.cycle(formats), zip(*[map(_NULLS.get, t, t) for t in text]))
    pairs, k = list(doc.items()), list(doc).index("rows")
    parts = (_dumps(dict(pairs[:k]))[1:-1], '"rows": [{' + "}, {".join(rows) + "}]",
             _dumps(dict(pairs[k + 1:]))[1:-1])
    return "{" + ", ".join(filter(None, parts)) + "}"


def _csv_lines(table: _Table) -> list[str]:
    """The header, then each row by one %-format: its grid point's axis cells, each axis value
    formatted once per call (%.17g, format(v, ".17g")'s bytes, for a number, true or false
    for a bool), then its values, each by %.17g."""
    axes = [[_dumps(v) if isinstance(v, bool) else "%.17g" % v for v in axis]
            for axis in table.axes]
    formats = _row_formats(axes, ",", ",".join(["%.17g"] * len(table.values)))
    return [",".join(table.columns),
            *map(operator.mod, itertools.cycle(formats), zip(*table.values))]


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
    report = gates.gate_report(cfg.gate, p, cfg.B)
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
    table = analysis.gate_error_sweep(p, cfg.delta_omega_ratios, cfg.delta_theta_ratios,
                                      cfg.gate, cfg.mode, cfg.B)
    residual = frame.verify_isotropization(p)  # after the rows: a z sweep is refused first
    config = {"gate": cfg.gate, "tan_omega0": p.b_over_J, "theta0": p.theta,
              "delta_omega_ratios": list(cfg.delta_omega_ratios),
              "delta_theta_ratios": list(cfg.delta_theta_ratios), "mode": cfg.mode}
    if gates.GATES[cfg.gate].fields:  # B is echoed where it enters the rows
        config["B"] = cfg.B
    body = {"config": config, "rows": _Table(table._fields, table[:3], table[3:]),
            "residual": residual}
    return _report(cfg, p, body, ("isotropization residual", residual))


def cmd_thermal(cfg: RunConfig, p: model.ExchangeParams) -> int:
    """thermal-state concurrence against the isotropic reference"""
    states = (analysis.thermal_state(model.build_hamiltonian(p), cfg.beta),
              analysis.thermal_state(model.build_isotropic(p.J), cfg.beta))
    c, c0 = analysis.concurrence(np.stack(states)).tolist()
    difference = [abs(x - x0) for x, x0 in zip(c, c0)]
    columns = ("beta", "concurrence", "concurrence_isotropic", "difference")
    return _report(cfg, p, {"rows": _Table(columns, (cfg.beta,), (c, c0, difference))},
                   ("concurrence difference", max(difference)))


_COMMANDS = {f.__name__.removeprefix("cmd_"): f for f in (
    cmd_transform, cmd_decompose, cmd_gate, cmd_fields, cmd_sweep, cmd_thermal)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _add_flag(parser: argparse.ArgumentParser, key: str) -> None:
    parse = _OPTIONS[key]["parse"]
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
                _add_flag(sp, key)
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
