"""One workload process of the spinframe benchmark.

Started by run.py, never by hand.  It imports spinframe from the checkout's
``src/``, makes one warm-up call, prints one "ready" line (the parent times
set-up up to that line), and, unless ``--probe`` is given, runs the workload:
seeded CLI calls through ``spinframe.cli.main`` in a closed loop with one
client until ``--seconds`` have passed and a cycle is complete.  Only the
``cli.main`` calls are timed.  Every output is checked; the result goes to
``result.json`` in ``--run-dir``.

With ``--trace 1`` each cycle runs twice, once untraced and once with the
tracer installed (alternating which goes first), so the trace overhead is
measured on the same calls and the two outputs must be byte-identical.

checks, gauge and tracer import numpy, so they are imported inside the
functions that use them, after the import timings of the ready line.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from workloads import WORKLOADS, anchor_call, cycles, warmup_call  # noqa: E402

MAX_MESSAGES = 20


class Run:
    """Calls made in the measured loop, their checks and their timings."""

    def __init__(self, cli, workload: str, seed: int, run_dir: Path) -> None:
        self.cli = cli
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.run_dir = run_dir
        self.sample_rng = random.Random(f"sample:{workload}:{seed}")
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.busy = 0.0
        self.traced: list[tuple[float, float]] = []  # (start, seconds)
        self.rows: list[int] = []
        self.failed: set[int] = set()
        self.messages: list[str] = []
        self.oracle_sample: list[tuple[int, object, list]] = []
        self.reruns: list[tuple[int, object, bytes]] = []

    def call(self, call, name: str = "call") -> tuple[float, float, int | str, bytes]:
        """Run one command into a fresh output file; returns (start, seconds, exit code, bytes)."""
        path = self.run_dir / f"{name}.{call.fmt}"
        if path.exists():
            path.unlink()
        argv = [*call.argv, "--out", str(path)]
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed call, counted like the others
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        data = path.read_bytes() if path.exists() else b""
        return t0, seconds, code, data

    def fail(self, index: int, errors: list[str]) -> None:
        if errors:
            self.failed.add(index)
            for e in errors:
                if len(self.messages) < MAX_MESSAGES:
                    self.messages.append(f"call {index}: {e}")

    def record(self, call, start: float, seconds: float, code: int | str, data: bytes) -> int:
        """Check one measured call; returns its index."""
        from checks import check_exit, check_sweep, check_verify

        index = len(self.durations)
        self.starts.append(start)
        self.durations.append(seconds)
        self.busy += seconds
        errors = check_exit(code)
        rows = []
        if not errors and call.command == "sweep":
            errors, rows = check_sweep(call, data)
            k = min(self.workload.oracle_rows_per_call, len(rows))
            self.oracle_sample.append((index, call, self.sample_rng.sample(rows, k)))
        elif not errors:
            errors = check_verify(call, data)
        self.rows.append(len(rows) if call.command == "sweep" else 1)
        self.fail(index, errors)
        if call.rerun:
            self.reruns.append((index, call, data))
        return index

    def after(self) -> None:
        """Oracle, anchors and reruns, outside the timed region."""
        from checks import check_anchor, check_exit, check_oracle, check_rerun

        for index, call, rows in self.oracle_sample:
            self.fail(index, check_oracle(call, rows))
            anchor = anchor_call(call)
            _, _, code, data = self.call(anchor, "anchor")
            self.fail(index, check_exit(code) or check_anchor(anchor, data))
        for index, call, data in self.reruns:
            _, _, code, again = self.call(call, "rerun")
            self.fail(index, check_exit(code) or check_rerun(data, again))


def run_untraced(run: Run, seconds: float, gauge) -> None:
    deadline = time.perf_counter() + seconds
    for cycle in cycles(run.workload.name, run.seed):
        for call in cycle:
            run.record(call, *run.call(call))
            gauge.keep_up(run.busy)
        if time.perf_counter() >= deadline:
            return


def run_traced(run: Run, seconds: float, tracer, gauge) -> None:
    from checks import check_rerun

    deadline = time.perf_counter() + seconds
    busy = 0.0
    for n, cycle in enumerate(cycles(run.workload.name, run.seed)):
        outputs = {"plain": [], "traced": []}
        for which in ("traced", "plain") if n % 2 else ("plain", "traced"):
            for call in cycle:
                if which == "traced":
                    tracer.install()
                try:
                    outputs[which].append(run.call(call, which))
                finally:
                    tracer.uninstall()
                busy += outputs[which][-1][1]
                gauge.keep_up(busy)
        for call, plain, traced in zip(cycle, outputs["plain"], outputs["traced"]):
            index = run.record(call, *plain)
            run.traced.append(traced[:2])
            run.fail(index, check_rerun(plain[3], traced[3]))
        if time.perf_counter() >= deadline:
            return


def timings(run: Run, durations: list[float]) -> dict:
    ok = [i for i in range(len(durations)) if i not in run.failed]
    busy = sum(durations)
    p90 = statistics.quantiles(durations, n=10, method="inclusive")[8]
    return {
        "calls_per_s": len(ok) / busy,
        "rows_per_s": sum(run.rows[i] for i in ok) / busy,
        "call_p50_ms": statistics.median(durations) * 1e3,
        "call_p90_ms": p90 * 1e3,
        "samples_beyond_p90": sum(1 for x in durations if x > p90),
    }


def end_to_end(run: Run, gauge) -> tuple[dict, dict]:
    """Timings at the gauge's reference speed, with the raw ones in the info."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    factors = gauge.factors(run.starts, run.durations)
    calibrated = [d * f for d, f in zip(run.durations, factors)]
    (run.run_dir / "calls.json").write_text(json.dumps(
        {"start": run.starts, "seconds": run.durations, "calibrated": calibrated,
         "gauge_times": gauge.times, "gauge_seconds": gauge.seconds}))
    metrics = timings(run, calibrated)
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics, {
        "calls": len(run.durations),
        "rows": sum(run.rows),
        "busy_s": run.busy,
        "samples_beyond_p90": metrics.pop("samples_beyond_p90"),
        "raw": timings(run, run.durations),
        "gauge_samples": len(gauge.seconds),
        "gauge_s": gauge.total,
        "speed_factor_median": statistics.median(factors),
    }


def per_layer(run: Run, tracer, gauge) -> tuple[dict, dict]:
    import numpy as np

    from tracer import LAYERS

    a = tracer.arrays()
    names = tracer.names
    layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names])
    layer_self = np.bincount(layer_of[a["name_ix"]], weights=a["self"], minlength=len(LAYERS))
    counts = np.bincount(a["name_ix"], minlength=len(names))
    total_self = float(layer_self.sum())
    calls, rows = len(run.traced), sum(run.rows)

    def ix(name):
        return names.index(name)

    def spans(name):
        return a["dur"][a["name_ix"] == ix(name)]

    def median_us(name):
        d = spans(name)
        return float(np.median(d)) * 1e6 if len(d) else 0.0

    cli_self = float(layer_self[LAYERS.index("cli")])
    m = {}
    for layer, s in zip(LAYERS, layer_self):
        m[f"{layer}.self_s"] = float(s)
        m[f"{layer}.self_share"] = float(s) / total_self
    for name in ("model.spin_operators", "linalg.kron", "linalg.herm_eig",
                 "linalg.require_unitary"):
        m[f"{name}.calls_per_row"] = int(counts[ix(name)]) / rows
    m["analysis.gate_error_sweep.us_per_row"] = float(spans("analysis.gate_error_sweep").sum()) / rows * 1e6
    m["linalg.expm_unitary.p50_us"] = median_us("linalg.expm_unitary")
    m["model.build_hamiltonian.p50_us"] = median_us("model.build_hamiltonian")
    m["cli.self_us_per_call"] = cli_self / calls * 1e6
    m["cli.self_us_per_row"] = cli_self / rows * 1e6
    # Both passes at the gauge's reference speed, as in end_to_end.
    plain = gauge.factors(run.starts, run.durations)
    traced = gauge.factors(*zip(*run.traced))
    m["trace.overhead_frac"] = (sum(f * d for f, (_, d) in zip(traced, run.traced))
                                / sum(f * d for f, d in zip(plain, run.durations)))
    m["trace.self_sum_frac"] = total_self / sum(d for _, d in run.traced)
    info = {
        "traced_calls": calls,
        "rows": rows,
        "spans": len(a["dur"]),
        "traced_functions": names,
    }
    return m, info


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    run_dir = Path(args.run_dir)

    t0 = time.perf_counter()
    import numpy

    t1 = time.perf_counter()
    import spinframe
    from spinframe import cli

    t2 = time.perf_counter()
    if SRC not in Path(spinframe.__file__).resolve().parents:
        print(f"spinframe imported from {spinframe.__file__}, not {SRC}", file=sys.stderr)
        return 2
    warm = warmup_call(args.workload)
    run = Run(cli, args.workload, args.seed, run_dir)
    _, _, code, _ = run.call(warm, "warmup")
    ready = {"numpy_import_s": t1 - t0, "spinframe_import_s": t2 - t1, "warmup_exit": code}
    print(json.dumps(ready), flush=True)
    if args.probe or code != 0:
        return 0 if code == 0 else 1

    from gauge import Gauge

    gauge = Gauge()
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        # Every cycle runs twice, so each pass gets about half of the time.
        run_traced(run, args.seconds, tracer, gauge)
        run.after()
        metrics, info = per_layer(run, tracer, gauge)
        tracer.save(run_dir / "spans.npz")
    else:
        run_untraced(run, args.seconds, gauge)
        metrics, info = end_to_end(run, gauge)
        run.after()
    import scipy

    for stale in ("call", "plain", "traced", "anchor", "rerun", "warmup"):
        for path in run_dir.glob(f"{stale}.*"):
            path.unlink()
    result = {
        "attempted": len(run.durations),
        "failed": len(run.failed),
        "failures": run.messages,
        "metrics": metrics,
        "info": {
            **info,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "spinframe_file": str(Path(spinframe.__file__).relative_to(ROOT)),
        },
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
