"""spinframe benchmark: run one workload, or all of them, and print the metrics.

    python3 bench/run.py --workload sweep_map --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from any directory; spinframe is imported from the ``src/`` next to this
directory.  Each workload runs in fresh single processes with BLAS capped at
one thread: several set-up probes (launch, import, one warm-up call) and then
one worker that drives ``spinframe.cli.main`` in a closed loop with one client
(see worker.py).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separately traced run.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  The exit
code is 0 only if every output check passed.  Run files go to ``.bench_runs/``
at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "spinframe"

from gauge import Gauge  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "calls_per_s": "calls/s",
    "rows_per_s": "rows/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("self_share", "ratio"))},
    "model.spin_operators.calls_per_row": "calls/row",
    "linalg.kron.calls_per_row": "calls/row",
    "linalg.herm_eig.calls_per_row": "calls/row",
    "linalg.require_unitary.calls_per_row": "calls/row",
    "analysis.gate_error_sweep.us_per_row": "us/row",
    "linalg.expm_unitary.p50_us": "us",
    "model.build_hamiltonian.p50_us": "us",
    "cli.self_us_per_call": "us/call",
    "cli.self_us_per_row": "us/row",
    "setup.numpy_import_s": "s",
    "setup.spinframe_import_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.self_sum_frac": "ratio",
}
PROBES = 12
DEADLINE_S = 170.0
BLAS_CAP = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                   "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    pass


def launch(args: list[str], run_dir: Path, log) -> tuple[subprocess.Popen, float, dict]:
    """Start a worker; returns it with its set-up time and its ready line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args, "--run-dir", str(run_dir)],
        stdout=subprocess.PIPE, stderr=log, cwd=ROOT, env={**os.environ, **BLAS_CAP},
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    try:
        ready = json.loads(line)
    except ValueError:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed to start; see {log.name}") from None
    return proc, setup, ready


def finish(proc: subprocess.Popen, deadline: float) -> int:
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the deadline") from None
    finally:
        proc.stdout.close()


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    run_dir = ROOT / ".bench_runs" / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    starts, setups, readies = [], [], []
    # The gauge (see gauge.py) runs between the processes, never during one.
    gauge = Gauge()
    with open(run_dir / "worker.log", "w") as log:
        for _ in range(PROBES):
            starts.append(time.perf_counter())
            proc, setup, ready = launch([*base, "--probe"], run_dir, log)
            if finish(proc, deadline) != 0 or ready["warmup_exit"] != 0:
                raise BenchError(f"set-up probe failed; see {log.name}")
            setups.append(setup)
            readies.append(ready)
            gauge.keep_up(sum(setups))
        starts.append(time.perf_counter())
        proc, setup, ready = launch(base, run_dir, log)
        setups.append(setup)
        readies.append(ready)
        if finish(proc, deadline) != 0:
            raise BenchError(f"worker failed; see {log.name}")
    calibrated = [s * f for s, f in zip(setups, gauge.factors(starts, setups))]
    result = json.loads((run_dir / "result.json").read_text())
    metrics = result["metrics"]
    if trace:
        metrics["setup.numpy_import_s"] = statistics.median(r["numpy_import_s"] for r in readies)
        metrics["setup.spinframe_import_s"] = statistics.median(
            r["spinframe_import_s"] for r in readies)
        units = PER_LAYER
    else:
        metrics["setup_s"] = statistics.median(calibrated)
        units = END_TO_END
    result["metrics"] = {m: {"value": metrics[m], "unit": u} for m, u in units.items()}
    result["info"]["setup_raw_s"] = setups
    result["info"]["setup_raw_median_s"] = statistics.median(setups)
    result["run_dir"] = str(run_dir.relative_to(ROOT))
    result["facts"] = facts(name, seed, seconds, trace, result["info"])
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def facts(name: str, seed: int, seconds: float, trace: int, info: dict) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "why": WORKLOADS[name].why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": info.get("python"),
        "numpy": info.get("numpy"),
        "scipy": info.get("scipy"),
        "blas_threads": BLAS_CAP,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "load": "closed loop, one client, one process",
    }


def report(name: str, seed: int, seconds: float, trace: int) -> dict:
    result = run_workload(name, seed, seconds, trace)
    info = result["info"]
    print(f"{name} (seed {seed}, trace {trace}): {result['attempted']} calls, "
          f"{result['failed']} failed; files in {result['run_dir']}")
    for metric, v in result["metrics"].items():
        print(f"  {metric:40s} {v['value']:.6g} {v['unit']}")
    if not trace:
        failed_frac = result["failed"] / result["attempted"]
        print(f"  {'failed_frac':40s} {failed_frac:.6g} ratio")
        print(f"  ({info['calls']} latency samples, {info['samples_beyond_p90']} beyond p90)")
    for message in result["failures"]:
        print(f"  FAIL {message}")
    print("facts " + json.dumps(result["facts"]))
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no spinframe sources at {PACKAGE}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: report(n, args.seed, args.seconds, args.trace) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
