"""Benchmark of the cylspec index and cylinder pipelines.

    python3 bench/run.py --workload sl-grid --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --quick

A run starts one fresh worker process (bench/worker.py) with one BLAS/OpenMP
thread, which sets up, runs a warm-up job and then timed jobs for --seconds.
--trace 0 prints the end-to-end metrics, with setup_s the median over the
worker and SETUP_ONLY set-up-only processes started before it and as many
after it; --trace 1 prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The run's raw samples, the machine
facts and a calibration loop timed at the start and the end go to
bench/results/.  The exit code is 0 when every operation succeeded and every
output check passed, 1 when an operation, a check or a worker failed and 2 when
the sources or arguments are missing.

--quick runs one traced job per workload with every check on and exits 0 only
if every operation succeeds and every check passes.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sl-grid", "cylinder-end", "cli-session")
SETUP_ONLY = 4         # set-up-only processes before and again after the worker
RUN_TIMEOUT = 170.0    # seconds for all processes of one run
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CLI_STEPS = ("spectrum", "spectrum_mesh", "indicial", "index", "index_two_ends", "wallcross",
             "cylinder_solve", "kernel_count", "reproduce_tori", "reproduce_sl")

# per-layer metrics: name -> (unit, kind, traced function or span)
PER_LAYER = {
    "import_s": ("s", "import", None),
    "dec.quad_torus_complex_ms": ("ms", "call", "dec.quad_torus_complex"),
    "dec.build_dec_ms": ("ms", "call", "dec.build_dec"),
    "mesh.read_off_ms": ("ms", "call", "mesh.read_off"),
    "models.build_sl_model_ms": ("ms", "call", "models.build_sl_model"),
    "models.build_sl_model_peak_mb": ("MB", "peak", "models.build_sl_model"),
    "models.check_model_ms": ("ms", "call", "models.check_model"),
    "models.check_model_peak_mb": ("MB", "peak", "models.check_model"),
    "models.build_torus_model_ms": ("ms", "call", "models.build_torus_model"),
    "spectral.eigendecompose_ms": ("ms", "call", "spectral.eigendecompose"),
    "spectral.eigendecompose_peak_mb": ("MB", "peak", "spectral.eigendecompose"),
    "spectral.eigendecompose_dim": ("count", "size", "spectral.eigendecompose"),
    "spectral.spectrum_to_csv_ms": ("ms", "call", "spectral.spectrum_to_csv"),
    "index.fredholm_index_us": ("us", "call", "index.fredholm_index"),
    "index.wall_crossing_us": ("us", "call", "index.wall_crossing"),
    "index.fixed_moduli_vdim_us": ("us", "call", "index.fixed_moduli_vdim"),
    "cylinder.solve_cylinder_ms": ("ms", "call", "cylinder.solve_cylinder"),
    "cylinder.solve_cylinder_peak_mb": ("MB", "peak", "cylinder.solve_cylinder"),
    "cylinder.mode_steps": ("count", "size", "cylinder.solve_cylinder"),
    "cylinder.asymptotic_limit_ms": ("ms", "call", "cylinder.asymptotic_limit"),
    "cylinder.kernel_in_window_us": ("us", "call", "cylinder.kernel_in_window"),
    "cylinder.perturbed_kernel_count_ms": ("ms", "call", "cylinder.perturbed_kernel_count"),
    **{f"cli.{s}_ms": ("ms", "call", f"cli.{s}") for s in CLI_STEPS},
    "cli.self_ms": ("ms", "self", None),
    "cli.bytes_written": ("count", "bytes", None),
    "trace.job_p50_ms": ("ms", "traced_job", None),
    "trace.overhead_pct": ("%", "overhead", None),
}
SCALE = {"ms": 1.0, "us": 1e3}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; machine drift, not a metric."""
    t = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t


def spawn_worker(workload, seed, seconds, mode, index, timeout, setup_only=False):
    workdir = BENCH / "_work" / f"{workload}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
           "--workdir", str(workdir), "--spawned", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **THREADS},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {index} of {workload} exceeded {timeout:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {index} of {workload} exited {proc.returncode}: "
                           f"{err.strip()[-2000:]}")
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(results, setups):
    times = [sec for r in results for _, sec in r["jobs"]]
    return {
        "setup_s": (median(setups), "s"),
        "job_p50_ms": (median(times) * 1e3, "ms"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in results]), "MB"),
    }, times


def per_layer(results):
    """Per-layer metrics from the traced jobs; 0 for a layer the workload never calls."""
    tr = [r["trace"] for r in results]
    pooled = lambda key, fn: [v for t in tr for v in t[key].get(fn, [])]
    per_job = lambda key, fn: [j.get(fn, 0) for t in tr for j in t[key]]
    plain = [sec * 1e3 for r in results for m, sec in r["jobs"] if m == "plain"]
    traced = [sec * 1e3 for r in results for m, sec in r["jobs"] if m == "timed"]
    out = {}
    for name, (unit, kind, fn) in PER_LAYER.items():
        if kind == "import":
            v = median([r["import_s"] for r in results])
        elif kind == "call":
            v = median(pooled("ms", fn)) * SCALE[unit]
        elif kind == "peak":
            v = median(pooled("peak_mb", fn))
        elif kind == "size":
            v = median(per_job("sizes", fn))
        elif kind == "self":
            v = median([v for t in tr for v in t["self_ms"]])
        elif kind == "bytes":
            v = median([b for r in results for b in r["bytes_written"]])
        elif kind == "traced_job":
            v = median(traced)
        else:
            v = (median(traced) / median(plain) - 1.0) * 100.0
        out[name] = (v, unit)
    return out


def call_table(results):
    """Per traced function: calls per job, inclusive busy ms per job (medians over
    the traced jobs) and failed calls."""
    tr = [r["trace"] for r in results]
    names = sorted({n for t in tr for j in t["calls"] for n in j})
    return {n: {"calls_per_job": median([j.get(n, 0) for t in tr for j in t["calls"]]),
                "busy_ms_per_job": median([j.get(n, 0.0) for t in tr for j in t["busy_ms"]]),
                "failed": sum(t["failed_calls"].get(n, 0) for t in tr)} for n in names}


def verdicts(results):
    """Failed operations and failed output checks, after printing them."""
    bad = [f"operation failed: {e}" for r in results for e in r["errors"]]
    failed = sum(r["failed"] for r in results)
    if failed:
        bad.append(f"{failed} of {sum(r['attempted'] for r in results)} operations failed")
    bad += [b for r in results for b in r["bad"]]
    firsts = [r["json_first"] for r in results if r["json_first"] is not None]
    lasts = [r["json_last"] for r in results if r["json_last"] is not None]
    if firsts and any(d != firsts[0] for d in firsts + lasts):
        bad.append("JSON outputs differ between the first and the last session")
    for b in bad:
        print(f"CHECK FAILED: {b}")
    return bad


def run(workload, seed, seconds, trace, quick=False):
    if not (ROOT / "src" / "cylspec" / "__init__.py").is_file():
        print(f"error: no cylspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile first so the first worker's setup_s does not pay for it
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)
    start = time.monotonic()
    calib_start = calibrate()
    mode = "trace" if trace else "plain"
    setup_only = 0 if trace or quick else SETUP_ONLY

    def spawn(index, setup_only=False):
        left = RUN_TIMEOUT - (time.monotonic() - start)
        return spawn_worker(workload, seed, seconds, mode, index, left, setup_only)

    try:
        setups = [spawn(f"s{j}", True)["setup_s"] for j in range(setup_only)]
        results = [spawn("w")]
        setups.append(results[0]["setup_s"])
        setups += [spawn(f"s{j}", True)["setup_s"] for j in range(setup_only, 2 * setup_only)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    calib_end = calibrate()
    if quick:
        bad = verdicts(results)
        print(f"{workload}: {sum(r['attempted'] for r in results)} operations, "
              f"{sum(r['failed'] for r in results)} failed, "
              f"{sum(r['checked'] for r in results)} jobs checked, "
              f"{'all checks passed' if not bad else 'checks FAILED'}")
        return 0 if not bad else 1

    metrics, times = end_to_end(results, setups)
    njobs = len(times)
    if trace:
        metrics = per_layer(results)
    bad = verdicts(results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "setups_s": setups, "jobs": njobs, "facts": results[0]["facts"],
        "calibration_s": {"start": calib_start, "end": calib_end},
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "calls": call_table(results) if trace else None,
        "checks_failed": bad, "raw": results,
    }
    (BENCH / "results").mkdir(exist_ok=True)
    with open(BENCH / "results" / f"{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    facts = record["facts"]
    print(f"{workload} seed {seed}: {len(setups)} set-ups, "
          f"{njobs} timed jobs, "
          f"{attempted} operations attempted, {failed} failed")
    print(f"machine: nproc {facts['nproc']}, {facts['blas']}, python {facts['python']}, "
          f"numpy {facts['numpy']}, scipy {facts['scipy']}, threads {facts['threads']}")
    print(f"calibration loop: {calib_start:.4f} s at start, {calib_end:.4f} s at end")
    for name, (v, unit) in metrics.items():
        extra = f"  (median of {njobs} jobs)" if name == "job_p50_ms" else ""
        print(f"  {name:40s} {v:14.6g} {unit}{extra}")
    if trace:
        for name, row in record["calls"].items():
            print(f"  {name:36s} calls/job {row['calls_per_job']:6g}  "
                  f"busy {row['busy_ms_per_job']:10.3f} ms/job  failed {row['failed']}")
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if not bad else 1


def quick() -> int:
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}")
        rc = run(workload, seed=1, seconds=0.0, trace=1, quick=True)
        status = status or rc
    print("self-check", "passed" if status == 0 else "FAILED")
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true", help="one checked job per workload")
    args = ap.parse_args(argv)
    if args.quick:
        return quick()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
