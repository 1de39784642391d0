"""One benchmark worker: a fresh single process that sets up one workload,
runs a warm-up job and then timed jobs, checks every job's output and prints
its raw samples as one JSON line.  bench/run.py starts it with the BLAS and
OpenMP thread counts already pinned to 1 in its environment.

    python3 bench/worker.py --workload sl-grid --seed 1 --seconds 8 \
        --mode plain --spawned <time.monotonic() of the parent at spawn>

--mode trace rotates the timed jobs through plain (untraced), timed (spans)
and memory (spans plus a tracemalloc peak) so the tracing overhead is taken
inside one process.  --seconds 0 runs the warm-up job only; --setup-only
stops after the setup and reports setup_s alone.  A job with a failed
operation is counted but not timed.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
MAX_BAD = 5          # check-failure messages kept per worker


def _call(name, fn, *args):
    return fn(*args)


def _facts(np, scipy):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def _trace_job(spans, mode, acc):
    """Fold one traced job's spans into the worker's raw samples."""
    calls, sizes, busy = Counter(), Counter(), Counter()
    child_s = defaultdict(float)
    for name, parent, sec, peak, size, _ in spans:
        calls[name] += 1
        busy[name] += sec * 1e3
        if size is not None:
            sizes[name] += size
        if parent is not None:
            child_s[parent] += sec
        if mode == "timed":
            acc["ms"][name].append(sec * 1e3)
        elif peak is not None:
            acc["peak_mb"][name].append(peak / 2**20)
    acc["calls"].append(dict(calls))
    acc["sizes"].append(dict(sizes))
    if mode == "timed":
        acc["busy_ms"].append(dict(busy))
        acc["self_ms"].append(sum(
            ((sec - child_s[i]) * 1e3 for i, (name, parent, sec, *_) in enumerate(spans)
             if parent is None and name.startswith("cli.")), 0.0))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["plain", "trace"], required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    t0 = time.monotonic()
    import cylspec
    import_s = time.monotonic() - t0
    if Path(cylspec.__file__).resolve().parent != (SRC / "cylspec").resolve():
        raise SystemExit(f"cylspec imported from {cylspec.__file__}, not from {SRC}")
    import numpy as np
    import scipy
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    os.makedirs(args.workdir, exist_ok=True)
    state = wl.setup(args.seed, args.workdir)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        shutil.rmtree(args.workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer()
    rotation = ["plain", "timed", "memory"] if args.mode == "trace" else ["plain"]
    jobs, bad, errors = [], [], []
    attempted = failed = checked = 0
    acc = {"calls": [], "sizes": [], "busy_ms": [], "ms": defaultdict(list),
           "peak_mb": defaultdict(list), "self_ms": [], "failed_calls": Counter()}
    bytes_written, digests = [], []
    deadline = None
    k = 0
    while True:
        # the warm-up job (k = 0) is traced in trace mode so the wrappers warm up too
        mode = (rotation[(k - 1) % len(rotation)] if k
                else "timed" if args.mode == "trace" else "plain")
        out = {}
        ops = wl.ops(state)
        if mode != "plain":
            tracer.install(memory=(mode == "memory"))
        call = tracer.call if mode != "plain" else _call
        t = time.perf_counter()
        try:
            wl.job(state, out, call)
            n_failed = wl.failed(out)
        except Exception as exc:   # a failed operation is counted, not fatal
            n_failed = ops
            if len(errors) < MAX_BAD:
                errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            sec = time.perf_counter() - t
            tracer.uninstall()
        attempted += ops
        failed += n_failed
        if n_failed < ops:
            checked += 1
            bad.extend(wl.check(state, out)[:MAX_BAD - len(bad)])
            written = wl.outputs(out)
            if written is not None:
                bytes_written.append(written[0])
                digests.append(written[1])
            wl.discard(out)
        if mode != "plain":
            acc["failed_calls"].update(span[0] for span in tracer.spans if span[5])
        if k and n_failed == 0:
            jobs.append((mode, sec))
            if mode != "plain":
                _trace_job(tracer.spans, mode, acc)
        elif not k:
            deadline = time.monotonic() + args.seconds
        k += 1
        if args.seconds == 0 or (k - 1 >= len(rotation) and time.monotonic() >= deadline):
            break

    result = {
        "workload": args.workload, "seed": args.seed, "mode": args.mode,
        "import_s": import_s, "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": jobs, "attempted": attempted, "failed": failed, "checked": checked,
        "bad": bad, "errors": errors,
        "bytes_written": bytes_written,
        "json_first": digests[0] if digests else None,
        "json_last": digests[-1] if digests else None,
        "trace": acc,
        "facts": _facts(np, scipy),
    }
    shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
