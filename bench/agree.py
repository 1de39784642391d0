"""Steadiness check: run the benchmark on several seeds per workload and report,
for each end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median against the bound in BENCHMARK.json.

    python3 bench/agree.py --seeds 1-10 --name A
    python3 bench/agree.py --seeds 11-20 --name B --against A

Each set is written to bench/results/agree-<name>.json.  With --against, the
second set's median of every metric is compared with the first set's: it may
be worse by at most the bound.  Runs go one after another, never in parallel.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--name", required=True)
    ap.add_argument("--against")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in seeds_from(args.seeds):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            wall = time.monotonic() - t
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not last["correct"]:
                ok = False
            runs.append({"seed": seed, "wall_s": wall, "rc": proc.returncode, **last})
            print(f"{workload} seed {seed}: {wall:.1f} s, " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in last["metrics"].items()), flush=True)
        stats = {}
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                           "bound": bounds[name], "values": vals}
        fails = {(r["failed"], r["attempted"]) for r in runs}
        summary[workload] = {"metrics": stats, "runs": runs,
                             "failed_share": sorted({f / a for f, a in fails}),
                             "max_wall_s": max(r["wall_s"] for r in runs)}

    prior = None
    if args.against:
        prior = json.loads((BENCH / "results" / f"agree-{args.against}.json").read_text())
    for workload, s in summary.items():
        print(f"== {workload}: failed share {s['failed_share']}, longest run {s['max_wall_s']:.1f} s")
        for name, m in s["metrics"].items():
            line = (f"  {name:12s} median {m['median']:.6g}  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}"
                    f"  spread {m['spread']:.4f} (bound {m['bound']}, third {m['bound'] / 3:.4f})")
            if prior and workload in prior:
                before = prior[workload]["metrics"][name]["median"]
                change = m["median"] / before - 1.0
                line += f"  vs {args.against}: {change:+.4f}"
                ok = ok and change <= m["bound"]
            ok = ok and m["spread"] <= m["bound"]
            print(line)
    (BENCH / "results").mkdir(exist_ok=True)
    (BENCH / "results" / f"agree-{args.name}.json").write_text(json.dumps(summary, indent=1))
    print("agreement", "holds" if ok else "FAILS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
