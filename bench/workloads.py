"""The three benchmark workloads: fixed inputs from a seed, one timed job, and
output checks against computations made apart from cylspec.

Each workload is a class with

* ``setup(seed, workdir)``: build the fixed inputs (not timed as a job);
* ``job(state, out, call)``: one unit of work, timed whole by the worker;
  ``call(name, fn, *args)`` runs fn(*args), as a named span in a traced run;
* ``check(state, out)``: a list of failed-check messages (empty when correct);
* ``ops(state)``: the number of library calls or CLI commands in one job.

The oracles here (closed-form grid spectra, integer-lattice counts) never call
``cylspec.lattice`` or reuse a stored copy of an earlier output.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np

import cylspec
from cylspec import cli

TWO_PI = 2.0 * math.pi
ROOT_MARGIN = 1e-3   # seeded rates and window ends keep this distance from every root


# ---------------------------------------------------------------------------
# oracles

def grid_sl_roots(n: int) -> np.ndarray:
    """Sorted eigenvalues of A = J D for the block model on the n x n grid of the
    square 2*pi torus: 0 four times and +-sqrt(lam_pq) twice each, where
    lam_pq = (4/h^2)(sin^2(pi p/n) + sin^2(pi q/n)), h = 2*pi/n."""
    h = TWO_PI / n
    s = np.sin(np.pi * np.arange(n) / n) ** 2
    lam = (4.0 / h**2) * (s[:, None] + s[None, :]).ravel()[1:]
    r = np.sqrt(lam)
    return np.sort(np.concatenate([np.zeros(4), r, r, -r, -r]))


def lattice_points(cutoff: float) -> list[tuple[int, int]]:
    """Nonzero integer points (p, q) with p^2 + q^2 <= cutoff."""
    b = int(math.isqrt(int(cutoff))) + 1
    return [(p, q) for p in range(-b, b + 1) for q in range(-b, b + 1)
            if (p, q) != (0, 0) and p * p + q * q <= cutoff]


def torus_roots(cutoff: float) -> np.ndarray:
    """Sorted eigenvalues of A for the quaternionic model on the square 2*pi torus:
    0 four times and +-|k| twice for each nonzero integer point k, |k|^2 <= cutoff."""
    r = np.array([math.hypot(p, q) for p, q in lattice_points(cutoff)])
    return np.sort(np.concatenate([np.zeros(4), r, r, -r, -r]))


def count_open(roots: np.ndarray, lo: float, hi: float) -> int:
    return int(np.count_nonzero((roots > lo) & (roots < hi)))


def closed_index(roots: np.ndarray, rate: float) -> int:
    """d0/2 plus the multiplicities strictly between 0 and the rate, mirrored below 0."""
    d0 = int(np.count_nonzero(roots == 0.0))
    if rate > 0:
        return d0 // 2 + count_open(roots, 0.0, rate)
    return -(d0 // 2 + count_open(roots, rate, 0.0))


def seeded_points(rng, roots_per_axis, lo, hi, count):
    """count points of [lo, hi]^m (one axis per root list), each coordinate at
    least ROOT_MARGIN away from every root of its axis."""
    out = []
    while len(out) < count:
        x = rng.uniform(lo, hi, size=len(roots_per_axis))
        if all(np.abs(r - v).min() > ROOT_MARGIN for r, v in zip(roots_per_axis, x)):
            out.append(x)
    return out


# ---------------------------------------------------------------------------

class Workload:
    def failed(self, out):
        """Operations of a completed job that reported failure (CLI exit codes)."""
        return 0

    def outputs(self, out):
        """(bytes written, {path: sha256} of JSON files) for workloads that write files."""
        return None

    def discard(self, out):
        pass


class SlGrid(Workload):
    """Dense block model on the 16 x 16 grid (dim 1024) and an index sweep over
    the two-end system (sl, torus cutoff 2.5)."""

    GRID = 16
    TORUS_CUTOFF = 2.5
    SWEEP = 16           # rate vectors per sweep, for each of the three index calls
    RATE_SPAN = 1.5      # inside both completeness radii (torus: sqrt(2.5))

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        torus = cylspec.square_torus()
        torus_spec = cylspec.eigendecompose(cylspec.build_torus_model(torus, self.TORUS_CUTOFF))
        roots = (grid_sl_roots(self.GRID), torus_roots(self.TORUS_CUTOFF))
        span = self.RATE_SPAN
        rates = seeded_points(rng, roots, -span, span, self.SWEEP)
        pairs = []
        while len(pairs) < self.SWEEP:
            a, b = seeded_points(rng, roots, -span, span, 2)
            if np.all(np.abs(a - b) > ROOT_MARGIN):
                pairs.append((np.minimum(a, b), np.maximum(a, b)))
        negative = seeded_points(rng, roots, -span, -ROOT_MARGIN, self.SWEEP)
        lo = float(seeded_points(rng, (roots[0],), -3.0, -1.0, 1)[0][0])
        hi = float(seeded_points(rng, (roots[0],), 1.0, 3.0, 1)[0][0])
        return {"torus": torus, "torus_spec": torus_spec, "roots": roots,
                "rates": rates, "pairs": pairs, "negative": negative, "window": (lo, hi)}

    def ops(self, state):
        return 5 + 3 * self.SWEEP + 1

    def job(self, state, out, call):
        cc = cylspec.quad_torus_complex(state["torus"], self.GRID)
        model = cylspec.build_sl_model(cc)
        out["diag"] = cylspec.check_model(model)
        spec = cylspec.eigendecompose(model)
        out["eigenvalues"] = spec.eigenvalues
        out["indicial"] = cylspec.indicial_roots(spec, state["window"])
        ends = cylspec.EndSystem((spec, state["torus_spec"]))
        out["index"] = [cylspec.fredholm_index(r, ends).index for r in state["rates"]]
        out["jump"] = [cylspec.wall_crossing(a, b, ends)[0] for a, b in state["pairs"]]
        out["fixed"] = [cylspec.fixed_moduli_vdim(r, ends) for r in state["negative"]]
        out["varying"] = cylspec.varying_moduli_vdim(ends)

    def check(self, state, out):
        bad = []
        sl, tor = state["roots"]
        ev = out["eigenvalues"]
        tol = 1e-10 * float(np.abs(sl).max())
        err = float(np.abs(np.sort(ev) - sl).max()) if ev.shape == sl.shape else math.inf
        if not err <= tol:
            bad.append(f"spectrum differs from the closed form by {err:.3e} (tol {tol:.1e})")
        if not out["diag"].passed:
            bad.append(f"check_model failed: {out['diag'].residuals}")
        lo, hi = state["window"]
        got = sum(d for _, d in out["indicial"])
        want = int(np.count_nonzero((sl >= lo) & (sl <= hi)))
        if got != want:
            bad.append(f"indicial roots in [{lo:.4f}, {hi:.4f}] sum to {got}, closed form {want}")
        for r, got in zip(state["rates"], out["index"]):
            want = closed_index(sl, r[0]) + closed_index(tor, r[1])
            if got != want:
                bad.append(f"index at {r.tolist()} is {got}, closed form {want}")
        for (a, b), got in zip(state["pairs"], out["jump"]):
            want = count_open(sl, a[0], b[0]) + count_open(tor, a[1], b[1])
            if got != want:
                bad.append(f"wall-crossing jump {a.tolist()} -> {b.tolist()} is {got}, "
                           f"closed form {want}")
        for r, got in zip(state["negative"], out["fixed"]):
            want = closed_index(sl, r[0]) + closed_index(tor, r[1])
            if got != want:
                bad.append(f"fixed vdim at {r.tolist()} is {got}, closed form {want}")
        if out["varying"] != 4:
            bad.append(f"varying vdim is {out['varying']}, expected 2 + 2")
        return bad


# ---------------------------------------------------------------------------

class CylinderEnd(Workload):
    """Half-cylinder layer on the torus model at cutoff 10 (dim 148), T = 30,
    h = 0.01 (3001 points)."""

    CUTOFF = 10.0
    T = 30.0
    H = 0.01
    WINDOWS = 32
    KC_WEIGHT = 0.5
    MANUFACTURED_TOL = 1e-6   # weighted relative sup error of a 4th-order scheme at h = 0.01
    LIMIT_TOL = 1e-12
    # the fit's far tail sits 1e-13 below the planted constant, where rounding of
    # the subtracted constant moves the log-linear slope: over seeds 1-400 the
    # fitted rate was off by up to 5.8e-4 (1.3e-4 on seed 35)
    RATE_TOL = 1e-3

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        spec = cylspec.eigendecompose(
            cylspec.build_torus_model(cylspec.square_torus(), self.CUTOFF))
        roots = torus_roots(self.CUTOFF)
        op = cylspec.CylinderOperator(spec, self.T, self.H)
        t = op.tgrid
        lams = spec.eigenvalues

        # manufactured solve: u_j = a_j e^{r_j t} sin(w_j t), every rate below the weight
        weight = float(seeded_points(rng, (roots,), -0.9, -0.1, 1)[0][0])
        amp = rng.standard_normal(op.dim)
        omega = rng.uniform(0.5, 2.0, op.dim)
        rate = weight - rng.uniform(1.0, 1.5, op.dim)
        e = np.exp(rate[:, None] * t[None, :])
        s, c = np.sin(omega[:, None] * t[None, :]), np.cos(omega[:, None] * t[None, :])
        u_true = amp[:, None] * e * s
        du = amp[:, None] * e * (rate[:, None] * s + omega[:, None] * c)
        rhs = spec.jmat @ (du - lams[:, None] * u_true)     # f = J g for g = u' - A u

        # planted limit: constant on the kernel modes, e^{-t} on the lambda = -1 modes
        zero = np.flatnonzero(np.abs(lams) < 1e-9)
        minus1 = np.flatnonzero(np.abs(lams + 1.0) < 1e-9)
        planted = np.zeros(op.dim)
        planted[zero] = rng.standard_normal(zero.size)
        coeffs = np.zeros((op.dim, t.size))
        coeffs[zero] = planted[zero, None]
        coeffs[minus1] = rng.standard_normal(minus1.size)[:, None] * np.exp(-t)[None, :]
        limit_sol = cylspec.CylinderSolution(coeffs, t, 0.5, 0.0, 0.0, spec)

        windows = []
        while len(windows) < self.WINDOWS:
            a, b = seeded_points(rng, (roots,), -3.1, 3.1, 2)
            if abs(a[0] - b[0]) > ROOT_MARGIN:
                windows.append((float(min(a[0], b[0])), float(max(a[0], b[0]))))

        pert = cylspec.make_perturbation(op.dim, 1e-3, -1.0, int(rng.integers(2**31)))
        kc_op = cylspec.CylinderOperator(spec, self.T, self.H, pert)
        negative = [int(j) for j in np.flatnonzero(lams < -spec.cluster_tol)]
        return {"roots": roots, "op": op, "weight": weight, "rhs": rhs, "u_true": u_true,
                "limit_sol": limit_sol, "planted": planted, "windows": windows,
                "kc_op": kc_op, "negative": negative}

    def ops(self, state):
        return 3 + self.WINDOWS

    def job(self, state, out, call):
        out["solve"] = cylspec.solve_cylinder(state["op"], state["rhs"], state["weight"])
        out["limit"] = cylspec.asymptotic_limit(state["limit_sol"], 0.0, -1.0)
        out["windows"] = [cylspec.kernel_in_window(state["op"], w).dimension
                          for w in state["windows"]]
        out["count"] = cylspec.perturbed_kernel_count(state["kc_op"], self.KC_WEIGHT,
                                                      state["negative"])

    def check(self, state, out):
        bad = []
        roots = state["roots"]
        sol, u_true = out["solve"], state["u_true"]
        wfac = np.exp(-state["weight"] * sol.tgrid)
        err = float((np.linalg.norm(sol.coeffs - u_true, axis=0) * wfac).max()
                    / (np.linalg.norm(u_true, axis=0) * wfac).max())
        if not err <= self.MANUFACTURED_TOL:
            bad.append(f"manufactured solve error {err:.3e} > {self.MANUFACTURED_TOL:.0e}")
        lim, planted = out["limit"], state["planted"]
        lerr = float(np.abs(lim.coefficient - planted).max())
        if not lerr <= self.LIMIT_TOL * max(1.0, float(np.abs(planted).max())):
            bad.append(f"planted limit coefficient recovered to {lerr:.3e}")
        if lim.fitted_rate is None or not abs(lim.fitted_rate + 1.0) <= self.RATE_TOL:
            bad.append(f"remainder rate {lim.fitted_rate} is not -1")
        for (lo, hi), got in zip(state["windows"], out["windows"]):
            want = count_open(roots, lo, hi)
            if got != want:
                bad.append(f"kernel window ({lo:.4f}, {hi:.4f}) has dim {got}, lattice count {want}")
        want = count_open(roots, -math.inf, self.KC_WEIGHT) - count_open(roots, -math.inf, 0.0)
        if out["count"].dimension != want:
            bad.append(f"perturbed kernel count {out['count'].dimension}, unperturbed {want}")
        return bad


# ---------------------------------------------------------------------------

class CliSession(Workload):
    """The README command list, in-process through cylspec.cli.main, writing
    into a fresh directory per session."""

    MESH = (12, 8)           # parametric donut: dim 576 block model, hundreds of clusters
    GENUS = 1
    CUTOFF = 2.5

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        off = os.path.join(workdir, "donut.off")
        cylspec.write_off(off, cylspec.parametric_torus_mesh(*self.MESH))
        roots = torus_roots(self.CUTOFF)
        rate1 = float(seeded_points(rng, (roots,), -1.5, 1.5, 1)[0][0])
        rate2 = [float(x) for x in seeded_points(rng, (roots, roots), -1.5, 1.5, 1)[0]]
        a, b = sorted(float(x[0]) for x in seeded_points(rng, (roots,), -1.5, 1.5, 2))
        kc_seed = int(rng.integers(1000))
        two_pi = repr(TWO_PI)
        torus = f"{two_pi},0,0,{two_pi}"
        steps = [
            ("spectrum", ["spectrum", "--torus", torus, "--cutoff", "2.5", "--out", "{d}/spectrum"]),
            ("spectrum_mesh", ["spectrum", "--model", "sl", "--mesh", off, "--out", "{d}/mesh"]),
            ("indicial", ["indicial", "--cutoff", "2.5", "--window=-1.2,1.2"]),
            ("index", ["index", "--ends", "torus", f"--rates={rate1!r}", "--out", "{d}/index1"]),
            ("index_two_ends", ["index", "--ends", "torus,torus",
                                f"--rates={rate2[0]!r},{rate2[1]!r}", "--out", "{d}/index2"]),
            ("wallcross", ["wallcross", "--ends", "torus", f"--rate1={a!r}", f"--rate2={b!r}"]),
            ("cylinder_solve", ["cylinder-solve", "--cutoff", "1.5", "--weight=-0.5",
                                "--T", "45", "--out", "{d}/cylinder"]),
            ("kernel_count", ["kernel-count", "--cutoff", "1.5", "--weight", "0.5", "--eps", "1e-3",
                              "--mu-pert=-1", "--seed", str(kc_seed), "--boundary", "negative",
                              "--out", "{d}/kernel"]),
            ("reproduce_tori", ["reproduce", "tori"]),
            ("reproduce_sl", ["reproduce", "sl"]),
        ]
        return {"workdir": workdir, "steps": steps, "roots": roots, "rate1": rate1,
                "rate2": rate2, "wall": (a, b), "sessions": 0}

    def ops(self, state):
        return len(state["steps"])

    def job(self, state, out, call):
        d = os.path.join(state["workdir"], f"session-{state['sessions']}")
        state["sessions"] += 1
        out["dir"] = d
        out["runs"] = runs = []
        for name, argv in state["steps"]:
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc = call(f"cli.{name}", cli.main, [a.replace("{d}", d) for a in argv])
            runs.append((name, rc, buf.getvalue(), err.getvalue()))

    def failed(self, out):
        return sum(1 for _, rc, _, _ in out["runs"] if rc != 0)

    def outputs(self, out):
        """(bytes written, {relative path: sha256} of the JSON files) of one session."""
        written, digests = 0, {}
        for base, _, files in os.walk(out["dir"]):
            for f in files:
                path = os.path.join(base, f)
                written += os.path.getsize(path)
                if f.endswith(".json"):
                    with open(path, "rb") as fh:
                        digests[os.path.relpath(path, out["dir"])] = \
                            hashlib.sha256(fh.read()).hexdigest()
        return written, digests

    def discard(self, out):
        shutil.rmtree(out["dir"], ignore_errors=True)

    def check(self, state, out):
        bad = []
        roots = state["roots"]
        runs = {name: (rc, text, err) for name, rc, text, err in out["runs"]}
        for name, (rc, _, err) in runs.items():
            if rc != 0:
                bad.append(f"{name} exited {rc}: {err.strip()}")
        if bad:
            return bad

        def load(rel):
            with open(os.path.join(out["dir"], rel), "r", encoding="ascii") as fh:
                return json.load(fh)

        clusters = {round(c["lambda"], 9): c["d"] for c in load("spectrum/spectrum.json")["clusters"]}
        want = {0.0: 4}
        for p, q in lattice_points(self.CUTOFF):
            for lam in (math.hypot(p, q), -math.hypot(p, q)):
                want[round(lam, 9)] = want.get(round(lam, 9), 0) + 2
        if clusters != want:
            bad.append(f"torus clusters {clusters} differ from 2*r2(lambda): {want}")

        mesh = [(c["lambda"], c["d"]) for c in load("mesh/spectrum.json")["clusters"]]
        d0 = sum(d for lam, d in mesh if lam == 0.0)
        if d0 != 2 + 2 * self.GENUS:
            bad.append(f"mesh kernel d0 = {d0}, expected 2 + 2g = {2 + 2 * self.GENUS}")
        if [d for _, d in mesh] != [d for _, d in reversed(mesh)] or \
                any(abs(a + b) > 1e-6 * max(1.0, abs(a)) for (a, _), (b, _) in zip(mesh, reversed(mesh))):
            bad.append("mesh spectrum is not symmetric: d_lambda != d_-lambda")

        lines = [ln.split() for ln in runs["indicial"][1].splitlines() if "lambda =" in ln]
        got = [(round(float(ln[2]), 4), int(ln[5])) for ln in lines]   # printed with %.6g
        want_ind = sorted((round(k, 4), v) for k, v in want.items() if -1.2 <= k <= 1.2)
        if got != want_ind:
            bad.append(f"indicial roots {got}, lattice count {want_ind}")

        got = load("index1/index.json")["index"]
        if got != closed_index(roots, state["rate1"]):
            bad.append(f"index at {state['rate1']} is {got}, closed form "
                       f"{closed_index(roots, state['rate1'])}")
        r = state["rate2"]
        got, want2 = load("index2/index.json")["index"], closed_index(roots, r[0]) + closed_index(roots, r[1])
        if got != want2:
            bad.append(f"two-end index at {r} is {got}, closed form {want2}")

        a, b = state["wall"]
        jump = int(runs["wallcross"][1].split()[2])
        if jump != count_open(roots, a, b):
            bad.append(f"wallcross jump {jump}, closed form {count_open(roots, a, b)}")

        rel = load("cylinder/cylinder_solve.json")["manufactured_relative_error"]
        if not rel <= CylinderEnd.MANUFACTURED_TOL:
            bad.append(f"cylinder-solve manufactured error {rel:.3e}")
        dim = load("kernel/kernel_count.json")["dimension"]
        if dim != 4:
            bad.append(f"kernel-count dimension {dim}, unperturbed count 4")

        for name in ("reproduce_tori", "reproduce_sl"):
            verdicts = [ln for ln in runs[name][1].splitlines() if ln.startswith(("PASS", "FAIL"))]
            if not verdicts or any(not ln.startswith("PASS") for ln in verdicts):
                bad.append(f"{name} printed {verdicts}")
        return bad


WORKLOADS = {"sl-grid": SlGrid, "cylinder-end": CylinderEnd, "cli-session": CliSession}
