"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest -s to see them) and
enforces the stated numeric tolerance and runtime budget.  Expected values
are exact paper-level dimensions or values frozen from the independent
oracles (dual-lattice enumeration, raw eigenvalue counting, manufactured
solutions, refinement and continuation studies).
"""

import time

import numpy as np
import pytest

import cylspec as cs
from cylspec.cylinder import CylinderOperator, CylinderSolution
from cylspec.errors import CriticalWeight
from cylspec.models import I3
from tests.conftest import fourier_oracle


class Criterion:
    def __init__(self, name, budget):
        self.name = name
        self.budget = budget
        self.t0 = time.time()
        self.checks = []

    def check(self, label, ok):
        self.checks.append((label, bool(ok)))

    def finish(self):
        elapsed = time.time() - self.t0
        ok = all(flag for _, flag in self.checks) and elapsed < self.budget
        detail = "; ".join(f"{label}={'ok' if flag else 'FAIL'}" for label, flag in self.checks)
        print(f"{'PASS' if ok else 'FAIL'} {self.name} [{elapsed:.2f}s/{self.budget:.0f}s] {detail}")
        assert all(flag for _, flag in self.checks), detail
        assert elapsed < self.budget, f"runtime {elapsed:.2f}s exceeds budget {self.budget}s"


def test_c01_torus_kernel():
    c = Criterion("C01 torus kernel d0=4, ker = constant R^4", 1.0)
    torus = cs.square_torus()
    tiny = cs.build_torus_model(torus, 0.5)
    c.check("constant-mode model is 4-dim with D = 0",
            tiny.dim == 4 and np.abs(tiny.dirac).max() == 0.0)
    spec = cs.eigendecompose(cs.build_torus_model(torus, 2.5))
    c.check("d0 == 4", spec.d0() == 4)
    v0 = cs.homogeneous_kernel(spec, 0.0)
    c.check("kernel supported on constant sections", np.abs(v0[4:, :]).max() <= 1e-10)
    c.finish()


def test_c02_multiplicity_law():
    c = Criterion("C02 d_sqrt(lam) = 2 dim E^lam for lam <= 5", 5.0)
    torus = cs.square_torus()
    spec = cs.eigendecompose(cs.build_torus_model(torus, 5.0))
    fourier = cs.torus_fourier_spectrum(torus, 5.0)
    c.check("nonzero shells present", [l for l, _ in fourier[1:]] == [1.0, 2.0, 4.0, 5.0])
    for lam, mult in fourier:
        if lam == 0.0:
            c.check("d0 == 4", spec.d0() == 4)
            continue
        for sign in (1, -1):
            cl = spec.cluster_at(sign * np.sqrt(lam), tol=1e-6)
            c.check(f"d({sign:+d}sqrt{lam:g}) == {2 * mult}",
                    cl is not None and cl.dim == 2 * mult)
    c.finish()


def test_c03_antilinearity_and_symmetry():
    c = Criterion("C03 DJ = -JD and J V_lam = V_-lam, both models", 10.0)
    torus = cs.square_torus()
    torus_model = cs.build_torus_model(torus, 2.5)
    sl_model = cs.build_sl_model(cs.quad_torus_complex(torus, 16))
    for model in (torus_model, sl_model):
        d, j = model.dirac, model.complex_structure.toarray()
        c.check(f"{model.label}: anticommute <= 1e-10",
                np.abs(d @ j + j @ d).max() <= 1e-10)
        spec = cs.eigendecompose(model)
        sym_ok, angle_ok = True, True
        for cl in spec.clusters:
            mirror = spec.cluster_at(-cl.lam)
            sym_ok &= mirror is not None and mirror.dim == cl.dim
            if cl.lam > spec.cluster_tol:
                vp = spec.basis.columns(cl.start, cl.stop)
                vm = spec.basis.columns(mirror.start, mirror.stop)
                gap = cs.principal_angle_gap(j @ vp, vm, model.mass)
                angle_ok &= gap <= 1e-6
        c.check(f"{model.label}: d_lam = d_-lam", sym_ok)
        c.check(f"{model.label}: principal angles <= 1e-6", angle_ok)
    c.finish()


def test_c04_sl_identity():
    c = Criterion("C04 block square = L0+L0+L1; kernel 2+2g for g in {1,2}", 60.0)
    torus = cs.square_torus()
    for n in (16, 32):
        cc = cs.quad_torus_complex(torus, n)
        model = cs.build_sl_model(cc)
        l0 = cs.laplacian0(cc).toarray()
        l0d = cs.laplacian0_dual(cc).toarray()
        c.check(f"{n}x{n}: dual L0 == primal L0", np.abs(l0d - l0).max() <= 1e-12)
        resid = np.abs(model.dirac @ model.dirac - cs.sl_laplacian_blocks(cc)).max()
        c.check(f"{n}x{n}: ||D^2 - (L0+L0+L1)||_max <= 1e-10", resid <= 1e-10)
    g1 = cs.eigendecompose(cs.build_sl_model(cs.quad_torus_complex(torus, 16)))
    c.check("genus 1: ker = 4", g1.d0() == 4)
    g2 = cs.eigendecompose(cs.build_sl_model(cs.genus2_quad_complex()))
    c.check("genus 2 (quad): ker = 6", g2.d0() == 6)
    g2t = cs.eigendecompose(cs.build_sl_model(cs.build_dec(cs.genus2_mesh())))
    c.check("genus 2 (triangulated): ker = 6", g2t.d0() == 6)
    c.finish()


def test_c05_dec_convergence():
    c = Criterion("C05 DEC eigenvalues: 2% at N=64, decreasing 16->32->64", 180.0)
    torus = cs.square_torus()
    exact = fourier_oracle(torus, 11)[1:]
    errs = {}
    for n in (16, 32, 64):
        cc = cs.build_dec(cs.triangulated_torus_mesh(torus, n))
        ev = cs.smallest_eigenvalues(cs.laplacian0(cc), 11)
        errs[n] = np.abs(ev[1:] - exact) / exact
    c.check("N=64 within 2%", errs[64].max() <= 0.02)
    c.check("errors strictly decrease 16->32", np.all(errs[32] < errs[16]))
    c.check("errors strictly decrease 32->64", np.all(errs[64] < errs[32]))
    c.finish()


def test_c06_index_formulas():
    c = Criterion("C06 index values -2 / +2 = d0/2 / -12", 1.0)
    torus = cs.square_torus()
    spec = cs.eigendecompose(cs.build_torus_model(torus, 2.5))
    one = cs.EndSystem((spec,))
    two = cs.EndSystem((spec, spec))
    c.check("fixed(-0.5) == -2", cs.fixed_moduli_vdim(-0.5, one) == -2)
    c.check("varying == +2", cs.varying_moduli_vdim(one) == 2)
    c.check("Ind(+0.5) == d0/2 == 2",
            cs.fredholm_index(0.5, one).index == spec.d0() // 2 == 2)
    c.check("Ind(-0.5, -1.2) == -12", cs.fredholm_index((-0.5, -1.2), two).index == -12)
    c.finish()


def test_c07_wall_crossing_suite():
    c = Criterion("C07 wall crossing and chamber constancy, 200 pairs", 5.0)
    rng = np.random.default_rng(42)
    spec = cs.synthetic_spectrum(
        [(-1.7, 2), (-0.8, 6), (0.0, 4), (0.8, 6), (1.7, 2)], 2.0)
    ends = cs.EndSystem((spec, spec))
    ev = np.sort(spec.eigenvalues)
    crossing_ok, done = True, 0
    while done < 200:
        a = rng.uniform(-1.9, 1.9, size=2)
        b = rng.uniform(-1.9, 1.9, size=2)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        if np.any(hi - lo < 1e-6):
            continue
        if any(np.abs(ev - x).min() < 1e-4 for x in np.concatenate([lo, hi])):
            continue
        jump, _ = cs.wall_crossing(lo, hi, ends)
        oracle = sum(int(np.count_nonzero((ev > lo[i] + 1e-9) & (ev < hi[i] - 1e-9)))
                     for i in range(2))
        crossing_ok &= jump == oracle
        done += 1
    c.check("200 random pairs: jump = sum d_zeta", crossing_ok)
    walls = sorted(set(float(e) for e in ev))
    chambers = list(zip([-1.95] + walls, walls + [1.95]))
    constant_ok = True
    one = cs.EndSystem((spec,))
    for _ in range(200):
        lo, hi = chambers[rng.integers(len(chambers))]
        r1, r2 = rng.uniform(lo + 1e-3, hi - 1e-3, size=2)
        constant_ok &= (cs.fredholm_index(r1, one).index
                        == cs.fredholm_index(r2, one).index)
    c.check("index constant within chambers", constant_ok)
    c.finish()


def test_c08_antisymmetry():
    c = Criterion("C08 Ind(-rate) = -Ind(rate), 100 samples", 2.0)
    rng = np.random.default_rng(17)
    spec = cs.synthetic_spectrum(
        [(0.0, 4), (0.6, 2), (-0.6, 2), (1.3, 8), (-1.3, 8)], 2.0)
    ends = cs.EndSystem((spec, spec))
    ok, done = True, 0
    while done < 100:
        r = rng.uniform(-1.9, 1.9, size=2)
        if any(np.abs(spec.eigenvalues - x).min() < 1e-4 for x in np.concatenate([r, -r])):
            continue
        ok &= cs.fredholm_index(-r, ends).index == -cs.fredholm_index(r, ends).index
        done += 1
    c.check("antisymmetry over 100 random rates", ok)
    c.finish()


def test_c09_cylinder_solver():
    c = Criterion("C09 manufactured solve, critical weights, 50 windows", 30.0)
    torus = cs.square_torus()
    spec = cs.eigendecompose(cs.build_torus_model(torus, 1.5))
    op = CylinderOperator(spec, t_final=45.0, step=0.01)
    t = op.tgrid
    mode = spec.cluster_at(1.0).start
    u_true = np.zeros((spec.dim, t.size))
    u_true[mode] = np.exp(-t) * np.sin(t)
    g = np.zeros_like(u_true)
    g[mode] = np.exp(-t) * (np.cos(t) - np.sin(t)) - u_true[mode]
    sol = cs.solve_cylinder(op, spec.jmat @ g, weight=-0.5)
    w = np.exp(0.5 * t)
    err = (np.abs(sol.coeffs - u_true).max(axis=0) * w).max()
    scale = (np.abs(u_true).max(axis=0) * w).max()
    c.check("manufactured weighted relative error <= 1e-8", err / scale <= 1e-8)

    f0 = np.zeros((spec.dim, t.size))
    raised_ok = True
    for lam in np.unique(np.round(spec.eigenvalues, 9)):
        try:
            cs.solve_cylinder(op, f0, float(lam))
            raised_ok = False
        except CriticalWeight:
            pass
    for good in (-0.5, 0.35, 1.25):
        cs.solve_cylinder(op, f0, good)
    c.check("CriticalWeight exactly at spectrum points", raised_ok)

    rng = np.random.default_rng(9)
    ev = spec.eigenvalues
    windows_ok, done = True, 0
    while done < 50:
        a, b = np.sort(rng.uniform(-1.4, 1.4, size=2))
        if b - a < 1e-3 or min(np.abs(ev - a).min(), np.abs(ev - b).min()) < 1e-4:
            continue
        dim = cs.kernel_in_window(op, (a, b)).dimension
        oracle = int(np.count_nonzero((ev > a) & (ev < b)))
        windows_ok &= dim == oracle
        done += 1
    c.check("50 random windows match sum d_lam", windows_ok)
    c.finish()


def test_c10_asymptotic_limit():
    c = Criterion("C10 asymptotic limit extraction", 10.0)
    torus = cs.square_torus()
    spec = cs.eigendecompose(cs.build_torus_model(torus, 1.5))
    op = CylinderOperator(spec, t_final=45.0, step=0.01)
    t = op.tgrid
    c0 = spec.cluster_at(0.0)
    nu0 = np.zeros(spec.dim)
    nu0[c0.start:c0.stop] = (1.0, -2.0, 0.5, 3.0)
    rho = np.random.default_rng(7).standard_normal(spec.dim)
    u = nu0[:, None] * np.ones_like(t)[None, :] + rho[:, None] * np.exp(-t)[None, :]
    lim = cs.asymptotic_limit(CylinderSolution(u, t, 0.0, 0.0, 0.0, spec), 0.0, -1.0)
    c.check("coefficient recovered to 1e-6", np.abs(lim.coefficient - nu0).max() <= 1e-6)
    c.check("remainder rate -1 within 10%", abs(lim.fitted_rate - (-1.0)) <= 0.1)
    u2 = rho[:, None] * np.exp(-t)[None, :]
    lim2 = cs.asymptotic_limit(CylinderSolution(u2, t, 0.0, 0.0, 0.0, spec), 0.0, -1.0)
    c.check("faster-decaying input maps to 0 within 1e-6 relative",
            lim2.coefficient_norm() <= 1e-6 * np.linalg.norm(rho))
    c.finish()


def test_c11_perturbed_kernel_stability():
    c = Criterion("C11 perturbed kernel counts stable in eps, jump d0=4", 60.0)
    torus = cs.square_torus()
    spec = cs.eigendecompose(cs.build_torus_model(torus, 1.5))
    s_set = [int(j) for j in np.flatnonzero(spec.eigenvalues < -spec.cluster_tol)]
    counts = {}
    for eps in (1e-3, 5e-4, 2.5e-4):
        pert = cs.make_perturbation(spec.dim, eps, -1.0, seed=11)
        op = CylinderOperator(spec, 30.0, 0.01, pert)
        counts[eps] = (cs.perturbed_kernel_count(op, -0.5, s_set).dimension,
                       cs.perturbed_kernel_count(op, 0.5, s_set).dimension)
    c.check("counts constant in eps", len(set(counts.values())) == 1)
    below, above = counts[1e-3]
    c.check("count at -0.5 is 0", below == 0)
    c.check("count at +0.5 is 4", above == 4)
    c.check("jump across weight 0 is d0 = 4", above - below == 4)
    c.finish()


def test_c12_symplectic_lagrangian():
    c = Criterion("C12 Omega = area * k-pairing; Lagrangian tests", 1.0)
    area = 4 * np.pi**2
    pairing = I3.T      # <I3 e_a, e_b>
    sk = cs.symplectic_form(np.eye(4), pairing, area, kernel=np.eye(4))
    c.check("Omega entrywise = 4pi^2 * pairing to 1e-9",
            np.abs(sk.gram - area * pairing).max() <= 1e-9)
    c.check("Omega skew", np.abs(sk.gram + sk.gram.T).max() <= 1e-10)
    c.check("span{1, i} accepted", cs.is_lagrangian(np.eye(4)[:, :2], sk))
    c.check("full kernel rejected", not cs.is_lagrangian(np.eye(4), sk))
    ok_1dim = True
    for a in range(4):
        ok_1dim &= not cs.is_lagrangian(np.eye(4)[:, [a]], sk)
    c.check("every 1-dim subspace rejected", ok_1dim)
    c.finish()
