import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cylspec as cs
from cylspec.cylinder import (_FRAME_HALVINGS, CylinderOperator, CylinderSolution,
                              _exp_moments, _frame_grid, _frame_length, _lawson_march,
                              _march_frame, differentiate)
from cylspec.errors import (ConfigError, ConvergenceFailure, CriticalWeight,
                            IllConditionedMatching, InsufficientTail, PerturbationTooLarge)


@pytest.fixture(scope="module")
def op15(torus_spec_15):
    return CylinderOperator(torus_spec_15, t_final=45.0, step=0.01)


def negative_modes(spec):
    return [int(j) for j in np.flatnonzero(spec.eigenvalues < -spec.cluster_tol)]


def manufactured(spec, tgrid, mode, rate=-1.0):
    """u* = e^{rate t} sin t on one mode, plus the exact rhs with D_C u* = f."""
    u = np.zeros((spec.dim, tgrid.size))
    u[mode] = np.exp(rate * tgrid) * np.sin(tgrid)
    du = np.exp(rate * tgrid) * (rate * np.sin(tgrid) + np.cos(tgrid))
    g = np.zeros_like(u)
    g[mode] = du - spec.eigenvalues[mode] * u[mode]
    return u, spec.jmat @ g   # f = J g since g = -(J f)


# ---------------------------------------------------------------------------
# reference Green solve: one mode at a time, scalar moments, a double loop

def _exp_moments_stable(lam: float, h: float, pmax: int = 3) -> np.ndarray:
    out = np.empty(pmax + 1)
    z = lam * h
    if abs(z) < 0.25:
        for p in range(pmax + 1):
            acc = 0.0
            term = h ** (p + 1) / (p + 1)        # q = 0 term
            q = 0
            while True:
                acc += term
                if abs(term) < 1e-25 * max(abs(acc), h ** (p + 1)) or q > 40:
                    break
                q += 1
                term *= z / (p + q + 1)
            out[p] = acc
    else:
        out[0] = (np.exp(z) - 1.0) / lam
        for p in range(1, pmax + 1):
            out[p] = (p * out[p - 1] - h ** p) / lam
    return out


def _lagrange_exp_weights(lam: float, h: float, offsets: np.ndarray) -> np.ndarray:
    moments = _exp_moments_stable(lam, h)
    w = np.empty(offsets.size)
    for jn, x in enumerate(offsets):
        others = np.delete(offsets, jn)
        poly = np.poly(others) / np.prod(x - others)   # highest power first
        coeffs = poly[::-1]                            # c_p tau^p
        w[jn] = float(coeffs @ moments[:coeffs.size])
    return w


def _mode_step_integrals(lam: float, h: float, g: np.ndarray) -> np.ndarray:
    nt = g.size
    q = np.empty(nt - 1)
    w_int = _lagrange_exp_weights(lam, h, np.array([-h, 0.0, h, 2 * h]))
    w_first = _lagrange_exp_weights(lam, h, np.array([0.0, h, 2 * h, 3 * h]))
    w_last = _lagrange_exp_weights(lam, h, np.array([-2 * h, -h, 0.0, h]))
    q[0] = w_first @ g[:4]
    q[-1] = w_last @ g[-4:]
    ks = np.arange(1, nt - 2)
    q[1:nt - 2] = (w_int[0] * g[ks - 1] + w_int[1] * g[ks]
                   + w_int[2] * g[ks + 1] + w_int[3] * g[ks + 2])
    return q


def reference_solve(op: CylinderOperator, f: np.ndarray, weight: float) -> np.ndarray:
    """Mode coefficients of the weighted Green solve, stepped mode by mode."""
    g = -(op.base.jmat @ f)
    h = op.step
    nt = g.shape[1]
    u = np.zeros_like(g)
    for jm in range(op.dim):
        lam = float(op.base.eigenvalues[jm])
        q = _mode_step_integrals(lam, h, g[jm])
        if lam < weight:
            grow = np.exp(lam * h)
            for k in range(nt - 1):
                u[jm, k + 1] = grow * u[jm, k] + q[k]
        else:
            shrink = np.exp(-lam * h)
            for k in range(nt - 2, -1, -1):
                u[jm, k] = shrink * (u[jm, k + 1] - q[k])
    return u


@settings(max_examples=50, deadline=None)
@given(data=st.data(), cutoff=st.sampled_from((1.5, 2.5)),
       h=st.sampled_from((0.01, 0.05, 0.3)), seed=st.integers(0, 2**32 - 1))
def test_solve_matches_reference(torus_spec_15, torus_spec_25, data, cutoff, h, seed):
    spec = torus_spec_15 if cutoff == 1.5 else torus_spec_25
    steps = data.draw(st.integers(math.ceil(5.0 / h - 1e-9), math.floor(12.0 / h + 1e-9)))
    radius = spec.completeness_radius
    weight = data.draw(st.floats(-radius, radius))
    assume(np.abs(spec.eigenvalues - weight).min() >= 1e-3)
    op = CylinderOperator(spec, steps * h, h)
    f = np.random.default_rng(seed).standard_normal((op.dim, op.tgrid.size))
    sol = cs.solve_cylinder(op, f, weight)
    ref = reference_solve(op, f, weight)
    wfac = np.exp(-weight * op.tgrid)
    err = (np.abs(sol.coeffs - ref).max(axis=0) * wfac).max()
    scale = (np.abs(ref).max(axis=0) * wfac).max()
    assert err <= 1e-14 * scale


def reference_mode_march(ut, q, lams, h, nf):
    """The mode recurrences as two loops over sliced rows: the reference for
    the in-place row walk of ``cylinder._mode_recurrences``."""
    nt = ut.shape[0]
    grow = np.exp(lams[:nf] * h)
    for k in range(1, nt):
        ut[k, :nf] = grow * ut[k - 1, :nf] + q[k, :nf]
    shrink = np.exp(-lams[nf:] * h)
    for k in range(nt - 1, 0, -1):
        ut[k - 1, nf:] = shrink * (ut[k, nf:] - q[k, nf:])


@settings(max_examples=30, deadline=None)
@given(data=st.data(), cutoff=st.sampled_from((1.5, 2.5, 10.0)),
       h=st.sampled_from((0.01, 0.05, 0.3)), seed=st.integers(0, 2**32 - 1))
def test_solve_matches_reference_march(torus_spec_15, torus_spec_25, spec10, data, cutoff,
                                       h, seed):
    # solve_cylinder with its row walk against the same solve with the
    # two-loop recurrences: coefficients, residual and weighted sup bitwise
    spec = {1.5: torus_spec_15, 2.5: torus_spec_25, 10.0: spec10}[cutoff]
    steps = data.draw(st.integers(math.ceil(1.0 / h - 1e-9), math.floor(12.0 / h + 1e-9)))
    radius = spec.completeness_radius
    # the ends of the range put every mode backward (nf = 0) or forward (nf = dim)
    weight = data.draw(st.one_of(st.floats(-radius, radius),
                                 st.sampled_from((-radius - 0.5, radius + 0.5))))
    assume(np.abs(spec.eigenvalues - weight).min() >= 1e-3)
    op = CylinderOperator(spec, steps * h, h)
    f = np.random.default_rng(seed).standard_normal((op.dim, op.tgrid.size))
    sol = cs.solve_cylinder(op, f, weight)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cs.cylinder, "_mode_recurrences", reference_mode_march)
        ref = cs.solve_cylinder(op, f, weight)
    assert np.array_equal(sol.coeffs, ref.coeffs)
    assert sol.residual == ref.residual
    assert sol.weighted_sup == ref.weighted_sup


def reference_differentiate(u: np.ndarray, h: float) -> np.ndarray:
    """The 4th-order stencils out of place: the reference for the in-place
    interior of ``differentiate``."""
    du = np.empty_like(u)
    du[..., 2:-2] = (u[..., :-4] - 8 * u[..., 1:-3] + 8 * u[..., 3:-1] - u[..., 4:]) / (12 * h)
    du[..., 0] = (-25 * u[..., 0] + 48 * u[..., 1] - 36 * u[..., 2]
                  + 16 * u[..., 3] - 3 * u[..., 4]) / (12 * h)
    du[..., 1] = (-3 * u[..., 0] - 10 * u[..., 1] + 18 * u[..., 2]
                  - 6 * u[..., 3] + u[..., 4]) / (12 * h)
    du[..., -2] = (3 * u[..., -1] + 10 * u[..., -2] - 18 * u[..., -3]
                   + 6 * u[..., -4] - u[..., -5]) / (12 * h)
    du[..., -1] = (25 * u[..., -1] - 48 * u[..., -2] + 36 * u[..., -3]
                   - 16 * u[..., -4] + 3 * u[..., -5]) / (12 * h)
    return du


def reference_grid_solve(op: CylinderOperator, f: np.ndarray, weight: float):
    """The Green solve on whole grid arrays, every temporary out of place:
    (coefficients, residual, weighted sup), the reference for the pieces and
    reused arrays of ``solve_cylinder``."""
    g = -(op.base.jmat @ f)
    lams, h, t = op.base.eigenvalues, op.step, op.tgrid
    nt = t.size
    moments = _exp_moments(lams, h)
    w_int, w_first, w_last = (cs.cylinder._step_weights(moments, h * np.array(nodes, float))
                              for nodes in ((-1, 0, 1, 2), (0, 1, 2, 3), (-2, -1, 0, 1)))
    q = np.empty((nt, op.dim))
    q[1] = np.matmul(w_first[:, None, :], g[:, :4, None])[:, 0, 0]
    q[-1] = np.matmul(w_last[:, None, :], g[:, -4:, None])[:, 0, 0]
    gt = g.T
    q[2:-1] = (w_int[:, 0] * gt[:-3] + w_int[:, 1] * gt[1:-2]
               + w_int[:, 2] * gt[2:-1] + w_int[:, 3] * gt[3:])
    ut = np.zeros((nt, op.dim))
    reference_mode_march(ut, q, lams, h, int(np.count_nonzero(lams < weight)))
    u = ut.T.copy()
    wfac = np.exp(-weight * t)
    resid = reference_differentiate(u, h) - lams[:, None] * u - g
    scale = float((np.linalg.norm(g, axis=0) * wfac).max())
    residual = float((np.linalg.norm(resid, axis=0) * wfac).max()) / max(scale, 1e-300)
    return u, residual, float((np.linalg.norm(u, axis=0) * wfac).max())


@settings(max_examples=30, deadline=None)
@given(data=st.data(), cutoff=st.sampled_from((1.5, 2.5, 10.0)),
       h=st.sampled_from((0.01, 0.05, 0.3)), seed=st.integers(0, 2**32 - 1))
def test_solve_matches_whole_grid_reference(torus_spec_15, torus_spec_25, spec10, data,
                                            cutoff, h, seed):
    # grids from 5 points to past 4 pieces of _GRID_CHUNK: bitwise equal
    spec = {1.5: torus_spec_15, 2.5: torus_spec_25, 10.0: spec10}[cutoff]
    steps = data.draw(st.integers(4, min(1100, math.floor(12.0 / h + 1e-9))))
    radius = spec.completeness_radius
    weight = data.draw(st.one_of(st.floats(-radius, radius),
                                 st.sampled_from((-radius - 0.5, radius + 0.5))))
    assume(np.abs(spec.eigenvalues - weight).min() >= 1e-3)
    op = CylinderOperator(spec, steps * h, h)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((op.dim, op.tgrid.size)) * np.exp(rng.uniform(-20, 20))
    sol = cs.solve_cylinder(op, f, weight)
    u, residual, weighted_sup = reference_grid_solve(op, f, weight)
    assert np.array_equal(sol.coeffs, u)
    assert sol.residual == residual
    assert sol.weighted_sup == weighted_sup


@pytest.mark.parametrize("weight", (0.5, -5.0, 5.0))
def test_solve_peak_memory(spec10, weight):
    # at the cylinder-end size (dim 148, 3001 nodes) the solve holds three
    # arrays of dim x nodes (g, q then u, ut then the residual) and pieces of
    # dim x 256: a peak of 3.24 arrays (11.5 MB).  One more grid-sized
    # temporary beside the three (an out-of-place stencil, residual term or
    # column norm) takes it past 4
    op = CylinderOperator(spec10, 30.0, 0.01)
    nt = op.tgrid.size
    f = np.random.default_rng(1).standard_normal((op.dim, nt))
    tracemalloc.start()
    try:
        sol = cs.solve_cylinder(op, f, weight)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.coeffs.shape == (148, 3001)
    assert peak <= 3.5 * op.dim * nt * 8


def test_exp_moments_match_quadrature():
    from scipy.integrate import quad

    lams = np.array([-3.0, -0.01, 0.0, 1e-9, 0.02, 2.5])
    for h in (0.01, 0.3):
        for lam, mom in zip(lams, _exp_moments(lams, h)):
            for p in range(4):
                ref = quad(lambda s: np.exp(lam * (h - s)) * s**p, 0.0, h,
                           epsabs=1e-15, epsrel=1e-13)[0]
                assert mom[p] == pytest.approx(ref, rel=1e-10, abs=1e-18)


def test_differentiate_fourth_order():
    t = np.linspace(0.0, 2.0, 401)
    u = np.exp(-t) * np.cos(3 * t)
    du = -np.exp(-t) * np.cos(3 * t) - 3 * np.exp(-t) * np.sin(3 * t)
    assert np.abs(differentiate(u, t[1] - t[0]) - du).max() <= 1e-6


@settings(max_examples=60, deadline=None)
@given(rows=st.sampled_from((None, 1, 3)), n=st.integers(5, 700),
       step=st.sampled_from((1, 2, 3)), transpose=st.booleans(), strided_out=st.booleans(),
       h=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1))
def test_differentiate_out_matches_reference(rows, n, step, transpose, strided_out, h, seed):
    # 1-D and 2-D values, strided along the grid and across it, past several
    # pieces of the in-place interior: bitwise the out-of-place stencils
    rng = np.random.default_rng(seed)
    shape = (n * step,) if rows is None else (rows, n * step)
    if rows is not None and transpose:
        shape = shape[::-1]
    base = rng.standard_normal(shape) * np.exp(rng.uniform(-20, 20, shape))
    if rows is None:
        u = base[::step]
    elif transpose:
        u = base[::step].T
    else:
        u = base[:, ::step]
    assert u.shape[-1] == n
    ref = reference_differentiate(u, h)
    out = np.full(u.shape[:-1] + (2 * n,), np.nan)[..., ::2] if strided_out else np.empty(u.shape)
    assert differentiate(u, h, out=out) is out
    assert np.array_equal(out, ref)
    assert np.array_equal(differentiate(u, h), ref)


def test_differentiate_out_must_not_alias_values():
    grid = np.random.default_rng(3).standard_normal((2, 50))
    u = grid[:, :40]
    for out in (u, u[:, ::-1], grid[:, 10:]):
        with pytest.raises(ValueError, match="shares memory"):
            differentiate(u, 0.1, out=out)
    with pytest.raises(ValueError, match="shape"):
        differentiate(u, 0.1, out=np.empty((2, 41)))
    differentiate(grid[:, :20], 0.1, out=grid[:, 20:40])   # disjoint pieces of one array


def test_reduction_identity(op15):
    # J (D_C u) == -u' + A u with the same stencil on both sides
    rng = np.random.default_rng(1)
    t = op15.tgrid[:501]
    spec = op15.base
    u = rng.standard_normal((spec.dim, 3)) @ np.vstack([np.sin(t), np.cos(2 * t), t / 45.0])
    h = op15.step
    du = differentiate(u, h)
    dcu = spec.jmat @ du - spec.jmat @ (spec.eigenvalues[:, None] * u)   # D = -J A
    lhs = spec.jmat @ dcu
    rhs = -du + np.diag(spec.eigenvalues) @ u
    assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())


def homogeneous_apply(spec, lam, j, nu, t):
    """Apply the cylinder operator to e^{lam t} t^j nu with the grid stencil
    and compare with the product-rule expansion.  Returns the identity
    residual (stencil error only) and the expansion's norm at each t: for
    j = 0 and nu in the lam-cluster the section is a kernel element, for
    j >= 1 the factor t^j obstructs the kernel equation by
    j e^{lam t} t^{j-1} J nu."""
    jmat, lams = spec.jmat, spec.eigenvalues
    profile = np.exp(lam * t) * t**j
    u = nu[:, None] * profile[None, :]
    lhs = jmat @ (differentiate(u, t[1] - t[0]) - lams[:, None] * u)   # J u' + D u, D = -J A
    core = (jmat @ (lam * nu - lams * nu))[:, None] * profile[None, :]
    if j > 0:
        core = core + (jmat @ nu)[:, None] * (j * np.exp(lam * t) * t**(j - 1))[None, :]
    return float(np.linalg.norm(lhs - core, axis=0).max()), np.linalg.norm(core, axis=0)


def test_homogeneous_apply_kernel_element(op15):
    spec = op15.base
    c0 = spec.cluster_at(0.0)
    nu = np.zeros(spec.dim)
    nu[c0.start] = 1.0
    t = np.linspace(0.0, 1.0, 201)
    residual, apply_norms = homogeneous_apply(spec, 0.0, 0, nu, t)
    assert residual <= 1e-10
    assert apply_norms.max() <= 1e-12    # kernel element: D_C(e^{0 t} nu) = 0


def test_homogeneous_apply_polynomial_obstruction(op15):
    # D_C(e^{lam t} t nu) = e^{lam t} J nu for nu in the lam-cluster: never zero
    spec = op15.base
    c1 = spec.cluster_at(1.0)
    nu = np.zeros(spec.dim)
    nu[c1.start] = 1.0
    t = np.linspace(0.0, 1.0, 201)
    residual, apply_norms = homogeneous_apply(spec, 1.0, 1, nu, t)
    assert residual <= 1e-8
    want = np.exp(t)   # |e^{lam t} J nu| = e^{t} |nu|
    assert np.abs(apply_norms - want).max() <= 1e-8 * want.max()


def test_homogeneous_apply_wrong_eigenvalue(op15):
    # j=0 with an off-cluster eigenvector: residual norm |lam - lam'| ||nu|| at t=0
    spec = op15.base
    cm = spec.cluster_at(-1.0)
    nu = np.zeros(spec.dim)
    nu[cm.start] = 1.0
    t = np.linspace(0.0, 1.0, 201)
    lam = 0.25
    _, apply_norms = homogeneous_apply(spec, lam, 0, nu, t)
    assert apply_norms[0] == pytest.approx(abs(lam - (-1.0)), rel=1e-10)


def test_manufactured_solution_recovery(op15):
    spec = op15.base
    mode = spec.cluster_at(1.0).start
    u_true, f = manufactured(spec, op15.tgrid, mode)
    sol = cs.solve_cylinder(op15, f, weight=-0.5)
    w = np.exp(0.5 * op15.tgrid)
    err = (np.abs(sol.coeffs - u_true).max(axis=0) * w).max()
    scale = (np.abs(u_true).max(axis=0) * w).max()
    assert err / scale <= 1e-8
    assert sol.residual <= 1e-8


def test_zero_rhs_zero_solution(op15):
    f = np.zeros((op15.dim, op15.tgrid.size))
    for weight in (-0.5, 0.5, 1.3):
        sol = cs.solve_cylinder(op15, f, weight)
        assert np.abs(sol.coeffs).max() == 0.0


def test_critical_weight_raises(op15):
    f = np.zeros((op15.dim, op15.tgrid.size))
    for bad in (0.0, 1.0, -1.0):
        with pytest.raises(CriticalWeight):
            cs.solve_cylinder(op15, f, bad)


def test_kernel_in_window(op15):
    assert cs.kernel_in_window(op15, (-0.5, 0.5)).dimension == 4
    assert cs.kernel_in_window(op15, (0.1, 0.9)).dimension == 0
    assert cs.kernel_in_window(op15, (-1.2, 1.2)).dimension == 20
    with pytest.raises(CriticalWeight):
        cs.kernel_in_window(op15, (0.0, 0.5))


def test_kernel_window_matches_wall_crossing(torus_spec_15, op15):
    # window dimension = sum of d_lam = wall-crossing jump on the same spectrum
    ends = cs.EndSystem((torus_spec_15,))
    rng = np.random.default_rng(9)
    ev = torus_spec_15.eigenvalues
    done = 0
    while done < 50:
        a, b = np.sort(rng.uniform(-1.2, 1.2, size=2))
        if b - a < 1e-3 or min(np.abs(ev - a).min(), np.abs(ev - b).min()) < 1e-4:
            continue
        dim = cs.kernel_in_window(op15, (a, b)).dimension
        jump, _ = cs.wall_crossing([a], [b], ends)
        assert dim == jump
        done += 1


def test_asymptotic_limit_two_term(op15):
    spec = op15.base
    t = op15.tgrid
    c0 = spec.cluster_at(0.0)
    nu0 = np.zeros(spec.dim)
    nu0[c0.start:c0.stop] = (1.0, -2.0, 0.5, 3.0)
    rho = np.random.default_rng(7).standard_normal(spec.dim)
    u = nu0[:, None] * np.ones_like(t)[None, :] + rho[:, None] * np.exp(-t)[None, :]
    sol = CylinderSolution(u, t, 0.0, 0.0, 0.0, spec)
    lim = cs.asymptotic_limit(sol, 0.0, -1.0)
    assert np.abs(lim.coefficient - nu0).max() <= 1e-6
    assert lim.fitted_rate == pytest.approx(-1.0, rel=0.1)


def test_asymptotic_limit_rate_above_rounding_floor(torus_spec_15):
    # at T = 30 the e^{-t} remainder sinks below the rounding of the subtracted
    # constant; the fit must stop there instead of bending the slope
    spec = torus_spec_15
    t = CylinderOperator(spec, 30.0, 0.01).tgrid
    rng = np.random.default_rng(35)
    c0, c1 = spec.cluster_at(0.0), spec.cluster_at(-1.0)
    nu0 = np.zeros(spec.dim)
    nu0[c0.start:c0.stop] = rng.standard_normal(c0.dim)
    u = np.zeros((spec.dim, t.size))
    u[c0.start:c0.stop] = nu0[c0.start:c0.stop, None]
    u[c1.start:c1.stop] = rng.standard_normal(c1.dim)[:, None] * np.exp(-t)[None, :]
    lim = cs.asymptotic_limit(CylinderSolution(u, t, 0.0, 0.0, 0.0, spec), 0.0, -1.0)
    assert np.abs(lim.coefficient - nu0).max() <= 1e-12
    assert abs(lim.fitted_rate + 1.0) <= 1e-6


def test_asymptotic_limit_averages_the_final_quarter(op15):
    # a cluster coefficient that grows linearly in t: its average, and so the
    # extracted coefficient, names the window it is taken over
    spec = op15.base
    t = op15.tgrid
    c0 = spec.cluster_at(0.0)
    nu0 = np.zeros(spec.dim)
    nu0[c0.start:c0.stop] = (1.0, -2.0, 0.5, 3.0)
    u = nu0[:, None] * (1.0 + t)[None, :]
    lim = cs.asymptotic_limit(CylinderSolution(u, t, 0.0, 0.0, 0.0, spec), 0.0, -1.0)
    want = nu0 * (1.0 + t[t >= 0.75 * t[-1]]).mean()
    assert np.abs(lim.coefficient - want).max() <= 1e-12 * np.abs(want).max()


def test_asymptotic_limit_fast_decay_maps_to_zero(op15):
    spec = op15.base
    t = op15.tgrid
    rho = np.random.default_rng(8).standard_normal(spec.dim)
    u = rho[:, None] * np.exp(-t)[None, :]
    sol = CylinderSolution(u, t, 0.0, 0.0, 0.0, spec)
    lim = cs.asymptotic_limit(sol, 0.0, -1.0)
    assert lim.coefficient_norm() <= 1e-6 * np.linalg.norm(rho)


def test_asymptotic_limit_converges_with_t(torus_spec_15):
    rng = np.random.default_rng(12)
    rho = rng.standard_normal(torus_spec_15.dim)
    c0 = torus_spec_15.cluster_at(0.0)
    nu0 = np.zeros(torus_spec_15.dim)
    nu0[c0.start:c0.stop] = (0.3, 1.0, -0.7, 0.2)
    errs = []
    for t_final in (20.0, 26.0, 34.0):
        op = CylinderOperator(torus_spec_15, t_final, 0.01)
        t = op.tgrid
        u = nu0[:, None] * np.ones_like(t)[None, :] + rho[:, None] * np.exp(-t)[None, :]
        sol = CylinderSolution(u, t, 0.0, 0.0, 0.0, torus_spec_15)
        lim = cs.asymptotic_limit(sol, 0.0, -1.0)
        errs.append(np.abs(lim.coefficient - nu0).max())
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_asymptotic_limit_insufficient_tail(torus_spec_15):
    op = CylinderOperator(torus_spec_15, 10.0, 0.01)
    t = op.tgrid
    u = np.zeros((torus_spec_15.dim, t.size))
    sol = CylinderSolution(u, t, 0.0, 0.0, 0.0, torus_spec_15)
    with pytest.raises(InsufficientTail):
        cs.asymptotic_limit(sol, 0.0, -1.0)   # needs T >= 20


def test_perturbed_count_eps0(torus_spec_15):
    op = CylinderOperator(torus_spec_15, 30.0, 0.01)
    s = negative_modes(torus_spec_15)
    assert cs.perturbed_kernel_count(op, 0.5, s).dimension == 4
    assert cs.perturbed_kernel_count(op, -0.5, s).dimension == 0
    # without boundary conditions the count is the full decaying dimension
    assert cs.perturbed_kernel_count(op, 0.5, []).dimension == 12


def test_perturbed_count_stability(torus_spec_15):
    s = negative_modes(torus_spec_15)
    for eps in (1e-3, 5e-4, 2.5e-4):
        pert = cs.make_perturbation(torus_spec_15.dim, eps, -1.0, seed=11)
        op = CylinderOperator(torus_spec_15, 30.0, 0.01, pert)
        assert cs.perturbed_kernel_count(op, 0.5, s).dimension == 4
        assert cs.perturbed_kernel_count(op, -0.5, s).dimension == 0


def test_perturbed_count_jump_across_root(torus_spec_15):
    s = negative_modes(torus_spec_15)
    pert = cs.make_perturbation(torus_spec_15.dim, 1e-3, -1.0, seed=11)
    op = CylinderOperator(torus_spec_15, 30.0, 0.01, pert)
    below = cs.perturbed_kernel_count(op, -0.5, s).dimension
    above = cs.perturbed_kernel_count(op, 0.5, s).dimension
    assert above - below == 4


def test_perturbation_too_large(torus_spec_15):
    pert = cs.make_perturbation(torus_spec_15.dim, 0.4, -1.0, seed=2)
    op = CylinderOperator(torus_spec_15, 30.0, 0.01, pert)
    with pytest.raises(PerturbationTooLarge):
        cs.perturbed_kernel_count(op, 0.5, [])


@pytest.mark.parametrize("small", [5e-6, 2e-5])
def test_rank_near_the_threshold_is_ill_conditioned(torus_spec_15, monkeypatch, small):
    # boundary singular values (1, small) against the threshold 1e-6: a kept
    # value within 10x of it raises, one beyond 10x counts to the rank
    op = CylinderOperator(torus_spec_15, 30.0, 0.01)

    def planted_frame(op, cols):
        frame = np.zeros((op.dim, cols.size))
        frame[0, 0], frame[1, 1] = 1.0, small
        return frame, (), 0.0, 0

    monkeypatch.setattr(cs.cylinder, "_march_frame", planted_frame)
    p = int(np.count_nonzero(torus_spec_15.eigenvalues < 0.5))
    if small < 1e-5:
        with pytest.raises(IllConditionedMatching):
            cs.perturbed_kernel_count(op, 0.5, [0, 1])
    else:
        count = cs.perturbed_kernel_count(op, 0.5, [0, 1])
        assert np.array_equal(count.singular_values, [1.0, small])
        assert count.dimension == p - 2


def test_boundary_set_recorded(torus_spec_15):
    op = CylinderOperator(torus_spec_15, 30.0, 0.01)
    s = negative_modes(torus_spec_15)
    count = cs.perturbed_kernel_count(op, 0.5, s)
    assert list(count.boundary_set) == s
    assert '"boundary_set"' in count.to_json()


def test_manufactured_recovery_many_weights(op15):
    # recovery must hold for every non-critical weight whose weighted space
    # contains the manufactured profile (profile rate below the weight)
    spec = op15.base
    mode = spec.cluster_at(1.0).start
    for weight, rate in ((-1.2, -1.7), (-0.5, -1.0), (0.35, -1.0),
                         (0.7, -1.0), (1.2, -0.3)):
        u_true, f = manufactured(spec, op15.tgrid, mode, rate=rate)
        sol = cs.solve_cylinder(op15, f, weight)
        w = np.exp(-weight * op15.tgrid)
        err = (np.abs(sol.coeffs - u_true).max(axis=0) * w).max()
        scale = (np.abs(u_true).max(axis=0) * w).max()
        assert err / scale <= 1e-8, f"weight {weight}"


def test_kernel_element_asymptotics(op15):
    # an element of kernel_in_window recovers its own coefficient at its rate
    # and maps to zero at any faster root
    kw = cs.kernel_in_window(op15, (-1.2, 1.2))
    spec = op15.base
    t = op15.tgrid
    k = 0   # element at lambda = -1
    lam = float(kw.lambdas[k])
    u = kw.element(k, t)
    sol = CylinderSolution(u, t, lam, 0.0, 0.0, spec)
    lim = cs.asymptotic_limit(sol, lam, lam - 1.0)
    want = np.zeros(spec.dim)
    want[kw.indices[k]] = 1.0
    assert np.abs(lim.coefficient - want).max() <= 1e-8
    lim_fast = cs.asymptotic_limit(sol, lam + 1.0, lam)
    assert lim_fast.coefficient_norm() <= 1e-8


def test_kernel_limits_feed_symplectic_verifier(op15):
    # close the loop: extract asymptotic limits of zero-rate kernel elements,
    # map them to constant-section fiber vectors, and run the Lagrangian test
    from cylspec.models import I3, build_torus_model

    spec = op15.base
    model = build_torus_model(cs.square_torus(), 1.5)
    t = op15.tgrid
    kw = cs.kernel_in_window(op15, (-0.5, 0.5))
    assert kw.dimension == 4
    coeffs = []
    for k in range(kw.dimension):
        sol = CylinderSolution(kw.element(k, t), t, 0.0, 0.0, 0.0, spec)
        lim = cs.asymptotic_limit(sol, 0.0, -1.0)
        coeffs.append(lim.coefficient)
    c0 = spec.cluster_at(0.0)
    # eigencoordinate coefficients -> constant-section fiber components
    v0 = spec.basis.columns(c0.start, c0.stop)
    fiber = (v0[:4, :] @ np.array(coeffs).T[c0.start:c0.stop, :]) * np.sqrt(model.area)
    sk = cs.symplectic_form(np.eye(4), I3.T, model.area, kernel=np.eye(4))
    # the span of all four limits is the whole kernel: not Lagrangian
    assert not cs.is_lagrangian(fiber, sk)
    # a half-dimensional isotropic slice of it is
    gram = fiber.T @ sk.form @ fiber
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)
             if abs(gram[a, b]) <= 1e-9 * model.area]
    assert pairs, "some isotropic pair of limits must exist"
    a, b = pairs[0]
    assert cs.is_lagrangian(fiber[:, [a, b]], sk)


def test_perturbed_count_no_decaying_modes(torus_spec_15):
    # no eigenvalue lies below -1.3: the decaying subspace is empty
    pert = cs.make_perturbation(torus_spec_15.dim, 1e-3, -1.0, seed=11)
    for p in (None, pert):
        op = CylinderOperator(torus_spec_15, 30.0, 0.01, p)
        count = cs.perturbed_kernel_count(op, -1.3, [0, 1, 2])
        assert count.dimension == 0
        assert count.decaying_dim == 0
        assert count.singular_values.size == 0
        assert count.boundary_set == (0, 1, 2)


def test_operator_rejects_partial_steps(torus_spec_15):
    # tgrid rounds T/h, so a T that is not whole steps would move the grid's end
    for t_final, h in ((10.0, 0.3), (25.0, 0.7), (10.0, 50.0), (0.0, 0.01),
                       (10.0, -0.01), (float("nan"), 0.01)):
        with pytest.raises(ValueError):
            CylinderOperator(torus_spec_15, t_final, h)
    for t_final, h in ((30.0, 0.01), (45.0, 0.01), (6.9, 0.3), (12.0, 0.05)):
        assert CylinderOperator(torus_spec_15, t_final, h).tgrid[-1] == pytest.approx(t_final)


def test_operator_rejects_oversized_grid(torus_spec_15):
    # dim 20: T = 838859 at h = 1 is the longest grid within 2**24 values
    assert torus_spec_15.dim == 20
    assert CylinderOperator(torus_spec_15, 838859.0, 1.0).tgrid.size == 838860
    with pytest.raises(ConfigError, match="838861 points at dim 20 holds 16777220 values, "
                                          "above the limit 16777216"):
        CylinderOperator(torus_spec_15, 838860.0, 1.0).tgrid
    # 1e12 steps would be 7.28 TiB of tgrid alone
    with pytest.raises(ConfigError, match=r"the time grid \(T = 1e\+10, h = 0.01\)"):
        CylinderOperator(torus_spec_15, 1e10, 0.01).tgrid


def test_frame_level_rejects_oversized_grid(torus_spec_15, monkeypatch):
    # at mu_pert = -1e-9 the coupling barely decays over T = 1e9, and the
    # first level takes 1.8e9 steps whatever h is: rejected before its grid
    def no_grid(*args):
        raise AssertionError("a frame grid above the size limit")

    monkeypatch.setattr(cs.cylinder, "_frame_grid", no_grid)
    pert = cs.make_perturbation(torus_spec_15.dim, 1e-3, -1e-9, seed=0)
    op = CylinderOperator(torus_spec_15, 1e9, 0.01, pert)
    with pytest.raises(ConfigError, match="a perturbed frame level's grid of 18126"):
        cs.perturbed_kernel_count(op, 0.5, negative_modes(torus_spec_15))


@settings(max_examples=15, deadline=None)
@given(eps=st.floats(0.0, 2e-2), seed=st.integers(0, 2**32 - 1),
       weight=st.floats(-1.5, 0.0, exclude_min=True, exclude_max=True))
def test_decaying_frame_is_isotropic(torus_spec_15, eps, seed, weight):
    # Green's formula: omega(u, v) = <J u, v> is constant along solutions, and
    # the decaying modes start isotropic, so the marched frame stays isotropic
    spec = torus_spec_15
    assume(np.abs(spec.eigenvalues - weight).min() >= 1e-3)
    pert = cs.make_perturbation(spec.dim, eps, -1.0, seed) if eps > 0 else None
    op = CylinderOperator(spec, 30.0, 0.01, pert)
    z = _march_frame(op, np.flatnonzero(spec.eigenvalues < weight))[0]
    assert np.abs(z.T @ spec.jmat @ z).max(initial=0.0) <= 1e-12


def test_decaying_frame_sees_kernel_pairing(torus_spec_15):
    # control for the isotropy property: above the zero root the frame holds
    # the kernel, on which omega is nondegenerate
    spec = torus_spec_15
    cols = np.flatnonzero(spec.eigenvalues < 0.5)
    for pert in (None, cs.make_perturbation(spec.dim, 1e-3, -1.0, seed=11)):
        z = _march_frame(CylinderOperator(spec, 30.0, 0.01, pert), cols)[0]
        assert np.linalg.matrix_rank(z.T @ spec.jmat @ z, tol=1e-8) == spec.d0() == 4


# ---------------------------------------------------------------------------
# reference frame: plain RK4 on the output grid, re-orthonormalized every 10 steps

def reference_frame(op: CylinderOperator, cols: np.ndarray) -> np.ndarray:
    """Orthonormal frame at t = 0 of the solutions that start at t = T on the
    mode columns cols, marched backward by RK4 on ``op.tgrid``."""
    z = np.zeros((op.dim, cols.size))
    z[cols, np.arange(cols.size)] = 1.0
    pert = op.perturbation
    if pert is None:
        return z
    diag = np.diag(op.base.eigenvalues)
    g = op.base.jmat @ pert.coupling

    def flow(t):
        return diag + (pert.eps * np.exp(pert.mu_pert * t)) * g

    t = op.tgrid
    h = op.step
    for k in range(t.size - 1, 0, -1):
        tk = t[k]
        mid = flow(tk - 0.5 * h)
        k1 = flow(tk) @ z
        k2 = mid @ (z - 0.5 * h * k1)
        k3 = mid @ (z - 0.5 * h * k2)
        k4 = flow(tk - h) @ (z - h * k3)
        z = z - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if k % 10 == 0:
            z, _ = np.linalg.qr(z)
    z, _ = np.linalg.qr(z)
    return z


def assert_frame_matches_reference(spec, data, eps, mu_pert, seed):
    radius = spec.completeness_radius
    weight = data.draw(st.floats(-radius, radius))
    gap = np.abs(spec.eigenvalues - weight).min()
    assume(gap >= 1e-3 and eps < 0.5 * gap)
    cols = np.flatnonzero(spec.eigenvalues < weight)
    assume(cols.size)
    pert = cs.make_perturbation(spec.dim, eps, mu_pert, seed) if eps > 0 else None
    op = CylinderOperator(spec, 30.0, 0.01, pert)
    s = negative_modes(spec)
    z, ref = _march_frame(op, cols)[0], reference_frame(op, cols)
    # largest principal-angle sine between the two frames
    assert np.linalg.norm(z - ref @ (ref.T @ z), 2) <= 1e-8
    sv, sv_ref = (np.linalg.svd(f[s], compute_uv=False) for f in (z, ref))
    assert np.abs(sv - sv_ref).max() <= 1e-10
    count = cs.perturbed_kernel_count(op, weight, s)
    assert count.dimension == cols.size - np.count_nonzero(sv_ref >= 1e-6 * sv_ref.max())
    # the march's step count and estimate ride along but stay out of the JSON
    assert count.march_estimate <= 1e-9
    assert (count.march_steps > 0) == (pert is not None)
    assert "march" not in count.to_json()


@settings(max_examples=15, deadline=None)
@given(data=st.data(), cutoff=st.sampled_from((1.5, 2.5)), eps=st.floats(0.0, 2e-2),
       seed=st.integers(0, 2**32 - 1))
def test_decaying_frame_matches_reference(torus_spec_15, torus_spec_25, data, cutoff,
                                          eps, seed):
    spec = torus_spec_15 if cutoff == 1.5 else torus_spec_25
    assert_frame_matches_reference(spec, data, eps, -1.0, seed)


@settings(max_examples=15, deadline=None)
@given(data=st.data(), cutoff=st.sampled_from((1.5, 2.5)), eps=st.floats(0.0, 2e-2),
       mu_pert=st.floats(-5.0, -0.1), seed=st.integers(0, 2**32 - 1))
def test_graded_frame_matches_reference(torus_spec_15, torus_spec_25, data, cutoff,
                                        eps, mu_pert, seed):
    # the march's grid grades with the coupling's decay rate; the reference
    # stays uniform, so a grading that misplaces its steps shows here
    spec = torus_spec_15 if cutoff == 1.5 else torus_spec_25
    assert_frame_matches_reference(spec, data, eps, mu_pert, seed)


def test_frame_grid():
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the last node must not take log1p(-1)
        grids = {(t_final, mu, n): _frame_grid(t_final, mu, n)
                 for t_final in (5.0, 30.0) for mu in (-1e-12, -0.1, -1.0, -5.0, -50.0, -1e300)
                 for n in (1, 2, 7, 160)}
    for (t_final, mu, n), t in grids.items():
        assert t.size == n + 1
        assert t[0] == 0.0 and t[-1] == t_final
        assert np.all(np.diff(t) > 0)
    # uniform steps in s = (1 - e^{-a t}) / a: e^{-a t} falls by the same amount
    # each step, so sinh(a H / 2) grows by e^{a (distance between step midpoints)}
    for mu in (-0.1, -1.0, -5.0):
        a = -mu / 5.0
        t = grids[30.0, mu, 160]
        hs, mid = np.diff(t), 0.5 * (t[:-1] + t[1:])
        grow = np.sinh(0.5 * a * hs[1:]) / np.sinh(0.5 * a * hs[:-1])
        assert np.allclose(grow, np.exp(a * np.diff(mid)), rtol=1e-9, atol=0.0)
    # a -> 0 recovers the uniform grid
    for t_final, n in ((5.0, 7), (30.0, 160)):
        assert np.allclose(grids[t_final, -1e-12, n], t_final * np.arange(n + 1) / n,
                           rtol=0.0, atol=1e-9)


def test_graded_march_step_count():
    # at the cylinder-end size the graded grid settles at a third of the
    # uniform march's 480 steps
    spec = cs.eigendecompose(cs.build_torus_model(cs.square_torus(), 10.0))
    pert = cs.make_perturbation(spec.dim, 1e-3, -1.0, seed=4)
    op = CylinderOperator(spec, 30.0, 0.01, pert)
    count = cs.perturbed_kernel_count(op, 0.5, negative_modes(spec))
    assert count.dimension == spec.d0()
    assert count.march_steps <= 160
    assert count.march_estimate <= 1e-9


@pytest.mark.parametrize("mu_pert", (-50.0, -1e300))
def test_fast_decaying_coupling_settles_early(torus_spec_25, mu_pert):
    # the coupling lives only near t = 0, where the graded grid puts its steps
    pert = cs.make_perturbation(torus_spec_25.dim, 1e-3, mu_pert, seed=0)
    op = CylinderOperator(torus_spec_25, 30.0, 0.01, pert)
    count = cs.perturbed_kernel_count(op, 0.5, negative_modes(torus_spec_25))
    assert count.dimension == torus_spec_25.d0()
    assert count.march_steps <= 32 and count.march_estimate <= 1e-9


@pytest.mark.parametrize("eps", (1e-3, 5e-4))
def test_lagrangian_boundary_halves_kernel(torus_spec_15, eps):
    # a boundary set Lagrangian in the whole fiber: the negative modes plus the
    # zero modes along span{1, i} (isotropic by C12).  Above the zero root the
    # bounded kernel is then a d0/2-dimensional isotropic slice of the zero cluster
    spec = torus_spec_15
    c0 = spec.cluster_at(0.0)
    zero = np.arange(c0.start, c0.stop)
    # the zero modes are the constant sections: pick those along fiber axes 0 and 1
    along = np.argmax(np.abs(spec.basis.columns(c0.start, c0.stop)[:4]), axis=1)
    s = negative_modes(spec) + zero[along[:2]].tolist()
    omega0 = spec.jmat.toarray()[np.ix_(zero, zero)]
    pert = cs.make_perturbation(spec.dim, eps, -1.0, seed=11)
    op = CylinderOperator(spec, 30.0, 0.01, pert)
    count = cs.perturbed_kernel_count(op, 0.5, s)
    assert count.dimension == spec.d0() // 2 == 2
    z = _march_frame(op, np.flatnonzero(spec.eigenvalues < 0.5))[0]
    # kernel elements at t = 0: the frame combinations that vanish on s
    _, sv, vt = np.linalg.svd(z[s])
    kernel = z @ vt[sv.size:].T
    image = kernel[zero]
    assert np.linalg.svd(image, compute_uv=False).min() >= 0.5
    assert np.abs(image.T @ omega0 @ image).max() <= 1e-12


def test_frame_march_cap_raises(torus_spec_15, monkeypatch):
    # a tolerance no march can meet trips the halving cap: a typed failure,
    # not the last frame
    monkeypatch.setattr(cs.cylinder, "_FRAME_TOL", 0.0)
    pert = cs.make_perturbation(torus_spec_15.dim, 1e-3, -1.0, seed=11)
    op = CylinderOperator(torus_spec_15, 5.0, 0.01, pert)
    with pytest.raises(ConvergenceFailure):
        cs.perturbed_kernel_count(op, 0.5, negative_modes(torus_spec_15))


# ---------------------------------------------------------------------------
# level control of the frame march

@pytest.fixture(scope="module")
def spec10():
    return cs.eigendecompose(cs.build_torus_model(cs.square_torus(), 10.0))


def angle_to_finer_march(op, cols, steps):
    """Largest principal angle between the frame _march_frame accepts for the
    modes cols and a march from the same start at four times its final level."""
    spec, pert = op.base, op.perturbation
    z = _march_frame(op, cols)[0]
    z0 = np.zeros((spec.dim, cols.size))
    z0[cols, np.arange(cols.size)] = 1.0
    fine, _ = _lawson_march(z0, spec.eigenvalues, spec.jmat @ pert.coupling, pert,
                            _frame_grid(op.t_final, pert.mu_pert, 4 * steps),
                            float(np.ptp(spec.eigenvalues[cols])))
    return float(np.linalg.norm(z - fine @ (fine.T @ z), 2))


@settings(max_examples=15, deadline=None)
@given(data=st.data(), cutoff=st.sampled_from((1.5, 2.5)), eps=st.floats(1e-4, 2e-2),
       mu_pert=st.floats(-5.0, -0.1), seed=st.integers(0, 2**32 - 1))
def test_march_estimate_matches_finer_march(torus_spec_15, torus_spec_25, data, cutoff,
                                            eps, mu_pert, seed):
    # the level the H^4 law picked is within tolerance of a march at four
    # times its steps, and the Richardson estimate of the last pair of levels
    # is that error to a factor of 2
    spec = torus_spec_15 if cutoff == 1.5 else torus_spec_25
    radius = spec.completeness_radius
    weight = data.draw(st.floats(-radius, radius))
    gap = np.abs(spec.eigenvalues - weight).min()
    assume(gap >= 1e-3 and eps < 0.5 * gap)
    cols = np.flatnonzero(spec.eigenvalues < weight)
    assume(cols.size)
    pert = cs.make_perturbation(spec.dim, eps, mu_pert, seed)
    op = CylinderOperator(spec, 30.0, 0.01, pert)
    count = cs.perturbed_kernel_count(op, weight, negative_modes(spec))
    levels = count.march_levels
    assert count.march_steps == levels[-1] and len(levels) >= 2
    assert all(n < m <= 4 * n for n, m in zip(levels, levels[1:]))
    assert count.march_qr >= len(levels)   # each level ends on a QR
    assert "march" not in count.to_json()
    angle = angle_to_finer_march(op, cols, levels[-1])
    assert angle <= cs.cylinder._FRAME_TOL
    # sines between orthonormal frames are known to rounding, about 1e-15 here
    estimate = count.march_estimate
    assert angle / 2 - 1e-14 <= estimate <= 2 * angle + 1e-14


def test_march_at_the_replayed_point_is_within_tolerance(torus_spec_25):
    # the point that set _FRAME_ACCEPT = 0.8: accepting a level whose
    # estimate is up to 1.0 * _FRAME_TOL stops at levels (17, 34), 1.0026e-9
    # from the finer march; with 0.8 the march goes on to level 41, 4.75e-10
    spec = torus_spec_25
    pert = cs.make_perturbation(spec.dim, 1e-4, -0.8671875, 235)
    op = CylinderOperator(spec, 30.0, 0.01, pert)
    count = cs.perturbed_kernel_count(op, 0.5, negative_modes(spec))
    angle = angle_to_finer_march(op, np.flatnonzero(spec.eigenvalues < 0.5),
                                 count.march_levels[-1])
    assert angle <= cs.cylinder._FRAME_TOL


def test_march_level_count(spec10):
    # the cylinder-end coupling: levels 32, 64 and about 96, where the halving
    # ladder marched 10, 20, 40, 80 and 160 (310 steps)
    pert = cs.make_perturbation(spec10.dim, 1e-3, -1.0, seed=4)
    count = cs.perturbed_kernel_count(CylinderOperator(spec10, 30.0, 0.01, pert), 0.5,
                                      negative_modes(spec10))
    assert sum(count.march_levels) <= 200
    assert count.march_estimate <= 1e-9
    # a QR once the columns may have grown apart by 1e4: 24 QRs over the
    # three levels; a QR at growth 10 takes 59
    assert count.march_qr <= 30


@settings(max_examples=15, deadline=None)
@given(data=st.data(), cutoff=st.sampled_from((1.5, 2.5, 10.0)), eps=st.floats(1e-4, 2e-2),
       mu_pert=st.floats(-5.0, -0.1), seed=st.integers(0, 2**32 - 1))
def test_march_qr_cadence_matches_qr_every_step(torus_spec_15, torus_spec_25, spec10, data,
                                                cutoff, eps, mu_pert, seed):
    # the march is linear, so its QRs change the frame's basis, not its span:
    # on one grid, a QR at growth 1e4 and a QR after every step (spread = inf)
    # give the same span to rounding (below 1e-14 on every draw tried)
    spec = {1.5: torus_spec_15, 2.5: torus_spec_25, 10.0: spec10}[cutoff]
    radius = spec.completeness_radius
    weight = data.draw(st.floats(-radius, radius))
    gap = np.abs(spec.eigenvalues - weight).min()
    assume(gap >= 1e-3 and eps < 0.5 * gap)
    cols = np.flatnonzero(spec.eigenvalues < weight)
    assume(cols.size)
    steps = data.draw(st.integers(16, 200))
    pert = cs.make_perturbation(spec.dim, eps, mu_pert, seed)
    z0 = np.zeros((spec.dim, cols.size))
    z0[cols, np.arange(cols.size)] = 1.0
    g = spec.jmat @ pert.coupling
    tgrid = _frame_grid(30.0, mu_pert, steps)
    z, _ = _lawson_march(z0, spec.eigenvalues, g, pert, tgrid,
                         float(np.ptp(spec.eigenvalues[cols])))
    every, qrs = _lawson_march(z0, spec.eigenvalues, g, pert, tgrid, np.inf)
    assert qrs == steps + 1
    assert np.linalg.norm(z - every @ (every.T @ z), 2) <= 1e-12


def test_march_has_no_knife_edge(spec10):
    # couplings of one size and decay end on the same level of the ladder,
    # within a few steps: a factor-2 ladder stopped some at half the steps of
    # the others, by a hair's breadth of the estimate
    levels = []
    for seed in range(20):
        pert = cs.make_perturbation(spec10.dim, 1e-3, -1.0, seed)
        count = cs.perturbed_kernel_count(CylinderOperator(spec10, 30.0, 0.01, pert), 0.5,
                                          negative_modes(spec10))
        levels.append(count.march_levels)
    assert len({lv[:-1] for lv in levels}) == 1
    final = [lv[-1] for lv in levels]
    assert max(final) <= 1.1 * min(final)


def test_frame_march_cap_is_finest_level(torus_spec_15, monkeypatch):
    # a zero tolerance has no predicted level: the march climbs by the 4x
    # clamp to the finest level, ceil(S / _FRAME_H0) * 2**_FRAME_HALVINGS
    # steps, and fails there
    marched = []

    def recording_march(z, lams, g, pert, tgrid, spread):
        marched.append(tgrid.size - 1)
        return _lawson_march(z, lams, g, pert, tgrid, spread)

    monkeypatch.setattr(cs.cylinder, "_FRAME_TOL", 0.0)
    monkeypatch.setattr(cs.cylinder, "_lawson_march", recording_march)
    pert = cs.make_perturbation(torus_spec_15.dim, 1e-3, -1.0, seed=11)
    op = CylinderOperator(torus_spec_15, 5.0, 0.01, pert)
    with pytest.raises(ConvergenceFailure):
        cs.perturbed_kernel_count(op, 0.5, negative_modes(torus_spec_15))
    assert marched[-1] == math.ceil(_frame_length(5.0, -1.0) / 0.5) * 2**_FRAME_HALVINGS
    assert all(n < m <= 4 * n for n, m in zip(marched, marched[1:]))


def test_decaying_frame_of_no_columns(torus_spec_15):
    pert = cs.make_perturbation(torus_spec_15.dim, 1e-3, -1.0, seed=11)
    z = _march_frame(CylinderOperator(torus_spec_15, 30.0, 0.01, pert),
                     np.zeros(0, dtype=int))[0]
    assert z.shape == (torus_spec_15.dim, 0)
