"""Half-cylinder model operator in the eigenbasis of A = J D.

Composing the cylinder operator with J on the left turns it into
-d/dt + A, so in M-orthonormal A-eigencoordinates the equation decouples
into scalar modes

    u_j' - lam_j u_j = g_j,     g = -(J f).

Everything in this module works in those eigencoordinates: vectors are
mode-coefficient arrays, the complex structure is the matrix ``jmat`` of J
in the eigenbasis, and exponentials e^{lam t} are exact.  The weighted
Green solver integrates each mode from the end that keeps e^{-w t} u
bounded; kernel elements in a root window are pure exponentials (no
polynomial-in-t solutions exist); the asymptotic limit map projects the
far tail onto a root cluster; and the perturbed kernel counter marches a
decaying frame backward and counts rank against boundary conditions.  That
march is a Lawson (integrating-factor) RK4: e^{-lam H} acts exactly and only
the eps-small coupling is stepped.  Its steps grow like e^{-mu_pert t / 5} as
the coupling decays; their number is predicted from RK4's H^4 error law and
verified on a pair of levels, until the Richardson estimate is 8e-10 in
principal angle, so that the frame's error is within 1e-9.  The frame is
re-orthonormalized once its columns may have grown apart by 1e4, so each QR
rounds its span by about 1e4 times the unit round-off, 2e-12.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, ConvergenceFailure, CriticalWeight, IllConditionedMatching,
                     InputError, InsufficientTail, PerturbationTooLarge)
from .spectral import Spectrum


# ---------------------------------------------------------------------------
# uniform-grid differentiation, 4th order (one-sided at the boundaries)

# grid points (the last axis) that differentiate and solve_cylinder take per
# piece: no temporary of theirs is wider than this, whatever the grid's length
_GRID_CHUNK = 256


def _grid_chunks(start: int, stop: int) -> list[tuple[int, int]]:
    """Spans (a, b) covering [start, stop) in near-equal pieces of at most
    _GRID_CHUNK points.  No piece is 1 wide unless [start, stop) is: summed
    over a one-column piece, a column norm would take numpy's pairwise order,
    not the row-by-row order of the whole array's."""
    n = stop - start
    pieces = -(-n // _GRID_CHUNK)
    return [(start + n * i // pieces, start + n * (i + 1) // pieces) for i in range(pieces)]


def differentiate(values: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """d/dt along the last axis of a uniform grid; 4th-order stencils.

    Writes into ``out`` when given: a float array of the values' shape that
    shares no memory with them (ValueError otherwise).  The interior stencil
    runs in place, _GRID_CHUNK points at a time, so its one temporary is a
    piece of that width."""
    u = np.asarray(values, dtype=float)
    n = u.shape[-1]
    if n < 5:
        raise InputError("need at least 5 grid points for the 4th-order stencil")
    if out is None:
        du = np.empty_like(u)
    else:
        du = out
        if du.shape != u.shape or du.dtype != float:
            raise ValueError(f"out is a {du.dtype} array of shape {du.shape}, expected "
                             f"float of shape {u.shape}")
        if np.shares_memory(du, u):
            raise ValueError("out shares memory with the values")
    scale = 12 * h
    term = np.empty(u.shape[:-1] + (min(n - 4, _GRID_CHUNK),))
    for a, b in _grid_chunks(2, n - 2):
        d, t3 = du[..., a:b], term[..., :b - a]
        np.multiply(8, u[..., a - 1:b - 1], out=d)
        np.subtract(u[..., a - 2:b - 2], d, out=d)
        np.multiply(8, u[..., a + 1:b + 1], out=t3)
        d += t3
        d -= u[..., a + 2:b + 2]
        d /= scale
    du[..., 0] = (-25 * u[..., 0] + 48 * u[..., 1] - 36 * u[..., 2]
                  + 16 * u[..., 3] - 3 * u[..., 4]) / scale
    du[..., 1] = (-3 * u[..., 0] - 10 * u[..., 1] + 18 * u[..., 2]
                  - 6 * u[..., 3] + u[..., 4]) / scale
    du[..., -2] = (3 * u[..., -1] + 10 * u[..., -2] - 18 * u[..., -3]
                   + 6 * u[..., -4] - u[..., -5]) / scale
    du[..., -1] = (25 * u[..., -1] - 48 * u[..., -2] + 36 * u[..., -3]
                   - 16 * u[..., -4] + 3 * u[..., -5]) / scale
    return du


# ---------------------------------------------------------------------------
# operator

@dataclass(frozen=True)
class Perturbation:
    """Exponentially decaying coupling eps * e^{mu_pert t} * A0 with seeded,
    symmetric (hence mass-self-adjoint in eigencoordinates) A0 of unit norm."""

    eps: float
    mu_pert: float
    seed: int
    coupling: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if not self.mu_pert < 0:   # also rejects NaN
            raise InputError("mu_pert must be negative (decaying coupling)")
        if not (-math.inf < self.mu_pert and 0 <= self.eps < math.inf):
            raise InputError(f"eps must be finite and >= 0 and mu_pert finite, got "
                             f"eps = {self.eps}, mu_pert = {self.mu_pert}")


def make_perturbation(dim: int, eps: float, mu_pert: float, seed: int = 0) -> Perturbation:
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((dim, dim))
    a0 = 0.5 * (r + r.T)
    a0 /= np.linalg.norm(a0, 2)
    return Perturbation(float(eps), float(mu_pert), int(seed), a0)


# largest dim x points of a time grid: the Green solve holds three dim x points
# arrays besides its rhs and each level of the perturbed frame march six of
# dim x steps, 128 MB each at this size (the cylinder-end bench runs 148 x 3001)
MAX_GRID_VALUES = 2 ** 24


def _check_grid_size(dim: int, points: int, about: str):
    """ConfigError when ``about``, a time grid of ``points`` nodes, holds
    more than MAX_GRID_VALUES values at dim ``dim``."""
    if dim * points > MAX_GRID_VALUES:
        raise ConfigError(f"{about} of {points} points at dim {dim} holds {dim * points} "
                          f"values, above the limit {MAX_GRID_VALUES}")


# e^x is a finite float up to this x
_EXP_MAX = math.log(np.finfo(float).max)


def check_exponential(name: str, value: float, sign: int, t_final: float):
    """InputError unless e^(sign * value * t) is a finite float for t in
    [0, t_final] and the product sign * value * t_final is finite."""
    x = sign * float(value) * float(t_final)
    if not (math.isfinite(x) and x <= _EXP_MAX):
        raise InputError(f"{name} = {value:g} and T = {t_final:g} put "
                         f"e^({'-' if sign < 0 else ''}{name} t) out of float range")


@dataclass(frozen=True)
class CylinderOperator:
    """Mode-decomposed model operator on [0, T] with uniform step h."""

    base: Spectrum
    t_final: float = 30.0
    step: float = 0.01
    perturbation: Perturbation | None = None

    def __post_init__(self):
        if self.base.jmat is None:
            raise ValueError("cylinder operators need a spectrum with jmat attached")
        pert = self.perturbation
        if pert is not None and (not isinstance(pert.coupling, np.ndarray)
                                 or pert.coupling.shape != (self.dim, self.dim)):
            raise InputError(f"a perturbation's coupling must be a {self.dim} x {self.dim} array")
        if not 0 < self.step <= self.t_final < np.inf:
            raise InputError("need 0 < h <= T")
        steps = self.t_final / self.step
        if not np.isfinite(steps):
            raise InputError(f"T = {self.t_final:g} over h = {self.step:g} overflows "
                             "the step count")
        n = round(steps)
        if abs(steps - n) > 1e-9 * n:
            raise InputError(f"T = {self.t_final:g} is not a whole number of steps "
                             f"h = {self.step:g}")

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def tgrid(self) -> np.ndarray:
        """The nodes 0, h, ..., T; ConfigError when dim x nodes is above
        MAX_GRID_VALUES."""
        n = int(round(self.t_final / self.step))
        _check_grid_size(self.dim, n + 1,
                         f"the time grid (T = {self.t_final:g}, h = {self.step:g})")
        return np.linspace(0.0, n * self.step, n + 1)

    def check_weight(self, weight: float):
        if not np.isfinite(weight):
            raise InputError(f"weight must be finite, got {weight}")
        gap = float(np.abs(self.base.eigenvalues - weight).min())
        if gap <= self.base.root_tol:
            raise CriticalWeight(
                f"weight {weight:.6g} is within {gap:.3e} of an eigenvalue")
        return gap


@dataclass(frozen=True)
class CylinderSolution:
    coeffs: np.ndarray       # (dim, nt) mode coefficients on the grid
    tgrid: np.ndarray
    weight: float
    residual: float          # weighted relative residual of the mode equations
    weighted_sup: float      # sup_t |e^{-w t} u(t)|
    spectrum: Spectrum


# ---------------------------------------------------------------------------
# weighted Green solver

def _exp_moments(lams: np.ndarray, h: float) -> np.ndarray:
    """(dim, 4) table I_p(lam) = integral_0^h e^{lam (h - tau)} tau^p dtau, p = 0..3.

    Downward recurrence where |lam h| >= 0.25; below that it cancels, so a
    20-term series in z = lam h is used (term q shrinks by at least 0.25/q)."""
    z = lams * h
    out = np.empty((lams.size, 4))
    small = np.abs(z) < 0.25
    zs, lb = z[small], lams[~small]
    for p in range(4):
        term = np.full(zs.size, h ** (p + 1) / (p + 1))
        acc = np.zeros(zs.size)
        for q in range(20):
            acc += term
            term = term * (zs / (p + q + 2))
        out[small, p] = acc
    out[~small, 0] = (np.exp(z[~small]) - 1.0) / lb
    for p in range(1, 4):
        out[~small, p] = (p * out[~small, p - 1] - h ** p) / lb
    return out


def _step_weights(moments: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(dim, 4) weights w with  integral_0^h e^{lam(h-tau)} g(tau) dtau ~ sum_j w_j g(offsets_j)
    for the cubic interpolant of g through the offset nodes, one row per lam."""
    table = np.empty((4, 4))   # table[j, p]: coefficient of tau^p in node j's Lagrange basis
    for jn, x in enumerate(offsets):
        others = np.delete(offsets, jn)
        table[jn] = (np.poly(others) / np.prod(x - others))[::-1]
    # summed over p in order: a matmul or einsum rounds differently in the last bit
    return sum(moments[:, p, None] * table[:, p] for p in range(4))


def _mode_recurrences(ut: np.ndarray, q: np.ndarray, lams: np.ndarray, h: float, nf: int):
    """Fill ut (nt, dim), zero on entry, with the mode recurrences: the first nf
    columns forward from u(0) = 0, u_k = e^{lam h} u_{k-1} + q_k, the rest
    backward from u(T) = 0, u_{k-1} = e^{-lam h} (u_k - q_k).

    Each step writes into a row view of ut in place."""
    grow = np.exp(lams[:nf] * h)
    prev = ut[0, :nf]
    for cur, qk in zip(ut[1:, :nf], q[1:, :nf]):
        np.multiply(grow, prev, out=cur)
        cur += qk
        prev = cur
    shrink = np.exp(-lams[nf:] * h)
    nxt = ut[-1, nf:]
    for cur, qk in zip(ut[-2::-1, nf:], q[:0:-1, nf:]):
        np.subtract(nxt, qk, out=cur)
        cur *= shrink
        nxt = cur


def _column_norms(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=0) of a C-ordered 2-D x, bitwise: the squares
    are formed in ``scratch`` (at least rows x _GRID_CHUNK values) on pieces
    of columns, each summed over the rows in memory order."""
    rows, cols = x.shape
    norms = np.empty(cols)
    for a, b in _grid_chunks(0, cols):
        sq = scratch[:rows * (b - a)].reshape(rows, b - a)
        np.multiply(x[:, a:b], x[:, a:b], out=sq)
        np.add.reduce(sq, axis=0, out=norms[a:b])
    return np.sqrt(norms, out=norms)


def solve_cylinder(op: CylinderOperator, rhs: np.ndarray, weight: float) -> CylinderSolution:
    """Weighted Green solve of the unperturbed cylinder equation.

    rhs: array (dim, nt) of mode functions f_j(t_k) on ``op.tgrid``.  Each mode
    steps by exponential quadrature: the exact propagator e^{lam h} plus the
    integral of e^{lam(h - tau)} against the cubic interpolant of g on four
    neighbouring nodes (4th order).  Modes with lam_j < weight step forward
    from u(0) = 0, the rest backward from u(T) = 0, so e^{-w t} u stays
    bounded.  Raises CriticalWeight when the weight hits an eigenvalue and
    InputError when the weight factor e^(-w t) is out of float range on
    [0, T].

    Besides rhs, the solve holds three dim x nt arrays: g; the step
    integrals q, whose memory then takes the returned coefficients u; and
    the recurrences' transposed u, whose memory then takes u' and the
    residual.  Every other temporary holds at most dim x _GRID_CHUNK or
    nt values.
    """
    if op.perturbation is not None:
        raise ValueError("solve_cylinder handles the unperturbed operator only")
    op.check_weight(weight)
    check_exponential("weight", weight, -1, op.t_final)
    t = op.tgrid
    nt = t.size
    h = op.step
    f = np.asarray(rhs, dtype=float)
    if f.shape != (op.dim, nt):
        raise ValueError(f"rhs has shape {f.shape}, expected {(op.dim, nt)}")
    if nt < 4:
        raise InputError("grid too short for the cubic interpolant")

    g = op.base.jmat @ f
    np.negative(g, out=g)
    lams = op.base.eigenvalues
    moments = _exp_moments(lams, h)
    w_int, w_first, w_last = (_step_weights(moments, h * np.array(nodes, dtype=float))
                              for nodes in ((-1, 0, 1, 2), (0, 1, 2, 3), (-2, -1, 0, 1)))
    scratch = np.empty(op.dim * _GRID_CHUNK)
    # q[k, j]: integral over the step ending at t_k of e^{lam_j (t_k - s)} g_j(s) ds.
    # Row 0 is unused: at nt rows q has room for u once the recurrences end.
    # The one-sided end steps are per-mode 4-term dots; the interior sums its
    # four terms in order, a piece of rows at a time.
    q = np.empty((nt, op.dim))
    q[1] = np.matmul(w_first[:, None, :], g[:, :4, None])[:, 0, 0]
    q[-1] = np.matmul(w_last[:, None, :], g[:, -4:, None])[:, 0, 0]
    gt = g.T
    for a, b in _grid_chunks(2, nt - 1):
        rows, term = q[a:b], scratch[:(b - a) * op.dim].reshape(b - a, op.dim)
        np.multiply(w_int[:, 0], gt[a - 2:b - 2], out=rows)
        for p in range(1, 4):
            np.multiply(w_int[:, p], gt[a - 2 + p:b - 2 + p], out=term)
            rows += term
    # the eigenvalues ascend: the forward modes are the first nf columns
    nf = int(np.count_nonzero(lams < weight))
    ut = np.zeros((nt, op.dim))
    _mode_recurrences(ut, q, lams, h, nf)
    u = q.reshape(op.dim, nt)   # C order: the column norms below sum in memory order
    np.copyto(u, ut.T)

    resid = differentiate(u, h, out=ut.reshape(op.dim, nt))   # du - lams u - g, in place
    for a, b in _grid_chunks(0, nt):
        term = scratch[:op.dim * (b - a)].reshape(op.dim, b - a)
        np.multiply(lams[:, None], u[:, a:b], out=term)
        resid[:, a:b] -= term
    resid -= g
    wfac = np.exp(-weight * t)
    scale = float((_column_norms(g, scratch) * wfac).max())
    residual = float((_column_norms(resid, scratch) * wfac).max()) / max(scale, 1e-300)
    weighted_sup = float((_column_norms(u, scratch) * wfac).max())
    return CylinderSolution(u, t, float(weight), residual, weighted_sup, op.base)


# ---------------------------------------------------------------------------
# kernel elements in a root window

@dataclass(frozen=True)
class WindowKernel:
    """Basis of kernel elements e^{lam_j t} e_j with lam_j in the window; the
    basis is exponential-only (polynomial-in-t factors are obstructed)."""

    lambdas: np.ndarray    # (K,) eigenvalue per basis element
    indices: np.ndarray    # (K,) mode index per basis element
    dimension: int
    spectrum: Spectrum

    def element(self, k: int, tgrid: np.ndarray) -> np.ndarray:
        out = np.zeros((self.spectrum.dim, tgrid.size))
        out[self.indices[k]] = np.exp(self.lambdas[k] * np.asarray(tgrid))
        return out


def kernel_in_window(op: CylinderOperator, window: tuple[float, float]) -> WindowKernel:
    """Exponential kernel basis for rates strictly between the window endpoints;
    endpoint weights must be non-critical."""
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise InputError("window must satisfy lo < hi")
    op.check_weight(lo)
    op.check_weight(hi)
    lams = op.base.eigenvalues
    mask = (lams > lo) & (lams < hi)
    idx = np.flatnonzero(mask)
    return WindowKernel(lams[idx], idx, int(idx.size), op.base)


# ---------------------------------------------------------------------------
# asymptotic limit map

@dataclass(frozen=True)
class AsymptoticLimit:
    coefficient: np.ndarray   # (dim,) mode coefficients, supported on the lam cluster
    fitted_rate: float | None
    lam: float

    def coefficient_norm(self) -> float:
        return float(np.linalg.norm(self.coefficient))


def asymptotic_limit(sol: CylinderSolution, lam: float, lam1: float) -> AsymptoticLimit:
    """Extract the e^{lam t} coefficient of a solution and the decay rate of
    the remainder.

    The coefficient is the cluster projection of e^{-lam t} u(t) averaged over
    the final quarter of the grid; the remainder rate comes from a log-linear
    fit over the final half.  The fit keeps only points whose remainder norm
    exceeds the rounding floor of the subtracted term,
    1e-10 * ||coefficient|| * e^{lam t}: below it the remainder is rounding of
    that subtraction, not decay.  The rate is None when fewer than 10 points
    remain.  Needs lam1 < lam and a tail long enough to separate the two rates
    (T >= 20 / (lam - lam1), at least 10 points and one decay decade in the fit
    window), else InsufficientTail.
    """
    if not lam1 < lam:
        raise ValueError("need lam1 < lam")
    t = sol.tgrid
    tfinal = float(t[-1])
    sep = lam - lam1
    if tfinal < 20.0 / sep:
        raise InsufficientTail(
            f"grid length {tfinal:.3g} is shorter than 20/|lam-lam1| = {20.0 / sep:.3g}")
    tail = t >= 0.75 * tfinal
    if tail.sum() < 10 or sep * 0.5 * tfinal < np.log(10.0):
        raise InsufficientTail("tail window too short for a stable extraction")

    spec = sol.spectrum
    cluster = spec.cluster_at(lam)
    coeff = np.zeros(spec.dim)
    if cluster is not None:
        damped = sol.coeffs[cluster.start:cluster.stop, :] * np.exp(-lam * t)[None, :]
        coeff[cluster.start:cluster.stop] = damped[:, tail].mean(axis=1)

    # the fit window t >= T/2 is a suffix of the ascending grid
    start = int(np.searchsorted(t, 0.5 * tfinal))
    tfit = t[start:]
    remainder = sol.coeffs[:, start:] - coeff[:, None] * np.exp(lam * tfit)[None, :]
    rnorm = np.linalg.norm(remainder, axis=0)
    floor = 1e-10 * np.linalg.norm(coeff) * np.exp(lam * tfit)
    good = rnorm > np.maximum(floor, 1e-280)
    if good.sum() >= 10:
        slope = np.polyfit(tfit[good], np.log(rnorm[good]), 1)[0]
        rate = float(slope)
    else:
        rate = None
    return AsymptoticLimit(coeff, rate, float(lam))


# ---------------------------------------------------------------------------
# perturbed kernel counting

@dataclass(frozen=True)
class FrameMarch:
    """The perturbed frame at t = 0 (see _march_frame) and how it was marched."""

    frame: np.ndarray   # orthonormal, one column per decaying mode
    levels: tuple       # the step counts of every level marched, in order
    estimate: float     # principal-angle estimate from the last pair of levels
    qrs: int            # QRs taken over all levels


@dataclass(frozen=True)
class KernelCount:
    dimension: int
    decaying_dim: int            # dim of the subspace decaying at the far end
    singular_values: np.ndarray  # of the boundary-matching block
    boundary_set: tuple
    weight: float
    perturbation: Perturbation | None
    march: FrameMarch | None     # None when no frame was needed; not in to_json

    def to_json(self) -> str:
        import json

        pert = self.perturbation
        return json.dumps({
            "dimension": self.dimension,
            "decaying_dim": self.decaying_dim,
            "singular_values": self.singular_values.tolist(),
            "boundary_set": list(self.boundary_set),
            "weight": self.weight,
            "eps": 0.0 if pert is None else pert.eps,
            "mu_pert": 0.0 if pert is None else pert.mu_pert,
            "seed": None if pert is None else pert.seed,
        }, sort_keys=True)


# Level control of the perturbed frame (see _march_frame).  At cutoff 1.5,
# eps <= 2e-2 and T = 30, a tolerance of 1e-8 let the frame's omega-isotropy
# drift reach 1.5e-12 over 40 random draws, 1e-9 kept it at 7.8e-14 on uniform
# steps and 8.3e-14 on the graded grid.  _FRAME_H0 / min(1, |mu_pert|) bounds
# the first level's step in the graded variable s of _frame_grid (near t = 0 the
# step in t is about the same), so a model stated in a longer unit, with slower
# rates, takes the same levels.  The finest level, ceil(S max(1, |mu_pert|) /
# _FRAME_H0) * 2**_FRAME_HALVINGS steps, is the same in a shorter unit, with
# faster rates.  At cutoff 10 and T = 30, a weight of 3.04 (0.04 above the root
# 3) with eps = 8e-3, mu_pert = -2 and seed 1 needs 2048 steps: its levels 16,
# 32, 128, 512 and 2048 end on an estimate of 6.0e-10, where a finest level of
# 640 steps (5 * 2**7) left 1.1e-7 and 1280 (5 * 2**8) left 4.0e-9.  A level
# is accepted once its estimate is _FRAME_ACCEPT * _FRAME_TOL: on the
# first pair of levels (17 and 34 steps at cutoff 2.5) the H^4 law's next term
# left an estimate of 9.85e-10 2% under the error against a march at four times
# the steps; over 400 random draws the accepted errors stayed below 7.8e-10.
_FRAME_TOL = 1e-9
_FRAME_ACCEPT = 0.8
_FRAME_H0 = 0.5
_FRAME_HALVINGS = 9
# The march re-orthonormalizes its frame once spread * elapsed reaches this,
# so its columns grow apart by at most 1e4 between QRs.  Householder QR is
# backward stable: a QR after growth kappa rounds the span by about kappa u
# (Higham 2002), here 1e4 * 1.1e-16 ~ 2e-12, more than two orders below
# _FRAME_ACCEPT * _FRAME_TOL.  The march is linear, so a QR changes the
# frame's basis, never its span.
_FRAME_QR_LOG_GROWTH = math.log(1e4)


def _frame_length(t_final: float, mu_pert: float) -> float:
    """Length S = (1 - e^{-a T}) / a of [0, T] in the graded variable s of
    _frame_grid, a = -mu_pert / 5; S = T where a underflows to 0."""
    a = -mu_pert / 5.0
    return float(-np.expm1(-a * t_final) / a) if a else float(t_final)


def _frame_grid(t_final: float, mu_pert: float, n: int) -> np.ndarray:
    """n + 1 nodes on [0, t_final], uniform in s = (1 - e^{-a t}) / a with
    a = -mu_pert / 5, so t = -log1p(-a s) / a.

    The step grows like e^{a t}.  RK4's local error for the coupling
    c(t) = eps e^{mu_pert t} scales like c(t) H^5, so it is spread evenly over
    the steps.  The ends are set exactly: the last node would take log1p(-1)
    once e^{-a T} underflows.  Where a underflows to 0, t = s."""
    a = -mu_pert / 5.0
    s = _frame_length(t_final, mu_pert) / n * np.arange(1, n)
    t = np.empty(n + 1)
    t[0], t[1:-1], t[-1] = 0.0, -np.log1p(-a * s) / a if a else s, t_final
    return t


def _lawson_march(z: np.ndarray, lams: np.ndarray, g: np.ndarray, pert: Perturbation,
                  tgrid: np.ndarray, spread: float) -> tuple[np.ndarray, int]:
    """March z from t = tgrid[-1] back to t = 0 in Lawson RK4 steps between
    the nodes of tgrid for z' = (diag(lams) + c(t) g) z with
    c(t) = eps e^{mu_pert t}; return an orthonormal frame of the result and
    the number of QRs taken.

    On each step H, e^{-lams H/2} and e^{-lams H} act exactly, as row
    scalings, and RK4 steps only the coupling c(t) g:

        k1 = c(t) g z,                k2 = c(t - H/2) g E (z - H/2 k1),
        k3 = c(t - H/2) g (E z - H/2 k2),   k4 = c(t - H) g (E^2 z - H E k3),
        z <- E^2 z - H/6 (E^2 k1 + 2 E (k2 + k3) + k4),     E = e^{-lams H/2}.

    The c(t) factors and H are folded into per-step row scalings, computed
    for all steps at once, and the step runs in place on fixed buffers.  The
    frame is re-orthonormalized whenever spread * (time elapsed since the
    last QR) reaches _FRAME_QR_LOG_GROWTH = ln 1e4, spread being the
    eigenvalue spread of the marched columns, and at the end.  Between QRs
    the columns then grow apart by at most 1e4, so each QR rounds the span
    by about 1e4 u ~ 2e-12 (u the unit round-off), far below the level
    tolerance.  spread = inf takes a QR after every step."""
    hs = np.diff(tgrid)
    with np.errstate(over="ignore"):   # mu_pert t at -inf: the coupling e^{mu_pert t} is 0
        c = pert.eps * np.exp(pert.mu_pert * tgrid)
        cmid = pert.eps * np.exp(pert.mu_pert * (0.5 * (tgrid[:-1] + tgrid[1:])))
    # one row per step: E, E^2 and, with y1 ... y4 the step's four products
    # by g, the factors that give -H/2 E k1 = e_k1 y1, -H/2 k2 = h_k2 y2,
    # -H E k3 = e_k3 y3 and the update's terms e2_k1 y1, e_k23 (y2 + y3), h_k4 y4
    half = np.exp(-0.5 * hs[:, None] * lams)
    full = np.exp(-hs[:, None] * lams)
    e_k1 = -(0.5 * hs * c[1:])[:, None] * half
    h_k2 = -0.5 * hs * cmid
    e_k3 = -(hs * cmid)[:, None] * half
    e2_k1 = -(hs / 6.0 * c[1:])[:, None] * full
    e_k23 = -(hs / 3.0 * cmid)[:, None] * half
    h_k4 = -hs / 6.0 * c[:-1]
    z = z.copy()
    ez, arg, znew, y1, y2, y3 = (np.empty_like(z) for _ in range(6))
    elapsed, qrs = 0.0, 0
    for k in range(hs.size - 1, -1, -1):
        e, e2 = half[k, :, None], full[k, :, None]
        np.multiply(e, z, out=ez)
        np.matmul(g, z, out=y1)
        np.multiply(e_k1[k, :, None], y1, out=arg)
        arg += ez
        np.matmul(g, arg, out=y2)
        np.multiply(h_k2[k], y2, out=arg)
        arg += ez
        np.matmul(g, arg, out=y3)
        np.multiply(e2, z, out=znew)
        np.multiply(e_k3[k, :, None], y3, out=arg)
        arg += znew
        y1 *= e2_k1[k, :, None]
        znew += y1
        y2 += y3
        y2 *= e_k23[k, :, None]
        znew += y2
        np.matmul(g, arg, out=y3)
        y3 *= h_k4[k]
        znew += y3
        z, znew = znew, z
        elapsed += hs[k]
        if spread * elapsed >= _FRAME_QR_LOG_GROWTH:
            z, _ = np.linalg.qr(z)
            elapsed, qrs = 0.0, qrs + 1
    z, _ = np.linalg.qr(z)
    return z, qrs + 1


def _march_frame(op: CylinderOperator, cols: np.ndarray) -> FrameMarch:
    """Orthonormal frame at t = 0 of the solutions that start at t = T on the
    mode columns cols, marched backward by a Lawson (integrating-factor) RK4
    on a grid graded to the coupling's decay, as a FrameMarch with its levels'
    step counts, the final estimate and the QRs over all levels (the mode
    frame itself, no levels, 0.0 and 0 when eps = 0).

    Each level is a Lawson march on the graded grid of ``_frame_grid``, whose
    length in s is S.  The first level takes N0 = ceil(S * max(min(1,
    |mu_pert|) / _FRAME_H0, spread)) steps, at least 1 (spread = max lams -
    min lams, so the coupling's phases e^{(lam_i - lam_j) t} are resolved and
    the H^4 law holds), and the second 2 N0.  A level of m steps is verified
    against the one before it, of n steps: the estimate of its error is the
    largest principal-angle sine between the two frames over the Richardson
    factor (m/n)^4 - 1 (15 for m = 2n).  At most _FRAME_ACCEPT * _FRAME_TOL,
    the finer frame is returned.  Above it, the next level is the one the H^4
    law predicts for _FRAME_TOL / 2, m (2 estimate / _FRAME_TOL)^{1/4} steps,
    clamped to [m + 1, min(4 m, N_max)].  With N_max = ceil(S max(1,
    |mu_pert|) / _FRAME_H0) * 2**_FRAME_HALVINGS steps marched and the
    estimate still above _FRAME_ACCEPT * _FRAME_TOL, ConvergenceFailure is
    raised.  A level whose dim x (steps + 1) is above MAX_GRID_VALUES raises
    ConfigError before its grid is formed."""
    z = np.zeros((op.dim, cols.size))
    z[cols, np.arange(cols.size)] = 1.0
    pert = op.perturbation
    if pert is None:
        return FrameMarch(z, (), 0.0, 0)   # for eps = 0 the subspace is invariant
    lams = op.base.eigenvalues
    g = op.base.jmat @ pert.coupling
    length = _frame_length(op.t_final, pert.mu_pert)
    decay = abs(pert.mu_pert)
    n_max = int(np.ceil(length * max(1.0, decay) / _FRAME_H0)) * 2 ** _FRAME_HALVINGS
    rate = min(1.0, decay) / _FRAME_H0
    n = max(1, min(int(np.ceil(length * max(rate, float(np.ptp(lams))))), n_max // 2))
    spread = float(np.ptp(lams[cols])) if cols.size else 0.0

    def grid(steps: int) -> np.ndarray:
        _check_grid_size(op.dim, steps + 1, "a perturbed frame level's grid")
        return _frame_grid(op.t_final, pert.mu_pert, steps)

    coarse, qrs = _lawson_march(z, lams, g, pert, grid(n), spread)
    levels, m = [n], 2 * n
    while True:
        fine, q = _lawson_march(z, lams, g, pert, grid(m), spread)
        qrs += q
        angle = float(np.linalg.norm(fine - coarse @ (coarse.T @ fine), 2))
        estimate = angle / ((m / n) ** 4 - 1.0)
        levels.append(m)
        n, coarse = m, fine
        if estimate <= _FRAME_ACCEPT * _FRAME_TOL:
            return FrameMarch(fine, tuple(levels), estimate, qrs)
        if n >= n_max:
            raise ConvergenceFailure(
                f"perturbed frame estimate {estimate:.3e} at {n} steps, the finest level, "
                f"is above {_FRAME_ACCEPT * _FRAME_TOL:.0e}")
        # the H^4 law aimed at half the tolerance; a zero tolerance or a NaN
        # estimate takes the largest step up
        grow = (2.0 * estimate / _FRAME_TOL) ** 0.25 if _FRAME_TOL > 0 else np.inf
        top = min(4 * n, n_max)
        m = min(max(n + 1, int(np.ceil(n * grow))), top) if grow < 4.0 else top


def perturbed_kernel_count(op: CylinderOperator, weight: float, boundary_set) -> KernelCount:
    """Dimension of weighted-decaying solutions of the (possibly perturbed)
    cylinder equation vanishing on the boundary index set at t = 0.

    The admissible far-end subspace (modes with lam_j < weight) is marched
    backward to t = 0 by the Lawson RK4 march of ``_march_frame``.  Its
    steps grow like e^{-mu_pert t / 5}; their number is predicted from the
    H^4 error law and verified on a pair of levels, until the frame's
    principal-angle estimate is at most 8e-10 (ConvergenceFailure otherwise);
    the grid step h plays no part.  The count is (subspace dim) - rank(rows of
    the boundary set, each index once), with singular values judged against
    1e-6 * sigma_max.
    For eps = 0 this reduces to #{j not in S : lam_j < weight}.  The result
    carries the perturbation and the FrameMarch (None if p = 0 or S = {}).
    """
    gap = op.check_weight(weight)
    s_idx = list(boundary_set)
    if not all(isinstance(i, numbers.Integral) and not isinstance(i, bool) for i in s_idx):
        raise InputError(f"boundary set entries must be integers, got {s_idx}")
    s_idx = sorted(set(map(int, s_idx)))
    if s_idx and (s_idx[0] < 0 or s_idx[-1] >= op.dim):   # before an index can overflow int64
        raise InputError("boundary set indices out of range")
    s_idx = np.asarray(s_idx, dtype=int)
    lams = op.base.eigenvalues
    cols = np.flatnonzero(lams < weight)
    p = int(cols.size)

    pert = op.perturbation
    if pert is not None and pert.eps >= 0.5 * gap:
        raise PerturbationTooLarge(
            f"eps = {pert.eps:.3g} is not small against the weight gap {gap:.3g}")

    rank, svals, march = 0, np.zeros(0), None
    if p and s_idx.size:
        march = _march_frame(op, cols)
        block = march.frame[s_idx, :]
        svals = np.linalg.svd(block, compute_uv=False)
        smax = float(svals.max(initial=0.0))
        if smax > 0.0:
            thr = 1e-6 * smax
            kept = svals[svals >= thr]
            rank = int(kept.size)
            if kept.size and float(kept.min()) < 10.0 * thr:
                raise IllConditionedMatching(
                    f"smallest kept singular value {kept.min():.3e} is within 10x of "
                    f"the rank threshold {thr:.3e}")
    return KernelCount(p - rank, p, svals, tuple(s_idx.tolist()), float(weight), pert, march)
