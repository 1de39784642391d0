"""Finite-dimensional Dirac models: a mass inner product M, an operator D that
is M-self-adjoint, and a compatible complex structure J with

    J^2 = -1,   J^T M J = M,   D J = -J D.

All spectral content downstream lives in the M-self-adjoint composite A = J D.
Every model stores D as CSR and states the eigenpairs of A, with J in that
basis, from its own construction: no dense eigensolve of A is needed.

Two constructions are provided.  The torus model acts on a truncated real
Fourier basis tensored with R^4, with D = I1 d/dtheta + I2 d/ds for the
quaternionic left multiplications I1, I2 and J = I3 = I1 I2; it satisfies
D^2 = (scalar Laplacian) x Id_4 exactly, and its eigenbasis is in closed
form.  The block model acts on
(vertex functions) + (face functions) + (edge cochains) of a DEC complex,
realizing the operator

        [ 0    0    d* ]
    D = [ 0    0    *d ]
        [ d   -*d   0  ]

with d* and *d the mass adjoints; D^2 equals the direct sum of the primal
0-form, dual 0-form and 1-form Laplacians exactly, by d o d = 0 alone.  On
self-dual quad-grid tori the dual 0-form Laplacian is entrywise the primal
one, so D^2 = L0 + L0 + L1 holds verbatim there.  J is a table of pairs
(x, y) with J x = -y and J y = x: vertex functions with exact cochains, face
functions with coexact cochains, and the two constants with each other; on
harmonic cochains it is a polar-corrected quarter-turn.  So J joins vertex
and face functions only through the constants (a rank-1 block).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .dec import CochainComplex, laplacian0, laplacian0_dual, laplacian1, mass_eigh
from .errors import ConfigError, ConvergenceFailure
from .lattice import TWO_PI, FlatTorus, _reduced_basis, dual_lattice_points

# quaternion left multiplications by i, j, k on R^4 with basis (1, i, j, k)
I1 = np.array([[0., -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
I2 = np.array([[0., 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
I3 = I1 @ I2


@dataclass(frozen=True)
class Eigenbasis:
    """Eigenpairs of A = J D that every model states from its own construction:
    ascending ``values``, M-orthonormal ``vectors`` as aligned columns, and
    ``jmat``, J expressed in that basis (V^T M J V, never formed as such)."""
    values: np.ndarray    # (n,)
    vectors: np.ndarray   # (n, n)
    jmat: np.ndarray      # (n, n)


@dataclass(frozen=True)
class DiracModel:
    label: str
    mass: np.ndarray                # (n,) positive diagonal
    dirac: sparse.csr_matrix        # (n, n)
    complex_structure: np.ndarray   # (n, n)
    completeness_radius: float
    area: float | None = None
    meta: dict = field(default_factory=dict)
    eigenbasis: Eigenbasis | None = None   # both builders set it

    @property
    def dim(self) -> int:
        return self.dirac.shape[0]

    def composite(self) -> np.ndarray:
        """A = J D, the M-self-adjoint operator carrying the spectral data."""
        return self.complex_structure @ self.dirac


@dataclass(frozen=True)
class ModelDiagnostics:
    residuals: dict
    passed: bool

    def __str__(self):
        lines = [f"  {k:<22s} {v:.3e}" for k, v in self.residuals.items()]
        lines.append(f"  passed: {self.passed}")
        return "\n".join(lines)


# max-norm tolerance of each model axiom
_AXIOM_TOL = {"selfadjoint": 1e-10, "j_square": 1e-12,
              "j_orthogonal": 1e-10, "anticommute": 1e-10}


def check_model(model: DiracModel) -> ModelDiagnostics:
    """Max-norm residuals of the model axioms with pass/fail at _AXIOM_TOL.

    ``selfadjoint`` is exact: max |M D - (M D)^T| over the sparse product.
    The three J axioms are checked on the fixed probe block
    X = default_rng(0).standard_normal((dim, 8)) (Freivalds' check), so each
    costs dim^2 * 8 rather than dim^3:

        j_square      max |J (J X) + X|
        j_orthogonal  max |J^T (M J X) - M X|
        anticommute   max |D (J X) + J (D X)|,  D as stored (CSR)
    """
    m = model.mass[:, None]
    j = model.complex_structure
    md = sparse.diags(model.mass) @ model.dirac
    x = np.random.default_rng(0).standard_normal((model.dim, 8))
    jx = j @ x
    res = {
        "selfadjoint": float(abs(md - md.T).max()),
        "j_square": float(np.abs(j @ jx + x).max()),
        "j_orthogonal": float(np.abs(j.T @ (m * jx) - m * x).max()),
        "anticommute": float(np.abs(model.dirac @ jx + j @ (model.dirac @ x)).max()),
    }
    return ModelDiagnostics(res, all(res[k] <= t for k, t in _AXIOM_TOL.items()))


# ---------------------------------------------------------------------------
# torus model

# largest torus model dim build_torus_model accepts: its eigenbasis, J and the
# spectrum downstream are dense dim x dim, 128 MB each at this size
MAX_TORUS_DIM = 4096


def _check_torus_dim(dim: float, cutoff: float, about: str = ""):
    if dim > MAX_TORUS_DIM:
        raise ConfigError(f"cutoff {cutoff:g} gives a torus model of dim {about}{dim:.6g}, "
                          f"above the limit {MAX_TORUS_DIM}")


def build_torus_model(torus: FlatTorus, cutoff: float) -> DiracModel:
    """Quaternionic model on a flat torus, truncated to modes |k|^2 <= cutoff.

    Basis layout: 4 components for the constant mode, then per antipodal mode
    pair an 8-dim block (cos x R^4, sin x R^4) on which D = [[0, K], [-K, 0]]
    with K = k1 I1 + k2 I2; J = I3 on every 4-block.  The eigenbasis of A = J D
    is e_a / sqrt(area) at 0 and per pair, with S = I3 K / |k| orthogonal and
    skew, (e_a, -+S e_a) / sqrt(area) at +-|k|; there J is the signed
    permutation I3 on the kernel and [[0, I3], [I3, 0]] on every pair.
    """
    # dim is 4 x (dual lattice points with |k|^2 <= cutoff), about
    # 4 pi cutoff / covolume before any point is enumerated; a long thin
    # lattice holds more points than that, so the count is checked again
    _check_torus_dim(4.0 * np.pi * cutoff * torus.area / TWO_PI**2, cutoff, "about ")
    if cutoff > 0:   # dual_lattice_points rejects the other cutoffs
        # the multiples of the shortest reduced vector b1 in the ball give
        # dim >= 4 + 8 floor(sqrt(cutoff) / |b1|).  Past the check above, a
        # line that alone passes the limit holds the whole ball (the next
        # line lies (pi/2) sqrt(cutoff) away or more), so this is the exact
        # dim, found before any point is enumerated
        b1 = _reduced_basis(torus.dual_basis)[0]
        _check_torus_dim(4 + 8 * np.floor(np.sqrt(cutoff / (b1 @ b1))), cutoff)
    modes = dual_lattice_points(torus, cutoff)   # first row is k = 0
    npairs = modes.shape[0] - 1
    _check_torus_dim(4 + 8 * npairs, cutoff)
    area = torus.area

    eye, zero = np.eye(4), np.zeros((4, 4))
    kmats = [k[0] * I1 + k[1] * I2 for k in modes[1:]]
    norms = np.hypot(modes[1:, 0], modes[1:, 1])
    smats = [I3 @ kmat / nk for kmat, nk in zip(kmats, norms)]
    d = sparse.block_diag([zero] + [np.block([[zero, kmat], [-kmat, zero]]) for kmat in kmats],
                          format="csr")
    d.eliminate_zeros()
    mass = np.concatenate([np.full(4, area), np.full(8 * npairs, 0.5 * area)])

    # per pair: the columns at +|k|, then those at -|k|
    values = np.concatenate([np.zeros(4), np.repeat(np.stack([norms, -norms], axis=1), 4)])
    vectors = sparse.block_diag([eye] + [np.block([[eye, eye], [-s, s]]) for s in smats])
    swap = np.kron([[0.0, 1.0], [1.0, 0.0]], I3)
    jeig = sparse.block_diag([I3] + [swap] * npairs).toarray()
    order = np.argsort(values, kind="stable")
    basis = Eigenbasis(values[order], vectors.toarray()[:, order] / np.sqrt(area),
                       jeig[np.ix_(order, order)])

    return DiracModel("torus", mass, d, np.kron(np.eye(1 + 2 * npairs), I3),
                      completeness_radius=float(np.sqrt(cutoff)), area=area,
                      meta={"modes": modes, "cutoff": float(cutoff)}, eigenbasis=basis)


# ---------------------------------------------------------------------------
# block model on a DEC complex

def _face_cycle_rotation(cc: CochainComplex) -> sparse.csr_matrix:
    """Combinatorial quarter-turn candidate on 1-cochains: within every face,
    each directed boundary side feeds the next one along the cycle.  Faces
    whose boundary passes a vertex twice contribute nothing.  Only its
    compression to the harmonic subspace is used; polar correction makes that
    an exact anti-involution."""
    n0, n1 = cc.n0, cc.n1
    d0, d1 = cc.d0.tocoo(), cc.d1.tocoo()
    ends = np.zeros((2, n1), dtype=int)                 # tail, head of every edge
    ends[(d0.data > 0).astype(int), d0.row] = d0.col
    face, edge, sense = d1.row.astype(np.int64), d1.col, d1.data
    forward = (sense > 0).astype(int)
    start = face * n0 + ends[1 - forward, edge]          # (face, first vertex) of each side
    starts, first, count = np.unique(start, return_index=True, return_counts=True)
    ok = ~np.isin(face, face[first[count > 1]])
    nxt = first[np.minimum(np.searchsorted(starts, face * n0 + ends[forward, edge]),
                           starts.size - 1)]
    return sparse.csr_matrix((0.25 * sense[ok] * sense[nxt[ok]], (edge[nxt[ok]], edge[ok])),
                             shape=(n1, n1))


def _harmonic_complex_structure(harm: np.ndarray, mass1: np.ndarray,
                                cc: CochainComplex) -> tuple[np.ndarray, float]:
    """M-orthogonal anti-involution on the harmonic space, as the polar
    correction of the compressed quarter-turn candidate; returns (J_H in
    harmonic coordinates, correction magnitude)."""
    dim = harm.shape[1]
    if dim == 0:
        return np.zeros((0, 0)), 0.0
    cand = harm.T @ (mass1[:, None] * (_face_cycle_rotation(cc) @ harm))
    skew = 0.5 * (cand - cand.T)
    u, sv, vt = np.linalg.svd(skew)
    if sv.min() <= 1e-8 * max(sv.max(), 1e-30):
        # candidate degenerate on this mesh: fall back to pairing consecutive
        # basis vectors, still an exact M-orthogonal anti-involution
        jh = np.zeros((dim, dim))
        for a in range(0, dim - 1, 2):
            jh[a, a + 1] = -1.0
            jh[a + 1, a] = 1.0
        return jh, float(np.abs(cand - jh).max())
    jh = u @ vt   # orthogonal polar factor of a skew matrix: orthogonal and skew
    jh = 0.5 * (jh - jh.T)
    return jh, float(np.abs(cand - jh).max())


def _grid_harmonics(cc: CochainComplex) -> np.ndarray:
    """Constant horizontal / vertical cochains of a quad-grid torus (exactly harmonic)."""
    n, m = cc.meta["shape"]
    nm = n * m
    h = np.zeros((cc.n1, 2))
    h[:nm, 0] = 1.0
    h[nm:, 1] = 1.0
    return h


def _harmonic_basis(cc: CochainComplex) -> np.ndarray:
    """M1-orthonormal basis of harmonic 1-cochains."""
    if cc.meta.get("kind") == "quad-grid-torus":
        h = _grid_harmonics(cc)
    else:
        lap1 = laplacian1(cc)
        stiff = (sparse.diags(cc.star1) @ lap1.matrix).toarray()
        stiff = 0.5 * (stiff + stiff.T)
        vals, vecs = mass_eigh(stiff, cc.star1)
        twog = 2 * cc.genus
        h = vecs[:, :twog]
        gap = vals[twog] if stiff.shape[0] > twog else np.inf
        if twog > 0 and vals[twog - 1] > 1e-8 * max(gap, 1e-30):
            raise ConvergenceFailure("harmonic subspace is not numerically separated")
    # M1-orthonormalize
    g = h.T @ (cc.star1[:, None] * h)
    low = np.linalg.cholesky(g)
    return h @ np.linalg.inv(low).T


def _coo(pattern: sparse.coo_matrix, data: np.ndarray) -> sparse.coo_matrix:
    """The sparsity pattern of ``pattern`` carrying ``data`` in its entry order."""
    return sparse.coo_matrix((data, (pattern.row, pattern.col)), shape=pattern.shape)


def build_sl_model(cc: CochainComplex) -> DiracModel:
    """Block Dirac model on (vertex functions) + (face functions) + (1-cochains).

    D is assembled from d0, d1 and the mass operators; D^2 equals the direct
    sum of the primal 0-form, dual 0-form and 1-form Laplacians exactly.  The
    kernel has dimension 1 + 1 + 2*genus.

    The Laplacian eigenpairs diagonalise A = J D, carried as the model's
    ``eigenbasis``: +sqrt(mu) on vertex functions (v, 0, 0) and -sqrt(mu) on
    exact cochains (0, 0, e), e = d0 v / sqrt(mu); likewise +-sqrt(nu) on face
    functions (0, w, 0) and coexact cochains (0, 0, c); 0 on the kernel.
    J is stated once, as a table of pairs (x, y) with J x = -y and J y = x:
    vertex functions with exact cochains, face functions with coexact
    cochains, and the two constants kf, kg.  The table fills the eigenbasis
    vectors, J in that basis, and J's cochain blocks x (M y)^T and -y (M x)^T.
    Harmonic cochains carry the polar-corrected quarter-turn -J_H.
    """
    n0, n1, n2 = cc.n0, cc.n1, cc.n2
    m0, m1 = cc.star0, cc.star1
    m2d = 1.0 / cc.star2                       # mass of face functions
    dim = n0 + n2 + n1
    s0, s1, s2 = slice(0, n0), slice(n0, n0 + n2), slice(n0 + n2, dim)

    d0c, d1c = cc.d0.tocoo(), cc.d1.tocoo()
    delta = _coo(d0c.T, d0c.data * m1[d0c.row] / m0[d0c.col])   # M0^{-1} d0^T M1
    t_up = _coo(d1c, d1c.data * cc.star2[d1c.row])                # star2 d1
    t_up_adj = _coo(d1c.T, d1c.data / m1[d1c.col])                # M1^{-1} d1^T
    d = sparse.bmat([[None, None, delta], [None, None, t_up],
                     [cc.d0, t_up_adj, None]], format="csr", dtype=float)
    mass = np.concatenate([m0, m2d, m1])

    d0 = cc.d0.toarray().astype(float)
    d1 = cc.d1.toarray().astype(float)

    # spectral data of the two function Laplacians
    vals0, vecs0 = mass_eigh((d0.T * m1[None, :]) @ d0, m0)
    vals2, vecs2 = mass_eigh((d1 / m1[None, :]) @ d1.T, m2d)
    tol0 = 1e-8 * max(vals0.max(), 1.0)
    tol2 = 1e-8 * max(vals2.max(), 1.0)
    if np.count_nonzero(vals0 < tol0) != 1 or np.count_nonzero(vals2 < tol2) != 1:
        raise ConvergenceFailure("complex is not connected (multi-dimensional constants)")

    area = float(m0.sum())
    kf = np.full((n0, 1), 1.0 / np.sqrt(area))
    kg = np.full((n2, 1), 1.0 / np.sqrt(float(m2d.sum())))

    harm = _harmonic_basis(cc)
    jh, jh_correction = _harmonic_complex_structure(harm, m1, cc)

    # eigenvectors of A = J D:  v, e = d0 v / sqrt(mu); w, c = M1^-1 d1^T w / sqrt(nu)
    mu = vals0[1:]
    v0 = vecs0[:, 1:]
    e_vec = (d0 @ v0) / np.sqrt(mu)[None, :]
    nu = vals2[1:]
    w0 = vecs2[:, 1:]
    c_vec = (d1.T @ w0) / m1[:, None] / np.sqrt(nu)[None, :]

    # eigenbasis of A in ascending order; pos[i] is the sorted column of entry i
    root_mu, root_nu = np.sqrt(mu), np.sqrt(nu)
    values = np.concatenate([root_mu, -root_mu, root_nu, -root_nu,
                             np.zeros(2 + harm.shape[1])])
    order = np.argsort(values, kind="stable")
    pos = np.empty(dim, dtype=int)
    pos[order] = np.arange(dim)
    p_v, p_e, p_w, p_c, p_k = np.split(pos, np.cumsum([mu.size, mu.size, nu.size, nu.size]))

    # J pairs x with y, J x = -y and J y = x; per pair: the blocks and masses
    # of x and y, their columns and their sorted positions in the eigenbasis
    pairs = ((s0, m0, v0, p_v, s2, m1, e_vec, p_e),           # vertex / exact
             (s1, m2d, w0, p_w, s2, m1, c_vec, p_c),          # face / coexact
             (s0, m0, kf, p_k[:1], s1, m2d, kg, p_k[1:2]))    # the constants
    vectors = np.zeros((dim, dim))
    jeig = np.zeros((dim, dim))
    jmat = np.zeros((dim, dim))
    for sx, mx, x, px, sy, my, y, py in pairs:
        vectors[sx, px] = x
        vectors[sy, py] = y
        jeig[py, px] = -1.0
        jeig[px, py] = 1.0
        jmat[sx, sy] = x @ (my[:, None] * y).T
        jmat[sy, sx] = -y @ (mx[:, None] * x).T
    # harmonic cochains: -J_H in the eigenbasis, -harm J_H harm^T M1 on cochains
    vectors[s2, p_k[2:]] = harm
    jeig[np.ix_(p_k[2:], p_k[2:])] = -jh
    jmat[s2, s2] = -harm @ jh @ (m1[:, None] * harm).T

    radius = float(np.sqrt(max(vals0.max(), vals2.max())))
    return DiracModel("sl-block", mass, d, jmat, completeness_radius=radius, area=area,
                      meta={"harmonic_correction": jh_correction},
                      eigenbasis=Eigenbasis(values[order], vectors, jeig))


def sl_laplacian_blocks(cc: CochainComplex) -> sparse.csr_matrix:
    """Direct sum L0 + L0_dual + L1 (CSR); the exact square of the block model."""
    return sparse.block_diag([laplacian0(cc).matrix, laplacian0_dual(cc).matrix,
                              laplacian1(cc).matrix], format="csr")

