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
and face functions only through the constants (a rank-1 block).  With
N0 = L0^{-1/2} and N2 = L0_dual^{-1/2} on the non-constant functions, the
pair table says J = N D from the cochains to the functions and J = -D N
back:

    J[s0, s2] = N0 delta,   J[s1, s2] = N2 t_up,
    J[s2, s0] = -d0 N0,     J[s2, s1] = -t_up_adj N2,

where delta, t_up, d0 and t_up_adj are the blocks of D.  The block model
stores J as these factors (a BlockOperator, never a dense dim x dim array);
the torus model's J = Id x I3 is a BlockOperator of one term over a CSR
factor.  Every eigenvector of the block model lives on one row slice
(vertex, face or cochain rows), so its eigenbasis is stored as three column
blocks.  Each model states J in its eigenbasis once, as CSR: a signed
permutation on the torus, and the pair table plus the harmonic block on
the block model.  On quad-grid tori the
Laplacian eigenpairs are in closed form, the real-Fourier diagonalisation
of the circulant L0 (Strang, SIAM Review 41, 1999); other complexes solve
for them densely, one solve per function Laplacian; the harmonic cochains
are the complement of the exact and coexact ones, with no solve of L1.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .dec import CochainComplex, laplacian0, laplacian0_dual, laplacian1, mass_eigh
from .errors import ConfigError
from .lattice import TWO_PI, FlatTorus, _reduced_basis, dual_lattice_points

# quaternion left multiplications by i, j, k on R^4 with basis (1, i, j, k)
I1 = np.array([[0., -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
I2 = np.array([[0., 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
I3 = I1 @ I2


@dataclass(frozen=True)
class Eigenbasis:
    """Eigenpairs of A = J D that every model states from its own construction.

    ``values`` ascend.  The M-orthonormal eigenvectors are column blocks
    (rows, cols, block): ``block`` holds the eigenvectors at the sorted
    positions ``cols``, each supported on the row slice ``rows`` alone.
    ``jmat`` is J in that basis (V^T M J V, never formed as such), as CSR.
    """
    values: np.ndarray   # (n,)
    blocks: tuple        # ((rows: slice, cols: (k,) int array, block: (rows, k) array), ...)
    jmat: sparse.csr_matrix   # (n, n)

    @property
    def dim(self) -> int:
        return int(self.values.size)

    def columns(self, start: int, stop: int) -> np.ndarray:
        """The eigenvectors at the sorted positions [start, stop) as dense columns."""
        out = np.zeros((self.dim, stop - start))
        for rows, cols, block in self.blocks:
            keep = (cols >= start) & (cols < stop)
            out[rows, cols[keep] - start] = block[:, keep]
        return out


@dataclass(frozen=True)
class BlockOperator:
    """A square operator stated as a sum of block products: every term
    (rows, cols, factors) adds factors[0] @ ... @ factors[-1] @ x[cols] to
    the rows of the output.  Factors are dense arrays or sparse matrices.
    The transpose swaps rows and cols and transposes the factors in reverse
    order, so it comes from the same factors, never from an identity such
    as J^T = -M J M^{-1} that the model axioms would then hold by fiat.
    ``apply_pieces`` is the one term loop: it runs the terms that read an
    operand living on some of the column slices; ``@`` runs it on every
    column slice, adding into row views of a zero output."""
    dim: int
    terms: tuple   # ((rows: slice, cols: slice, factors: tuple), ...)

    @property
    def T(self) -> "BlockOperator":
        return BlockOperator(self.dim, tuple((cols, rows, tuple(f.T for f in reversed(factors)))
                                             for rows, cols, factors in self.terms))

    @property
    def column_slices(self) -> list:
        """The distinct column slices of the terms, in term order."""
        slices = []
        for _, cols, _ in self.terms:
            if cols not in slices:
                slices.append(cols)
        return slices

    def apply_pieces(self, pieces: list, out=()) -> list:
        """The operator applied to an operand that is zero outside its row
        pieces [(rows, block), ...], each rows one of the terms' column
        slices, as row pieces: in term order, each product is added in place
        into the piece (of ``out``, or made before) on its rows, or is one."""
        slices = self.column_slices
        if any(s not in slices for s, _ in pieces):
            raise ValueError("an operand piece off the operator's column slices")
        out = list(out)
        for rows, cols, factors in self.terms:
            y = next((block for s, block in pieces if s == cols), None)
            if y is None:
                continue
            for f in reversed(factors):
                y = f @ y
            acc = next((block for s, block in out if s == rows), None)
            if acc is None:
                out.append((rows, y))
            else:
                acc += y
            del y   # a product added in place is freed before the next is formed
        return out

    def __matmul__(self, x):
        """The operator applied to a vector (dim,) or to columns (dim, k)."""
        x = np.asarray(x, dtype=float)
        if x.shape[:1] != (self.dim,):
            raise ValueError(f"operand of shape {x.shape} for an operator of dim {self.dim}")
        out = np.zeros(x.shape)
        self.apply_pieces([(cols, x[cols]) for cols in self.column_slices],
                          [(rows, out[rows]) for rows, _, _ in self.terms])
        return out

    def toarray(self) -> np.ndarray:
        return self @ np.eye(self.dim)


@dataclass(frozen=True)
class DiracModel:
    label: str
    mass: np.ndarray                # (n,) positive diagonal
    dirac: sparse.csr_matrix        # (n, n)
    complex_structure: BlockOperator   # (n, n)
    completeness_radius: float
    area: float
    eigenbasis: Eigenbasis
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.dirac.shape[0]

    def composite(self) -> np.ndarray:
        """A = J D as a dense array, the M-self-adjoint operator carrying the
        spectral data."""
        return self.complex_structure.toarray() @ self.dirac


@dataclass(frozen=True)
class ModelDiagnostics:
    residuals: dict
    passed: bool


# max-norm tolerance of each model axiom
_AXIOM_TOL = {"selfadjoint": 1e-10, "j_square": 1e-12,
              "j_orthogonal": 1e-10, "anticommute": 1e-10}


def check_model(model: DiracModel) -> ModelDiagnostics:
    """Max-norm residuals of the model axioms with pass/fail at _AXIOM_TOL.

    ``selfadjoint`` is exact: max |M D - (M D)^T| over the sparse product.
    The three J axioms are checked on the fixed probe block
    X = default_rng(0).standard_normal((dim, 8)) (Freivalds' check), so each
    costs a few products of J with 8 columns (dim^2 * 8 for a dense J) rather
    than dim^3; J and J^T are applied as the model stores them:

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

# largest torus model dim build_torus_model accepts: its eigenbasis and the
# cylinder layer's coupling and grids are dense dim x dim, 128 MB each at
# this size (J and J in the eigenbasis are CSR)
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

    # per pair: the columns at +|k|, then those at -|k|; the eigenbasis is one
    # block over all rows
    values = np.concatenate([np.zeros(4), np.repeat(np.stack([norms, -norms], axis=1), 4)])
    vectors = sparse.block_diag([eye] + [np.block([[eye, eye], [-s, s]]) for s in smats])
    swap = np.kron([[0.0, 1.0], [1.0, 0.0]], I3)
    jeig = sparse.block_diag([I3] + [swap] * npairs, format="csr")
    dim = values.size
    whole = slice(0, dim)
    order = np.argsort(values, kind="stable")
    # the columns permuted while sparse, so the dense basis is one array
    dense = vectors.tocsc()[:, order].toarray()
    dense /= np.sqrt(area)
    basis = Eigenbasis(values[order], ((whole, np.arange(dim), dense),), jeig[order][:, order])
    j = sparse.kron(sparse.identity(1 + 2 * npairs), I3, format="csr")

    return DiracModel("torus", mass, d, BlockOperator(dim, ((whole, whole, (j,)),)),
                      completeness_radius=float(np.sqrt(cutoff)), area=area, eigenbasis=basis,
                      meta={"modes": modes, "cutoff": float(cutoff)})


# ---------------------------------------------------------------------------
# block model on a DEC complex

# largest block model dim build_sl_model accepts: the Laplacian eigenbases,
# N0 and N2 are dense; `spectrum --model sl --grid 32` (this dim) peaks at
# about 122 MB RSS with one BLAS thread
MAX_SL_DIM = 4096


def check_sl_dim(dim: int, about: str):
    """ConfigError when ``about`` (a complex, or a grid before it is built)
    gives a block model above MAX_SL_DIM."""
    if dim > MAX_SL_DIM:
        raise ConfigError(f"{about} gives a block model of dim {dim}, "
                          f"above the limit {MAX_SL_DIM}")


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
    harmonic coordinates, basis-independent correction ||cand - J_H||_2)."""
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
        return jh, float(np.linalg.norm(cand - jh, 2))
    jh = u @ vt   # orthogonal polar factor of a skew matrix: orthogonal and skew
    jh = 0.5 * (jh - jh.T)
    return jh, float(np.linalg.norm(cand - jh, 2))


def _grid_harmonics(cc: CochainComplex) -> np.ndarray:
    """Constant horizontal / vertical cochains of a quad-grid torus (exactly harmonic)."""
    n, m = cc.meta["shape"]
    nm = n * m
    h = np.zeros((cc.n1, 2))
    h[:nm, 0] = 1.0
    h[nm:, 1] = 1.0
    return h


def _harmonic_basis(cc: CochainComplex, exact: np.ndarray, coexact: np.ndarray) -> np.ndarray:
    """M1-orthonormal basis of harmonic 1-cochains: on a connected surface, the
    2*genus-dim M1-complement of the M1-orthonormal exact and coexact cochains
    (discrete Hodge decomposition).  Quad-grid tori take their constant
    cochains; other complexes project default_rng(0).standard_normal((n1,
    2*genus)) off both twice and M1-orthonormalize it twice (CholeskyQR2)."""
    m1 = cc.star1
    if cc.meta.get("kind") == "quad-grid-torus":
        h, passes = _grid_harmonics(cc), 1
    else:
        h, passes = np.random.default_rng(0).standard_normal((cc.n1, 2 * cc.genus)), 2
        for b in (exact, coexact, exact, coexact):
            h -= b @ (b.T @ (m1[:, None] * h))
    for _ in range(passes):
        h = h @ np.linalg.inv(np.linalg.cholesky(h.T @ (m1[:, None] * h))).T
    return h


def _coo(pattern: sparse.coo_matrix, data: np.ndarray) -> sparse.coo_matrix:
    """The sparsity pattern of ``pattern`` carrying ``data`` in its entry order."""
    return sparse.coo_matrix((data, (pattern.row, pattern.col)), shape=pattern.shape)


def _fourier_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal real-Fourier basis of R^n as columns k = 0 .. n-1,
    cos(2 pi k i / n) up to k = n/2 and sin(2 pi k i / n) beyond, and
    sin(pi p / n) for each column's frequency p = min(k, n - k)."""
    k = np.arange(n)
    angle = (np.outer(k, k) % n) * (TWO_PI / n)
    basis = np.where(k <= n // 2, np.cos(angle), np.sin(angle))
    basis *= np.where((k == 0) | (2 * k == n), np.sqrt(1.0 / n), np.sqrt(2.0 / n))
    return basis, np.sin(np.pi * np.minimum(k, n - k) / n)


def _grid_eigenpairs(cc: CochainComplex) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of L0 on a quad-grid torus in closed form, as mass_eigh
    returns them: the M0-orthonormal columns kron(Psi_m, Phi_n) / sqrt(dx dy)
    of the 1-D real-Fourier bases, at mu = 4/dx^2 sin^2(pi p/n) +
    4/dy^2 sin^2(pi q/m), in ascending order (stable sort)."""
    n, m = cc.meta["shape"]
    dx, dy = cc.meta["spacing"]
    phi, sx = _fourier_basis(n)
    psi, sy = _fourier_basis(m)
    vals = np.add.outer(4.0 / dy**2 * sy**2, 4.0 / dx**2 * sx**2).ravel()   # row q * n + p
    order = np.argsort(vals, kind="stable")
    vecs = np.kron(psi, phi)[:, order]
    vecs /= np.sqrt(dx * dy)
    return vals[order], vecs


def build_sl_model(cc: CochainComplex) -> DiracModel:
    """Block Dirac model on (vertex functions) + (face functions) + (1-cochains).

    D is assembled from d0, d1 and the mass operators; D^2 equals the direct
    sum of the primal 0-form, dual 0-form and 1-form Laplacians exactly.  The
    kernel has dimension 1 + 1 + 2*genus.

    The Laplacian eigenpairs diagonalise A = J D, carried as the model's
    ``eigenbasis``: +sqrt(mu) on vertex functions (v, 0, 0) and -sqrt(mu) on
    exact cochains (0, 0, e), e = d0 v / sqrt(mu); likewise +-sqrt(nu) on face
    functions (0, w, 0) and coexact cochains (0, 0, c); 0 on the kernel.  On
    quad-grid tori the eigenpairs are in closed form and the dual Laplacian
    is the primal one; elsewhere both come from mass_eigh (the only dense
    eigensolves).  A complex that is not connected raises ConfigError.
    J is stated once, as a table of pairs (x, y) with J x = -y and J y = x:
    vertex functions with exact cochains, face functions with coexact
    cochains, and the two constants kf, kg.  The eigenbasis keeps the
    eigenvectors as three column blocks, one per row slice ([kf v0] on the
    vertex rows, [kg w0] on the face rows, [e c harm] on the cochain rows;
    the first two written over the Laplacian eigenvectors, one array when
    they are bitwise equal, the third assembled in place), and J in that
    basis as one CSR: the table at its sorted positions plus the harmonic
    block -J_H.  J itself is the BlockOperator of the module
    docstring, N0 = V0 diag(mu^-1/2) V0^T M0 and N2 likewise over
    the non-constant eigenpairs (one array on a grid whose dual masses
    1/star2 equal star0 bitwise, as on square grids), with the rank-1
    constant blocks kf (M kg)^T and -kg (M kf)^T; harmonic cochains carry the polar-corrected
    quarter-turn -J_H, the rank-2g block -harm J_H harm^T M1.  A complex that
    gives a dim above MAX_SL_DIM raises ConfigError before any dense array
    is formed.
    """
    n0, n1, n2 = cc.n0, cc.n1, cc.n2
    dim = n0 + n2 + n1
    check_sl_dim(dim, f"a complex of {n0} vertices, {n1} edges and {n2} faces")
    m0, m1 = cc.star0, cc.star1
    m2d = 1.0 / cc.star2                       # mass of face functions
    s0, s1, s2 = slice(0, n0), slice(n0, n0 + n2), slice(n0 + n2, dim)

    d0, d0c, d1c = cc.d0, cc.d0.tocoo(), cc.d1.tocoo()
    delta = _coo(d0c.T, d0c.data * m1[d0c.row] / m0[d0c.col]).tocsr()   # M0^{-1} d0^T M1
    t_up = _coo(d1c, d1c.data * cc.star2[d1c.row]).tocsr()               # star2 d1
    t_up_adj = _coo(d1c.T, d1c.data / m1[d1c.col]).tocsr()               # M1^{-1} d1^T
    d = sparse.bmat([[None, None, delta], [None, None, t_up],
                     [d0, t_up_adj, None]], format="csr", dtype=float)
    mass = np.concatenate([m0, m2d, m1])

    # spectral data of the two function Laplacians
    if cc.meta.get("kind") == "quad-grid-torus":
        vals0, vecs0 = _grid_eigenpairs(cc)
        vals2, vecs2 = vals0, vecs0            # the self-dual grid: L0_dual is L0
    else:
        d0_dense = d0.toarray().astype(float)
        d1_dense = cc.d1.toarray().astype(float)
        vals0, vecs0 = mass_eigh((d0_dense.T * m1[None, :]) @ d0_dense, m0)
        vals2, vecs2 = mass_eigh((d1_dense / m1[None, :]) @ d1_dense.T, m2d)
    tol0 = 1e-8 * vals0.max()   # relative: the decision does not depend on the mesh's unit
    tol2 = 1e-8 * vals2.max()
    if np.count_nonzero(vals0 < tol0) != 1 or np.count_nonzero(vals2 < tol2) != 1:
        raise ConfigError("complex is not connected (multi-dimensional constants)")

    area = float(m0.sum())
    kf = np.full((n0, 1), 1.0 / np.sqrt(area))
    kg = np.full((n2, 1), 1.0 / np.sqrt(float(m2d.sum())))

    # the vertex and face blocks [kf v0] and [kg w0]: the exact constants
    # over column 0 of the eigenvectors themselves; one array on a grid whose
    # dual masses equal star0 bitwise
    if vecs2 is vecs0 and not np.array_equal(m2d, m0):
        vecs2 = vecs0.copy()
    vecs0[:, :1] = kf
    vecs2[:, :1] = kg

    # eigenvectors of A = J D:  v, e = d0 v / sqrt(mu); w, c = M1^-1 d1^T w / sqrt(nu),
    # written with the harmonic cochains into one cochain block [e c harm]
    root_mu, root_nu = np.sqrt(vals0[1:]), np.sqrt(vals2[1:])
    v0, w0 = vecs0[:, 1:], vecs2[:, 1:]
    cblock = np.empty((n1, n1))   # n0 - 1 + n2 - 1 + 2 genus columns
    e_vec = np.divide(d0 @ v0, root_mu[None, :], out=cblock[:, :n0 - 1])
    c_vec = np.divide(cc.d1.T @ w0, m1[:, None], out=cblock[:, n0 - 1:n0 + n2 - 2])
    c_vec /= root_nu[None, :]
    harm = _harmonic_basis(cc, e_vec, c_vec)
    cblock[:, n0 + n2 - 2:] = harm
    jh, jh_correction = _harmonic_complex_structure(harm, m1, cc)

    # eigenbasis of A in ascending order; pos[i] is the sorted column of entry i
    values = np.concatenate([root_mu, -root_mu, root_nu, -root_nu,
                             np.zeros(2 + harm.shape[1])])
    order = np.argsort(values, kind="stable")
    pos = np.empty(dim, dtype=int)
    pos[order] = np.arange(dim)
    p_v, p_e, p_w, p_c, p_k = np.split(pos, np.cumsum([root_mu.size] * 2 + [root_nu.size] * 2))

    # every eigenvector lives on one row slice: one column block per slice
    blocks = ((s0, np.concatenate([p_k[:1], p_v]), vecs0),
              (s1, np.concatenate([p_k[1:2], p_w]), vecs2),
              (s2, np.concatenate([p_e, p_c, p_k[2:]]), cblock))
    # J pairs x with y, J x = -y and J y = x: vertex / exact, face / coexact
    # and the constants; harmonic cochains carry -J_H
    px, py = np.concatenate([p_v, p_w, p_k[:1]]), np.concatenate([p_e, p_c, p_k[1:2]])
    ph = p_k[2:]
    jmat = sparse.csr_matrix(
        (np.concatenate([-np.ones(px.size), np.ones(px.size), -jh.ravel()]),
         (np.concatenate([py, px, np.repeat(ph, ph.size)]),
          np.concatenate([px, py, np.tile(ph, ph.size)]))), shape=(dim, dim))
    basis = Eigenbasis(values[order], blocks, jmat)

    n0_mat = (v0 / root_mu[None, :]) @ (v0.T * m0[None, :])     # N0 = L0^{-1/2}
    if vecs2 is vecs0:
        n2_mat = n0_mat   # the same eigenpairs and masses: the same product
    else:
        n2_mat = (w0 / root_nu[None, :]) @ (w0.T * m2d[None, :])    # N2 = L0_dual^{-1/2}
    j = BlockOperator(dim, (
        (s0, s2, (n0_mat, delta)), (s1, s2, (n2_mat, t_up)),
        (s2, s0, (-d0, n0_mat)), (s2, s1, (-t_up_adj, n2_mat)),
        (s0, s1, (kf, (m2d[:, None] * kg).T)), (s1, s0, (-kg, (m0[:, None] * kf).T)),
        (s2, s2, (-harm @ jh, (m1[:, None] * harm).T))))

    radius = float(np.sqrt(max(vals0.max(), vals2.max())))
    return DiracModel("sl-block", mass, d, j, completeness_radius=radius, area=area,
                      eigenbasis=basis, meta={"harmonic_correction": jh_correction})


def sl_laplacian_blocks(cc: CochainComplex) -> sparse.csr_matrix:
    """Direct sum L0 + L0_dual + L1 (CSR); the exact square of the block model."""
    return sparse.block_diag([laplacian0(cc).matrix, laplacian0_dual(cc).matrix,
                              laplacian1(cc).matrix], format="csr")

