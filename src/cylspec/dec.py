"""Discrete exterior calculus on closed oriented polygonal complexes.

Incidence operators d0, d1 are integer sparse matrices with d1 @ d0 == 0
exactly.  Hodge stars are positive diagonal mass operators.  Triangle
meshes get circumcentric (primal-dual) stars when every triangle is acute,
with a barycentric lumped fallback otherwise; the side senses, side
lengths and areas come from the surface's one ``validate`` call.  Structured
quad-grid tori get the uniform rectangle stars, for which the primal and
dual 0-form Laplacians coincide entrywise.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .errors import ConvergenceFailure, DegenerateTriangle, InputError
from .lattice import FlatTorus
from .mesh import TriangulatedSurface, _genus2_quads, _match_sides, _side_senses


@dataclass(frozen=True)
class CochainComplex:
    """Cochain spaces of a closed surface with signed incidence and mass operators."""

    d0: sparse.csr_matrix          # (n1, n0) integer entries
    d1: sparse.csr_matrix          # (n2, n1) integer entries
    star0: np.ndarray              # (n0,) > 0
    star1: np.ndarray              # (n1,) > 0
    star2: np.ndarray              # (n2,) > 0
    star_mode: str
    meta: dict = field(default_factory=dict)

    @property
    def n0(self) -> int:
        return self.d0.shape[1]

    @property
    def n1(self) -> int:
        return self.d0.shape[0]

    @property
    def n2(self) -> int:
        return self.d1.shape[0]

    @property
    def genus(self) -> int:
        return (2 - (self.n0 - self.n1 + self.n2)) // 2

    def __post_init__(self):
        if (self.d1 @ self.d0).count_nonzero():
            raise ValueError("d1 @ d0 != 0; inconsistent incidence")
        for name, s in (("star0", self.star0), ("star1", self.star1), ("star2", self.star2)):
            if np.any(np.asarray(s) <= 0):
                raise DegenerateTriangle(f"{name} has a non-positive entry")


@dataclass(frozen=True)
class SymmetricOperator:
    """Operator symmetric w.r.t. a diagonal mass inner product."""

    matrix: sparse.csr_matrix
    mass: np.ndarray

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


def _incidence_d0(edges, n0: int) -> sparse.csr_matrix:
    """Signed vertex-edge incidence: row e is -1 at the tail and +1 at the head
    of the directed edge edges[e] = (tail, head)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    n1 = edges.shape[0]
    rows = np.repeat(np.arange(n1), 2)
    vals = np.tile(np.array([-1, 1], dtype=np.int64), n1)
    return sparse.csr_matrix((vals, (rows, edges.ravel())), shape=(n1, n0), dtype=np.int64)


def _incidence_d1(face_edges, sense, n1: int) -> sparse.csr_matrix:
    """Signed edge-face incidence: row f is sense[f, k] at edge face_edges[f, k]
    for every side k of face f."""
    face_edges = np.asarray(face_edges, dtype=np.int64)
    rows = np.repeat(np.arange(face_edges.shape[0]), face_edges.shape[1])
    return sparse.csr_matrix((np.asarray(sense, dtype=np.int64).ravel(),
                              (rows, face_edges.ravel())),
                             shape=(face_edges.shape[0], n1), dtype=np.int64)


def _triangle_geometry(sq: np.ndarray, area: np.ndarray):
    """Per-corner cotangents and acuteness of triangles with squared side
    lengths sq (n2, 3), sides (a,b), (b,c), (c,a), and the given areas."""
    # angle opposite side k sits at the vertex not on side k:
    # side 0 = (a,b) is opposite vertex c, side 1 = (b,c) opposite a, side 2 = (c,a) opposite b.
    # cot of the angle opposite side k: (sum of other two squares - own square) / (4 area)
    cot = np.empty_like(sq)
    for k in range(3):
        others = sq[:, (k + 1) % 3] + sq[:, (k + 2) % 3]
        cot[:, k] = (others - sq[:, k]) / (4.0 * area)
    return cot, bool(np.all(cot > 1e-12))


def build_dec(surface: TriangulatedSurface) -> CochainComplex:
    """DEC complex of a triangulated surface: circumcentric stars when every
    triangle is acute (positive there), barycentric lumped stars otherwise;
    ``star_mode`` records which."""
    sense, s, area = surface.validate()
    n0, n1 = surface.n_vertices, surface.n_edges
    tris, tedges = surface.triangles, surface.triangle_edges

    d0 = _incidence_d0(surface.edges, n0)
    d1 = _incidence_d1(tedges, sense, n1)

    sq = s * s
    cot, acute = _triangle_geometry(sq, area)
    mode = "circumcentric" if acute else "barycentric"

    # per-triangle contributions, accumulated in triangle order
    if acute:
        # corner dual areas: corner k lies on sides k and k-1
        w = sq * cot
        corner = 0.125 * (w + np.roll(w, 1, axis=1))
        side = 0.5 * cot
    else:
        corner = np.repeat(area / 3.0, 3)
        # medians: distance from barycenter to the midpoint of side k is m_k / 3
        median = 0.5 * np.sqrt(np.maximum(2 * np.roll(sq, -1, axis=1)
                                          + 2 * np.roll(sq, -2, axis=1) - sq, 0.0))
        side = (median / 3.0) / s
    star0 = np.zeros(n0)
    star1 = np.zeros(n1)
    np.add.at(star0, tris.ravel(), corner.ravel())
    np.add.at(star1, tedges.ravel(), side.ravel())
    star2 = 1.0 / area

    return CochainComplex(d0, d1, star0, star1, star2, mode, {"kind": "triangulated"})


# ---------------------------------------------------------------------------
# structured quad complexes

def quad_torus_complex(torus: FlatTorus, n: int, m: int | None = None) -> CochainComplex:
    """Uniform quad-grid complex of a rectangular flat torus (n x m cells).

    The dual grid is a shifted copy of the primal grid, so the dual 0-form
    Laplacian has exactly the same matrix as the primal one; this is the
    complex on which the block Dirac identity is exact.
    """
    m = n if m is None else m
    if n < 2 or m < 2:
        raise InputError("need n, m >= 2")
    b = torus.basis
    if abs(float(b[:, 0] @ b[:, 1])) > 1e-12 * abs(np.linalg.det(b)):
        raise InputError("quad-grid complexes require an orthogonal lattice basis")
    dx = float(np.linalg.norm(b[:, 0])) / n
    dy = float(np.linalg.norm(b[:, 1])) / m
    nm = n * m

    vid = lambda i, j: (j % m) * n + (i % n)           # vertex (i, j)
    he = lambda i, j: (j % m) * n + (i % n)            # horizontal edge (i,j)->(i+1,j)
    ve = lambda i, j: nm + (j % m) * n + (i % n)       # vertical edge (i,j)->(i,j+1)

    j, i = np.divmod(np.arange(nm), n)                 # edges he(i, j), then ve(i, j)
    d0 = _incidence_d0(np.concatenate([np.column_stack([vid(i, j), vid(i + 1, j)]),
                                       np.column_stack([vid(i, j), vid(i, j + 1)])]), nm)

    faces = np.column_stack([he(i, j), ve(i + 1, j), he(i, j + 1), ve(i, j)])
    d1 = _incidence_d1(faces, np.tile([1, 1, -1, -1], (nm, 1)), 2 * nm)

    star0 = np.full(nm, dx * dy)
    star1 = np.concatenate([np.full(nm, dy / dx), np.full(nm, dx / dy)])
    star2 = np.full(nm, 1.0 / (dx * dy))
    meta = {"kind": "quad-grid-torus", "shape": (n, m), "spacing": (dx, dy)}
    return CochainComplex(d0, d1, star0, star1, star2, "uniform-quad", meta)


def genus2_quad_complex() -> CochainComplex:
    """Unit-square quad complex of the closed genus-2 voxel surface."""
    positions, quads = _genus2_quads()
    n0, n2 = positions.shape[0], quads.shape[0]
    edges, quad_edges = _match_sides(quads)
    n1 = edges.shape[0]
    d0 = _incidence_d0(edges, n0)
    d1 = _incidence_d1(quad_edges, _side_senses(quads, edges, quad_edges), n1)
    star0 = np.bincount(quads.ravel(), minlength=n0) / 4.0
    star1 = np.ones(n1)
    star2 = np.ones(n2)
    return CochainComplex(d0, d1, star0, star1, star2, "uniform-quad", {"kind": "quad-voxel"})


# ---------------------------------------------------------------------------
# Laplacians

def laplacian0(cc: CochainComplex) -> SymmetricOperator:
    """0-form Laplacian star0^{-1} d0^T star1 d0 (PSD, constants in the kernel)."""
    k = cc.d0.T @ sparse.diags(cc.star1) @ cc.d0
    return SymmetricOperator(sparse.diags(1.0 / cc.star0) @ k, cc.star0)


def laplacian0_dual(cc: CochainComplex) -> SymmetricOperator:
    """0-form Laplacian of the dual complex, acting on face functions."""
    k = cc.d1 @ sparse.diags(1.0 / cc.star1) @ cc.d1.T
    return SymmetricOperator(sparse.diags(cc.star2) @ k, 1.0 / cc.star2)


def laplacian1(cc: CochainComplex) -> SymmetricOperator:
    """1-form Laplacian; kernel = harmonic 1-cochains, dimension 2*genus."""
    up = sparse.diags(1.0 / cc.star1) @ cc.d1.T @ sparse.diags(cc.star2) @ cc.d1
    down = cc.d0 @ sparse.diags(1.0 / cc.star0) @ cc.d0.T @ sparse.diags(cc.star1)
    return SymmetricOperator((up + down).tocsr(), cc.star1)


def mass_eigh(stiff: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense eigenpairs of the stiffness pencil K v = lam M v for the diagonal
    mass M, solved as the conjugate M^{-1/2} K M^{-1/2}; for an operator A
    symmetric for M, pass K = M A.  The conjugate is symmetrised before the
    solve; eigenvalues are ascending and eigenvectors M-orthonormal columns."""
    rt = np.sqrt(mass)
    sym = stiff / rt[:, None] / rt[None, :]
    sym = 0.5 * (sym + sym.T)
    try:
        vals, y = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"dense eigensolver failed: {exc}") from exc
    return vals, y / rt[:, None]


def smallest_eigenvalues(op: SymmetricOperator, k: int) -> np.ndarray:
    """The k smallest eigenvalues of a mass-symmetric operator, ascending."""
    n = op.matrix.shape[0]
    stiff = (sparse.diags(op.mass) @ op.matrix).tocsc()
    stiff = (0.5 * (stiff + stiff.T)).tocsc()
    if k >= n - 1 or n <= 600:
        return mass_eigh(stiff.toarray(), op.mass)[0][:k]
    import scipy.sparse.linalg as sparse_linalg   # slow to import; only this path needs it
    mass = sparse.diags(op.mass).tocsc()
    sigma = -1e-6 * max(1.0, abs(stiff.diagonal()).max() / op.mass.max())
    try:
        vals = sparse_linalg.eigsh(stiff, k=k, M=mass, sigma=sigma,
                                   return_eigenvectors=False)
    except sparse_linalg.ArpackNoConvergence as exc:
        raise ConvergenceFailure(f"sparse eigensolver failed to converge: {exc}") from exc
    return np.sort(vals)[:k]
