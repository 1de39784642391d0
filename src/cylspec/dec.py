"""Discrete exterior calculus on closed oriented polygonal complexes.

Incidence operators d0, d1 are integer sparse matrices with d1 @ d0 == 0
exactly.  Hodge stars are positive diagonal mass operators.  Triangle
meshes get circumcentric (primal-dual) stars when every triangle is acute,
with a barycentric lumped fallback otherwise; structured quad-grid tori get
the uniform rectangle stars, for which the primal and dual 0-form
Laplacians coincide entrywise.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

from .errors import ConvergenceFailure, DegenerateTriangle
from .lattice import FlatTorus
from .mesh import TriangulatedSurface, _genus2_quads


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

    def symmetry_residual(self) -> float:
        m = sparse.diags(self.mass) @ self.matrix
        return float(np.abs((m - m.T).toarray()).max())


def _incidence_d0(edges, n0: int) -> sparse.csr_matrix:
    """Signed vertex-edge incidence: row e is -1 at the tail and +1 at the head
    of the directed edge edges[e] = (tail, head)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    n1 = edges.shape[0]
    rows = np.repeat(np.arange(n1), 2)
    vals = np.tile(np.array([-1, 1], dtype=np.int64), n1)
    return sparse.csr_matrix((vals, (rows, edges.ravel())), shape=(n1, n0), dtype=np.int64)


def _triangle_geometry(surface: TriangulatedSurface):
    """Areas, per-corner cotangents and acuteness from intrinsic side lengths."""
    s = surface.side_lengths()                 # (n2, 3): sides (a,b), (b,c), (c,a)
    # angle opposite side k sits at the vertex not on side k:
    # side 0 = (a,b) is opposite vertex c, side 1 = (b,c) opposite a, side 2 = (c,a) opposite b.
    l0, l1, l2 = s[:, 0], s[:, 1], s[:, 2]
    sp = 0.5 * (l0 + l1 + l2)
    area_sq = sp * (sp - l0) * (sp - l1) * (sp - l2)
    if np.any(area_sq <= 0):
        raise DegenerateTriangle(f"triangle {int(np.argmin(area_sq))} has non-positive area")
    area = np.sqrt(area_sq)
    # cot of the angle opposite side k: (sum of other two squares - own square) / (4 area)
    sq = s * s
    cot = np.empty_like(s)
    for k in range(3):
        others = sq[:, (k + 1) % 3] + sq[:, (k + 2) % 3]
        cot[:, k] = (others - sq[:, k]) / (4.0 * area)
    acute = bool(np.all(cot > 1e-12))
    return area, cot, acute


def build_dec(surface: TriangulatedSurface, stars: str = "auto") -> CochainComplex:
    """DEC complex of a triangulated surface.

    stars: "auto" picks circumcentric stars when all triangles are acute and
    falls back to barycentric lumped stars otherwise; "circumcentric" or
    "barycentric" force the choice (circumcentric on a non-acute mesh may
    produce non-positive masses and is rejected).
    """
    surface.validate()
    n0, n1, n2 = surface.n_vertices, surface.n_edges, surface.n_triangles
    tris, tedges, edges = surface.triangles, surface.triangle_edges, surface.edges

    d0 = _incidence_d0(edges, n0)

    rows, cols, vals = [], [], []
    for t in range(n2):
        a, b, c = tris[t]
        for k, (u, v) in enumerate(((a, b), (b, c), (c, a))):
            e = int(tedges[t, k])
            sense = 1 if (int(u), int(v)) == (int(edges[e][0]), int(edges[e][1])) else -1
            rows.append(t)
            cols.append(e)
            vals.append(sense)
    d1 = sparse.csr_matrix((vals, (rows, cols)), shape=(n2, n1), dtype=np.int64)

    area, cot, acute = _triangle_geometry(surface)
    if stars == "auto":
        mode = "circumcentric" if acute else "barycentric"
    elif stars in ("circumcentric", "barycentric"):
        mode = stars
    else:
        raise ValueError(f"unknown star mode {stars!r}")

    s = surface.side_lengths()
    star0 = np.zeros(n0)
    star1 = np.zeros(n1)
    if mode == "circumcentric":
        if not acute:
            raise DegenerateTriangle("circumcentric stars require an acute mesh")
        for t in range(n2):
            a, b, c = (int(x) for x in tris[t])
            # corner dual areas: at vertex a the adjacent sides are (a,b) and (c,a)
            sq = s[t] * s[t]
            star0[a] += 0.125 * (sq[0] * cot[t, 0] + sq[2] * cot[t, 2])
            star0[b] += 0.125 * (sq[1] * cot[t, 1] + sq[0] * cot[t, 0])
            star0[c] += 0.125 * (sq[2] * cot[t, 2] + sq[1] * cot[t, 1])
            for k in range(3):
                star1[int(tedges[t, k])] += 0.5 * cot[t, k]
    else:
        # medians: distance from barycenter to the midpoint of side k is m_k / 3
        sq = s * s
        for t in range(n2):
            a, b, c = (int(x) for x in tris[t])
            star0[a] += area[t] / 3.0
            star0[b] += area[t] / 3.0
            star0[c] += area[t] / 3.0
            for k in range(3):
                m_k = 0.5 * np.sqrt(max(2 * sq[t, (k + 1) % 3] + 2 * sq[t, (k + 2) % 3]
                                        - sq[t, k], 0.0))
                star1[int(tedges[t, k])] += (m_k / 3.0) / s[t, k]
    star2 = 1.0 / area

    meta = {"kind": "triangulated", "genus": surface.genus, "total_area": float(area.sum())}
    return CochainComplex(d0, d1, star0, star1, star2, mode, meta)


# ---------------------------------------------------------------------------
# structured quad complexes

def quad_torus_complex(torus: FlatTorus, n: int, m: int | None = None) -> CochainComplex:
    """Uniform quad-grid complex of a rectangular flat torus (n x m cells).

    The dual grid is a shifted copy of the primal grid, so the dual 0-form
    Laplacian has exactly the same matrix as the primal one; this is the
    complex on which the block Dirac identity is exact.
    """
    if m is None:
        m = n
    if n < 2 or m < 2:
        raise ValueError("need n, m >= 2")
    b = torus.basis
    if abs(float(b[:, 0] @ b[:, 1])) > 1e-12 * abs(np.linalg.det(b)):
        raise ValueError("quad-grid complexes require an orthogonal lattice basis")
    dx = float(np.linalg.norm(b[:, 0])) / n
    dy = float(np.linalg.norm(b[:, 1])) / m
    nm = n * m

    def vid(i, j):
        return (j % m) * n + (i % n)

    he = lambda i, j: (j % m) * n + (i % n)            # horizontal edge (i,j)->(i+1,j)
    ve = lambda i, j: nm + (j % m) * n + (i % n)       # vertical edge (i,j)->(i,j+1)

    j, i = np.divmod(np.arange(nm), n)                 # edges he(i, j), then ve(i, j)
    d0 = _incidence_d0(np.concatenate([np.column_stack([vid(i, j), vid(i + 1, j)]),
                                       np.column_stack([vid(i, j), vid(i, j + 1)])]), nm)

    rows, cols, vals = [], [], []
    for j in range(m):
        for i in range(n):
            f = j * n + i
            rows.extend((f, f, f, f))
            cols.extend((he(i, j), ve(i + 1, j), he(i, j + 1), ve(i, j)))
            vals.extend((1, 1, -1, -1))
    d1 = sparse.csr_matrix((vals, (rows, cols)), shape=(nm, 2 * nm), dtype=np.int64)

    star0 = np.full(nm, dx * dy)
    star1 = np.concatenate([np.full(nm, dy / dx), np.full(nm, dx / dy)])
    star2 = np.full(nm, 1.0 / (dx * dy))
    meta = {"kind": "quad-grid-torus", "genus": 1, "shape": (n, m),
            "total_area": float(torus.area), "self_dual": True}
    return CochainComplex(d0, d1, star0, star1, star2, "uniform-quad", meta)


def genus2_quad_complex() -> CochainComplex:
    """Unit-square quad complex of the closed genus-2 voxel surface."""
    positions, quads = _genus2_quads()
    n0, n2 = positions.shape[0], quads.shape[0]
    edge_index: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int]] = []

    def eid(u, v):
        key = (min(u, v), max(u, v))
        if key not in edge_index:
            edge_index[key] = len(edges)
            edges.append(key)
        return edge_index[key]

    rows1, cols1, vals1 = [], [], []
    for f in range(n2):
        q = [int(x) for x in quads[f]]
        for k in range(4):
            u, v = q[k], q[(k + 1) % 4]
            e = eid(u, v)
            rows1.append(f)
            cols1.append(e)
            vals1.append(1 if (u, v) == edges[e] else -1)
    n1 = len(edges)
    d0 = _incidence_d0(edges, n0)
    d1 = sparse.csr_matrix((vals1, (rows1, cols1)), shape=(n2, n1), dtype=np.int64)

    deg = np.zeros(n0)
    for f in range(n2):
        for v in quads[f]:
            deg[int(v)] += 1.0
    star0 = deg / 4.0
    star1 = np.ones(n1)
    star2 = np.ones(n2)
    meta = {"kind": "quad-voxel", "genus": 2, "total_area": float(n2)}
    return CochainComplex(d0, d1, star0, star1, star2, "uniform-quad", meta)


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


def numeric_kernel_dim(eigenvalues: np.ndarray) -> int:
    """Scale-free count of the numerical kernel: eigenvalues below
    1e-6 * (first eigenvalue above 1e-6)."""
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    above = ev[ev > 1e-6]
    if above.size == 0:
        return int(ev.size)
    return int(np.count_nonzero(ev < 1e-6 * above[0]))


def mass_eigh(sym: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense eigenpairs of an operator that is symmetric for the diagonal mass
    M, given as its conjugate sym = M^{1/2} A M^{-1/2}, or M^{-1/2} K M^{-1/2}
    for a stiffness pencil K v = lam M v.  sym is symmetrised before the solve;
    eigenvalues are ascending and eigenvectors M-orthonormal columns."""
    sym = 0.5 * (sym + sym.T)
    try:
        vals, y = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"dense eigensolver failed: {exc}") from exc
    return vals, y / np.sqrt(mass)[:, None]


def smallest_eigenvalues(op: SymmetricOperator, k: int) -> np.ndarray:
    """The k smallest eigenvalues of a mass-symmetric operator, ascending."""
    n = op.matrix.shape[0]
    stiff = (sparse.diags(op.mass) @ op.matrix).tocsc()
    stiff = (0.5 * (stiff + stiff.T)).tocsc()
    if k >= n - 1 or n <= 600:
        dense = stiff.toarray()
        rt = 1.0 / np.sqrt(op.mass)
        return mass_eigh(rt[:, None] * dense * rt[None, :], op.mass)[0][:k]
    mass = sparse.diags(op.mass).tocsc()
    sigma = -1e-6 * max(1.0, abs(stiff.diagonal()).max() / op.mass.max())
    try:
        vals = sparse_linalg.eigsh(stiff, k=k, M=mass, sigma=sigma,
                                   return_eigenvectors=False)
    except sparse_linalg.ArpackNoConvergence as exc:
        raise ConvergenceFailure(f"sparse eigensolver failed to converge: {exc}") from exc
    return np.sort(vals)[:k]
