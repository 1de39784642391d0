"""Eigendecomposition of the composite A = J D and the derived root data.

The eigenvalues of A are the indicial roots of the translation-invariant
cylinder operator built on the model: e^{lam*t} nu solves the cylinder
equation exactly when A nu = lam nu.  Clusters of numerically coincident
eigenvalues carry the multiplicities d_lam that drive all index formulas.
"""

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sparse

from .errors import ConvergenceFailure, InputError, WindowExceedsCutoff
from .models import BlockOperator, DiracModel, Eigenbasis


@dataclass(frozen=True)
class Cluster:
    lam: float
    dim: int
    start: int   # index range [start, stop) into the sorted eigenvalues
    stop: int


@dataclass(frozen=True)
class Spectrum:
    """Sorted spectrum of A = J D with gap-rule clusters.

    ``basis`` is the model's eigenbasis (M-orthonormal eigenvectors aligned
    with ``eigenvalues``), None for synthetic spectra built from root lists
    alone.  ``jmat`` is J expressed in that basis, the basis's CSR, and
    None without a basis.
    """

    eigenvalues: np.ndarray
    clusters: tuple
    completeness_radius: float
    cluster_tol: float
    basis: Eigenbasis | None = None
    mass: np.ndarray | None = None
    label: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def jmat(self) -> sparse.csr_matrix | None:
        return None if self.basis is None else self.basis.jmat

    @cached_property
    def spectral_radius(self) -> float:
        return float(np.abs(self.eigenvalues).max()) if self.dim else 0.0

    @cached_property
    def root_tol(self) -> float:
        """Distance from a root within which a rate or weight is critical."""
        return 1e-8 * max(self.spectral_radius, 1e-300)

    @cached_property
    def _d0(self) -> int:
        for c in self.clusters:
            if abs(c.lam) <= self.cluster_tol:
                return c.dim
        return 0

    @cached_property
    def _lams(self) -> np.ndarray:
        return np.array([c.lam for c in self.clusters])

    def d0(self) -> int:
        """Multiplicity of the root at zero (0 when there is no zero cluster)."""
        return self._d0

    def cluster_at(self, lam: float):
        """The nearest cluster (of two, the lower) if within cluster_tol of lam,
        else None."""
        if not self.clusters:
            return None
        c = self.clusters[int(np.argmin(np.abs(self._lams - lam)))]
        return c if abs(c.lam - lam) <= self.cluster_tol else None

    def roots_between(self, lo: float, hi: float) -> list[tuple[float, int]]:
        """Roots (lam, d_lam) with lam strictly inside (lo, hi), ascending."""
        return [(c.lam, c.dim) for c in self.clusters if lo < c.lam < hi and c.dim > 0]

    def nearest_root(self, x: float) -> tuple[float, float]:
        """The nearest root and its distance from x; of two equally near
        roots, the lower one."""
        lams = self._lams
        i = int(np.argmin(np.abs(lams - x)))
        return float(lams[i]), float(abs(lams[i] - x))


def _cluster(eigs: np.ndarray, tol: float) -> tuple:
    """Clusters of the ascending eigs, cut where consecutive values are more
    than tol apart."""
    if not eigs.size:
        return ()
    cuts = np.flatnonzero(np.diff(eigs) > tol) + 1
    clusters = []
    for start, stop in zip(np.r_[0, cuts], np.r_[cuts, eigs.size]):
        lam = float(eigs[start:stop].mean())
        if abs(lam) <= tol:
            lam = 0.0   # the kernel cluster is exactly the zero root
        clusters.append(Cluster(lam, int(stop - start), int(start), int(stop)))
    return tuple(clusters)


# columns of an eigenvector block that eigendecompose checks at once: no
# row piece of the residual is wider, whatever the block's width
_RESIDUAL_COLUMNS = 128


def _residual_norms(model: DiracModel, j: BlockOperator, reach: tuple, block: np.ndarray,
                    lam: np.ndarray) -> np.ndarray:
    """Column M-norms of J (D[:, R] B) - B Lam for the column block B on the
    rows R at the values ``lam``, with ``reach`` = (R, [(S, D[S, R]), ...])
    over those column slices S of J that D reaches from R, sliced once per
    block.  D[:, R] B is taken as the row pieces D[S, R] B; J adds
    its products on those pieces alone into the piece -B Lam on R, and the
    M-weighted squares are summed piece by piece, that piece first.  Every
    term of J runs as stored, the block model's rank-1 constant terms
    included, although their products on the cochain block are round-off:
    the check is of J as the model applies it.  Each piece is as wide as B,
    so a B of _RESIDUAL_COLUMNS columns keeps those pieces n0 x 128 and
    n2 x 128 however many vertices and faces the complex has."""
    rows, pieces = reach
    av = j.apply_pieces([(s, d @ block) for s, d in pieces], [(rows, -(block * lam))])
    return np.sqrt(sum(model.mass[s] @ (piece * piece) for s, piece in av))


def eigendecompose(model: DiracModel) -> Spectrum:
    """Full spectrum of A = J D with respect to the mass inner product.

    The model's own eigenbasis (closed form on the torus, Laplacian eigenpairs
    on the block model) supplies the eigenpairs and J in that basis.  The
    eigenpairs are checked one column block at a time: for the block B on
    the rows R at the values Lam, every column of the residual
    J (D[:, R] B) - B Lam must have an M-norm below 1e-8 * spectral radius,
    and every column of B an M-norm within 1e-8 of 1 (a rescaled
    eigenvector has no larger residual), or ConvergenceFailure is raised.  The residual is formed on row pieces
    (_residual_norms) of _RESIDUAL_COLUMNS columns of a block at a time, so
    no piece is wider than that; the torus J is a single term over all
    rows.  Clusters merge eigenvalues closer than cluster_tol = 1e-6 *
    spectral radius.  Every tolerance is relative to the spectral radius, so
    a model whose D is scaled by 1/s gets the same decisions.
    """
    basis = model.eigenbasis
    vals = basis.values
    radius = float(np.abs(vals).max()) if vals.size else 0.0

    j = model.complex_structure
    resid = norm_error = 0.0
    for rows, cols, block in basis.blocks:
        reach = rows, [(s, d) for s in j.column_slices if (d := model.dirac[s, rows]).nnz]
        for start in range(0, cols.size, _RESIDUAL_COLUMNS):
            chunk = slice(start, start + _RESIDUAL_COLUMNS)
            resid = max(resid, float(_residual_norms(model, j, reach, block[:, chunk],
                                                     vals[cols[chunk]]).max()))
        norms = np.einsum("i,ij,ij->j", model.mass[rows], block, block)
        norm_error = max(norm_error, float(np.abs(norms - 1.0).max(initial=0.0)))
    if resid > 1e-8 * max(radius, 1e-300):
        raise ConvergenceFailure(f"eigenpair residual {resid:.2e} exceeds 1e-8 of the "
                                 f"spectral radius {radius:.2e}")
    if norm_error > 1e-8:
        raise ConvergenceFailure(f"eigenvector M-norm off 1 by {norm_error:.2e}, above 1e-8")

    cluster_tol = 1e-6 * max(radius, 1e-300)
    clusters = _cluster(vals, cluster_tol)
    return Spectrum(vals, clusters, model.completeness_radius, cluster_tol, basis=basis,
                    mass=model.mass, label=model.label, meta={"residual": resid})


def synthetic_spectrum(roots: list[tuple[float, int]],
                       completeness_radius: float) -> Spectrum:
    """Spectrum built from (root, multiplicity) pairs; no eigenvectors attached."""
    roots = sorted((float(l), int(d)) for l, d in roots)
    eigs = np.concatenate([np.full(d, l) for l, d in roots]) if roots else np.zeros(0)
    clusters = []
    start = 0
    for l, d in roots:
        clusters.append(Cluster(l, d, start, start + d))
        start += d
    radius = max((abs(l) for l, _ in roots), default=0.0)
    return Spectrum(eigs, tuple(clusters), float(completeness_radius),
                    cluster_tol=1e-6 * max(radius, 1e-300), label="synthetic")


def indicial_roots(spectrum: Spectrum, window: tuple[float, float]) -> list[tuple[float, int]]:
    """Clusters (lam, d_lam) with lam in the closed window [lo, hi].

    Raises WindowExceedsCutoff when the window reaches beyond the model's
    completeness radius, where truncated models may silently miss roots.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise InputError("window must satisfy lo < hi")
    r = spectrum.completeness_radius
    if max(abs(lo), abs(hi)) > r * (1 + 1e-12):
        raise WindowExceedsCutoff(
            f"window [{lo}, {hi}] exceeds completeness radius {r:.6g}")
    return [(c.lam, c.dim) for c in spectrum.clusters if lo <= c.lam <= hi]


def homogeneous_kernel(spectrum: Spectrum, lam: float) -> np.ndarray:
    """M-orthonormal basis of the lam-eigenspace of A (columns); empty when lam
    is not a root within the cluster tolerance."""
    if spectrum.basis is None:
        raise ValueError("spectrum carries no eigenvectors")
    c = spectrum.cluster_at(lam)
    if c is None:
        return np.zeros((spectrum.dim, 0))
    return spectrum.basis.columns(c.start, c.stop)


def principal_angle_gap(basis_a: np.ndarray, basis_b: np.ndarray,
                        mass: np.ndarray) -> float:
    """max |1 - cos(theta_i)| over principal angles between two M-orthonormal
    column spans; 0 means the subspaces coincide."""
    if basis_a.shape[1] != basis_b.shape[1]:
        return 1.0
    if basis_a.shape[1] == 0:
        return 0.0
    overlap = basis_a.T @ (mass[:, None] * basis_b)
    s = np.linalg.svd(overlap, compute_uv=False)
    return float(np.abs(1.0 - s).max())


def spectrum_to_csv(spectrum: Spectrum, path):
    """CSV columns: index, eigenvalue, cluster_id, cluster_lambda, d_lambda."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "eigenvalue", "cluster_id", "cluster_lambda", "d_lambda"])
        for ci, c in enumerate(spectrum.clusters):
            for i in range(c.start, c.stop):
                w.writerow([i, f"{spectrum.eigenvalues[i]:.17g}", ci,
                            f"{c.lam:.17g}", c.dim])
