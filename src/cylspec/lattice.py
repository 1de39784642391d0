"""Flat two-dimensional tori and their scalar Laplacian spectra.

A flat torus is R^2 / L for a rank-2 lattice L.  Everything here is exact
Fourier analysis: eigenvalues of the 0-form Laplacian are |k|^2 over the
dual lattice k = 2*pi*(B^T)^{-1} n, n in Z^2.  Real multiplicities are 1
for the constant mode and 2 per antipodal pair {k, -k}.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateLattice, InputError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class FlatTorus:
    """Flat torus R^2 / (B Z^2); columns of ``basis`` are the lattice generators."""

    basis: np.ndarray
    dual_basis: np.ndarray = field(init=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float).reshape(2, 2)
        if not np.isfinite(b).all():   # a NaN would pass the determinant test below
            raise InputError(f"lattice basis must be finite, got {b.ravel().tolist()}")
        size = float(np.abs(b).max())
        # the determinant test below, relative to the basis's size, would
        # overflow above this range and underflow below it
        if not 1e-150 <= size <= 1e150:
            raise InputError(f"the largest lattice basis entry must lie between 1e-150 "
                             f"and 1e150 in size, got {b.ravel().tolist()}")
        det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
        if abs(det) < 1e-12 * size**2:
            raise DegenerateLattice(f"lattice basis is singular (det={det:.3e})")
        dual = TWO_PI * np.linalg.inv(b.T)
        # a small thin basis passes that test with a dual basis so large that
        # |k|^2 would overflow
        if not float(np.abs(dual).max()) <= 1e150:
            raise InputError(f"lattice basis is too thin for its size: its dual basis "
                             f"reaches {float(np.abs(dual).max()):.3e}, above 1e150")
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "dual_basis", dual)

    @property
    def area(self) -> float:
        return abs(float(np.linalg.det(self.basis)))


def square_torus() -> FlatTorus:
    return FlatTorus(np.diag([TWO_PI, TWO_PI]))


def _reduced_basis(dual: np.ndarray):
    """Lagrange-Gauss reduced basis (b1, b2) = dual @ (u1, u2) of the lattice
    spanned by the columns of dual, |b1| <= |b2|, with the integer vectors
    u1, u2 (Nguyen & Stehle, ACM TALG 2009).

    Any basis gives a coordinate box that covers a ball, so the reduction
    stops as soon as a step does not shorten b2: in floating point a tie
    |mu| = 1/2 can otherwise cycle (the basis (1, 4; 1, -1) does)."""
    b1, b2, u1, u2 = dual[:, 0], dual[:, 1], np.array([1, 0]), np.array([0, 1])
    while True:
        if b2 @ b2 < b1 @ b1:
            b1, b2, u1, u2 = b2, b1, u2, u1
        q = round(float(b1 @ b2 / (b1 @ b1)))
        r2 = b2 - q * b1
        if q == 0 or r2 @ r2 >= b2 @ b2:
            return b1, b2, u1, u2
        b2, u2 = r2, u2 - q * u1


def dual_lattice_points(torus: FlatTorus, cutoff: float) -> np.ndarray:
    """All dual lattice vectors k with |k|^2 <= cutoff (closed ball, up to a
    relative 1e-9), k=0 included.

    Exactly one representative per antipodal pair is returned, with k=0 first;
    pairs are ordered by |k|^2 then lexicographically, so the output is
    deterministic.
    """
    if not np.isfinite(cutoff):
        raise InputError(f"cutoff must be finite, got {cutoff}")
    if cutoff <= 0:
        raise InputError("cutoff must be positive")
    dual = torus.dual_basis
    # enumerate over the reduced basis (b1, b2) = dual @ (u1, u2): its
    # coordinate box around the ball is about as large as the ball's point
    # count, however long and thin the lattice
    b1, b2, u1, u2 = _reduced_basis(dual)
    bound = np.sqrt(cutoff) * np.linalg.norm(np.linalg.inv(np.column_stack([b1, b2])), axis=1)
    grid = np.stack(np.meshgrid(*(np.arange(-b, b + 1) for b in bound.astype(int) + 1),
                                indexing="ij"), axis=-1)
    n = grid.reshape(-1, 2) @ np.column_stack([u1, u2]).T
    # one representative of {n, -n}
    n = n[(n[:, 0] > 0) | ((n[:, 0] == 0) & (n[:, 1] > 0))]
    # k and |k|^2 by the same matmul calls per point as a loop over k = dual @ n
    k = np.matmul(dual, n.astype(float)[:, :, None])[:, :, 0]
    kk = np.matmul(k[:, None, :], k[:, :, None])[:, 0, 0]
    # a point on the sphere |k|^2 = cutoff is kept whatever the rounding of the
    # dual basis, to the tolerance torus_fourier_spectrum merges eigenvalues by
    inside = kk <= cutoff + 1e-9 * cutoff
    k, kk = k[inside], kk[inside]
    order = np.lexsort((k[:, 1], k[:, 0], kk))
    return np.vstack([np.zeros((1, 2)), k[order]])


def torus_fourier_spectrum(torus: FlatTorus, cutoff: float) -> list[tuple[float, int]]:
    """Laplace eigenvalues |k|^2 <= cutoff with real multiplicities, ascending.

    Multiplicity counts real eigenfunctions: 1 for k=0, else 2 per antipodal
    pair (cos and sin).  Distinct lattice points with equal |k|^2 are merged.
    """
    pts = dual_lattice_points(torus, cutoff)
    eigs = np.einsum("ij,ij->i", pts, pts)
    out: list[tuple[float, int]] = [(0.0, 1)]
    tol = 1e-9 * cutoff
    for ev in np.sort(eigs[1:]):
        ev = float(ev)
        if out and out[-1][0] > 0 and abs(ev - out[-1][0]) <= tol:
            out[-1] = (out[-1][0], out[-1][1] + 2)
        else:
            out.append((ev, 2))
    return out
