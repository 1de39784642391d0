import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import cylspec as cs
from cylspec.dec import _triangle_geometry
from cylspec.mesh import _genus2_quads
from tests.conftest import fourier_oracle, lattice_bases


def laplace_eigs_dense(op, k):
    """Independent dense route for small operators (no shift-invert)."""
    stiff = (np.diag(op.mass) @ op.toarray())
    stiff = 0.5 * (stiff + stiff.T)
    rt = 1.0 / np.sqrt(op.mass)
    vals = np.linalg.eigvalsh(rt[:, None] * stiff * rt[None, :])
    return vals[:k]


def test_dd_zero_everywhere(square_t):
    for cc in (cs.build_dec(cs.triangulated_torus_mesh(square_t, 4)),
               cs.build_dec(cs.genus2_mesh()),
               cs.quad_torus_complex(square_t, 5),
               cs.genus2_quad_complex()):
        assert np.all((cc.d1 @ cc.d0).toarray() == 0)
        assert np.all(cc.star0 > 0) and np.all(cc.star1 > 0) and np.all(cc.star2 > 0)


def test_star0_partitions_area(square_t):
    cc = cs.build_dec(cs.triangulated_torus_mesh(square_t, 16))
    assert cc.star_mode == "circumcentric"
    assert abs(cc.star0.sum() - square_t.area) <= 1e-9


def test_barycentric_star0_partitions_area():
    # a 4:1 rectangle's offset rows have obtuse apexes: barycentric stars
    torus = cs.FlatTorus(np.diag([2 * np.pi, 0.5 * np.pi]))
    cc = cs.build_dec(cs.triangulated_torus_mesh(torus, 8))
    assert cc.star_mode == "barycentric"
    assert abs(cc.star0.sum() - torus.area) <= 1e-9


def symmetry_residual(op):
    """Largest entry of M A - (M A)^T for the operator's diagonal mass M."""
    m = sparse.diags(op.mass) @ op.matrix
    return float(np.abs((m - m.T).toarray()).max())


def kernel_dim(eigenvalues):
    """Eigenvalues below 1e-6 times the first eigenvalue above 1e-6."""
    ev = np.sort(eigenvalues)
    return int(np.count_nonzero(ev < 1e-6 * ev[ev > 1e-6][0]))


def test_laplacian_symmetry_and_kernel(square_t):
    cc = cs.build_dec(cs.triangulated_torus_mesh(square_t, 8))
    l0 = cs.laplacian0(cc)
    l1 = cs.laplacian1(cc)
    assert symmetry_residual(l0) <= 1e-10
    assert symmetry_residual(l1) <= 1e-10
    # constants in the kernel of l0
    const = np.ones(cc.n0)
    assert np.abs(l0.toarray() @ const).max() <= 1e-10


def test_l1_commutes_with_d0(square_t):
    cc = cs.build_dec(cs.triangulated_torus_mesh(square_t, 6))
    rng = np.random.default_rng(3)
    f = rng.standard_normal(cc.n0)
    l0 = cs.laplacian0(cc).toarray()
    l1 = cs.laplacian1(cc).toarray()
    d0 = cc.d0.toarray()
    lhs = l1 @ (d0 @ f)
    rhs = d0 @ (l0 @ f)
    assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())


def test_smallest_nonzero_eigenvalue_64(square_t):
    cc = cs.build_dec(cs.triangulated_torus_mesh(square_t, 64))
    ev = cs.smallest_eigenvalues(cs.laplacian0(cc), 3)
    assert abs(ev[0]) <= 1e-8
    assert ev[1] == pytest.approx(1.0, rel=0.02)


def test_eigenvalue_2_multiplicity(square_t):
    cc = cs.build_dec(cs.triangulated_torus_mesh(square_t, 64))
    ev = cs.smallest_eigenvalues(cs.laplacian0(cc), 10)
    near2 = np.abs(ev - 2.0) <= 0.04
    assert near2.sum() == 4


def test_refinement_monotone(square_t):
    errs = []
    for n in (8, 16, 32):
        cc = cs.build_dec(cs.triangulated_torus_mesh(square_t, n))
        ev = cs.smallest_eigenvalues(cs.laplacian0(cc), 11)
        exact = fourier_oracle(square_t, 11)
        errs.append(np.abs(ev[1:] - exact[1:]) / exact[1:])
    errs = np.array(errs)
    assert np.all(errs[1] < errs[0])
    assert np.all(errs[2] < errs[1])


def test_harmonic_kernel_dims(square_t):
    cc1 = cs.build_dec(cs.triangulated_torus_mesh(square_t, 8))
    ev1 = laplace_eigs_dense(cs.laplacian1(cc1), 6)
    assert kernel_dim(ev1) == 2
    cc2 = cs.build_dec(cs.genus2_mesh())
    ev2 = laplace_eigs_dense(cs.laplacian1(cc2), 8)
    assert kernel_dim(ev2) == 4


def test_quad_torus_self_dual(square_t):
    cc = cs.quad_torus_complex(square_t, 6)
    l0 = cs.laplacian0(cc).toarray()
    l0d = cs.laplacian0_dual(cc).toarray()
    assert np.abs(l0 - l0d).max() <= 1e-12


def test_quad_rectangular_torus():
    torus = cs.FlatTorus(np.diag([2 * np.pi, 4 * np.pi]))
    cc = cs.quad_torus_complex(torus, 8, 16)
    ev = cs.smallest_eigenvalues(cs.laplacian0(cc), 4)
    # analytic: 0, 0.25 (x2), 1.0 on R^2/(2pi Z x 4pi Z)
    assert abs(ev[0]) <= 1e-8
    assert ev[1] == pytest.approx(0.25, rel=0.02)
    assert ev[2] == pytest.approx(0.25, rel=0.02)


def test_inconsistent_incidence_rejected(square_t):
    cc = cs.quad_torus_complex(square_t, 3)
    bad_d1 = cc.d1.tolil()
    bad_d1[0, 0] = 0          # a face boundary with one side missing
    with pytest.raises(ValueError, match="d1 @ d0"):
        cs.CochainComplex(cc.d0, bad_d1.tocsr(), cc.star0, cc.star1, cc.star2,
                          cc.star_mode, cc.meta)


# ---------------------------------------------------------------------------
# the per-triangle loops that array assembly replaced

def reference_d1(surf):
    """build_dec's d1 from a loop over the sides of every triangle."""
    rows, cols, vals = [], [], []
    for t in range(surf.n_triangles):
        a, b, c = surf.triangles[t]
        for k, (u, v) in enumerate(((a, b), (b, c), (c, a))):
            e = int(surf.triangle_edges[t, k])
            forward = (int(u), int(v)) == (int(surf.edges[e][0]), int(surf.edges[e][1]))
            rows.append(t)
            cols.append(e)
            vals.append(1 if forward else -1)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(surf.n_triangles, surf.n_edges),
                             dtype=np.int64)


def reference_stars(surf, mode):
    """build_dec's Hodge stars, accumulated triangle by triangle."""
    _, s, area = surf.validate()
    cot, _ = _triangle_geometry(s * s, area)
    tedges = surf.triangle_edges
    star0 = np.zeros(surf.n_vertices)
    star1 = np.zeros(surf.n_edges)
    for t in range(surf.n_triangles):
        a, b, c = (int(x) for x in surf.triangles[t])
        sq = s[t] * s[t]
        if mode == "circumcentric":
            star0[a] += 0.125 * (sq[0] * cot[t, 0] + sq[2] * cot[t, 2])
            star0[b] += 0.125 * (sq[1] * cot[t, 1] + sq[0] * cot[t, 0])
            star0[c] += 0.125 * (sq[2] * cot[t, 2] + sq[1] * cot[t, 1])
            for k in range(3):
                star1[int(tedges[t, k])] += 0.5 * cot[t, k]
        else:
            for v in (a, b, c):
                star0[v] += area[t] / 3.0
            for k in range(3):
                m_k = 0.5 * np.sqrt(max(2 * sq[(k + 1) % 3] + 2 * sq[(k + 2) % 3] - sq[k], 0.0))
                star1[int(tedges[t, k])] += (m_k / 3.0) / s[t, k]
    return star0, star1, 1.0 / area


def assert_identical(got, want):
    """Bitwise equality of arrays, or of a CSR matrix's index and data arrays."""
    if sparse.issparse(want):
        assert got.shape == want.shape
        got, want = ((m.indices, m.indptr, m.data) for m in (got, want))
    else:
        got, want = (got,), (want,)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def assert_matches_loops(surf, cc):
    assert_identical(cc.d1, reference_d1(surf))
    for got, want in zip((cc.star0, cc.star1, cc.star2), reference_stars(surf, cc.star_mode)):
        assert_identical(got, want)


@settings(max_examples=40, deadline=None)
@given(lattice_bases(), st.integers(2, 9), st.integers(1, 5))
def test_build_dec_matches_loops_on_torus_meshes(basis, n, half_m):
    # about half of these meshes are acute: both star rules occur
    surf = cs.triangulated_torus_mesh(cs.FlatTorus(basis), n, 2 * half_m)
    assert_matches_loops(surf, cs.build_dec(surf))


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 14), st.integers(3, 14))
def test_build_dec_matches_loops_on_donuts(n, m):
    surf = cs.parametric_torus_mesh(n, m)
    cc = cs.build_dec(surf)
    assert cc.star_mode == "barycentric"   # the donut's triangles are not all acute
    assert_matches_loops(surf, cc)


@pytest.mark.parametrize("aspect, n, mode", [(1, 6, "circumcentric"), (1, 2, "circumcentric"),
                                             (4, 8, "barycentric")])
def test_build_dec_matches_loops_on_grids(aspect, n, mode):
    # n = 2 repeats vertex pairs: 12 edges on 4 vertices; the square torus's
    # offset rows are acute, the 4:1 rectangle's are obtuse
    surf = cs.triangulated_torus_mesh(cs.FlatTorus(np.diag([2 * np.pi, 2 * np.pi / aspect])), n)
    cc = cs.build_dec(surf)
    assert cc.star_mode == mode
    assert_matches_loops(surf, cc)


def test_genus2_mesh_matches_loops():
    surf = cs.genus2_mesh()
    assert_matches_loops(surf, cs.build_dec(surf))


@pytest.mark.parametrize("n, m", [(2, 2), (3, 5), (16, 16)])
def test_quad_torus_d1_matches_loop(square_t, n, m):
    he = lambda i, j: (j % m) * n + (i % n)
    ve = lambda i, j: n * m + (j % m) * n + (i % n)
    rows, cols, vals = [], [], []
    for j in range(m):
        for i in range(n):
            rows.extend([j * n + i] * 4)
            cols.extend((he(i, j), ve(i + 1, j), he(i, j + 1), ve(i, j)))
            vals.extend((1, 1, -1, -1))
    want = sparse.csr_matrix((vals, (rows, cols)), shape=(n * m, 2 * n * m), dtype=np.int64)
    assert_identical(cs.quad_torus_complex(square_t, n, m).d1, want)


def test_genus2_quad_complex_matches_loops():
    positions, quads = _genus2_quads()
    edge_index, edges = {}, []
    rows, cols, vals = [], [], []
    deg = np.zeros(positions.shape[0])
    for f, quad in enumerate(quads):
        q = [int(x) for x in quad]
        for k in range(4):
            u, v = q[k], q[(k + 1) % 4]
            key = (min(u, v), max(u, v))
            e = edge_index.setdefault(key, len(edges))
            if e == len(edges):
                edges.append(key)
            rows.append(f)
            cols.append(e)
            vals.append(1 if (u, v) == key else -1)
            deg[u] += 1.0
    cc = cs.genus2_quad_complex()
    assert_identical(cc.d1, sparse.csr_matrix((vals, (rows, cols)),
                                              shape=(len(quads), len(edges)), dtype=np.int64))
    assert_identical(cc.star0, deg / 4.0)
