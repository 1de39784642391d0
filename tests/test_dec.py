import numpy as np
import pytest

import cylspec as cs
from tests.conftest import fourier_oracle


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


def test_barycentric_star0_partitions_area(square_t):
    cc = cs.build_dec(cs.triangulated_torus_mesh(square_t, 8), stars="barycentric")
    assert abs(cc.star0.sum() - square_t.area) <= 1e-9


def test_laplacian_symmetry_and_kernel(square_t):
    cc = cs.build_dec(cs.triangulated_torus_mesh(square_t, 8))
    l0 = cs.laplacian0(cc)
    l1 = cs.laplacian1(cc)
    assert l0.symmetry_residual() <= 1e-10
    assert l1.symmetry_residual() <= 1e-10
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
    assert cs.numeric_kernel_dim(ev1) == 2
    cc2 = cs.build_dec(cs.genus2_mesh())
    ev2 = laplace_eigs_dense(cs.laplacian1(cc2), 8)
    assert cs.numeric_kernel_dim(ev2) == 4


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


def test_numeric_kernel_gap_rule():
    assert cs.numeric_kernel_dim(np.array([1e-14, 1e-13, 0.5, 1.0])) == 2
    assert cs.numeric_kernel_dim(np.array([1e-3, 0.5, 1.0])) == 0
    assert cs.numeric_kernel_dim(np.array([1e-12, 1e-11])) == 2


def test_inconsistent_incidence_rejected(square_t):
    cc = cs.quad_torus_complex(square_t, 3)
    bad_d1 = cc.d1.tolil()
    bad_d1[0, 0] = 0          # a face boundary with one side missing
    with pytest.raises(ValueError, match="d1 @ d0"):
        cs.CochainComplex(cc.d0, bad_d1.tocsr(), cc.star0, cc.star1, cc.star2,
                          cc.star_mode, cc.meta)
