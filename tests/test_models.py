import numpy as np
import pytest

import cylspec as cs
from cylspec.models import I1, I2, I3


def test_quaternion_algebra():
    eye = np.eye(4)
    for q in (I1, I2, I3):
        assert np.array_equal(q @ q, -eye)
        assert np.array_equal(q.T @ q, eye)
    assert np.array_equal(I1 @ I2, I3)
    assert np.array_equal(I1 @ I2 + I2 @ I1, np.zeros((4, 4)))
    assert np.array_equal(I1 @ I3 + I3 @ I1, np.zeros((4, 4)))
    assert np.array_equal(I2 @ I3 + I3 @ I2, np.zeros((4, 4)))


def test_constant_mode_model(square_t):
    model = cs.build_torus_model(square_t, 0.5)
    assert model.dim == 4
    assert np.abs(model.dirac).max() == 0.0
    spec = cs.eigendecompose(model)
    assert [(c.lam, c.dim) for c in spec.clusters] == [(0.0, 4)]


def test_torus_model_square_is_laplacian(square_t):
    # D^2 = Delta x Id_4 on the truncated mode space, and A^2 = D^2 for A = J D
    model = cs.build_torus_model(square_t, 2.5)
    modes = model.meta["modes"]
    lam = np.einsum("ij,ij->i", modes, modes)
    diag = np.diag(np.concatenate([[lam[0]] * 4] + [[l] * 8 for l in lam[1:]]))
    assert np.abs(model.dirac @ model.dirac - diag).max() <= 1e-10
    a = model.composite()
    assert np.abs(a @ a - diag).max() <= 1e-10


def test_check_model_negative_control(square_t):
    model = cs.build_torus_model(square_t, 1.5)
    bad = model.dirac.copy()
    bad[0, 5] += 1e-3
    broken = cs.DiracModel(model.label, model.mass, bad, model.complex_structure,
                           model.completeness_radius)
    assert not cs.check_model(broken).passed
    assert cs.check_model(model).passed


def test_sl_model_axioms_and_square(sl16):
    cc, model = sl16
    diag = cs.check_model(model)
    assert diag.passed, diag.residuals
    resid = np.abs(model.dirac @ model.dirac - cs.sl_laplacian_blocks(cc)).max()
    assert resid <= 1e-10
    assert model.dim == 2 * cc.n0 + cc.n1   # quad torus is self-dual: n2 = n0


def test_sl_model_kernel_genus1(sl16_spec):
    assert sl16_spec.d0() == 4


def test_sl_model_kernel_genus2():
    model = cs.build_sl_model(cs.genus2_quad_complex())
    assert cs.check_model(model).passed
    spec = cs.eigendecompose(model)
    assert spec.d0() == 6


def test_sl_model_on_triangulated_complex(square_t):
    # the block construction is mesh-agnostic: triangulated tori work too
    cc = cs.build_dec(cs.triangulated_torus_mesh(square_t, 6))
    model = cs.build_sl_model(cc)
    assert cs.check_model(model).passed
    assert np.abs(model.dirac @ model.dirac - cs.sl_laplacian_blocks(cc)).max() <= 1e-10
    assert cs.eigendecompose(model).d0() == 4


def test_sl_nonzero_spectrum_matches_laplacians(sl16):
    cc, model = sl16
    spec = cs.eigendecompose(model)
    l0 = cs.smallest_eigenvalues(cs.laplacian0(cc), 6)
    first = np.sqrt(l0[1])
    cluster = spec.cluster_at(first, tol=1e-6)
    assert cluster is not None
    # d_{sqrt(lam)} = (2 a + b) / 2 with a = mult in L0, b = mult in L1 = 2a here
    a = np.count_nonzero(np.abs(l0 - l0[1]) <= 1e-8)
    assert cluster.dim == 2 * a


def test_composite_self_adjoint_both_models(square_t, sl16):
    # A = J D satisfies A^T M = M A for both constructions
    for model in (cs.build_torus_model(square_t, 2.5), sl16[1]):
        a = model.composite()
        ma = model.mass[:, None] * a
        assert np.abs(ma - ma.T).max() <= 1e-10


def test_perturbation_coupling_normalized():
    pert = cs.make_perturbation(12, 1e-3, -1.0, seed=4)
    assert np.linalg.norm(pert.coupling, 2) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(pert.coupling - pert.coupling.T).max() == 0.0


def test_torus_model_axioms_random_lattices():
    rng = np.random.default_rng(31)
    for _ in range(10):
        basis = rng.uniform(-3.0, 3.0, size=(2, 2)) + np.diag([4.0, 4.0])
        torus = cs.FlatTorus(basis)
        model = cs.build_torus_model(torus, 1.2)
        assert cs.check_model(model).passed
        spec = cs.eigendecompose(model)
        for c in spec.clusters:
            mirror = spec.cluster_at(-c.lam)
            assert mirror is not None and mirror.dim == c.dim
