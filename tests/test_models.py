import functools
from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import cylspec as cs
from cylspec.dec import mass_eigh
from cylspec.errors import ConfigError
from cylspec.models import _AXIOM_TOL, I1, I2, I3
from tests.conftest import apply_without_skip, lattice_bases


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


@pytest.mark.parametrize("make, d0", [(lambda: cs.parametric_torus_mesh(12, 8), 4),
                                      (cs.genus2_mesh, 6)], ids=["donut", "genus2"])
def test_sl_mesh_spectrum_does_not_depend_on_the_unit(make, d0):
    # a mesh scaled by s has the eigenvalues / s and the same decisions: the
    # area floor of validate, the constants' tolerance and the spectrum's
    # cluster and residual tolerances are relative, from edges near the
    # lower limit of validate to edges near its upper one
    surf = make()
    unit = cs.eigendecompose(cs.build_sl_model(cs.build_dec(surf)))
    assert unit.d0() == d0
    for scale in (1e-72, 1e-3, 1e4, 1e32, 1e74):
        scaled = cs.surface_from_triangles(surf.vertex_positions * scale, surf.triangles)
        spec = cs.eigendecompose(cs.build_sl_model(cs.build_dec(scaled)))
        assert spec.d0() == d0
        assert [c.dim for c in spec.clusters] == [c.dim for c in unit.clusters]
        drift = np.abs(spec.eigenvalues * scale - unit.eigenvalues).max()
        assert drift <= 1e-13 * unit.spectral_radius


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


# ---------------------------------------------------------------------------
# reference axiom check: dense dim^3 products over every entry of each axiom

def exact_axiom_residuals(model: cs.DiracModel) -> dict:
    """Max-norm residuals of the model axioms over the whole matrices."""
    m = model.mass[:, None]
    j = model.complex_structure.toarray()
    md = sparse.diags(model.mass) @ model.dirac
    return {
        "selfadjoint": float(abs(md - md.T).max()),
        "j_square": float(np.abs(j @ j + np.eye(model.dim)).max()),
        "j_orthogonal": float(np.abs(j.T @ (m * j) - np.diag(model.mass)).max()),
        "anticommute": float(np.abs(model.dirac @ j + j @ model.dirac).max()),
    }


def exact_passes(res: dict) -> bool:
    return all(res[k] <= t for k, t in _AXIOM_TOL.items())


# A planted entry (i, k) reaches the probe residual through row k of the
# probe block X, whose largest |X[k, c]| over its 8 columns is at least 0.51
# on every row up to dim 1268; so the probe reads at least about half of the
# exact residual (1/1.59 at worst, planted on the rows of X with the smallest
# entries), and F = 2.5 leaves room for roundoff.
PROBE_FACTOR = 2.5

SL_MESHES = [("quad", n) for n in range(3, 11)] + [("genus2", 0), ("triangulated", 6)]


@functools.lru_cache(maxsize=None)
def sl_model(kind: str, n: int) -> cs.DiracModel:
    torus = cs.square_torus()
    if kind == "quad":
        return cs.build_sl_model(cs.quad_torus_complex(torus, n))
    if kind == "genus2":
        return cs.build_sl_model(cs.genus2_quad_complex())
    return cs.build_sl_model(cs.build_dec(cs.triangulated_torus_mesh(torus, n)))


@st.composite
def axiom_models(draw):
    """Block models on quad grids, the genus-2 complex and a triangulated
    torus, or torus models on random lattices."""
    if draw(st.booleans()):
        return sl_model(*draw(st.sampled_from(SL_MESHES)))
    diag = draw(st.lists(st.floats(3.0, 8.0), min_size=2, max_size=2))
    off = draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2))
    basis = np.array([[diag[0], off[0]], [off[1], diag[1]]])
    return cs.build_torus_model(cs.FlatTorus(basis), draw(st.floats(1.0, 10.0)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), model=axiom_models(), in_j=st.booleans(),
       delta=st.floats(1e-11, 1e-3))
def test_probe_check_matches_exact(data, model, in_j, delta):
    probe = cs.check_model(model)
    assert probe.passed, probe.residuals
    assert exact_passes(exact_axiom_residuals(model))

    # plant a single-entry error in J or in D
    i, k = (data.draw(st.integers(0, model.dim - 1)) for _ in range(2))
    if in_j:
        jmat = model.complex_structure.toarray()
        jmat[i, k] += delta
        bad = replace(model, complex_structure=sparse.csr_matrix(jmat))
    else:
        planted = sparse.csr_matrix(([delta], ([i], [k])), shape=model.dirac.shape)
        bad = replace(model, dirac=model.dirac + planted)
    probe = cs.check_model(bad)
    exact = exact_axiom_residuals(bad)
    assert probe.residuals["selfadjoint"] == exact["selfadjoint"]
    for key in ("j_square", "j_orthogonal", "anticommute"):
        assert probe.residuals[key] >= exact[key] / PROBE_FACTOR, (key, probe, exact)
    flagged = any(exact[key] > PROBE_FACTOR * tol for key, tol in _AXIOM_TOL.items())
    if delta >= 1e-6:
        assert flagged, exact
    if flagged:
        assert not probe.passed and not exact_passes(exact)


def test_check_model_catches_mutants(square_t):
    # build_sl_model with one J block's sign flipped, or with the face masses'
    # factor 1/star2 dropped
    cc = cs.quad_torus_complex(square_t, 8)
    model = cs.build_sl_model(cc)
    s0, s1, s2 = slice(0, cc.n0), slice(cc.n0, cc.n0 + cc.n2), slice(cc.n0 + cc.n2, model.dim)
    jmat = model.complex_structure.toarray()
    jmat[s0, s2] *= -1
    mass = model.mass.copy()
    mass[s1] = 1.0
    for mutant in (replace(model, complex_structure=sparse.csr_matrix(jmat)),
                   replace(model, mass=mass)):
        assert not cs.check_model(mutant).passed
        assert not exact_passes(exact_axiom_residuals(mutant))


def test_torus_model_size_guard(square_t):
    # dim is about 4 pi cutoff on the square 2 pi torus: the limit sits near
    # cutoff 326; one point per antipodal pair plus k = 0 gives dim 4 (2 n - 1)
    npts = cs.dual_lattice_points(square_t, 300.0).shape[0]
    assert 4 * (2 * npts - 1) <= cs.models.MAX_TORUS_DIM
    with pytest.raises(cs.errors.ConfigError, match="dim about 5026.55, above the limit 4096"):
        cs.build_torus_model(square_t, 400.0)


def test_torus_model_size_guard_on_thin_lattice(monkeypatch):
    # dual basis diag(1/30, 30): the disc |k|^2 <= 2 holds 85 points on one
    # line, where the area estimate counts 6
    monkeypatch.setattr(cs.models, "MAX_TORUS_DIM", 100)
    thin = cs.FlatTorus(np.diag([60 * np.pi, np.pi / 15]))
    with pytest.raises(cs.errors.ConfigError, match="dim 340, above the limit 100"):
        cs.build_torus_model(thin, 2.0)


def reference_face_cycle_rotation(cc):
    """The dense per-face loop _face_cycle_rotation replaced."""
    rot = np.zeros((cc.n1, cc.n1))
    d0 = cc.d0.tocoo()
    tail = np.zeros(cc.n1, dtype=int)
    head = np.zeros(cc.n1, dtype=int)
    for e, v, s in zip(d0.row, d0.col, d0.data):
        if s < 0:
            tail[e] = v
        else:
            head[e] = v
    d1 = cc.d1.tocoo()
    by_face = {}
    for f, e, s in zip(d1.row, d1.col, d1.data):
        by_face.setdefault(int(f), []).append((int(e), int(s)))
    for sides in by_face.values():
        start = {}
        for e, s in sides:
            u = tail[e] if s > 0 else head[e]
            if int(u) in start:
                start = {}
                break
            start[int(u)] = (e, s)
        if not start:
            continue
        for e, s in sides:
            e2, s2 = start[int(head[e] if s > 0 else tail[e])]
            rot[e2, e] += 0.25 * s * s2
    return rot


@pytest.mark.parametrize("make", [
    lambda t: cs.quad_torus_complex(t, 5, 3),
    lambda t: cs.genus2_quad_complex(),
    lambda t: cs.build_dec(cs.genus2_mesh()),
    lambda t: cs.build_dec(cs.parametric_torus_mesh(12, 8)),
    lambda t: cs.build_dec(cs.triangulated_torus_mesh(t, 2)),
], ids=["grid-5x3", "genus2-quad", "genus2-mesh", "donut-12x8", "grid-torus-2"])
def test_face_cycle_rotation_matches_loop(square_t, make):
    cc = make(square_t)
    rot = cs.models._face_cycle_rotation(cc)
    assert sparse.issparse(rot)
    assert np.array_equal(rot.toarray(), reference_face_cycle_rotation(cc))


# ---------------------------------------------------------------------------
# reference paths build_sl_model replaced: the dense solve for the Laplacian
# eigenpairs on grids and the dense pair-table J

def reference_function_eigenpairs(cc):
    """(values, vectors) of L0 and of L0_dual, by mass_eigh of the dense
    stiffness matrices."""
    d0 = cc.d0.toarray().astype(float)
    d1 = cc.d1.toarray().astype(float)
    m1 = cc.star1
    return (mass_eigh((d0.T * m1[None, :]) @ d0, cc.star0),
            mass_eigh((d1 / m1[None, :]) @ d1.T, 1.0 / cc.star2))


def reference_block_j(cc) -> np.ndarray:
    """The block model's J as a dense array, from the pair table with the
    mass_eigh eigenpairs: x (M y)^T and -y (M x)^T for every pair (x, y),
    and -harm J_H harm^T M1 on the harmonic cochains."""
    (vals0, vecs0), (vals2, vecs2) = reference_function_eigenpairs(cc)
    n0, n2 = cc.n0, cc.n2
    m0, m1, m2d = cc.star0, cc.star1, 1.0 / cc.star2
    dim = n0 + n2 + cc.n1
    s0, s1, s2 = slice(0, n0), slice(n0, n0 + n2), slice(n0 + n2, dim)
    d0 = cc.d0.toarray().astype(float)
    d1 = cc.d1.toarray().astype(float)
    v0, w0 = vecs0[:, 1:], vecs2[:, 1:]
    e_vec = (d0 @ v0) / np.sqrt(vals0[1:])[None, :]
    c_vec = (d1.T @ w0) / m1[:, None] / np.sqrt(vals2[1:])[None, :]
    kf = np.full((n0, 1), 1.0 / np.sqrt(m0.sum()))
    kg = np.full((n2, 1), 1.0 / np.sqrt(m2d.sum()))
    harm = cs.models._harmonic_basis(cc, e_vec, c_vec)
    jh = cs.models._harmonic_complex_structure(harm, m1, cc)[0]
    j = np.zeros((dim, dim))
    for sx, mx, x, sy, my, y in ((s0, m0, v0, s2, m1, e_vec), (s1, m2d, w0, s2, m1, c_vec),
                                 (s0, m0, kf, s1, m2d, kg)):
        j[sx, sy] = x @ (my[:, None] * y).T
        j[sy, sx] = -y @ (mx[:, None] * x).T
    j[s2, s2] = -harm @ jh @ (m1[:, None] * harm).T
    return j


grid_sides = st.tuples(st.integers(3, 12), st.integers(3, 12),
                       st.floats(1.0, 8.0), st.floats(1.0, 8.0))


def grid_complex(n, m, width, height):
    return cs.quad_torus_complex(cs.FlatTorus(np.diag([width, height])), n, m)


@settings(max_examples=60, deadline=None)
@given(grid_sides)
def test_grid_eigenpairs_match_mass_eigh(sides):
    # the closed form stands for both L0 and L0_dual on the self-dual grid
    cc = grid_complex(*sides)
    vals, vecs = cs.models._grid_eigenpairs(cc)
    for (ref_vals, ref_vecs), mass in zip(reference_function_eigenpairs(cc),
                                          (cc.star0, 1.0 / cc.star2)):
        radius = float(ref_vals.max())
        assert np.abs(vals - ref_vals).max() <= 1e-12 * radius
        cuts = np.flatnonzero(np.diff(ref_vals) > 1e-6 * radius) + 1
        for a, b in zip(np.r_[0, cuts], np.r_[cuts, vals.size]):
            assert cs.principal_angle_gap(vecs[:, a:b], ref_vecs[:, a:b], mass) <= 1e-10


def assert_j_matches_pair_table(cc):
    # relative to J's largest entry, about sqrt(dy/dx / (dx dy)) = 7.6 on the
    # 3 x 12 grid of the 8 x 1 torus; there the reference alone has
    # |J^2 + 1| = 2.3e-13, the factored J 9.4e-15
    j = cs.build_sl_model(cc).complex_structure
    ref = reference_block_j(cc)
    tol = 1e-13 * np.abs(ref).max()
    assert np.abs(j.toarray() - ref).max() <= tol
    assert np.abs(j.T.toarray() - ref.T).max() <= tol


@settings(max_examples=40, deadline=None)
@given(grid_sides)
def test_block_j_matches_pair_table_on_grids(sides):
    assert_j_matches_pair_table(grid_complex(*sides))


@pytest.mark.parametrize("make", [
    cs.genus2_quad_complex,
    lambda: cs.build_dec(cs.parametric_torus_mesh(12, 8)),
], ids=["genus2-quad", "donut-12x8"])
def test_block_j_matches_pair_table_on_meshes(make):
    assert_j_matches_pair_table(make())


@dataclass(frozen=True)
class WithTranspose:
    """An operator J whose transpose is given apart from it."""
    op: object
    T: object

    def __matmul__(self, x):
        return self.op @ x


@pytest.mark.parametrize("make", [
    lambda: grid_complex(7, 5, 3.0, 5.5),
    lambda: cs.build_dec(cs.parametric_torus_mesh(12, 8)),
], ids=["grid-7x5", "donut-12x8"])
def test_check_model_catches_transpose_without_mass(make):
    # J^T[s2, s0] = delta^T N0^T with N0^T = M0 V0 diag(mu^-1/2) V0^T: the
    # mutant drops its factor M0
    cc = make()
    model = cs.build_sl_model(cc)
    j = model.complex_structure
    s0, s2 = slice(0, cc.n0), slice(cc.n0 + cc.n2, model.dim)
    terms = []
    for rows, cols, factors in j.T.terms:
        if (rows, cols) == (s2, s0):
            delta_t, n0_t = factors
            factors = (delta_t, n0_t / cc.star0[:, None])
        terms.append((rows, cols, factors))
    mutant = WithTranspose(j, cs.models.BlockOperator(model.dim, tuple(terms)))
    assert cs.check_model(replace(model, complex_structure=WithTranspose(j, j.T))).passed
    diag = cs.check_model(replace(model, complex_structure=mutant))
    assert not diag.passed
    assert diag.residuals["j_orthogonal"] > _AXIOM_TOL["j_orthogonal"]


# ---------------------------------------------------------------------------
# the dense eigenbasis and J in that basis, filled from the pair table as
# build_sl_model and build_torus_model once did, against the column blocks
# and the CSR jmat; and the BlockOperator apply with no term skipped

def reference_pair_table_fill(cc):
    """(values, vectors, jeig) of the block model: the eigenbasis vectors and
    J in that basis as dense arrays, filled pair by pair from the table."""
    n0, n2 = cc.n0, cc.n2
    m0, m1, m2d = cc.star0, cc.star1, 1.0 / cc.star2
    dim = n0 + n2 + cc.n1
    s0, s1, s2 = slice(0, n0), slice(n0, n0 + n2), slice(n0 + n2, dim)
    if cc.meta.get("kind") == "quad-grid-torus":
        vals0, vecs0 = cs.models._grid_eigenpairs(cc)
        vals2, vecs2 = vals0, vecs0
    else:
        (vals0, vecs0), (vals2, vecs2) = reference_function_eigenpairs(cc)
    kf = np.full((n0, 1), 1.0 / np.sqrt(float(m0.sum())))
    kg = np.full((n2, 1), 1.0 / np.sqrt(float(m2d.sum())))
    root_mu, root_nu = np.sqrt(vals0[1:]), np.sqrt(vals2[1:])
    v0, w0 = vecs0[:, 1:], vecs2[:, 1:]
    e_vec = (cc.d0 @ v0) / root_mu[None, :]
    c_vec = (cc.d1.T @ w0) / m1[:, None] / root_nu[None, :]
    harm = cs.models._harmonic_basis(cc, e_vec, c_vec)
    jh = cs.models._harmonic_complex_structure(harm, m1, cc)[0]
    values = np.concatenate([root_mu, -root_mu, root_nu, -root_nu,
                             np.zeros(2 + harm.shape[1])])
    order = np.argsort(values, kind="stable")
    pos = np.empty(dim, dtype=int)
    pos[order] = np.arange(dim)
    p_v, p_e, p_w, p_c, p_k = np.split(pos, np.cumsum([root_mu.size] * 2 + [root_nu.size] * 2))
    vectors = np.zeros((dim, dim))
    jeig = np.zeros((dim, dim))
    for sx, x, px, sy, y, py in ((s0, v0, p_v, s2, e_vec, p_e), (s1, w0, p_w, s2, c_vec, p_c),
                                 (s0, kf, p_k[:1], s1, kg, p_k[1:2])):
        vectors[sx, px] = x
        vectors[sy, py] = y
        jeig[py, px] = -1.0
        jeig[px, py] = 1.0
    vectors[s2, p_k[2:]] = harm
    jeig[np.ix_(p_k[2:], p_k[2:])] = -jh
    return values[order], vectors, jeig


def reference_torus_fill(torus, cutoff):
    """(values, vectors, jeig) of the torus model, each a dense array in the
    sorted order."""
    modes = cs.dual_lattice_points(torus, cutoff)
    npairs = modes.shape[0] - 1
    eye = np.eye(4)
    norms = np.hypot(modes[1:, 0], modes[1:, 1])
    smats = [I3 @ (k[0] * I1 + k[1] * I2) / nk for k, nk in zip(modes[1:], norms)]
    values = np.concatenate([np.zeros(4), np.repeat(np.stack([norms, -norms], axis=1), 4)])
    vectors = sparse.block_diag([eye] + [np.block([[eye, eye], [-s, s]]) for s in smats])
    swap = np.kron([[0.0, 1.0], [1.0, 0.0]], I3)
    jeig = sparse.block_diag([I3] + [swap] * npairs).toarray()
    order = np.argsort(values, kind="stable")
    return (values[order], vectors.toarray()[:, order] / np.sqrt(torus.area),
            jeig[np.ix_(order, order)])


def assert_fill_matches(basis, reference):
    values, vectors, jeig = reference
    assert np.array_equal(basis.values, values)
    assert np.array_equal(basis.columns(0, basis.dim), vectors)
    assert basis.jmat.format == "csr"
    assert np.array_equal(basis.jmat.toarray(), jeig)
    for start, stop in ((0, basis.dim), (1, basis.dim // 2), (basis.dim // 3, basis.dim - 1)):
        assert np.array_equal(basis.columns(start, stop), vectors[:, start:stop])


@settings(max_examples=40, deadline=None)
@given(grid_sides)
def test_block_fill_matches_pair_table_on_grids(sides):
    cc = grid_complex(*sides)
    assert_fill_matches(cs.build_sl_model(cc).eigenbasis, reference_pair_table_fill(cc))


@pytest.mark.parametrize("make", [
    cs.genus2_quad_complex,
    lambda: cs.build_dec(cs.genus2_mesh()),
    lambda: cs.build_dec(cs.parametric_torus_mesh(12, 8)),
], ids=["genus2-quad", "genus2-mesh", "donut-12x8"])
def test_block_fill_matches_pair_table_on_meshes(make):
    cc = make()
    assert_fill_matches(cs.build_sl_model(cc).eigenbasis, reference_pair_table_fill(cc))


@settings(max_examples=40, deadline=None)
@given(lattice_bases(), st.floats(min_value=0.5, max_value=12.0))
def test_torus_fill_matches_dense_arrays(basis, cutoff):
    torus = cs.FlatTorus(basis)
    model = cs.build_torus_model(torus, cutoff)
    assert len(model.eigenbasis.blocks) == 1   # one block over all rows
    assert_fill_matches(model.eigenbasis, reference_torus_fill(torus, cutoff))
    # J = Id x I3, one term over a CSR factor
    j = model.complex_structure
    [(_, _, (factor,))] = j.terms
    assert factor.format == "csr"
    assert np.array_equal(j.toarray(), np.kron(np.eye(model.dim // 4), I3))


def assert_piece_apply_matches_full_apply(cc, width, seed):
    # an operand on one row slice, as D[S, R] B is: the piece apply runs
    # only the terms that read it, and the terms it skips would only have
    # added zeros, so the outputs agree up to the sign of zero (array_equal
    # takes -0.0 == 0.0); @ applies every slice at once
    j = cs.build_sl_model(cc).complex_structure
    n0, n2 = cc.n0, cc.n2
    x = np.random.default_rng(seed).standard_normal((j.dim, width + 1))
    for op in (j, j.T):
        # a contiguous vector: a strided one may take another BLAS path
        for operand in (x, x[:, 0].copy()):
            assert np.array_equal(op @ operand, apply_without_skip(op, operand))
            for part in (slice(0, n0), slice(n0, n0 + n2), slice(n0 + n2, j.dim)):
                alone = np.zeros(operand.shape)
                alone[part] = operand[part]
                pieces = op.apply_pieces([(part, operand[part])])
                assert len({(rows.start, rows.stop) for rows, _ in pieces}) == len(pieces)
                out = np.zeros(operand.shape)
                for rows, piece in pieces:
                    out[rows] = piece
                assert np.array_equal(out, apply_without_skip(op, alone))


@settings(max_examples=40, deadline=None)
@given(grid_sides, st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_block_operator_piece_apply_matches_full_apply(sides, width, seed):
    assert_piece_apply_matches_full_apply(grid_complex(*sides), width, seed)


@functools.lru_cache(maxsize=None)
def mesh_complex(name):
    return {"genus2-quad": cs.genus2_quad_complex,
            "genus2-mesh": lambda: cs.build_dec(cs.genus2_mesh()),
            "donut-12x8": lambda: cs.build_dec(cs.parametric_torus_mesh(12, 8))}[name]()


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["genus2-quad", "genus2-mesh", "donut-12x8"]), st.integers(0, 4),
       st.integers(0, 2**32 - 1))
def test_block_operator_piece_apply_matches_full_apply_on_meshes(name, width, seed):
    assert_piece_apply_matches_full_apply(mesh_complex(name), width, seed)


def test_piece_off_the_column_slices_rejected(sl16):
    j = sl16[1].complex_structure
    with pytest.raises(ValueError, match="off the operator's column slices"):
        j.apply_pieces([(slice(0, 3), np.ones((3, 2)))])


@pytest.mark.parametrize("sides", [(8, 8, 1.0, 1.0), (12, 12, 2.0, 2.0), (16, 16, 6.0, 6.0)])
def test_self_dual_grid_forms_n0_once(sides):
    # on a square grid L0_dual is L0 and 1/star2 equals star0 bitwise, so
    # N2 is N0: the terms N0 delta and N2 t_up hold the same array
    cc = grid_complex(*sides)
    assert np.array_equal(1.0 / cc.star2, cc.star0)
    terms = cs.build_sl_model(cc).complex_structure.terms
    assert terms[0][2][0] is terms[1][2][0]
    assert terms[2][2][1] is terms[3][2][1]


def test_grid_with_unequal_masses_forms_n2_apart():
    # the 7 x 5 grid of a 3 x 5.5 torus: 1/star2 is star0 up to rounding only,
    # so N2 is formed apart and J still matches the pair table
    cc = grid_complex(7, 5, 3.0, 5.5)
    assert not np.array_equal(1.0 / cc.star2, cc.star0)
    terms = cs.build_sl_model(cc).complex_structure.terms
    assert terms[0][2][0] is not terms[1][2][0]
    assert_j_matches_pair_table(cc)


def reference_hstack_blocks(cc):
    """The three column blocks [v0 kf], [w0 kg] and [e c harm] of the block
    model as np.hstack assembled them, from eigenvectors formed apart (the
    grid's closed form divided out of place)."""
    m1, m2d = cc.star1, 1.0 / cc.star2
    if cc.meta.get("kind") == "quad-grid-torus":
        (n, m), (dx, dy) = cc.meta["shape"], cc.meta["spacing"]
        phi, sx = cs.models._fourier_basis(n)
        psi, sy = cs.models._fourier_basis(m)
        vals = np.add.outer(4.0 / dy**2 * sy**2, 4.0 / dx**2 * sx**2).ravel()
        order = np.argsort(vals, kind="stable")
        vecs = np.kron(psi, phi)[:, order] / np.sqrt(dx * dy)
        (vals0, vecs0), (vals2, vecs2) = (vals[order], vecs), (vals[order], vecs)
    else:
        (vals0, vecs0), (vals2, vecs2) = reference_function_eigenpairs(cc)
    kf = np.full((cc.n0, 1), 1.0 / np.sqrt(float(cc.star0.sum())))
    kg = np.full((cc.n2, 1), 1.0 / np.sqrt(float(m2d.sum())))
    v0, w0 = vecs0[:, 1:], vecs2[:, 1:]
    e_vec = (cc.d0 @ v0) / np.sqrt(vals0[1:])[None, :]
    c_vec = (cc.d1.T @ w0) / m1[:, None] / np.sqrt(vals2[1:])[None, :]
    harm = cs.models._harmonic_basis(cc, e_vec, c_vec)
    return np.hstack([v0, kf]), np.hstack([w0, kg]), np.hstack([e_vec, c_vec, harm])


def assert_blocks_match_hstack(cc):
    blocks = [block for _, _, block in cs.build_sl_model(cc).eigenbasis.blocks]
    for block, ref in zip(blocks, reference_hstack_blocks(cc)):
        assert block.shape == ref.shape and np.array_equal(block, ref)
    # one array for the vertex and face blocks exactly where N2 is N0
    assert (blocks[0] is blocks[1]) == (cc.meta.get("kind") == "quad-grid-torus"
                                         and np.array_equal(1.0 / cc.star2, cc.star0))


@settings(max_examples=40, deadline=None)
@given(grid_sides)
def test_in_place_blocks_match_hstack_on_grids(sides):
    assert_blocks_match_hstack(grid_complex(*sides))


@pytest.mark.parametrize("make", [
    lambda: grid_complex(16, 16, 2 * np.pi, 2 * np.pi),
    lambda: grid_complex(7, 5, 3.0, 5.5),
    cs.genus2_quad_complex,
    lambda: cs.build_dec(cs.genus2_mesh()),
    lambda: cs.build_dec(cs.parametric_torus_mesh(12, 8)),
], ids=["square-16", "unequal-masses-7x5", "genus2-quad", "genus2-mesh", "donut-12x8"])
def test_in_place_blocks_match_hstack_on_meshes(make):
    assert_blocks_match_hstack(make())


def test_sl_dim_limit():
    cs.models.check_sl_dim(cs.models.MAX_SL_DIM, "the 32 x 32 grid")
    with pytest.raises(ConfigError, match="gives a block model of dim 4097, above the limit"):
        cs.models.check_sl_dim(cs.models.MAX_SL_DIM + 1, "a complex")


def test_oversized_block_model_rejected_before_dense_arrays(square_t, monkeypatch):
    # the 33 x 33 grid complex is sparse and small; the model would be dim 4356
    def dense(*args, **kwargs):
        raise AssertionError("dense eigenpairs for an oversized block model")

    cc = cs.quad_torus_complex(square_t, 33)
    monkeypatch.setattr(cs.models, "_grid_eigenpairs", dense)
    monkeypatch.setattr(cs.models, "mass_eigh", dense)
    with pytest.raises(ConfigError, match="1089 vertices, 2178 edges and 1089 faces gives a "
                                          "block model of dim 4356, above the limit 4096"):
        cs.build_sl_model(cc)


# ---------------------------------------------------------------------------
# the harmonic cochains, the complement of the exact and coexact cochains,
# against the 1-form Laplacian solve build_sl_model once ran for them

def reference_harmonic_basis(cc):
    """M1-orthonormal harmonic cochains as the 2*genus lowest eigenvectors of
    the dense L1 stiffness, which must be separated from the rest."""
    stiff = (sparse.diags(cc.star1) @ cs.laplacian1(cc).matrix).toarray()
    vals, vecs = mass_eigh(0.5 * (stiff + stiff.T), cc.star1)
    twog = 2 * cc.genus
    gap = vals[twog] if cc.n1 > twog else np.inf
    assert twog == 0 or vals[twog - 1] <= 1e-8 * max(gap, 1e-30)
    h = vecs[:, :twog]
    low = np.linalg.cholesky(h.T @ (cc.star1[:, None] * h))
    return h @ np.linalg.inv(low).T


def model_harmonics(model, cc):
    """The harmonic columns of the model's cochain block [e c harm]."""
    block = model.eigenbasis.blocks[2][2]
    return block[:, block.shape[1] - 2 * cc.genus:]


def octahedron():
    """The regular octahedron, outward-oriented: a genus-0 surface."""
    axes = np.vstack([np.eye(3), -np.eye(3)])
    tris = [(x, y, z) if sx * sy * sz > 0 else (x, z, y)
            for sx, x in ((1, 0), (-1, 3)) for sy, y in ((1, 1), (-1, 4))
            for sz, z in ((1, 2), (-1, 5))]
    return cs.surface_from_triangles(axes, tris)


harmonic_complexes = pytest.mark.parametrize("make", [
    cs.genus2_quad_complex,
    lambda: cs.build_dec(cs.genus2_mesh()),
    lambda: cs.build_dec(cs.parametric_torus_mesh(12, 8)),
    lambda: cs.build_dec(cs.triangulated_torus_mesh(cs.square_torus(), 8)),
], ids=["genus2-quad", "genus2-mesh", "donut-12x8", "triangulated-torus-8"])


@harmonic_complexes
def test_harmonic_block_matches_l1_eigh(make):
    cc = make()
    model = cs.build_sl_model(cc)
    harm = model_harmonics(model, cc)
    assert harm.shape == (cc.n1, 2 * cc.genus)
    assert cs.principal_angle_gap(harm, reference_harmonic_basis(cc), cc.star1) <= 1e-10
    assert cs.check_model(model).passed


def test_harmonic_block_is_m1_orthonormal_to_rounding():
    # the second projection and the second CholeskyQR pass each matter on
    # genus 2: with one projection the harmonic cochains are M1-orthogonal to
    # the exact and coexact ones to 3.4e-13 (4.7e-15 with two), with one
    # pass M1-orthonormal to 1.2e-12 (2.2e-16 with two)
    cc = cs.build_dec(cs.genus2_mesh())
    block = cs.build_sl_model(cc).eigenbasis.blocks[2][2]
    split = block.shape[1] - 2 * cc.genus
    exact_coexact, harm = block[:, :split], block[:, split:]
    gram = harm.T @ (cc.star1[:, None] * harm)
    assert np.abs(gram - np.eye(2 * cc.genus)).max() <= 2e-14
    assert np.abs(exact_coexact.T @ (cc.star1[:, None] * harm)).max() <= 5e-14


def test_genus0_harmonic_block_is_empty():
    cc = cs.build_dec(octahedron())
    assert cc.genus == 0
    model = cs.build_sl_model(cc)
    assert model_harmonics(model, cc).shape == (cc.n1, 0)
    assert reference_harmonic_basis(cc).shape == (cc.n1, 0)
    assert model.meta["harmonic_correction"] == 0.0
    assert cs.eigendecompose(model).d0() == 2
    assert cs.check_model(model).passed


@harmonic_complexes
def test_mesh_model_solves_the_function_laplacians_only(monkeypatch, make):
    cc = make()
    sizes = []

    def recording_eigh(stiff, mass):
        sizes.append(stiff.shape)
        return mass_eigh(stiff, mass)

    def no_l1(*args, **kwargs):
        raise AssertionError("a 1-form Laplacian for the harmonic cochains")

    monkeypatch.setattr(cs.models, "mass_eigh", recording_eigh)
    monkeypatch.setattr(cs.models, "laplacian1", no_l1)
    cs.build_sl_model(cc)
    assert sizes == [(cc.n0, cc.n0), (cc.n2, cc.n2)]


@harmonic_complexes
def test_harmonic_correction_ignores_the_basis(make):
    # cand - J_H turns into Q^T (cand - J_H) Q under a change of basis by Q;
    # its spectral norm does not move
    cc = make()
    model = cs.build_sl_model(cc)
    harm = model_harmonics(model, cc)
    q = np.linalg.qr(np.random.default_rng(7).standard_normal((harm.shape[1],) * 2))[0]
    rotated = cs.models._harmonic_complex_structure(harm @ q, cc.star1, cc)[1]
    assert abs(rotated - model.meta["harmonic_correction"]) <= 1e-12



@harmonic_complexes
def test_degenerate_quarter_turn_falls_back_to_pairing(monkeypatch, make):
    # a zero candidate has no polar factor: J_H pairs consecutive harmonic
    # basis vectors instead, still an exact M-orthogonal anti-involution, at
    # distance 1 from the candidate
    cc = make()
    monkeypatch.setattr(cs.models, "_face_cycle_rotation",
                        lambda cc: sparse.csr_matrix((cc.n1, cc.n1)))
    model = cs.build_sl_model(cc)
    assert model.meta["harmonic_correction"] == 1.0
    assert cs.check_model(model).passed
    assert cs.eigendecompose(model).d0() == 2 + 2 * cc.genus
