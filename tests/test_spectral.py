import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cylspec as cs
from cylspec import spectral
from cylspec.dec import mass_eigh
from cylspec.errors import ConvergenceFailure, WindowExceedsCutoff
from tests.conftest import apply_without_skip, lattice_bases


def jacobi_eigenvalues(sym, sweeps=30, tol=1e-14):
    """Cyclic Jacobi reference eigensolver; independent of the LAPACK route."""
    a = np.array(sym, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * np.linalg.norm(a):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-300:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / a[p, q]
                sign = 1.0 if theta >= 0 else -1.0   # theta = 0 needs the full 45 degrees
                t = sign / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def test_eigendecompose_against_jacobi_oracle(square_t):
    model = cs.build_torus_model(square_t, 1.5)
    spec = cs.eigendecompose(model)
    rt = np.sqrt(model.mass)
    sym = (model.composite() * rt[:, None]) / rt[None, :]
    oracle = jacobi_eigenvalues(0.5 * (sym + sym.T))
    assert np.abs(np.sort(spec.eigenvalues) - oracle).max() <= 1e-10


def test_clusters_cutoff_15(torus_spec_15):
    assert [(round(c.lam, 9), c.dim) for c in torus_spec_15.clusters] == \
        [(-1.0, 8), (0.0, 4), (1.0, 8)]


def test_m_orthonormality(torus_spec_25):
    v = torus_spec_25.basis.columns(0, torus_spec_25.dim)
    g = v.T @ (torus_spec_25.mass[:, None] * v)
    assert np.abs(g - np.eye(v.shape[1])).max() <= 1e-8


def test_multiplicity_law(square_t, torus_spec_25):
    fourier = dict()
    for lam, mult in cs.torus_fourier_spectrum(square_t, 2.5):
        fourier[round(lam, 9)] = mult
    for lam, mult in fourier.items():
        if lam == 0:
            assert torus_spec_25.d0() == 4
        else:
            for sign in (+1, -1):
                c = torus_spec_25.cluster_at(sign * np.sqrt(lam), tol=1e-6)
                assert c is not None and c.dim == 2 * mult


def test_indicial_roots_window(torus_spec_25):
    roots = cs.indicial_roots(torus_spec_25, (-1.2, 1.2))
    assert [(round(l, 9), d) for l, d in roots] == [(-1.0, 8), (0.0, 4), (1.0, 8)]
    assert cs.indicial_roots(torus_spec_25, (0.1, 0.2)) == []


def test_window_exceeds_cutoff(torus_spec_25):
    with pytest.raises(WindowExceedsCutoff):
        cs.indicial_roots(torus_spec_25, (-2.0, 2.0))
    # right at the completeness radius is fine
    cs.indicial_roots(torus_spec_25, (-np.sqrt(2.5), np.sqrt(2.5)))


def test_homogeneous_kernel(torus_spec_25):
    v0 = cs.homogeneous_kernel(torus_spec_25, 0.0)
    assert v0.shape[1] == 4
    # kernel is spanned by constant sections: no support on nonconstant modes
    assert np.abs(v0[4:, :]).max() <= 1e-8
    assert cs.homogeneous_kernel(torus_spec_25, 0.5).shape[1] == 0


def test_j_maps_plus_to_minus(torus_spec_25):
    vp = cs.homogeneous_kernel(torus_spec_25, 1.0)
    vm = cs.homogeneous_kernel(torus_spec_25, -1.0)
    model = cs.build_torus_model(cs.square_torus(), 2.5)
    gap = cs.principal_angle_gap(model.complex_structure @ vp, vm, torus_spec_25.mass)
    assert gap <= 1e-8


def test_symmetric_multiplicities_both_models(torus_spec_25, sl16_spec):
    for spec in (torus_spec_25, sl16_spec):
        total = 0
        for c in spec.clusters:
            mirror = spec.cluster_at(-c.lam)
            assert mirror is not None and mirror.dim == c.dim
            total += c.dim
        assert total == spec.dim


def test_synthetic_spectrum_roots():
    spec = cs.synthetic_spectrum([(0.0, 4), (1.0, 8), (-1.0, 8)], 2.0)
    assert spec.d0() == 4
    assert sum(d for _, d in spec.roots_between(-1.5, -0.5)) == 8
    assert sum(d for _, d in spec.roots_between(0.5, 0.9)) == 0
    assert spec.nearest_root(-0.4) == (0.0, pytest.approx(0.4))


def test_csv_export(tmp_path, torus_spec_15):
    path = tmp_path / "spec.csv"
    cs.spectrum_to_csv(torus_spec_15, path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "index,eigenvalue,cluster_id,cluster_lambda,d_lambda"
    assert len(rows) == 1 + torus_spec_15.dim


def test_sl_zero_window(sl16_spec):
    roots = cs.indicial_roots(sl16_spec, (-1e-6, 1e-6))
    assert roots == [(0.0, 4)]   # 2 + 2 genus


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.floats(min_value=-5.0, max_value=5.0),
                       st.integers(min_value=0, max_value=6), max_size=12),
       st.floats(min_value=-6.0, max_value=6.0), st.floats(min_value=-6.0, max_value=6.0))
def test_roots_between_matches_brute_force(roots, a, b):
    lo, hi = min(a, b), max(a, b)
    spec = cs.synthetic_spectrum(list(roots.items()), 6.0)
    brute = sorted((lam, d) for lam, d in roots.items() if lo < lam < hi and d > 0)
    assert spec.roots_between(lo, hi) == brute
    count = int(np.count_nonzero((spec.eigenvalues > lo) & (spec.eigenvalues < hi)))
    assert sum(d for _, d in spec.roots_between(lo, hi)) == count


def dense_reference(model):
    """Eigenpairs of A = J D from one dense solve of the whole operator."""
    return mass_eigh(model.mass[:, None] * model.composite(), model.mass)


def assert_matches_dense(model):
    spec = cs.eigendecompose(model)
    vals, vecs = dense_reference(model)
    radius = max(1.0, float(np.abs(vals).max()))
    assert np.abs(spec.eigenvalues - vals).max() <= 1e-10 * radius
    cuts = np.flatnonzero(np.diff(vals) > 1e-6 * radius) + 1
    bounds = np.concatenate([[0], cuts, [vals.size]])
    assert ([(c.start, c.stop, c.dim) for c in spec.clusters]
            == [(int(a), int(b), int(b - a)) for a, b in zip(bounds[:-1], bounds[1:])])
    v = spec.basis.columns(0, model.dim)
    for c in spec.clusters:
        assert cs.principal_angle_gap(v[:, c.start:c.stop], vecs[:, c.start:c.stop],
                                      model.mass) <= 1e-8
    mv = model.mass[:, None] * v
    assert np.abs(spec.jmat.toarray() - mv.T @ (model.complex_structure @ v)).max() <= 1e-10
    assert np.abs(v.T @ mv - np.eye(model.dim)).max() <= 1e-10


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=3, max_value=12), st.integers(min_value=3, max_value=12),
       st.floats(min_value=1.0, max_value=8.0), st.floats(min_value=1.0, max_value=8.0))
def test_block_eigenbasis_matches_dense_on_grids(n, m, width, height):
    torus = cs.FlatTorus(np.diag([width, height]))
    assert_matches_dense(cs.build_sl_model(cs.quad_torus_complex(torus, n, m)))


@pytest.mark.parametrize("make", [
    cs.genus2_quad_complex,
    lambda: cs.build_dec(cs.genus2_mesh()),
    lambda: cs.build_dec(cs.parametric_torus_mesh(12, 8)),
], ids=["genus2-quad", "genus2-mesh", "donut-12x8"])
def test_block_eigenbasis_matches_dense_on_meshes(make):
    assert_matches_dense(cs.build_sl_model(make()))


@settings(max_examples=50, deadline=None)
@given(lattice_bases(), st.floats(min_value=0.5, max_value=12.0))
def test_torus_eigenbasis_matches_dense(basis, cutoff):
    assert_matches_dense(cs.build_torus_model(cs.FlatTorus(basis), cutoff))


@pytest.mark.parametrize("basis, cutoff", [
    (np.diag([2 * np.pi, 2 * np.pi]), 10.0),
    (np.diag([3.0, 5.5]), 12.0),
    (np.array([[3.0, 1.0], [0.5, 4.0]]), 6.0),
], ids=["square", "rectangular", "oblique"])
def test_torus_jmat_is_a_signed_permutation(basis, cutoff):
    spec = cs.eigendecompose(cs.build_torus_model(cs.FlatTorus(basis), cutoff))
    jmat = spec.jmat.toarray()
    assert set(np.unique(jmat)) <= {-1.0, 0.0, 1.0}
    assert np.all(np.count_nonzero(jmat, axis=0) == 1)
    assert np.all(np.count_nonzero(jmat, axis=1) == 1)
    # the stated layout: the kernel is e_a / sqrt(area) in order, where J is I3,
    # and J maps the i-th column at +|k| to the i-th column at -|k| by I3
    for c in spec.clusters:
        if c.lam >= 0:
            m = spec.cluster_at(-c.lam)
            assert np.array_equal(jmat[m.start:m.stop, c.start:c.stop],
                                  np.kron(np.eye(c.dim // 4), cs.I3))


def test_block_spectrum_skips_the_dense_solve(monkeypatch, square_t, sl16):
    def dense(*args, **kwargs):
        raise AssertionError("dense solve on a model that carries its eigenbasis")

    torus_model = cs.build_torus_model(square_t, 2.5)
    monkeypatch.setattr(np.linalg, "eigh", dense)
    assert cs.eigendecompose(sl16[1]).d0() == 4
    assert cs.eigendecompose(torus_model).d0() == 4


def test_corrupt_eigenbasis_fails_residual_check(sl16):
    model = sl16[1]
    values = model.eigenbasis.values.copy()
    values[-1] *= 1.0 + 1e-6
    bad = dataclasses.replace(model, eigenbasis=dataclasses.replace(model.eigenbasis,
                                                                     values=values))
    with pytest.raises(ConvergenceFailure):
        cs.eigendecompose(bad)


# ---------------------------------------------------------------------------
# the residual checked block by block against the dense J (D V) - V Lam, and
# the cluster facts against the loops that ran on every call

def dense_residual(model):
    """Max column M-norm of J (D V) - V Lam for the block model, with the dense
    eigenvectors V and J applied with no term skipped."""
    basis = model.eigenbasis
    v = basis.columns(0, basis.dim)
    av = apply_without_skip(model.complex_structure, model.dirac @ v) - v * basis.values[None, :]
    return float(np.sqrt(model.mass @ (av * av)).max())


def assert_block_residual_matches_dense(model):
    assert abs(cs.eigendecompose(model).meta["residual"] - dense_residual(model)) <= 1e-13


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=3, max_value=12), st.integers(min_value=3, max_value=12),
       st.floats(min_value=1.0, max_value=8.0), st.floats(min_value=1.0, max_value=8.0))
def test_block_residual_matches_dense_on_grids(n, m, width, height):
    torus = cs.FlatTorus(np.diag([width, height]))
    assert_block_residual_matches_dense(cs.build_sl_model(cs.quad_torus_complex(torus, n, m)))


@pytest.mark.parametrize("make", [
    cs.genus2_quad_complex,
    lambda: cs.build_dec(cs.genus2_mesh()),
    lambda: cs.build_dec(cs.parametric_torus_mesh(12, 8)),
], ids=["genus2-quad", "genus2-mesh", "donut-12x8"])
def test_block_residual_matches_dense_on_meshes(make):
    assert_block_residual_matches_dense(cs.build_sl_model(make()))


def test_block_residual_peak_memory(sl16, sl16_spec):
    # the residual runs on row pieces: no dim x k array per column block.
    # On the 16 x 16 grid (dim 1024) the check peaks at about 7 MiB; with
    # the cochain block's dim x 512 product, output and squares it peaked
    # at 13 MiB
    tracemalloc.start()
    try:
        spec = cs.eigendecompose(sl16[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.meta["residual"] == sl16_spec.meta["residual"]
    assert peak <= 10 * 2**20


def test_chunked_residual_peak_memory(sl16, sl16_spec):
    # 128 columns at a time: the cochain block's dim x 512 pieces are
    # dim x 128, and the check peaks at about 1.8 MiB on the 16 x 16 grid
    tracemalloc.start()
    try:
        spec = cs.eigendecompose(sl16[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.meta["residual"] == sl16_spec.meta["residual"]
    assert peak <= 3 * 2**20


def chunked_residuals(model, width):
    """meta["residual"] and the residual's column norms, block by block, when
    eigendecompose checks ``width`` columns at a time; every chunk it passes
    is asserted to be at most that wide."""
    run = spectral._residual_norms
    norms = []

    def spy(model, j, rows, block, lam):
        assert 0 < block.shape[1] <= width and lam.shape == block.shape[1:]
        norms.append(run(model, j, rows, block, lam))
        return norms[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_RESIDUAL_COLUMNS", width)
        mp.setattr(spectral, "_residual_norms", spy)
        resid = cs.eigendecompose(model).meta["residual"]
    return resid, np.concatenate(norms)


def assert_chunks_match_one_chunk(model, width):
    # BLAS picks its kernels by operand width, so a column's norm may move
    # by round-off between widths (1.26e-14 -> 1.17e-14 at width 1 on the
    # 16 x 16 grid, 4.9e-14 apart on the 16 x 16 grid of the 1 x 8 torus,
    # radius 32); the bound is 1e-5 of the residual gate
    resid, norms = chunked_residuals(model, width)
    ref_resid, ref_norms = chunked_residuals(model, model.dim)
    tol = 1e-13 * max(1.0, float(np.abs(model.eigenbasis.values).max()))
    assert resid == norms.max()
    assert norms.shape == ref_norms.shape == (model.dim,)
    assert np.abs(norms - ref_norms).max() <= tol
    assert abs(resid - ref_resid) <= tol
    if width == spectral._RESIDUAL_COLUMNS:
        assert resid == cs.eigendecompose(model).meta["residual"]


chunk_widths = st.sampled_from([1, 7, 128, None])   # None: the whole block


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=16), st.integers(min_value=3, max_value=16),
       st.floats(min_value=1.0, max_value=8.0), st.floats(min_value=1.0, max_value=8.0),
       chunk_widths)
def test_chunked_residual_matches_one_chunk_on_grids(n, m, width, height, chunk):
    model = cs.build_sl_model(cs.quad_torus_complex(cs.FlatTorus(np.diag([width, height])),
                                                    n, m))
    assert_chunks_match_one_chunk(model, chunk or model.dim)


@pytest.mark.parametrize("chunk", [1, 7, 128, None])
@pytest.mark.parametrize("make", [
    lambda: cs.build_sl_model(cs.genus2_quad_complex()),
    lambda: cs.build_sl_model(cs.build_dec(cs.genus2_mesh())),
    lambda: cs.build_sl_model(cs.build_dec(cs.parametric_torus_mesh(12, 8))),
    lambda: cs.build_torus_model(cs.square_torus(), 10.0),
    lambda: cs.build_torus_model(cs.FlatTorus(np.array([[3.0, 1.0], [0.5, 4.0]])), 12.0),
], ids=["genus2-quad", "genus2-mesh", "donut-12x8", "square-torus", "oblique-torus"])
def test_chunked_residual_matches_one_chunk_on_meshes_and_tori(make, chunk):
    model = make()
    assert_chunks_match_one_chunk(model, chunk or model.dim)


def corrupt_block(model, index, mutate):
    basis = model.eigenbasis
    blocks = list(basis.blocks)
    rows, cols, block = blocks[index]
    blocks[index] = (rows, *mutate(cols.copy(), block.copy()))
    return dataclasses.replace(model, eigenbasis=dataclasses.replace(basis, blocks=tuple(blocks)))


def scale_a_column(cols, block):
    block[:, 5] *= 1.0 + 1e-6     # still an eigenvector, no longer M-normal
    return cols, block


def swap_two_positions(cols, block):
    cols[[0, -1]] = cols[[-1, 0]]   # two columns at each other's eigenvalues
    return cols, block


@pytest.mark.parametrize("mutate", [scale_a_column, swap_two_positions], ids=["scale", "swap"])
def test_corrupt_column_block_fails_residual_check(sl16, square_t, mutate):
    for model in (sl16[1], cs.build_torus_model(square_t, 2.5)):
        for index in range(len(model.eigenbasis.blocks)):
            with pytest.raises(ConvergenceFailure):
                cs.eigendecompose(corrupt_block(model, index, mutate))


@pytest.mark.parametrize("column", [127, 128])
@pytest.mark.parametrize("how", ["scale", "mix"])
def test_corrupt_column_at_a_chunk_edge_fails_residual_check(sl16, column, how):
    # the last column of the cochain block's first chunk and the first of
    # its second: a rescaled column fails the M-norm gate, one mixed with
    # 1e-6 of the eigenvector farthest in value the residual gate
    model = sl16[1]
    values = model.eigenbasis.values

    def mutate(cols, block):
        if how == "scale":
            block[:, column] *= 1.0 + 1e-6
        else:
            far = int(np.argmax(np.abs(values[cols] - values[cols[column]])))
            block[:, column] += 1e-6 * block[:, far]
        return cols, block

    assert spectral._RESIDUAL_COLUMNS == 128
    with pytest.raises(ConvergenceFailure, match="M-norm" if how == "scale" else "residual"):
        cs.eigendecompose(corrupt_block(model, 2, mutate))


def test_spectrum_leaves_dense_views_unfilled(square_t):
    # the spectrum, its clusters, kernels and indices read the column blocks;
    # no dense eigenbasis view exists, and J in the eigenbasis is the
    # basis's own CSR
    spec = cs.eigendecompose(cs.build_sl_model(cs.quad_torus_complex(square_t, 8)))
    ends = cs.EndSystem((spec,))
    cs.fredholm_index(0.5, ends)
    for c in spec.clusters:
        kernel = cs.homogeneous_kernel(spec, c.lam)
        assert kernel.shape == (spec.dim, c.dim)
    assert set(vars(spec.basis)) == {"values", "blocks", "jmat"}
    assert spec.jmat is spec.basis.jmat and spec.jmat.format == "csr"


def test_homogeneous_kernel_is_the_dense_cluster(sl16_spec, torus_spec_25):
    for spec in (sl16_spec, torus_spec_25):
        for c in spec.clusters:
            assert np.array_equal(cs.homogeneous_kernel(spec, c.lam),
                                  spec.basis.columns(0, spec.dim)[:, c.start:c.stop])


def reference_d0(spec):
    for c in spec.clusters:
        if abs(c.lam) <= max(spec.cluster_tol, 1e-12):
            return c.dim
    return 0


def reference_nearest_root(spec, x):
    lams = np.array([c.lam for c in spec.clusters])
    i = int(np.argmin(np.abs(lams - x)))
    return float(lams[i]), float(abs(lams[i] - x))


def reference_cluster_at(spec, lam, tol=None):
    tol = spec.cluster_tol if tol is None else tol
    best = None
    for c in spec.clusters:
        if abs(c.lam - lam) <= tol and (best is None or abs(c.lam - lam) < abs(best.lam - lam)):
            best = c
    return best


def assert_cluster_facts_match(spec, points):
    for _ in range(2):   # the cached facts read twice
        assert spec.d0() == reference_d0(spec)
        for x in points:
            if spec.clusters:
                assert spec.nearest_root(x) == reference_nearest_root(spec, x)
            else:
                with pytest.raises(ValueError):
                    spec.nearest_root(x)
            for tol in (None, 0.0, 0.1, 0.25, 0.3, 1e3):
                assert spec.cluster_at(x, tol) == reference_cluster_at(spec, x, tol)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-8, 8), st.integers(0, 6)), max_size=12),
       st.lists(st.integers(-20, 20), min_size=1, max_size=8))
def test_cluster_facts_match_loops(roots, points):
    # roots on a half-integer grid: repeated roots make equal clusters, and
    # quarter-integer points fall halfway between roots, where the first of
    # the two equally near clusters wins
    spec = cs.synthetic_spectrum([(0.5 * lam, d) for lam, d in roots], 6.0)
    assert_cluster_facts_match(spec, [0.25 * x for x in points])


def test_cluster_facts_match_loops_on_models(sl16_spec, torus_spec_25):
    for spec in (sl16_spec, torus_spec_25):
        lams = np.array([c.lam for c in spec.clusters])
        assert_cluster_facts_match(spec, np.concatenate([lams, 0.5 * (lams[1:] + lams[:-1]),
                                                         [-1e3, 1e3]]))


def reference_cluster(eigs, tol):
    """The loop _cluster replaced: one pass over consecutive gaps."""
    clusters = []
    start = 0
    for i in range(1, eigs.size + 1):
        if i == eigs.size or eigs[i] - eigs[i - 1] > tol:
            block = eigs[start:i]
            lam = float(block.mean())
            if abs(lam) <= tol:
                lam = 0.0   # the kernel cluster is exactly the zero root
            clusters.append(cs.spectral.Cluster(lam, int(block.size), start, i))
            start = i
    return tuple(clusters)


def cluster_bits(clusters):
    return [(c.lam.hex(), c.dim, c.start, c.stop) for c in clusters]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-12, 12), max_size=24), st.sampled_from([0.25, 0.5, 1.0]),
       st.lists(st.floats(-3.0, 3.0), max_size=24), st.floats(1e-9, 1.0))
def test_cluster_matches_loop(steps, tol, reals, real_tol):
    # multiples of a power-of-two tol have gaps of exactly tol, 0 and 2 tol
    # with no rounding, so the cut rule's strict inequality is exercised;
    # the empty list is among the draws
    for eigs, t in ((np.sort(np.array(steps, dtype=float)) * tol, tol),
                    (np.sort(np.array(reals, dtype=float)), real_tol)):
        assert (cluster_bits(cs.spectral._cluster(eigs, t))
                == cluster_bits(reference_cluster(eigs, t)))
    assert cs.spectral._cluster(np.zeros(0), tol) == ()


def test_cluster_matches_loop_on_models(sl16_spec, torus_spec_25):
    for spec in (sl16_spec, torus_spec_25):
        assert (cluster_bits(spec.clusters)
                == cluster_bits(reference_cluster(spec.eigenvalues, spec.cluster_tol)))
