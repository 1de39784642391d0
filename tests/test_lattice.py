import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cylspec as cs
from cylspec.errors import DegenerateLattice

TWO_PI = 2 * np.pi


def brute_spectrum(dual, cutoff, nmax=40):
    """Independent enumeration oracle: walk a large integer box, bucket |k|^2."""
    buckets = {}
    for n1 in range(-nmax, nmax + 1):
        for n2 in range(-nmax, nmax + 1):
            k = dual @ (n1, n2)
            ev = float(k @ k)
            if ev <= cutoff:
                key = round(ev, 9)
                buckets[key] = buckets.get(key, 0) + 1
    return sorted(buckets.items())


def test_dual_basis_convention(square_t):
    prod = square_t.basis.T @ square_t.dual_basis / TWO_PI
    assert np.abs(prod - np.eye(2)).max() <= 1e-12
    assert square_t.area == pytest.approx(4 * np.pi**2)


def test_degenerate_lattice_rejected():
    with pytest.raises(DegenerateLattice):
        cs.FlatTorus(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_square_2pi_torus_cutoff_25(square_t):
    assert cs.torus_fourier_spectrum(square_t, 2.5) == [(0.0, 1), (1.0, 4), (2.0, 4)]


def test_cutoff_below_first_mode(square_t):
    assert cs.torus_fourier_spectrum(square_t, 0.5) == [(0.0, 1)]


def test_unit_torus_rescaled_dual():
    unit = cs.FlatTorus(np.eye(2))
    lam1 = TWO_PI**2
    # at cutoff 50 only the first shell fits: 2*(2pi)^2 = 78.96 > 50
    spec50 = cs.torus_fourier_spectrum(unit, 50.0)
    assert len(spec50) == 2
    assert spec50[0] == (0.0, 1)
    assert spec50[1][0] == pytest.approx(lam1, rel=1e-12) and spec50[1][1] == 4
    # the second shell appears once the cutoff clears it
    spec80 = cs.torus_fourier_spectrum(unit, 80.0)
    assert spec80[2][0] == pytest.approx(2 * lam1, rel=1e-12) and spec80[2][1] == 4


def test_matches_brute_enumeration(square_t):
    got = cs.torus_fourier_spectrum(square_t, 12.5)
    want = brute_spectrum(square_t.dual_basis, 12.5)
    assert len(got) == len(want)
    for (lam, d), (lam_o, d_o) in zip(got, want):
        assert lam == pytest.approx(lam_o, abs=1e-9)
        assert d == d_o


def test_sheared_lattice_multiplicities():
    # generic shear kills all accidental degeneracies: every pair has mult 2
    torus = cs.FlatTorus(np.array([[TWO_PI, 1.3], [0.0, TWO_PI * 0.83]]))
    spec = cs.torus_fourier_spectrum(torus, 9.0)
    assert spec[0] == (0.0, 1)
    assert all(d == 2 for _, d in spec[1:])
    want = brute_spectrum(torus.dual_basis, 9.0)
    assert [d for _, d in spec] == [d for _, d in want]


def _random_basis(seed):
    rng = np.random.default_rng(seed)
    while True:
        b = rng.uniform(-3.0, 3.0, size=(2, 2)) + np.diag([3.0, 3.0])
        if abs(np.linalg.det(b)) > 0.5:
            return b


def test_spectrum_properties_random_lattices():
    for seed in range(25):
        torus = cs.FlatTorus(_random_basis(seed))
        spec = cs.torus_fourier_spectrum(torus, 30.0)
        eigs = [l for l, _ in spec]
        assert eigs == sorted(eigs)
        assert spec[0] == (0.0, 1)
        assert all(d % 2 == 0 for _, d in spec[1:])   # antipodal pairs
        want = brute_spectrum(torus.dual_basis, 30.0, nmax=25)
        assert len(spec) == len(want)
        assert [d for _, d in spec] == [d for _, d in want]


def reference_dual_lattice_points(torus, cutoff):
    """The integer-box loop dual_lattice_points replaced: every n in
    [-nmax, nmax]^2 with n1 > 0 or (n1 = 0, n2 > 0), kept when
    |dual @ n|^2 <= cutoff up to a relative 1e-9, sorted by (|k|^2, k)."""
    dual = torus.dual_basis
    smin = np.linalg.svd(dual, compute_uv=False)[-1]
    nmax = int(np.ceil(np.sqrt(cutoff) / smin)) + 1
    reps = []
    for n1 in range(-nmax, nmax + 1):
        for n2 in range(-nmax, nmax + 1):
            if (n1, n2) == (0, 0):
                continue
            if n1 < 0 or (n1 == 0 and n2 < 0):
                continue
            k = dual @ (n1, n2)
            if float(k @ k) <= cutoff + 1e-9 * cutoff:
                reps.append(k)
    reps.sort(key=lambda k: (float(k @ k), k[0], k[1]))
    return np.vstack([np.zeros((1, 2))] + [r.reshape(1, 2) for r in reps])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-8.0, max_value=8.0), min_size=4, max_size=4),
       st.floats(min_value=0.1, max_value=40.0))
def test_dual_lattice_points_match_box_loop(entries, cutoff):
    basis = np.array(entries).reshape(2, 2)
    assume(abs(basis[0, 0] * basis[1, 1] - basis[0, 1] * basis[1, 0]) >= 0.2)
    torus = cs.FlatTorus(basis)
    got = cs.dual_lattice_points(torus, cutoff)
    want = reference_dual_lattice_points(torus, cutoff)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("entries", [(1.0, 4.0, 1.0, -1.0), (-0.5, -0.5, -0.5, 4.0)])
def test_dual_lattice_points_reduction_tie(entries):
    # bases whose reduced basis meets |mu| = 1/2 with a rounding error on
    # each side; the reduction once cycled on them for ever
    torus = cs.FlatTorus(np.array(entries).reshape(2, 2))
    for cutoff in (1.0, 10.0, 40.0):
        got = cs.dual_lattice_points(torus, cutoff)
        want = reference_dual_lattice_points(torus, cutoff)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()



_INTEGER_2X2 = np.stack(np.meshgrid(*[np.arange(-10, 11)] * 4, indexing="ij"),
                       axis=-1).reshape(-1, 2, 2)
# the 2024 integer matrices with entries in [-10, 10] and determinant +-1
UNIMODULAR = list(_INTEGER_2X2[np.abs(np.linalg.det(_INTEGER_2X2).round()) == 1])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(UNIMODULAR), st.integers(min_value=2, max_value=60))
def test_unimodular_basis_change_keeps_the_spectrum(u, twice_cutoff):
    # B U spans the same lattice as B; the dual basis 2 pi inv((B U)^T)
    # carries rounding, so at an integer cutoff lattice points on the sphere
    # |k|^2 = cutoff once fell in or out with the basis
    cutoff = twice_cutoff / 2
    square = cs.torus_fourier_spectrum(cs.square_torus(), cutoff)
    changed = cs.torus_fourier_spectrum(cs.FlatTorus(np.diag([TWO_PI, TWO_PI]) @ u), cutoff)
    assert [d for _, d in changed] == [d for _, d in square]
    assert np.abs(np.array(changed) - np.array(square)).max() <= 1e-9 * cutoff


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-30, max_value=30))
def test_square_torus_in_another_unit_keeps_its_spectrum(k):
    # the cutoff-2.5 square torus with side 2 pi s: every test on the basis
    # and the cutoff is relative, so the spectrum is that of s = 1 over s
    s = 10.0**k
    torus = cs.FlatTorus(np.diag([TWO_PI * s, TWO_PI * s]))
    spec = cs.torus_fourier_spectrum(torus, 2.5 / s**2)
    assert [d for _, d in spec] == [1, 4, 4]
    assert np.abs(np.array([lam for lam, _ in spec]) * s**2 - [0, 1, 2]).max() <= 1e-12
    model = cs.build_torus_model(torus, 2.5 / s**2)
    assert model.dim == 36
    clusters = cs.eigendecompose(model).clusters
    assert [c.dim for c in clusters] == [8, 8, 4, 8, 8]
    assert np.abs(np.array([c.lam for c in clusters]) * s
                  - [-np.sqrt(2), -1, 0, 1, np.sqrt(2)]).max() <= 1e-12
