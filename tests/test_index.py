import functools
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cylspec as cs
from cylspec.errors import (CriticalRate, InputError, NonNegativeRate, NotOrdered,
                            OddKernelDimension, WindowExceedsCutoff)
from cylspec.models import I3
from cylspec.spectral import Cluster
from tests.conftest import lattice_bases
from tests.test_lattice import UNIMODULAR

AREA = 4 * np.pi**2


def torus_roots():
    # roots of the cutoff-2.5 torus end: {0, +-1, +-sqrt2} with d = 4, 8, 8
    return [(0.0, 4), (1.0, 8), (-1.0, 8), (np.sqrt(2.0), 8), (-np.sqrt(2.0), 8)]


@pytest.fixture(scope="module")
def ends1(torus_spec_25):
    return cs.EndSystem((torus_spec_25,))


@pytest.fixture(scope="module")
def ends2(torus_spec_25):
    return cs.EndSystem((torus_spec_25, torus_spec_25))


def index_oracle(rates, spectra):
    """Independent route: count raw eigenvalues directly, no cluster structure."""
    total = 0
    for r, spec in zip(np.atleast_1d(rates), spectra):
        ev = np.sort(spec.eigenvalues)
        d0 = int(np.count_nonzero(np.abs(ev) <= 1e-9))
        lo, hi = (0.0, r) if r >= 0 else (r, 0.0)
        interior = int(np.count_nonzero((ev > lo + 1e-9) & (ev < hi - 1e-9)
                                        & (np.abs(ev) > 1e-9)))
        sign = 1 if r >= 0 else -1
        total += sign * (d0 // 2 + interior)
    return total


def test_is_critical(ends1, ends2):
    assert cs.is_critical(-0.5, ends1) == [False]
    assert cs.is_critical(0.0, ends1) == [True]
    assert cs.is_critical((-0.5, -1.0), ends2) == [False, True]


def test_is_critical_radius_guard(ends1):
    with pytest.raises(WindowExceedsCutoff):
        cs.is_critical(2.0, ends1)


def test_radius_guards_allow_only_rounding(ends1):
    # both guards forgive 1e-12 of the completeness radius, and no more
    spec = ends1.ends[0]
    radius = spec.completeness_radius
    assert cs.is_critical(-radius * (1 + 1e-13), ends1) == [False]
    assert cs.indicial_roots(spec, (-radius * (1 + 1e-13), 0.5))
    with pytest.raises(WindowExceedsCutoff):
        cs.is_critical(-radius * (1 + 1e-9), ends1)
    with pytest.raises(WindowExceedsCutoff):
        cs.indicial_roots(spec, (-radius * (1 + 1e-9), 0.5))


def test_fredholm_index_values(ends1, ends2):
    assert cs.fredholm_index(-0.5, ends1).index == -2
    assert cs.fredholm_index(0.5, ends1).index == 2
    assert cs.fredholm_index((-0.5, -1.2), ends2).index == -12


def test_fredholm_index_against_oracle(ends1, ends2):
    rng = np.random.default_rng(5)
    for _ in range(50):
        r = float(rng.uniform(-1.5, 1.5))
        if min(abs(r - z) for z, _ in torus_roots()) < 1e-3:
            continue
        assert cs.fredholm_index(r, ends1).index == index_oracle(r, ends1.ends)
    for _ in range(50):
        r = rng.uniform(-1.5, 1.5, size=2)
        if any(min(abs(x - z) for z, _ in torus_roots()) < 1e-3 for x in r):
            continue
        assert cs.fredholm_index(r, ends2).index == index_oracle(r, ends2.ends)


def test_fredholm_critical_raises(ends1):
    with pytest.raises(CriticalRate):
        cs.fredholm_index(0.0, ends1)
    with pytest.raises(CriticalRate):
        cs.fredholm_index(1.0, ends1)


def test_per_end_breakdown(ends2):
    report = cs.fredholm_index((-0.5, -1.2), ends2)
    assert [p.contribution for p in report.per_end] == [-2, -10]
    assert report.per_end[1].crossed_roots == ((-1.0, 8),)
    assert "index = -12" in report.table()


def test_wall_crossing_values(ends1):
    assert cs.wall_crossing(-0.5, 0.5, ends1)[0] == 4
    assert cs.wall_crossing(0.5, 0.9, ends1)[0] == 0
    assert cs.wall_crossing(0.5, 1.2, ends1)[0] == 8


def test_wall_crossing_not_ordered(ends1):
    with pytest.raises(NotOrdered):
        cs.wall_crossing(0.5, -0.5, ends1)


def test_wall_crossing_random_suite():
    # 200 seeded random ordered pairs on synthetic spectra, oracle = raw count
    rng = np.random.default_rng(42)
    spec = cs.synthetic_spectrum([(-1.7, 2), (-0.8, 6), (0.0, 4), (0.8, 6), (1.7, 2)], 2.0)
    ends = cs.EndSystem((spec, spec))
    ev = np.sort(spec.eigenvalues)
    done = 0
    while done < 200:
        a = rng.uniform(-1.9, 1.9, size=2)
        b = rng.uniform(-1.9, 1.9, size=2)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        if np.any(hi - lo < 1e-6):
            continue
        if any(np.abs(ev - x).min() < 1e-4 for x in np.concatenate([lo, hi])):
            continue
        jump, _ = cs.wall_crossing(lo, hi, ends)
        oracle = sum(int(np.count_nonzero((ev > lo[i] + 1e-9) & (ev < hi[i] - 1e-9)))
                     for i in range(2))
        assert jump == oracle
        done += 1


def test_chamber_constancy():
    rng = np.random.default_rng(43)
    spec = cs.synthetic_spectrum(torus_roots(), np.sqrt(2.5))
    ends = cs.EndSystem((spec,))
    walls = sorted([z for z, _ in torus_roots()])
    chambers = list(zip([-1.55] + walls, walls + [1.55]))
    for _ in range(200):
        lo, hi = chambers[rng.integers(len(chambers))]
        r1, r2 = rng.uniform(lo + 1e-3, hi - 1e-3, size=2)
        assert cs.fredholm_index(r1, ends).index == cs.fredholm_index(r2, ends).index


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-1.55, max_value=1.55))
def test_index_antisymmetry_property(rate):
    spec = cs.synthetic_spectrum(torus_roots(), 2.0)
    ends = cs.EndSystem((spec,))
    if min(abs(rate - z) for z, _ in torus_roots()) < 1e-6:
        return
    assert cs.fredholm_index(-rate, ends).index == -cs.fredholm_index(rate, ends).index


def test_fixed_moduli_vdim(ends1):
    assert cs.fixed_moduli_vdim(-0.5, ends1) == -2
    assert cs.fixed_moduli_vdim(-1.2, ends1) == -10
    with pytest.raises(NonNegativeRate):
        cs.fixed_moduli_vdim(0.5, ends1)


def test_fixed_vdim_sl_end(sl16_spec):
    ends = cs.EndSystem((sl16_spec,))
    first_neg = max(c.lam for c in sl16_spec.clusters if c.lam < -1e-9)
    mu = first_neg / 2.0
    assert cs.fixed_moduli_vdim(mu, ends) == -2


def test_varying_moduli_vdim(ends1, ends2):
    assert cs.varying_moduli_vdim(ends1) == 2
    assert cs.varying_moduli_vdim(ends2) == 4
    g2 = cs.eigendecompose(cs.build_sl_model(cs.genus2_quad_complex()))
    assert cs.varying_moduli_vdim(cs.EndSystem((g2,))) == 3


def test_varying_odd_kernel_guard():
    spec = cs.synthetic_spectrum([(0.0, 3), (1.0, 2), (-1.0, 2)], 2.0)
    with pytest.raises(OddKernelDimension):
        cs.varying_moduli_vdim(cs.EndSystem((spec,)))


def test_fixed_plus_varying_difference(ends1):
    # fixed(mu) + varying = -(sum of multiplicities in (mu, 0))
    for mu in (-0.5, -1.2, -1.45):
        lhs = cs.fixed_moduli_vdim(mu, ends1) + cs.varying_moduli_vdim(ends1)
        rhs = -sum(d for _, d in ends1.ends[0].roots_between(mu, 0.0))
        assert lhs == rhs


def test_signs_always(ends1):
    rng = np.random.default_rng(44)
    for _ in range(50):
        mu = float(rng.uniform(-1.5, -0.05))
        if min(abs(mu - z) for z, _ in torus_roots()) < 1e-3:
            continue
        assert cs.fixed_moduli_vdim(mu, ends1) <= 0
    assert cs.varying_moduli_vdim(ends1) >= 0


def quaternion_k_pairing():
    # pointwise pairing <I3 e_a, e_b>; skew because I3 is orthogonal with I3^2 = -1
    return I3.T


def with_jmat(spec, jmat):
    """The spectrum with J in its eigenbasis replaced by ``jmat``."""
    return replace(spec, basis=replace(spec.basis, jmat=sparse.csr_matrix(jmat)))


def test_symplectic_form_constant_sections(torus_spec_15):
    # Omega is read from J; pulled back to fiber coordinates it is the area
    # times the pointwise k pairing
    omega = cs.symplectic_form(torus_spec_15)
    assert omega.tobytes() == quaternion_k_pairing().tobytes()
    # the constant section with fiber value xi has eigencoordinates
    # v0^T M xi = sqrt(area) xi
    c0 = torus_spec_15.cluster_at(0.0)
    xi = torus_spec_15.basis.columns(c0.start, c0.stop)[:4, :].T * torus_spec_15.mass[:4]
    gram = xi.T @ omega @ xi
    assert np.abs(gram + gram.T).max() <= 1e-10
    assert np.abs(gram - AREA * quaternion_k_pairing()).max() <= 1e-9
    assert abs(np.linalg.det(gram)) == pytest.approx(AREA**4, rel=1e-12)


def test_symplectic_form_needs_the_model_j(torus_spec_15):
    # a spectrum built from roots alone carries no J, so no form
    synthetic = cs.synthetic_spectrum([(0.0, 4), (1.0, 2), (-1.0, 2)], 2.0)
    with pytest.raises(InputError, match="no J"):
        cs.symplectic_form(synthetic)
    with pytest.raises(InputError, match="no J"):
        cs.is_lagrangian(np.eye(4)[:, :2], synthetic)
    # the zero cluster cut to 3 modes: its d_0 is odd
    c0 = torus_spec_15.cluster_at(0.0)
    clusters = tuple(c for c in torus_spec_15.clusters if c is not c0)
    odd = replace(torus_spec_15, clusters=clusters + (Cluster(0.0, 3, c0.start, c0.stop - 1),))
    with pytest.raises(OddKernelDimension):
        cs.symplectic_form(odd)
    # the zero cluster moved off zero: no kernel to carry a form
    moved = replace(torus_spec_15, clusters=clusters + (Cluster(1e-3, 4, c0.start, c0.stop),))
    with pytest.raises(InputError, match="no zero cluster"):
        cs.symplectic_form(moved)


def test_is_lagrangian(torus_spec_15):
    spec = torus_spec_15
    assert cs.is_lagrangian(np.eye(4)[:, :2], spec)          # span{1, i}
    assert not cs.is_lagrangian(np.eye(4), spec)             # full kernel
    assert not cs.is_lagrangian(np.eye(4)[:, :1], spec)      # dim 1 != 2
    # span{1, k} pairs to <k*1, k> = |k|^2 = 1: not isotropic
    assert not cs.is_lagrangian(np.eye(4)[:, [0, 3]], spec)


def test_is_lagrangian_checks_its_subspace(torus_spec_15):
    for subspace in (np.eye(3)[:, :2], np.eye(5)[:, :2], np.zeros((4, 2, 1)),
                     np.array([[1.0, 2.0], [0, 0], [0, 0], [np.nan, 0]])):
        with pytest.raises(InputError):
            cs.is_lagrangian(subspace, torus_spec_15)
    with pytest.raises(InputError, match="dependent"):
        cs.is_lagrangian(np.eye(4)[:, [0, 0]], torus_spec_15)


def test_isotropy_is_relative_to_each_column(torus_spec_15):
    # span{1, k} with k scaled by 1e-10 pairs to 1e-10 = 1e-10 |1| |k|: not
    # isotropic, however short one column is beside the other
    assert not cs.is_lagrangian(np.eye(4)[:, [0, 3]] * [1.0, 1e-10], torus_spec_15)
    assert cs.is_lagrangian(np.eye(4)[:, :2] * [1.0, 1e-10], torus_spec_15)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-30, max_value=30))
def test_symplectic_checks_in_any_unit(torus_spec_15, k):
    # the cutoff-1.5 torus with side 2 pi s: the eigencoordinates are
    # M-orthonormal in any unit, so Omega and every decision are those of s = 1
    s = 10.0**k
    torus = cs.FlatTorus(np.diag([2 * np.pi * s, 2 * np.pi * s]))
    spec = cs.eigendecompose(cs.build_torus_model(torus, 1.5 / s**2))
    omega = cs.symplectic_form(spec)
    assert omega.tobytes() == cs.symplectic_form(torus_spec_15).tobytes()
    assert cs.is_lagrangian(np.eye(4)[:, :2], spec)
    assert not cs.is_lagrangian(np.eye(4)[:, [0, 3]], spec)
    # J joining a zero mode to a mode of another cluster
    c0 = spec.cluster_at(0.0)
    leak = spec.jmat.tolil()
    leak[c0.start - 1, c0.start] = 0.5
    with pytest.raises(InputError, match="another cluster"):
        cs.symplectic_form(with_jmat(spec, leak))
    # a zero block that is not skew
    zero = sparse.diags(np.isin(np.arange(spec.dim), range(c0.start, c0.stop)).astype(float))
    with pytest.raises(InputError, match="not skew"):
        cs.symplectic_form(with_jmat(spec, spec.jmat + zero))


SL_COMPLEXES = {
    "sl-grid-4": lambda: cs.quad_torus_complex(cs.square_torus(), 4),
    "sl-grid-6": lambda: cs.quad_torus_complex(cs.square_torus(), 6),
    "sl-grid-8": lambda: cs.quad_torus_complex(cs.square_torus(), 8),
    "genus2-quads": cs.genus2_quad_complex,
    "donut-12x8": lambda: cs.build_dec(cs.parametric_torus_mesh(12, 8)),
    "genus2-mesh": lambda: cs.build_dec(cs.genus2_mesh()),
}


@functools.lru_cache(maxsize=None)
def sl_spectrum(name):
    return cs.eigendecompose(cs.build_sl_model(SL_COMPLEXES[name]()))


@st.composite
def model_spectra(draw):
    """A torus (cutoff in [1, 20], a drawn basis times a unimodular U, in
    the unit 10^k) or one of the sl models of SL_COMPLEXES."""
    name = draw(st.sampled_from(["torus", *SL_COMPLEXES]))
    if name != "torus":
        return sl_spectrum(name)
    s = 10.0**draw(st.integers(-6, 6))
    basis = s * draw(lattice_bases()) @ draw(st.sampled_from(UNIMODULAR))
    cutoff = draw(st.floats(min_value=1.0, max_value=20.0))
    return cs.eigendecompose(cs.build_torus_model(cs.FlatTorus(basis), cutoff / s**2))


@settings(max_examples=60, deadline=None)
@given(model_spectra(), st.integers(min_value=0, max_value=2**32 - 1))
def test_symplectic_form_over_models(spec, seed):
    # J keeps the zero cluster and is an exact symplectic form on it
    omega = cs.symplectic_form(spec)
    d0, c0 = spec.d0(), spec.cluster_at(0.0)
    assert omega.shape == (d0, d0) and d0 in (4, 6)
    assert np.abs(omega + omega.T).max() <= 1e-12
    assert np.abs(omega @ omega.T - np.eye(d0)).max() <= 1e-12
    zero, jmat = slice(c0.start, c0.stop), spec.jmat.toarray()
    assert not jmat[zero, :c0.start].any() and not jmat[zero, c0.stop:].any()
    assert not jmat[:c0.start, zero].any() and not jmat[c0.stop:, zero].any()
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((d0, 3))
    gram = basis.T @ omega @ basis
    assert np.abs(gram + gram.T).max() <= 1e-12 * np.linalg.norm(basis)**2
    # a greedy Lagrangian: each next x off every earlier x_i and Omega x_i
    xs = []
    for _ in range(d0 // 2):
        x = rng.standard_normal(d0)
        if xs:
            q = np.linalg.qr(np.column_stack(xs + [omega @ v for v in xs]))[0]
            x -= q @ (q.T @ x)
        xs.append(x)
    assert cs.is_lagrangian(np.column_stack(xs), spec)
    # omega(x, Omega x) = -|x|^2: span{x, Omega x}, filled up to d0/2 from
    # the Lagrangian, is not isotropic
    assert not cs.is_lagrangian(np.column_stack([xs[0], omega @ xs[0]] + xs[2:]), spec)
    # any other dimension: an isotropic part of the Lagrangian, or more
    for k in range(1, d0 + 1):
        if k != d0 // 2:
            sub = np.column_stack(xs[:k]) if k < d0 // 2 else rng.standard_normal((d0, k))
            assert not cs.is_lagrangian(sub, spec)


def test_wall_crossing_checks_each_rate_once(ends2, monkeypatch):
    calls = []
    real = cs.index.is_critical

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cs.index, "is_critical", counting)
    jump, crossed = cs.wall_crossing([-0.5, -1.2], [0.5, 1.2], ends2)
    assert jump == 4 + 20
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# rates as plain tuples, their faults, and the fixed-rate formula

def test_index_report_rate_is_plain_tuple(square_t, torus_spec_25):
    sl8 = cs.eigendecompose(cs.build_sl_model(cs.quad_torus_complex(square_t, 8)))
    report = cs.fredholm_index((1.2, -1.2), cs.EndSystem((sl8, torus_spec_25)))
    assert type(report.rate) is tuple and report.rate == (1.2, -1.2)
    assert report.to_json() == (
        '{"formula_tag": "weighted-end-sum", "index": 0, "per_end": [{"contribution": 10, '
        '"crossed_roots": [{"d": 8, "lambda": 0.9744953584044327}], "end_id": 0, "rate": 1.2}, '
        '{"contribution": -10, "crossed_roots": [{"d": 8, "lambda": -1.0}], "end_id": 1, '
        '"rate": -1.2}], "rates": [1.2, -1.2]}')


RATE_FAULTS = {   # (number of ends, rate, error, message) on the cutoff-2.5 torus
    "wrong-length": (2, -0.5, ValueError, "rate vector has 1 components, system has 2 ends"),
    "nan": (1, float("nan"), ValueError, "rates must be finite, got [nan]"),
    "beyond-radius": (1, -2.0, WindowExceedsCutoff,
                      "end 0: |rate| = 2 exceeds completeness radius 1.58114"),
    "critical": (1, -1.0, CriticalRate, "end 0: rate -1 is within 0.000e+00 of root -1"),
}
RATE_FORMS = {"scalar": lambda r: r, "list": lambda r: [r], "ndarray": lambda r: np.array([r])}
RATE_CALLS = {
    "is_critical": cs.is_critical,
    "fredholm_index": cs.fredholm_index,
    "wall_crossing": lambda rate, ends: cs.wall_crossing(rate, 0.5, ends),
    "fixed_moduli_vdim": cs.fixed_moduli_vdim,
}


@pytest.mark.parametrize("call", RATE_CALLS)
@pytest.mark.parametrize("form", RATE_FORMS)
@pytest.mark.parametrize("fault", RATE_FAULTS)
def test_rate_faults_raise_their_error(torus_spec_25, fault, form, call):
    m, rate, error, message = RATE_FAULTS[fault]
    ends = cs.EndSystem((torus_spec_25,) * m)
    rate = RATE_FORMS[form](rate)
    if call == "is_critical" and error is CriticalRate:   # a flag, not an error
        assert cs.is_critical(rate, ends) == [True]
        return
    with pytest.raises(error) as info:
        RATE_CALLS[call](rate, ends)
    assert str(info.value) == message


@st.composite
def synthetic_end(draw):
    """A synthetic spectrum within radius 2: an even d_0 (possibly 0) and up
    to six distinct nonzero roots."""
    half = draw(st.integers(0, 3))
    roots = draw(st.lists(st.tuples(st.floats(-1.9, 1.9).filter(lambda z: abs(z) > 1e-3),
                                    st.integers(1, 8)),
                          min_size=1, max_size=6, unique_by=lambda root: root[0]))
    return cs.synthetic_spectrum(([(0.0, 2 * half)] if half else []) + roots, 2.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(synthetic_end(), st.floats(-1.95, -1e-3)), min_size=1, max_size=3))
def test_fixed_moduli_vdim_matches_brute_force(ends_and_rates):
    specs, rates = zip(*ends_and_rates)
    assume(all(np.abs(s.eigenvalues - r).min() > 1e-6 for s, r in ends_and_rates))
    # -sum(d_0/2 + multiplicities strictly between the rate and 0), from raw eigenvalues
    want = -sum(int(np.count_nonzero(s.eigenvalues == 0.0)) // 2
                + int(np.count_nonzero((s.eigenvalues > r) & (s.eigenvalues < 0.0)))
                for s, r in ends_and_rates)
    assert cs.fixed_moduli_vdim(rates, cs.EndSystem(specs)) == want
