import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cylspec as cs
from cylspec.errors import (CriticalRate, NonNegativeRate, NotInKernel,
                            NotOrdered, OddKernelDimension, WindowExceedsCutoff)
from cylspec.models import I3

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


def test_symplectic_form_constant_sections():
    sk = cs.symplectic_form(np.eye(4), quaternion_k_pairing(), AREA, kernel=np.eye(4))
    assert np.abs(sk.gram + sk.gram.T).max() <= 1e-10
    assert np.abs(sk.gram - AREA * quaternion_k_pairing()).max() <= 1e-9
    assert abs(np.linalg.det(sk.gram)) == pytest.approx(AREA**4, rel=1e-12)


def test_symplectic_not_in_kernel():
    kernel = np.eye(4)[:, :2]
    with pytest.raises(NotInKernel):
        cs.symplectic_form(np.eye(4), quaternion_k_pairing(), AREA, kernel=kernel)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_symplectic_gram_always_skew(seed):
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((4, 3))
    sk = cs.symplectic_form(basis, quaternion_k_pairing(), AREA)
    assert np.abs(sk.gram + sk.gram.T).max() <= 1e-9 * AREA


def test_is_lagrangian():
    sk = cs.symplectic_form(np.eye(4), quaternion_k_pairing(), AREA, kernel=np.eye(4))
    assert cs.is_lagrangian(np.eye(4)[:, :2], sk)          # span{1, i}
    assert not cs.is_lagrangian(np.eye(4), sk)             # full kernel
    assert not cs.is_lagrangian(np.eye(4)[:, :1], sk)      # dim 1 != 2
    # span{1, k} pairs to <k*1, k> = |k|^2 = 1: not isotropic
    assert not cs.is_lagrangian(np.eye(4)[:, [0, 3]], sk)


def test_isotropy_is_relative_to_each_column():
    # span{1, k} with k scaled by 1e-10 pairs to 1e-10 = 1e-10 |1| |k|: not
    # isotropic, however short one column is beside the other
    sk = cs.symplectic_form(np.eye(4), quaternion_k_pairing(), AREA, kernel=np.eye(4))
    assert not cs.is_lagrangian(np.eye(4)[:, [0, 3]] * [1.0, 1e-10], sk)
    assert cs.is_lagrangian(np.eye(4)[:, :2] * [1.0, 1e-10], sk)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-30, max_value=30))
def test_symplectic_checks_in_any_unit(k):
    # area, pairing and basis scaled by 10^k: each check is relative to its
    # own operand, so every decision is that of scale 1
    scale = 10.0**k
    pairing = scale * quaternion_k_pairing()
    basis = scale * np.eye(4)
    sk = cs.symplectic_form(basis, pairing, scale * AREA, kernel=np.eye(4))
    assert cs.is_lagrangian(np.eye(4)[:, :2], sk)
    assert not cs.is_lagrangian(np.eye(4)[:, [0, 3]], sk)
    with pytest.raises(NotInKernel):
        cs.symplectic_form(basis, pairing, scale * AREA, kernel=np.eye(4)[:, :2])
    with pytest.raises(ValueError, match="not skew"):
        cs.symplectic_form(basis, pairing + scale * np.eye(4), scale * AREA)


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
