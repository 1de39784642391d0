import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import cylspec as cs

# CI runs the property tests on hypothesis's fixed example sequence
# (HYPOTHESIS_PROFILE=ci), so a run cannot fail on a newly drawn example.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def square_t():
    return cs.square_torus()


@pytest.fixture(scope="session")
def torus_spec_25(square_t):
    return cs.eigendecompose(cs.build_torus_model(square_t, 2.5))


@pytest.fixture(scope="session")
def torus_spec_15(square_t):
    return cs.eigendecompose(cs.build_torus_model(square_t, 1.5))


@pytest.fixture(scope="session")
def sl16(square_t):
    cc = cs.quad_torus_complex(square_t, 16)
    return cc, cs.build_sl_model(cc)


@pytest.fixture(scope="session")
def sl16_spec(sl16):
    return cs.eigendecompose(sl16[1])


@pytest.fixture(scope="session")
def torus_end(torus_spec_25):
    return cs.EndSystem((torus_spec_25,))


def apply_without_skip(op, x):
    """A BlockOperator applied term by term into a zero output, every term
    run on its full operand slice: the reference for its piece apply."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    for rows, cols, factors in op.terms:
        y = x[cols]
        for f in reversed(factors):
            y = f @ y
        out[rows] += y
    return out


def fourier_oracle(torus, count):
    """First `count` Laplace eigenvalues with multiplicity, by dual-lattice enumeration."""
    out = []
    for lam, mult in cs.torus_fourier_spectrum(torus, 50.0):
        out.extend([lam] * mult)
        if len(out) >= count:
            break
    return np.array(out[:count])


@st.composite
def lattice_bases(draw):
    """Well-conditioned lattice bases (generators as columns): square,
    rectangular or oblique, sides in [1, 8], angle in [60, 90] degrees."""
    kind = draw(st.sampled_from(["square", "rectangular", "oblique"]))
    a = draw(st.floats(min_value=1.0, max_value=8.0))
    b = a if kind == "square" else draw(st.floats(min_value=1.0, max_value=8.0))
    angle = np.pi / 2 if kind != "oblique" else draw(st.floats(min_value=np.pi / 3,
                                                               max_value=np.pi / 2))
    return np.array([[a, b * np.cos(angle)], [0.0, b * np.sin(angle)]])
