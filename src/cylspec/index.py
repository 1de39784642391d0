"""Weight combinatorics on cylindrical ends.

For a rate vector mu in R^m (one exponential weight per end), the weighted
model operator is Fredholm exactly when no component is an indicial root of
its end.  Within that complement the index is the integer

    Ind(mu) = sum_{mu_i >= 0} ( d_{0,i}/2 + sum_{z in (0, mu_i)} d_z )
            - sum_{mu_i < 0}  ( d_{0,i}/2 + sum_{z in (mu_i, 0)} d_z )

and crossing a root z changes it by exactly d_z.  The two virtual-dimension
conventions are the all-negative-rate index (fixed cross-section, always
<= 0) and sum d_{0,i}/2 (varying cross-section, always >= 0).  The kernel at
rate zero carries a symplectic pairing; subspaces produced by asymptotic
limits are tested against it for the Lagrangian property.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import (CriticalRate, InputError, NonNegativeRate, NotInKernel, NotOrdered,
                     OddKernelDimension, WindowExceedsCutoff)
from .spectral import Spectrum

FIXED_TAG = "fixed-cross-section-index"
VARYING_TAG = "varying-cross-section-index"
WEIGHTED_TAG = "weighted-end-sum"


@dataclass(frozen=True)
class EndSystem:
    """Spectral data of the m ends of a cylindrical model."""

    ends: tuple

    def __post_init__(self):
        if len(self.ends) < 1:
            raise ValueError("need at least one end")
        object.__setattr__(self, "ends", tuple(self.ends))

    @property
    def m(self) -> int:
        return len(self.ends)


def _as_rates(rate, m: int) -> tuple:
    """The rate vector as a tuple of m finite floats; a scalar is one rate."""
    rates = (float(rate),) if np.isscalar(rate) else tuple(float(r) for r in rate)
    if len(rates) != m:
        raise InputError(f"rate vector has {len(rates)} components, system has {m} ends")
    if not np.all(np.isfinite(rates)):
        raise InputError(f"rates must be finite, got {list(rates)}")
    return rates


def _half_d0(spec: Spectrum, where: str = "") -> int:
    """d_0 / 2 of an end; an odd d_0 raises OddKernelDimension."""
    d0 = spec.d0()
    if d0 % 2 != 0:
        raise OddKernelDimension(f"{where}d_0 = {d0} is odd")
    return d0 // 2


@dataclass(frozen=True)
class PerEndContribution:
    end_id: int
    rate: float
    contribution: int
    crossed_roots: tuple   # roots strictly between 0 and the rate, with multiplicities


@dataclass(frozen=True)
class IndexReport:
    rate: tuple
    index: int
    per_end: tuple
    formula_tag: str

    def __post_init__(self):
        if self.index != sum(p.contribution for p in self.per_end):
            raise ValueError("per-end contributions do not sum to the index")

    def to_json(self) -> str:
        obj = {
            "rates": list(self.rate),
            "index": self.index,
            "per_end": [
                {"end_id": p.end_id, "rate": p.rate, "contribution": p.contribution,
                 "crossed_roots": [{"lambda": l, "d": d} for l, d in p.crossed_roots]}
                for p in self.per_end
            ],
            "formula_tag": self.formula_tag,
        }
        return json.dumps(obj, sort_keys=True)

    def table(self) -> str:
        lines = [f"index = {self.index}   [{self.formula_tag}]"]
        for p in self.per_end:
            roots = ", ".join(f"{l:.6g} (d={d})" for l, d in p.crossed_roots) or "-"
            lines.append(f"  end {p.end_id}: rate {p.rate:.6g}  "
                         f"contribution {p.contribution:+d}  interior roots: {roots}")
        return "\n".join(lines)


def is_critical(rate, ends: EndSystem) -> list[bool]:
    """Per-end test: is rate_i within that end's root_tol of its root set?
    A rate beyond its end's completeness radius raises WindowExceedsCutoff."""
    rates = _as_rates(rate, ends.m)
    for i, r in enumerate(rates):
        radius = ends.ends[i].completeness_radius
        if abs(r) > radius * (1 + 1e-12):
            raise WindowExceedsCutoff(
                f"end {i}: |rate| = {abs(r):.6g} exceeds completeness radius {radius:.6g}")
    return [end.nearest_root(r)[1] <= end.root_tol for end, r in zip(ends.ends, rates)]


def _require_noncritical(rates: tuple, ends: EndSystem):
    flags = is_critical(rates, ends)
    if any(flags):
        i = flags.index(True)
        root, dist = ends.ends[i].nearest_root(rates[i])
        raise CriticalRate(
            f"end {i}: rate {rates[i]:.6g} is within {dist:.3e} of root {root:.6g}")


def _index(rates: tuple, ends: EndSystem) -> IndexReport:
    """The index formula at a rate vector already checked to be non-critical."""
    per_end = []
    for i, (spec, r) in enumerate(zip(ends.ends, rates)):
        half = _half_d0(spec, f"end {i}: ")
        crossed = spec.roots_between(min(0.0, r), max(0.0, r))
        contribution = half + sum(d for _, d in crossed)
        per_end.append(PerEndContribution(i, r, contribution if r >= 0 else -contribution,
                                          tuple(crossed)))
    return IndexReport(rates, sum(p.contribution for p in per_end), tuple(per_end),
                       WEIGHTED_TAG)


def fredholm_index(rate, ends: EndSystem) -> IndexReport:
    """Index of the weighted model operator at a non-critical rate vector.

    Per-end contribution: +(d_0/2 + interior multiplicities) for positive
    rates, the mirror-negative for negative rates.
    """
    rates = _as_rates(rate, ends.m)
    _require_noncritical(rates, ends)
    return _index(rates, ends)


def wall_crossing(rate1, rate2, ends: EndSystem) -> tuple[int, list]:
    """Jump of the index between two componentwise-ordered non-critical rates.

    Returns (jump, crossed) where crossed lists, per end, the roots strictly
    between the rates with their multiplicities.  The jump is cross-checked
    against the difference of the two index evaluations.
    """
    rates1 = _as_rates(rate1, ends.m)
    rates2 = _as_rates(rate2, ends.m)
    if not all(a < b for a, b in zip(rates1, rates2)):
        raise NotOrdered("need rate1 < rate2 componentwise")
    _require_noncritical(rates1, ends)
    _require_noncritical(rates2, ends)
    crossed = [spec.roots_between(lo, hi) for spec, lo, hi in zip(ends.ends, rates1, rates2)]
    jump = sum(d for roots in crossed for _, d in roots)
    diff = _index(rates2, ends).index - _index(rates1, ends).index
    if diff != jump:
        raise AssertionError(f"wall-crossing mismatch: index diff {diff} != jump {jump}")
    return jump, crossed


def fixed_moduli_vdim(rate, ends: EndSystem) -> int:
    """Virtual dimension at fixed asymptotic cross-section and negative rate:
    -(sum d_{0,i}/2) - (sum of multiplicities in (mu_i, 0)); always <= 0.
    This is the index at that rate."""
    rates = _as_rates(rate, ends.m)
    if any(r >= 0 for r in rates):
        raise NonNegativeRate("fixed-asymptotics rates must be negative in every component")
    return fredholm_index(rates, ends).index


def varying_moduli_vdim(ends: EndSystem) -> int:
    """Virtual dimension with varying cross-section: sum of d_{0,i}/2; >= 0."""
    return sum(_half_d0(spec, f"end {i}: ") for i, spec in enumerate(ends.ends))


# ---------------------------------------------------------------------------
# symplectic pairing on the zero-rate kernel

@dataclass(frozen=True)
class SymplecticKernel:
    """Kernel basis with the integrated skew pairing Omega = area * fiber form."""

    basis: np.ndarray        # (f, K) columns: constant-section fiber vectors
    gram: np.ndarray         # (K, K) skew
    area_weight: float
    form: np.ndarray         # (f, f) = area * pointwise pairing

    @property
    def kernel_dim(self) -> int:
        return self.basis.shape[1]


def symplectic_form(basis, pairing, area: float, kernel=None) -> SymplecticKernel:
    """Integrate a pointwise skew pairing over constant sections.

    For constant sections the integral over the surface collapses to
    area * pairing(xi_a, xi_b).  When ``kernel`` (an orthonormal basis of the
    admissible fiber subspace) is supplied, every column of ``basis`` must lie
    in its span, to 1e-8 relative, or NotInKernel is raised.
    """
    basis = np.asarray(basis, dtype=float)
    pairing = np.asarray(pairing, dtype=float)
    if float(np.abs(pairing + pairing.T).max()) > 1e-10 * max(1.0, float(np.abs(pairing).max())):
        raise ValueError("pairing is not skew")
    if kernel is not None:
        kernel = np.asarray(kernel, dtype=float)
        proj = kernel @ (kernel.T @ basis)
        if float(np.abs(basis - proj).max()) > 1e-8 * max(1.0, float(np.abs(basis).max())):
            raise NotInKernel("basis vectors do not lie in the zero-rate kernel")
    form = float(area) * pairing
    gram = basis.T @ form @ basis
    return SymplecticKernel(basis, gram, float(area), form)


def is_lagrangian(subspace, sk: SymplecticKernel) -> bool:
    """True iff the subspace is isotropic for Omega (to 1e-9 relative to the
    area weight) and has half the kernel dimension."""
    if sk.kernel_dim % 2 != 0:
        raise OddKernelDimension(f"kernel dimension {sk.kernel_dim} is odd")
    s = np.asarray(subspace, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    if np.linalg.matrix_rank(s) != s.shape[1]:
        raise ValueError("subspace basis is linearly dependent")
    if s.shape[1] != sk.kernel_dim // 2:
        return False
    restricted = s.T @ sk.form @ s
    return bool(np.abs(restricted).max() <= 1e-9 * max(1.0, abs(sk.area_weight)))
