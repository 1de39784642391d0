"""Weight combinatorics on cylindrical ends.

For a rate vector mu in R^m (one exponential weight per end), the weighted
model operator is Fredholm exactly when no component is an indicial root of
its end.  Within that complement the index is the integer

    Ind(mu) = sum_{mu_i >= 0} ( d_{0,i}/2 + sum_{z in (0, mu_i)} d_z )
            - sum_{mu_i < 0}  ( d_{0,i}/2 + sum_{z in (mu_i, 0)} d_z )

and crossing a root z changes it by exactly d_z.  The two virtual-dimension
conventions are the all-negative-rate index (fixed cross-section, always
<= 0) and sum d_{0,i}/2 (varying cross-section, always >= 0).  J makes the
kernel at rate zero symplectic, omega(u, v) = <J u, v>_M; subspaces of it,
such as those of asymptotic limits, are tested for the Lagrangian property.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import (CriticalRate, InputError, NonNegativeRate, NotOrdered, OddKernelDimension,
                     WindowExceedsCutoff)
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
# the symplectic form on the zero-rate kernel

def symplectic_form(spectrum: Spectrum) -> np.ndarray:
    """Omega[a, b] = omega(e_a, e_b) = <J e_a, e_b>_M on the zero cluster, in
    its M-orthonormal eigencoordinates: the transpose of the cluster's block
    of ``spectrum.jmat``.  InputError without a jmat (a synthetic spectrum)
    or a zero cluster, when J joins a zero mode to another cluster, or when
    Omega is not skew and orthogonal to 1e-12; an odd d_0 raises
    OddKernelDimension."""
    jmat = spectrum.jmat
    if jmat is None:
        raise InputError("the spectrum carries no J (a synthetic spectrum)")
    if not _half_d0(spectrum):
        raise InputError("the spectrum has no zero cluster")
    c = spectrum.cluster_at(0.0)
    j = jmat.tocoo()
    in_row, in_col = (c.start <= j.row) & (j.row < c.stop), (c.start <= j.col) & (j.col < c.stop)
    if ((in_row != in_col) & (j.data != 0)).any():
        raise InputError("J joins a zero mode to another cluster")
    omega = jmat[c.start:c.stop, c.start:c.stop].toarray().T
    if not (np.abs(omega + omega.T).max() <= 1e-12
            and np.abs(omega @ omega.T - np.eye(c.dim)).max() <= 1e-12):
        raise InputError("J on the zero cluster is not skew and orthogonal to 1e-12")
    return omega


def is_lagrangian(subspace, spectrum: Spectrum) -> bool:
    """True iff the span of ``subspace``, a (d0, k) or (d0,) array in the
    zero cluster's eigencoordinates, has dimension d0/2 and is isotropic for
    Omega = symplectic_form(spectrum): each pairing of two columns within
    1e-9 of the largest entry of Omega times the two columns' norms.  A
    wrong row count, a non-finite entry or a dependent basis is an
    InputError."""
    omega = symplectic_form(spectrum)
    s = np.asarray(subspace, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    if s.ndim != 2 or s.shape[0] != omega.shape[0]:
        raise InputError(f"subspace of shape {s.shape} needs {omega.shape[0]} rows")
    if not np.isfinite(s).all():
        raise InputError("subspace entries must be finite")
    if np.linalg.matrix_rank(s) != s.shape[1]:
        raise InputError("subspace basis is linearly dependent")
    if s.shape[1] != omega.shape[0] // 2:
        return False
    norms = np.linalg.norm(s, axis=0)
    return bool((np.abs(s.T @ omega @ s) <= 1e-9 * np.abs(omega).max()
                 * np.outer(norms, norms)).all())
