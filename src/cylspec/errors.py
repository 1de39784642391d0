"""Exception types shared across the toolkit."""


class CylspecError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CylspecError):
    """Invalid run configuration (bad flags, missing files, out-of-range values).
    The input faults below subclass it: a singular lattice, a non-manifold
    or degenerate mesh, a window or rate beyond the completeness radius, an
    unordered rate pair, a fixed rate that is not negative and a coupling
    too strong for the weight gap."""


class InputError(ConfigError, ValueError):
    """A value handed to the library is out of its domain: a non-finite or
    out-of-range number, a malformed OFF file, a grid too short.  It is still
    a ValueError for library callers and a ConfigError for the command line."""


class DegenerateLattice(ConfigError):
    """Lattice basis is singular or numerically rank-deficient."""


class NonManifoldEdge(ConfigError):
    """An edge of a surface mesh is not shared by exactly two faces."""


class DegenerateTriangle(ConfigError):
    """A mesh face has (numerically) zero area."""


class ConvergenceFailure(CylspecError):
    """A numerical solve failed: an eigensolver or the perturbed frame march did
    not converge, or an eigenbasis failed its residual check."""


class WindowExceedsCutoff(ConfigError):
    """A root/rate query reaches beyond the spectral completeness radius."""


class CriticalRate(CylspecError):
    """A rate vector lies on (or within tolerance of) the wall of critical rates."""


class NotOrdered(ConfigError):
    """Rate pair is not strictly ordered componentwise."""


class NonNegativeRate(ConfigError):
    """A fixed-asymptotics rate must be negative in every component."""


class OddKernelDimension(CylspecError):
    """A kernel multiplicity d_0 is odd; half-integer dimensions are rejected."""


class CriticalWeight(CylspecError):
    """A cylinder weight coincides with an eigenvalue; the model operator is not invertible."""


class InsufficientTail(CylspecError):
    """The time grid is too short to extract an asymptotic limit reliably."""


class IllConditionedMatching(CylspecError):
    """Rank decision in the boundary-matching map is too close to the threshold."""


class PerturbationTooLarge(ConfigError):
    """Coupling strength breaks diagonal dominance of the mode system at t=0."""
