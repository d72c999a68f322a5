"""Exception types shared across the library."""


class GeometryError(Exception):
    """Base class for all affconn errors."""


class PointOutOfDomain(GeometryError):
    """Point of the wrong length, not finite, or outside a chart's box."""


class DegenerateJacobian(GeometryError):
    """Hypersurface embedding Jacobian is rank deficient."""


class UnsupportedKind(GeometryError):
    """Unknown mesh kind or scenario name."""


class DegenerateCell(GeometryError):
    """Mesh contains a cell with vanishing or non-finite length/area."""


class SolverNoConvergence(GeometryError):
    """Iterative solver (LOBPCG or PCG) hit its iteration cap."""


class MeshNotTwoDim(GeometryError):
    """Harmonic extension requires a triangle mesh of a 2-dimensional region."""


class SingularSystem(GeometryError):
    """Linear system arising from the discretization is singular."""


class ConfigInvalid(GeometryError):
    """Configuration document contains unknown or malformed entries."""


class CheckNotRefinable(GeometryError):
    """Requested check has no refinement parameter."""
