"""Exception types shared across the library."""


class GeometryError(Exception):
    """Base class for all affconn errors."""


class PointOutOfDomain(GeometryError):
    """Point lies outside the admissible part of a chart's coordinate box."""


class MetricNotSPD(GeometryError):
    """Metric matrix is not symmetric positive definite at the given point."""


class OrderUnsupported(GeometryError):
    """Requested derivative order exceeds the supported depth (3)."""


class DegenerateJacobian(GeometryError):
    """Hypersurface embedding Jacobian is rank deficient."""


class InvalidN(GeometryError):
    """Effective-dimension parameter lies in the excluded interval (1, n)."""


class NonConstantFAtNEqualsN(GeometryError):
    """N = n requires a constant weight function."""


class QuadratureUnderResolved(GeometryError):
    """Quadrature residual fails to decrease under refinement."""


class UnsupportedKind(GeometryError):
    """Unknown mesh kind or scenario name."""


class DegenerateCell(GeometryError):
    """Mesh contains a cell with vanishing length/area."""


class SolverNoConvergence(GeometryError):
    """Iterative eigensolver hit its iteration cap."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotDMinimal(GeometryError):
    """Hypersurface fails the D-minimality certificate."""


class NonpositiveK(GeometryError):
    """Curvature scan produced K <= 0; the eigenvalue bound does not apply."""


class MeshNotTwoDim(GeometryError):
    """Harmonic extension requires a triangle mesh of a 2-dimensional region."""


class SingularSystem(GeometryError):
    """Linear system arising from the discretization is singular."""


class ConfigInvalid(GeometryError):
    """Configuration document contains unknown or malformed entries."""


class CheckNotRefinable(GeometryError):
    """Requested check has no refinement parameter."""
