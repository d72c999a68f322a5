"""Chart-based manifolds: coordinate boxes, metrics, weights, sampling.

A manifold is represented by a single coordinate chart on an axis-aligned
box.  Metric components and the weight function are closed-form callables
written against :mod:`affconn.dual`'s generic math, so they evaluate on
floats, numpy arrays, and nested dual numbers alike.
"""

from dataclasses import dataclass

import numpy as np

from . import algebra, dual
from .errors import PointOutOfDomain

# Chart singularities (sphere poles, polar origin) are coordinate artifacts;
# sampling stays this fraction of the axis range away from non-periodic ends.
DEFAULT_MARGIN = 0.05


@dataclass(frozen=True)
class ChartedManifold:
    """A weighted Riemannian manifold described in one coordinate chart."""

    dim: int
    lower: tuple
    upper: tuple
    periodic: tuple
    metric: object        # callable: point -> n x n nested list
    weight: object        # callable: point -> scalar (the weight u)
    margin: tuple = None  # per-axis sampling margin fraction
    name: str = ""

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise ValueError(f"dimension must be 1, 2 or 3, not {self.dim}")
        if self.margin is None:
            object.__setattr__(self, "margin", (DEFAULT_MARGIN,) * self.dim)

    def admissible_box(self):
        """Per-axis (lo, hi) bounds with margins applied on non-periodic axes."""
        bounds = []
        for i in range(self.dim):
            lo, hi = self.lower[i], self.upper[i]
            if not self.periodic[i]:
                pad = self.margin[i] * (hi - lo)
                lo, hi = lo + pad, hi - pad
            bounds.append((lo, hi))
        return bounds

    def point(self, x):
        """An admissible point as a new list of Python floats; every public
        point evaluation takes its point from here."""
        for i, (lo, hi) in enumerate(self.admissible_box()):
            if not self.periodic[i] and not (lo <= x[i] <= hi):
                raise PointOutOfDomain(
                    f"point {tuple(x)} outside admissible box of "
                    f"{self.name or 'chart'}")
        return dual.floats(x)


@dataclass(frozen=True)
class WeightParams:
    """The two real parameters of the weighted affine connection family."""

    alpha: float
    beta: float

    def tau(self, dim):
        """Volume-form exponent; always recomputed from (alpha, beta)."""
        return (dim + 1) * self.alpha + self.beta

    def energy_exponent(self, m):
        """Exponent of V in the weak form of Lap^D on an m-dimensional
        domain: V^{m alpha + 2 beta} g(grad psi, grad chi)."""
        return m * self.alpha + 2.0 * self.beta

    @property
    def conformal_exponent(self):
        """Exponent of the conformal factor e^{(alpha-beta)u} pairing with g."""
        return self.alpha - self.beta

    def dual(self):
        """Parameters of the dual connection for e^{(alpha-beta)u} g."""
        return WeightParams(-self.beta, -self.alpha)


# ---------------------------------------------------------------------------
# Low-discrepancy sampling (Halton); keeps every "for all points" claim
# reproducible without any RNG.

_PRIMES = (2, 3, 5)


def _radical_inverse(i, base):
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


# Leading Halton points that sampling skips; every sampled set depends on it.
HALTON_SKIP = 20


def halton_points(man, count):
    """``count`` quasi-random admissible points inside the chart box."""
    box = man.admissible_box()
    pts = np.empty((count, man.dim))
    for k in range(count):
        for axis in range(man.dim):
            t = _radical_inverse(k + HALTON_SKIP + 1, _PRIMES[axis])
            lo, hi = box[axis]
            pts[k, axis] = lo + t * (hi - lo)
    return pts


# ---------------------------------------------------------------------------
# Built-in charts.


def zero_weight(x):
    return 0.0


def euclidean_chart(dim=2, weight=zero_weight):
    """Flat box chart on [-1, 1]^dim with identity metric."""
    def metric(x):
        return algebra.identity(dim)
    return ChartedManifold(
        dim=dim,
        lower=(-1.0,) * dim,
        upper=(1.0,) * dim,
        periodic=(False,) * dim,
        metric=metric,
        weight=weight,
        margin=(0.02,) * dim,
        name=f"euclidean-{dim}d",
    )


def sphere_chart(weight=zero_weight, radius=1.0):
    """Round 2-sphere in colatitude/longitude coordinates (theta, phi)."""
    r2 = radius * radius

    def metric(x):
        s = dual.sin(x[0])
        return [[r2, 0.0], [0.0, r2 * s * s]]

    return ChartedManifold(
        dim=2,
        lower=(0.0, 0.0),
        upper=(np.pi, 2.0 * np.pi),
        periodic=(False, True),
        metric=metric,
        weight=weight,
        name="sphere-2d",
    )


def sphere3_chart(weight=zero_weight, radius=1.0):
    """Round 3-sphere in hyperspherical coordinates (psi, theta, phi)."""
    r2 = radius * radius

    def metric(x):
        s0 = dual.sin(x[0])
        s1 = dual.sin(x[1])
        return [[r2, 0.0, 0.0],
                [0.0, r2 * s0 * s0, 0.0],
                [0.0, 0.0, r2 * s0 * s0 * s1 * s1]]

    return ChartedManifold(
        dim=3,
        lower=(0.0, 0.0, 0.0),
        upper=(np.pi, np.pi, 2.0 * np.pi),
        periodic=(False, False, True),
        metric=metric,
        weight=weight,
        name="sphere-3d",
    )


def polar_disk_chart():
    """Flat unit disk of the plane in polar coordinates (r, phi), unweighted."""

    def metric(x):
        return [[1.0, 0.0], [0.0, x[0] * x[0]]]

    return ChartedManifold(
        dim=2,
        lower=(0.0, 0.0),
        upper=(1.0, 2.0 * np.pi),
        periodic=(False, True),
        metric=metric,
        weight=zero_weight,
        name="polar-disk",
    )


# Weight families.  On sphere charts the first coordinate is the colatitude,
# so cos(x[0]) is the height z of the embedded point.


def height_weight(a):
    """u = a * z on sphere charts (z = cos of the first coordinate)."""
    def u(x):
        return a * dual.cos(x[0])
    return u


def height_squared_weight(a):
    """u = a * z^2 on sphere charts; even in z, vanishing slope at the equator."""
    def u(x):
        c = dual.cos(x[0])
        return a * c * c
    return u
