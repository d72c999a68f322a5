"""Chart-based manifolds: coordinate boxes, metrics, weights, sampling.

A manifold is represented by a single coordinate chart on an axis-aligned
box.  Metric components and the weight function are closed-form callables
written against :mod:`affconn.dual`'s generic math, so they evaluate on
floats, numpy arrays, and nested dual numbers alike.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import algebra, dual
from .errors import MetricNotSPD, PointOutOfDomain

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
        if self.dim < 1:
            raise ValueError("dimension must be positive")
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

    def contains(self, x, with_margin=True):
        box = self.admissible_box() if with_margin else list(zip(self.lower, self.upper))
        for i in range(self.dim):
            if self.periodic[i]:
                continue
            lo, hi = box[i]
            if not (lo <= x[i] <= hi):
                return False
        return True

    def require_admissible(self, x):
        if not self.contains(x):
            raise PointOutOfDomain(f"point {tuple(x)} outside admissible box of {self.name or 'chart'}")


@dataclass(frozen=True)
class WeightParams:
    """The two real parameters of the weighted affine connection family."""

    alpha: float
    beta: float

    def tau(self, dim):
        """Volume-form exponent; always recomputed from (alpha, beta)."""
        return (dim + 1) * self.alpha + self.beta

    @property
    def conformal_exponent(self):
        """Exponent of the conformal factor e^{(alpha-beta)u} pairing with g."""
        return self.alpha - self.beta

    def dual(self):
        """Parameters of the dual connection for e^{(alpha-beta)u} g."""
        return WeightParams(-self.beta, -self.alpha)


@dataclass(frozen=True)
class FramePoint:
    """A point together with a g-orthonormal basis (columns of ``frame``)."""

    point: tuple
    frame: np.ndarray


class PointMetric:
    """Metric matrix at a point, with inverse and volume factor on demand."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)

    @cached_property
    def inverse(self):
        return np.linalg.inv(self.matrix)

    @cached_property
    def sqrt_det(self):
        return float(np.sqrt(np.linalg.det(self.matrix)))


def eval_metric(man, x):
    """Metric at an admissible point, checked symmetric positive definite."""
    man.require_admissible(x)
    g = np.array(dual.value(man.metric(list(x))), dtype=float)
    if np.max(np.abs(g - g.T)) > 1e-12 * max(1.0, np.max(np.abs(g))):
        raise MetricNotSPD(f"metric not symmetric at {tuple(x)}")
    if np.linalg.eigvalsh(g)[0] <= 0.0:
        raise MetricNotSPD(f"metric not positive definite at {tuple(x)}")
    return PointMetric(g)


def orthonormal_frame(man, x):
    """Gram-Schmidt of the coordinate basis, in fixed axis order."""
    g = eval_metric(man, x).matrix
    n = man.dim
    frame = np.zeros((n, n))
    for i in range(n):
        v = np.zeros(n)
        v[i] = 1.0
        for j in range(i):
            v = v - (frame[:, j] @ g @ v) * frame[:, j]
        frame[:, i] = v / np.sqrt(v @ g @ v)
    return FramePoint(tuple(float(c) for c in x), frame)


# ---------------------------------------------------------------------------
# Low-discrepancy sampling (Halton); keeps every "for all points" claim
# reproducible without any RNG.

_PRIMES = (2, 3, 5, 7, 11, 13)


def _radical_inverse(i, base):
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def halton_points(man, count, skip=20):
    """``count`` quasi-random admissible points inside the chart box."""
    box = man.admissible_box()
    pts = np.empty((count, man.dim))
    for k in range(count):
        for axis in range(man.dim):
            t = _radical_inverse(k + skip + 1, _PRIMES[axis])
            lo, hi = box[axis]
            pts[k, axis] = lo + t * (hi - lo)
    return pts


# ---------------------------------------------------------------------------
# Built-in charts.


def zero_weight(x):
    return 0.0


def euclidean_chart(dim=2, halfwidth=1.0, weight=zero_weight):
    """Flat box chart on [-halfwidth, halfwidth]^dim with identity metric."""
    def metric(x):
        return algebra.identity(dim)
    return ChartedManifold(
        dim=dim,
        lower=(-halfwidth,) * dim,
        upper=(halfwidth,) * dim,
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


def polar_disk_chart(weight=zero_weight, radius=1.0):
    """Flat disk of the plane in polar coordinates (r, phi)."""

    def metric(x):
        return [[1.0, 0.0], [0.0, x[0] * x[0]]]

    return ChartedManifold(
        dim=2,
        lower=(0.0, 0.0),
        upper=(radius, 2.0 * np.pi),
        periodic=(False, True),
        metric=metric,
        weight=weight,
        name="polar-disk",
    )


# Weight families.  On sphere charts the first coordinate is the colatitude,
# so cos(x[0]) is the height z of the embedded point.


def height_weight(a):
    """u = a * z on sphere charts (z = cos of the first coordinate)."""
    def u(x):
        return a * dual.cos(x[0])
    u.family = ("height", a)
    return u


def height_squared_weight(a):
    """u = a * z^2 on sphere charts; even in z, vanishing slope at the equator."""
    def u(x):
        c = dual.cos(x[0])
        return a * c * c
    u.family = ("height-squared", a)
    return u


def linear_weight(a, axis=0):
    """u = a * x_axis on flat charts."""
    def u(x):
        return a * x[axis]
    u.family = ("linear", a, axis)
    return u


def radial_weight(a):
    """u = a * r^2 / 2 on flat charts (r = Euclidean distance to the origin)."""
    def u(x):
        r2 = 0.0
        for c in x:
            r2 = r2 + c * c
        return a * r2 / 2.0
    u.family = ("radial", a)
    return u
