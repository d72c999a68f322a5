"""Forward-mode automatic differentiation via level-tagged dual numbers.

A :class:`Dual` carries a value, a derivative seed, and a level tag.  Each
lift allocates a fresh level, so simultaneous lifts of different (or the
same) coordinates never confuse their infinitesimals; :func:`partial` is
the one lift, and nested ones give exact partials of any order.
Components may be floats, numpy arrays (for vectorized evaluation over
many points at once), or further ``Dual`` instances.  All chart, weight,
and field functions in this library are written against the generic math
functions below (``sin``, ``exp``, ...) so they evaluate transparently on
lifted coordinates.

Point evaluations run on Python floats (see :func:`floats`): float
arithmetic and the ``math`` module cost less per operation than numpy
scalars, and ``math.sin``, ``cos`` and ``sqrt`` give the same bits as
numpy's.  ``exp`` stays on numpy's kernel, because ``math.exp`` differs
from ``np.exp`` in the last bit on a few percent of inputs.
"""

import itertools
import math

import numpy as np

_levels = itertools.count(1)


class Dual:
    """Number a + b*eps_lvl with eps**2 = 0; levels keep lifts independent.

    The operators and the functions below test ``type(x) is Dual``, which
    is cheaper than ``isinstance``; so a subclass would count as a plain
    number, and there is none.
    """

    __slots__ = ("a", "b", "lvl")
    # Keep numpy from broadcasting elementwise over Dual operands.
    __array_ufunc__ = None

    def __init__(self, a, b, lvl):
        self.a = a
        self.b = b
        self.lvl = lvl

    def __add__(self, other):
        if type(other) is Dual:
            if other.lvl == self.lvl:
                return Dual(self.a + other.a, self.b + other.b, self.lvl)
            if other.lvl > self.lvl:
                return Dual(other.a + self, other.b, other.lvl)
        return Dual(self.a + other, self.b, self.lvl)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is Dual:
            if other.lvl == self.lvl:
                return Dual(self.a * other.a,
                            self.a * other.b + self.b * other.a, self.lvl)
            if other.lvl > self.lvl:
                return Dual(other.a * self, other.b * self, other.lvl)
        return Dual(self.a * other, self.b * other, self.lvl)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Dual:
            if other.lvl == self.lvl:
                return Dual(self.a / other.a,
                            (self.b * other.a - self.a * other.b)
                            / (other.a * other.a), self.lvl)
            if other.lvl > self.lvl:
                return Dual(self / other.a,
                            -self * other.b / (other.a * other.a), other.lvl)
        return Dual(self.a / other, self.b / other, self.lvl)

    def __rtruediv__(self, other):
        return Dual(other / self.a, -other * self.b / (self.a * self.a), self.lvl)

    def __neg__(self):
        return Dual(-self.a, -self.b, self.lvl)

    def __repr__(self):
        return f"Dual({self.a!r}, {self.b!r}, lvl={self.lvl})"


def floats(x):
    """A point as a new list of Python floats, for point evaluations."""
    return [float(c) for c in x]


def seed_axis(x, axis):
    """Lift coordinate ``axis`` of point ``x`` at a fresh level.

    Returns the lifted point (a new list) and the level tag used to
    extract the matching derivative with :func:`epsilon_part`.
    """
    lvl = next(_levels)
    z = list(x)
    z[axis] = Dual(z[axis], 1.0, lvl)
    return z, lvl


def epsilon_part(v, lvl):
    """Coefficient of eps_lvl inside ``v`` (0.0 if absent), entrywise."""
    t = type(v)
    if t is list:
        return [epsilon_part(e, lvl) for e in v]
    if t is Dual:
        if v.lvl == lvl:
            return v.b
        if v.lvl > lvl:
            # Higher levels wrap lower ones; recurse into both components.
            return Dual(epsilon_part(v.a, lvl), epsilon_part(v.b, lvl), v.lvl)
    return 0.0


def partial(f, x, axis):
    """d f / d x_axis at ``x``; composes with outer lifts safely."""
    z, lvl = seed_axis(x, axis)
    return epsilon_part(f(z), lvl)


def jacobian(f, x):
    """All first partials of ``f`` at ``x``: ``out[axis]`` is d f / d x_axis.

    Each partial keeps the nesting of ``f(x)``, so scalars, vectors,
    metrics and coefficient tables all work.  Axes are lifted at fresh
    levels in ascending order, so the result composes with outer lifts.
    """
    return [partial(f, x, axis) for axis in range(len(x))]


def sin(x):
    if type(x) is Dual:
        return Dual(sin(x.a), cos(x.a) * x.b, x.lvl)
    if type(x) is float:
        return math.sin(x)
    return np.sin(x)


def cos(x):
    if type(x) is Dual:
        return Dual(cos(x.a), -sin(x.a) * x.b, x.lvl)
    if type(x) is float:
        return math.cos(x)
    return np.cos(x)


def exp(x):
    if type(x) is Dual:
        e = exp(x.a)
        return Dual(e, e * x.b, x.lvl)
    if type(x) is float:
        return float(np.exp(x))
    return np.exp(x)


def sqrt(x):
    if type(x) is Dual:
        s = sqrt(x.a)
        return Dual(s, x.b / (2.0 * s), x.lvl)
    # A negative float goes to numpy, which returns nan where math raises.
    if type(x) is float and x >= 0.0:
        return math.sqrt(x)
    return np.sqrt(x)
