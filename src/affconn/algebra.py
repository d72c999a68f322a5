"""Small dense linear algebra over generic scalars.

Matrices are nested lists whose entries may be floats, numpy arrays, or
:class:`~affconn.dual.Dual` values, so the same code path serves plain
evaluation, vectorized quadrature, and dual-number differentiation.
Dimensions here never exceed 3, so cofactors are written out.
"""

from .dual import sqrt


def dot(u, v):
    out = u[0] * v[0]
    for i in range(1, len(u)):
        out = out + u[i] * v[i]
    return out


def matvec(m, v):
    return [dot(row, v) for row in m]


def quadratic_form(m, u, v):
    return dot(u, matvec(m, v))


def contract(a, b):
    """sum_ij a[i][j] b[i][j], from 0.0 in row order."""
    out = 0.0
    for row_a, row_b in zip(a, b):
        for x, y in zip(row_a, row_b):
            out = out + x * y
    return out


def det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    return (m00 * (m11 * m22 - m12 * m21)
            - m01 * (m10 * m22 - m12 * m20)
            + m02 * (m10 * m21 - m11 * m20))


def inv(m):
    """Matrix inverse via the adjugate; safe for SPD metrics (det > 0).

    The cofactors are written out: each is the minor's determinant in the
    minor's row and column order, then ``s / d`` or ``-s / d``, computed
    column by column of the adjugate.  That is the arithmetic of the
    general cofactor loop, operation for operation.
    """
    n = len(m)
    d = det(m)
    if n == 1:
        return [[1.0 / d]]
    if n == 2:
        (m00, m01), (m10, m11) = m
        c00 = m11 / d
        c10 = -m10 / d
        c01 = -m01 / d
        c11 = m00 / d
        return [[c00, c01], [c10, c11]]
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    c00 = (m11 * m22 - m12 * m21) / d
    c10 = -(m10 * m22 - m12 * m20) / d
    c20 = (m10 * m21 - m11 * m20) / d
    c01 = -(m01 * m22 - m02 * m21) / d
    c11 = (m00 * m22 - m02 * m20) / d
    c21 = -(m00 * m21 - m01 * m20) / d
    c02 = (m01 * m12 - m02 * m11) / d
    c12 = -(m00 * m12 - m02 * m10) / d
    c22 = (m00 * m11 - m01 * m10) / d
    return [[c00, c01, c02], [c10, c11, c12], [c20, c21, c22]]


def norm(g, v):
    """g-norm of a vector."""
    return sqrt(quadratic_form(g, v, v))


def cross(u, v):
    return [u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


def identity(n):
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def zeros(*shape):
    if len(shape) == 1:
        return [0.0] * shape[0]
    return [zeros(*shape[1:]) for _ in range(shape[0])]
