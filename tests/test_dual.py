"""Forward-mode dual-number arithmetic and the derivative helpers.

Finite differences (``oracles.fd_derivative``) cross-check the dual-number
derivatives."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affconn import dual
from affconn.dual import Dual, derivative, epsilon_part, jacobian, seed_axis
from affconn.errors import OrderUnsupported
from oracles import fd_derivative


def f_scalar(x):
    return dual.sin(x[0]) * dual.exp(x[1]) + x[0] * x[0] * x[1]


def df_dx0(x):
    return np.cos(x[0]) * np.exp(x[1]) + 2.0 * x[0] * x[1]


def d2f_dx0dx1(x):
    return np.cos(x[0]) * np.exp(x[1]) + 2.0 * x[0]


def f_matrix(x):
    """Matrix-valued field mixing polynomial and trig entries."""
    return [[x[0] * x[0] * x[1] + 3.0 * x[2], dual.sin(x[0]) * dual.cos(x[1])],
            [x[1] * x[1] * x[1] - x[0] * x[2], dual.cos(x[2]) * x[0] + dual.sin(x[1] * x[2])]]


def entry(f, i, j):
    return lambda z: f(z)[i][j]


points = st.lists(st.floats(-2, 2), min_size=3, max_size=3)
axes = st.integers(0, 2)


class TestArithmetic:
    def test_sum_and_product_rules(self):
        z, lvl = seed_axis([0.7, -0.2], 0)
        out = (z[0] + 3.0) * (2.0 * z[0] - z[1])
        # d/dx0 [(x0+3)(2x0 - x1)] = 2x0 - x1 + 2(x0+3)
        assert epsilon_part(out, lvl) == pytest.approx(2 * 0.7 + 0.2 + 2 * 3.7)

    def test_division(self):
        z, lvl = seed_axis([2.0], 0)
        out = 1.0 / z[0]
        assert epsilon_part(out, lvl) == pytest.approx(-0.25)

    def test_mixed_levels_do_not_collide(self):
        # Two simultaneous independent seeds must keep their directions apart.
        x = [0.3, 0.5]
        z0, l0 = seed_axis(x, 0)
        z1, l1 = seed_axis(z0, 1)
        out = z1[0] * z1[1]
        inner = epsilon_part(out, l1)      # d/dx1 = x0 (still dual in l0)
        assert inner.a == pytest.approx(0.3)
        assert epsilon_part(inner, l0) == pytest.approx(1.0)

    def test_division_across_levels(self):
        # Either operand may carry the higher level, and a plain divisor
        # divides both components: d2/dx0 dx1 of x0 / x1 and of x1 / x0.
        z0, l0 = seed_axis([0.3, 0.5], 0)
        z1, l1 = seed_axis(z0, 1)
        for quotient, expected in ((z1[0] / z1[1], -1.0 / 0.5 ** 2),
                                   (z1[1] / z1[0], -1.0 / 0.3 ** 2)):
            assert epsilon_part(epsilon_part(quotient, l1),
                                l0) == pytest.approx(expected)

    def test_lower_level_part_of_a_higher_level_value(self):
        # Taking the outer (lower) level first recurses into both
        # components of the inner (higher) level: d/dx0 (x0 x1) = x1, still
        # dual in x1's level, whose part is the mixed partial.
        z0, l0 = seed_axis([0.3, 0.5], 0)
        z1, l1 = seed_axis(z0, 1)
        outer = epsilon_part(z1[0] * z1[1], l0)
        assert type(outer) is Dual and outer.lvl == l1
        assert (outer.a, outer.b) == (0.5, 1.0)
        assert epsilon_part(outer, l1) == 1.0

    @given(st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=50, deadline=None)
    def test_first_derivative_matches_closed_form(self, a, b):
        got = derivative(f_scalar, [a, b], (0,))
        assert got == pytest.approx(df_dx0([a, b]), abs=1e-9)


class TestDerivative:
    @pytest.mark.parametrize("mode,tol", [("dual", 1e-9), ("fd", 1e-6)])
    def test_mixed_second_derivative(self, mode, tol):
        x = [0.4, -0.3]
        diff = {"dual": derivative, "fd": fd_derivative}[mode]
        got = diff(f_scalar, x, (0, 1))
        assert got == pytest.approx(d2f_dx0dx1(x), abs=tol)

    def test_third_derivative(self):
        # d^3/dx^3 sin(x) = -cos(x)
        got = derivative(lambda z: dual.sin(z[0]), [0.9], (0, 0, 0))
        assert got == pytest.approx(-np.cos(0.9), abs=1e-8)

    def test_dual_and_fd_agree(self):
        x = [0.25, 0.75]
        d1 = derivative(f_scalar, x, (1, 1))
        d2 = fd_derivative(f_scalar, x, (1, 1))
        assert d1 == pytest.approx(d2, abs=1e-6)

    def test_order_cap(self):
        with pytest.raises(OrderUnsupported):
            derivative(f_scalar, [0.0, 0.0], (0, 0, 0, 0))

    def test_array_components_vectorize(self):
        xs = np.linspace(0.1, 1.0, 7)
        z, lvl = seed_axis([xs], 0)
        out = epsilon_part(dual.exp(z[0]) * z[0], lvl)
        assert np.allclose(out, np.exp(xs) * (1 + xs))


class TestFunctions:
    @pytest.mark.parametrize("fn,deriv", [
        (dual.sin, np.cos),
        (dual.cos, lambda t: -np.sin(t)),
        (dual.exp, np.exp),
        (dual.sqrt, lambda t: 0.5 / np.sqrt(t)),
    ])
    def test_elementary_derivatives(self, fn, deriv):
        t = 0.6
        z, lvl = seed_axis([t], 0)
        assert epsilon_part(fn(z[0]), lvl) == pytest.approx(deriv(t), abs=1e-12)

    def test_plain_floats_pass_through(self):
        assert dual.sin(0.5) == pytest.approx(np.sin(0.5))
        assert not isinstance(dual.sqrt(4.0), Dual)


class TestJacobian:
    @given(points, axes)
    @settings(max_examples=50, deadline=None)
    def test_nested_field_matches_derivative(self, x, axis):
        jac = jacobian(f_matrix, x)
        assert len(jac) == 3
        assert jac[axis] == derivative(f_matrix, x, (axis,))
        for i in range(2):
            for j in range(2):
                fd = fd_derivative(entry(f_matrix, i, j), x, (axis,))
                assert jac[axis][i][j] == pytest.approx(fd, abs=1e-8)

    @given(points, axes, axes)
    @settings(max_examples=50, deadline=None)
    def test_outer_lift_gives_mixed_partial(self, x, a, b):
        z, lvl = seed_axis(x, a)
        mixed = epsilon_part(jacobian(f_matrix, z)[b], lvl)
        assert mixed == derivative(f_matrix, x, (a, b))
        for i in range(2):
            for j in range(2):
                fd = fd_derivative(entry(f_matrix, i, j), x, (a, b))
                assert mixed[i][j] == pytest.approx(fd, abs=1e-6)


class TestThreads:
    @given(st.lists(points, min_size=4, max_size=4))
    @settings(max_examples=5, deadline=None)
    def test_concurrent_nested_lifts_match_serial(self, xs):
        # Every lift draws its level from one global counter, so lifts on
        # different threads interleave; the levels held by one nested
        # evaluation must still be distinct.  A counter that loses updates
        # under contention fails this within a few dozen repeats.
        def work(x):
            return (jacobian(lambda z: jacobian(f_matrix, z), x),
                    derivative(f_matrix, x, (0, 1, 2)))

        serial = [work(x) for x in xs]
        repeats = 50
        results = [None] * len(xs)
        barrier = threading.Barrier(len(xs))

        def run(k):
            barrier.wait()
            results[k] = [work(xs[k]) for _ in range(repeats)]

        threads = [threading.Thread(target=run, args=(k,))
                   for k in range(len(xs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert results == [[r] * repeats for r in serial]
