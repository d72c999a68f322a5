"""The dense kernels of ``affconn.algebra`` against their reference loops.

``inv`` writes out the 2x2 and 3x3 adjugates and ``dot`` loops over an
index; both must run the very operations of the general cofactor loop and
the ``zip`` loop kept in ``tests/oracles.py``.  So every entry agrees to
the bit, and every ``Dual`` is built the same number of times, on floats,
on numpy arrays (vectorized evaluation) and on ``Dual``s of two lift
levels.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from affconn.algebra import dot, inv
from affconn.dual import Dual, seed_axis

from oracles import cofactor_inv, slice_dot

_, LO = seed_axis([0.0], 0)
_, HI = seed_axis([0.0], 0)

finite = st.floats(-4.0, 4.0)
inner = st.one_of(finite, st.builds(lambda a, b: Dual(a, b, LO), finite, finite))
ENTRIES = {
    "float": finite,
    "array": st.lists(finite, min_size=3, max_size=3).map(np.array),
    "dual": st.one_of(inner,
                      st.builds(lambda a, b: Dual(a, b, HI), inner, inner)),
}


def _bits(x):
    """Exact fingerprint of a result: structure, levels, types and bytes."""
    if type(x) is Dual:
        return ("dual", x.lvl, _bits(x.a), _bits(x.b))
    if type(x) is list:
        return [_bits(e) for e in x]
    arr = np.asarray(x)
    return (type(x).__name__, arr.dtype.str, arr.shape, arr.tobytes())


def _run(fn, *args):
    """Result bits (or the error type) and the ``Dual.__init__`` calls."""
    calls = [0]
    original = Dual.__init__

    def counting(self, a, b, lvl):
        calls[0] += 1
        original(self, a, b, lvl)

    Dual.__init__ = counting
    try:
        with np.errstate(all="ignore"):
            out = _bits(fn(*args))
    except ZeroDivisionError:
        out = "ZeroDivisionError"
    finally:
        Dual.__init__ = original
    return out, calls[0]


def _matrices(kind):
    return st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(ENTRIES[kind], min_size=n, max_size=n),
        min_size=n, max_size=n))


def _vector_pairs(kind):
    return st.integers(1, 3).flatmap(lambda n: st.tuples(
        *[st.lists(ENTRIES[kind], min_size=n, max_size=n)] * 2))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(ENTRIES)))
def test_inv_repeats_the_cofactor_loop(data, kind):
    m = data.draw(_matrices(kind))
    assert _run(inv, m) == _run(cofactor_inv, m)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(ENTRIES)))
def test_dot_repeats_the_zip_loop(data, kind):
    u, v = data.draw(_vector_pairs(kind))
    assert _run(dot, u, v) == _run(slice_dot, u, v)

