"""Per-layer trace of affconn, installed from outside the package.

:class:`Tracer` replaces each traced function with a wrapper wherever its
callers look it up: every ``affconn`` module global bound to it, the class
attribute for methods, and the ``CHECKS`` table for suite checks.  Each
wrapper records a span (name, start, end, parent span, GeometryError
raised) and, for functions that take meshes, problems or scenario
products, a content fingerprint of the arguments, so that calls divided
by distinct inputs measures repeated work.  ``Dual`` constructions are
counted without spans.  Spans stay in memory until :meth:`Tracer.dump`;
:meth:`Tracer.uninstall` puts every original object back.
"""

import contextlib
import dataclasses
import functools
import hashlib
import itertools
import json
import sys
import threading
import time
import types
import uuid

import numpy as np
import scipy.sparse
from affconn.errors import GeometryError


def _arguments(*args, **kwargs):
    return args, kwargs


def _matrix_pair(prob, count=6, method="auto"):
    # The solver reads only the matrices; the exponents stored beside them
    # differ between scenarios whose matrices are equal.
    return prob.stiffness, prob.mass, count, method


# (module, qualified name, what makes two inputs the same, or None when
# distinct inputs are not counted)
TARGETS = [
    ("spectral", "assemble", _arguments),
    ("spectral", "eigenvalues", _matrix_pair),
    ("spectral", "harmonic_extension_2d", _arguments),
    ("curvature", "curvature_bound_scan", _arguments),
    ("curvature", "ricci_tensor", None),
    ("curvature", "static_ricci", None),
    ("curvature", "weighted_ricci", None),
    ("operators", "d_minimal_residual", _arguments),
    ("operators", "reilly_residual", _arguments),
    ("connections", "duality_residual", None),
    ("connections", "equiaffine_residual", None),
    ("connections", "amari_chentsov", None),
    ("meshes", "build_mesh", _arguments),
    ("meshes", "disk_mesh", _arguments),
    ("meshes", "hemisphere_mesh", _arguments),
    ("meshes", "SurfaceMesh.with_weight", _arguments),
]

# Check ids of affconn.suite, listed here so every traced run reports the
# same metric names whichever checks its workload runs.
CHECK_IDS = ["torsion", "duality", "statistical", "equiaffine",
             "ricci-symmetry", "curvature-oracles", "curvature-bound",
             "d-minimal", "eigenvalue", "choi-wang", "reilly",
             "harmonic-extension", "proof-inequality"]

EIGEN = "spectral.eigenvalues"
DUAL_CREATED = "dual.Dual.created"
POOL_EFFICIENCY = "suite.pool.efficiency"
OVERHEAD = "trace.overhead_s"


def metric_units():
    """Every per-layer metric name with its unit and better direction."""
    units = {}
    for module, qualname, key in TARGETS:
        name = f"{module}.{qualname}"
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.self_s"] = ("s", "lower")
        units[f"{name}.total_s"] = ("s", "lower")
        units[f"{name}.raised"] = ("count", "lower")
        if key is not None:
            units[f"{name}.distinct"] = ("count", "lower")
    for suffix in ("dense_calls", "shift_invert_calls", "size_sum",
                   "size_max"):
        units[f"{EIGEN}.{suffix}"] = ("count", "lower")
    for cid in CHECK_IDS:
        units[f"suite.check.{cid}.calls"] = ("count", "lower")
        units[f"suite.check.{cid}.total_s"] = ("s", "lower")
    units[DUAL_CREATED] = ("count", "lower")
    units[POOL_EFFICIENCY] = ("ratio", "higher")
    units[OVERHEAD] = ("s", "lower")
    return units


def fingerprint(obj):
    """Hex digest of an object's content, closures and arrays included.

    Scenario factories build fresh objects on every call, so identity
    cannot tell repeated inputs apart; equal content can.
    """
    h = hashlib.sha256()
    _feed(h, obj, 0)
    return h.hexdigest()[:16]


def _feed(h, obj, depth):
    if depth > 12:
        raise ValueError("object nests too deeply to fingerprint")
    put = h.update
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        put(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, np.ndarray):
        put(f"nd:{obj.dtype}:{obj.shape};".encode())
        put(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        _feed(h, obj.item(), depth + 1)
    elif scipy.sparse.issparse(obj):
        csr = obj.tocsr()
        put(f"sparse:{csr.shape};".encode())
        for part in (csr.data, csr.indices, csr.indptr):
            _feed(h, part, depth + 1)
    elif isinstance(obj, (list, tuple)):
        put(f"{type(obj).__name__}:{len(obj)}(".encode())
        for item in obj:
            _feed(h, item, depth + 1)
        put(b")")
    elif isinstance(obj, dict):
        put(f"dict:{len(obj)}(".encode())
        for key in sorted(obj, key=repr):
            _feed(h, key, depth + 1)
            _feed(h, obj[key], depth + 1)
        put(b")")
    elif isinstance(obj, types.FunctionType):
        put(f"fn:{obj.__module__}.{obj.__qualname__};".encode())
        _feed(h, obj.__code__, depth + 1)
        _feed(h, obj.__defaults__, depth + 1)
        cells = obj.__closure__ or ()
        _feed(h, [c.cell_contents for c in cells], depth + 1)
    elif isinstance(obj, types.CodeType):
        put(obj.co_code)
        _feed(h, obj.co_consts, depth + 1)
        _feed(h, obj.co_names, depth + 1)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        put(f"dc:{type(obj).__qualname__}(".encode())
        for f in dataclasses.fields(obj):
            _feed(h, f.name, depth + 1)
            _feed(h, getattr(obj, f.name), depth + 1)
        put(b")")
    elif isinstance(obj, (types.BuiltinFunctionType, type)):
        put(f"ref:{getattr(obj, '__module__', '')}.{obj.__qualname__};"
            .encode())
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__qualname__}")


@dataclasses.dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float
    thread: str
    raised: bool
    attrs: dict


class Tracer:
    """Installs span-recording wrappers into a loaded affconn package."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []               # list.append is atomic under the GIL
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._origin = time.perf_counter()
        self._replaced = []           # (owner, key, original, item)
        self._dual_count = None
        self.dual_created = 0
        self._adopting = 0            # parent for spans on idle threads

    # -- spans ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, attrs=None, adopt=False):
        """Record ``name`` around the block; ``adopt`` makes it the parent
        of spans opened on threads that have no open span (pool workers)."""
        stack = self._stack()
        parent = stack[-1] if stack else self._adopting
        sid = next(self._ids)
        stack.append(sid)
        previous = self._adopting
        if adopt:
            self._adopting = sid
        raised = False
        start = time.perf_counter()
        try:
            yield
        except GeometryError:
            raised = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            if adopt:
                self._adopting = previous
            self.spans.append(Span(sid, parent, name, start - self._origin,
                                   end - self._origin,
                                   threading.current_thread().name, raised,
                                   attrs or {}))

    # -- installing and restoring wrappers ---------------------------------

    def install(self):
        import affconn.dual
        import affconn.spectral
        import affconn.suite
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "affconn"
                                         or n.startswith("affconn."))]
        for module, qualname, key in TARGETS:
            owner = sys.modules[f"affconn.{module}"]
            name = f"{module}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._replace(cls, attr, original,
                              self._wrap(name, original, key))
                continue
            original = getattr(owner, qualname)
            wrapper = self._wrap(name, original, key, eigen=name == EIGEN)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._replace(mod, attr, original, wrapper)
        checks = affconn.suite.CHECKS
        for cid, (fn, applies) in list(checks.items()):
            wrapper = self._wrap(f"suite.check.{cid}", fn, None)
            self._replace(checks, cid, (fn, applies), (wrapper, applies),
                          item=True)
        self._dual_count = itertools.count()
        counter = self._dual_count
        init = affconn.dual.Dual.__init__

        def counted_init(obj, a, b, lvl):
            next(counter)
            init(obj, a, b, lvl)
        self._replace(affconn.dual.Dual, "__init__", init, counted_init)
        self._dense_cutoff = affconn.spectral.DENSE_CUTOFF

    def _replace(self, owner, key, original, new, item=False):
        if item:
            owner[key] = new
        else:
            setattr(owner, key, new)
        self._replaced.append((owner, key, original, item))

    def uninstall(self):
        """Put every original back; returns the names still wrong."""
        # itertools.count has no reader; taking one more value reads it.
        self.dual_created = next(self._dual_count)
        for owner, key, original, item in reversed(self._replaced):
            if item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        wrong = []
        for owner, key, original, item in self._replaced:
            now = owner[key] if item else getattr(owner, "__dict__",
                                                  {}).get(key)
            if now is not original:
                wrong.append(f"{getattr(owner, '__name__', 'CHECKS')}.{key}")
        self._replaced = []
        return wrong

    def _wrap(self, name, fn, key, eigen=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            if key is not None:
                attrs["input"] = fingerprint(key(*args, **kwargs))
            if eigen:
                attrs.update(tracer._eigen_attrs(*args, **kwargs))
            with tracer.span(name, attrs):
                return fn(*args, **kwargs)
        return wrapper

    def _eigen_attrs(self, prob, count=6, method="auto"):
        # Mirrors the path choice in affconn.spectral.eigenvalues.
        size = prob.size
        dense = method == "dense" or (method == "auto"
                                      and size < self._dense_cutoff)
        return {"size": size, "path": "dense" if dense else "shift-invert"}

    # -- results -----------------------------------------------------------

    def metrics(self, workers):
        """Per-layer metrics from the spans of an uninstalled tracer; the
        tracing overhead is measured by the caller."""
        child_time = {}
        for s in self.spans:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end
                                                                    - s.start)
        by_name = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)
        out = {}
        for module, qualname, key in TARGETS:
            name = f"{module}.{qualname}"
            spans = by_name.get(name, [])
            total = sum(s.end - s.start for s in spans)
            out[f"{name}.calls"] = len(spans)
            out[f"{name}.self_s"] = total - sum(child_time.get(s.id, 0.0)
                                                for s in spans)
            out[f"{name}.total_s"] = total
            out[f"{name}.raised"] = sum(s.raised for s in spans)
            if key is not None:
                out[f"{name}.distinct"] = len({s.attrs["input"]
                                               for s in spans})
        eig = by_name.get(EIGEN, [])
        sizes = [s.attrs["size"] for s in eig]
        out[f"{EIGEN}.dense_calls"] = sum(s.attrs["path"] == "dense"
                                          for s in eig)
        out[f"{EIGEN}.shift_invert_calls"] = len(eig) - out[
            f"{EIGEN}.dense_calls"]
        out[f"{EIGEN}.size_sum"] = sum(sizes)
        out[f"{EIGEN}.size_max"] = max(sizes, default=0)
        check_total = 0.0
        for cid in CHECK_IDS:
            spans = by_name.get(f"suite.check.{cid}", [])
            total = sum(s.end - s.start for s in spans)
            check_total += total
            out[f"suite.check.{cid}.calls"] = len(spans)
            out[f"suite.check.{cid}.total_s"] = total
        out[DUAL_CREATED] = self.dual_created
        suite_wall = sum(s.end - s.start
                         for s in by_name.get("call.run_suite", []))
        out[POOL_EFFICIENCY] = (check_total / (workers * suite_wall)
                                if suite_wall > 0 else 0.0)
        return out

    def dump(self, path, **header):
        """Write the span tree as one JSON document."""
        doc = dict(header, run_id=self.run_id,
                   spans=[dict(dataclasses.asdict(s), run_id=self.run_id)
                          for s in sorted(self.spans, key=lambda s: s.id)])
        with open(path, "w") as handle:
            json.dump(doc, handle)
