"""The engine keeps no dead helpers and no test-only public names.

Every module-level function or class in ``src/affconn``, and every name
in ``affconn.__all__``, is read from outside its own definition by the
package, the CLI or a demo; a public name may instead be on a short,
commented allow-list.  Code that only tests call belongs in ``tests/``.

A reference counts only when it resolves to the definition: a bare name
inside the defining module, a name brought in by ``from .module import
name`` (or ``from affconn[.module] import name``), or an attribute
``module.name`` of an engine module brought in by ``from . import
module``.  So ``np.log`` is not a caller of an engine ``log``.
"""

import ast
import os
import pathlib
import subprocess
import sys

import affconn

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "affconn"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _module_of(path):
    """Engine module name of a package file, or None for a demo."""
    if path.parent != PACKAGE:
        return None
    return "" if path.stem == "__init__" else path.stem


def _imported_module(node, path):
    """Engine module an ``ImportFrom`` reads from, or None if it is not ours.

    The package itself is ``""``.
    """
    if node.level:
        if path.parent != PACKAGE or node.level != 1:
            return None
        return node.module or ""
    if node.module == "affconn":
        return ""
    if node.module and node.module.startswith("affconn."):
        return node.module[len("affconn."):]
    return None


def _reexports():
    """Package-level name -> (module, name) for ``from .module import name``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module, alias.name)
    return out


REEXPORTS = _reexports()
SUBMODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def _resolve_package_name(name):
    """What ``name`` read from the package itself refers to."""
    if name in SUBMODULES:
        return ("module", name)
    return ("def", REEXPORTS.get(name, ("", name)))


def _bindings(tree, path):
    """Local name -> ("module", engine module) or ("def", (module, name))."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = _imported_module(node, path)
        if module is None:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if module == "":
                out[local] = _resolve_package_name(alias.name)
            else:
                out[local] = ("def", (module, alias.name))
    return out


def _references(stmt, own_module, bindings):
    """(module, name) pairs of engine definitions a statement reads."""
    refs = set()
    for sub in ast.walk(stmt):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            bound = bindings.get(sub.id)
            if bound is not None and bound[0] == "def":
                refs.add(bound[1])
            elif bound is None and own_module is not None:
                refs.add((own_module, sub.id))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            bound = bindings.get(sub.value.id)
            if bound is not None and bound[0] == "module":
                refs.add((bound[1], sub.attr))
    return refs


def _statements():
    """(module, top-level statement, definitions it reads) per caller file."""
    out = []
    for path in CALLERS:
        tree = ast.parse(path.read_text(), filename=str(path))
        module = _module_of(path)
        bindings = _bindings(tree, path)
        for stmt in tree.body:
            out.append((module, stmt, _references(stmt, module, bindings)))
    return out


def _read_elsewhere(target, statements):
    """True when a statement other than ``target``'s own definition reads
    it."""
    return any(target in refs for module, stmt, refs in statements
               if (module, getattr(stmt, "name", None)) != target)


# Public names that need no caller in the package, the CLI or a demo, each
# with its reason.  None today: every returned type, such as
# ``CurvatureReport`` or ``SpectralProblem``, is built by the function that
# returns it, which is its caller.
PUBLIC_WITHOUT_CALLER = {}


def test_every_engine_definition_has_a_caller():
    statements = _statements()
    targets = {(module, stmt.name) for module, stmt, _ in statements
               if module is not None
               and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    targets |= {REEXPORTS.get(name, ("", name)) for name in affconn.__all__}
    targets -= {REEXPORTS.get(name, ("", name))
                for name in PUBLIC_WITHOUT_CALLER}
    dead = [f"{module or '__init__'}.py:{name}"
            for module, name in sorted(targets)
            if not _read_elsewhere((module, name), statements)]
    assert not dead, f"no caller outside tests: {dead}"


def test_every_public_name_resolves():
    missing = [name for name in affconn.__all__ if not hasattr(affconn, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"


def test_a_same_named_attribute_is_not_a_caller():
    tree = ast.parse("import numpy as np\nfrom . import dual\n"
                     "y = np.log(2.0)\nz = dual.sqrt(2.0)\n")
    path = PACKAGE / "suite.py"
    bindings = _bindings(tree, path)
    refs = set().union(*(_references(s, "suite", bindings)
                         for s in tree.body[2:]))
    assert ("dual", "log") not in refs
    assert ("dual", "sqrt") in refs


def _scopes(stmt):
    """(name, node) per scope of a top-level statement; a class gives one
    scope per statement of its body."""
    if isinstance(stmt, ast.ClassDef):
        return [(f"{stmt.name}.{getattr(sub, 'name', '<body>')}", sub)
                for sub in stmt.body]
    return [(getattr(stmt, "name", "<module>"), stmt)]


def _scopes_reading(name):
    """``file:scope`` of every engine scope that reads ``name``, bare or as
    an attribute."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for scope, node in _scopes(stmt):
                if any(isinstance(sub, ast.Name) and sub.id == name
                       or isinstance(sub, ast.Attribute) and sub.attr == name
                       for sub in ast.walk(node)):
                    out.add(f"{path.name}:{scope}")
    return out


def test_points_enter_through_one_conversion():
    # A chart point enters through ChartedManifold.point; a hypersurface
    # parameter point has no chart box and is converted where it is read.
    assert _scopes_reading("floats") <= {"charts.py:ChartedManifold.point",
                                         "operators.py:second_fundamental"}


def _dotted(node):
    """``a.b.c`` of an attribute chain on a name, else ``""``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(
        node, ast.Name) else ""


def _scopes_loading(module):
    """``file:scope`` of every engine scope that imports ``module``, or a
    name from it, or reads an attribute path through it."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for scope, node in _scopes(stmt):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Import):
                        names = [alias.name for alias in sub.names]
                    elif isinstance(sub, ast.ImportFrom) and not sub.level:
                        names = [f"{sub.module}.{alias.name}"
                                 for alias in sub.names]
                    else:
                        names = [_dotted(sub)]
                    if any(name == module or name.startswith(module + ".")
                           for name in names):
                        out.add(f"{path.name}:{scope}")
    return out


def test_the_engine_factors_nothing():
    # The Dirichlet solve is PCG and the eigensolve LOBPCG, both with a
    # V-cycle that ends in its smoother; neither reads a sparse direct
    # factor, ARPACK or dense scipy.linalg.
    assert not _scopes_reading("splu") | _scopes_reading("eigsh")
    assert not (_scopes_loading("scipy.linalg")
                | _scopes_loading("scipy.sparse.linalg"))


def test_only_spectral_imports_scipy():
    # The meshes hand the sparse layer their cells and the per-kind facts
    # of their levels; spectral builds every prolongation from them.
    assert {scope.split(":")[0]
            for scope in _scopes_loading("scipy")} == {"spectral.py"}


def test_the_scope_scan_sees_scipy_linalg():
    tree = ast.parse("y = np.linalg.eigh(x)\nz = scipy.linalg.eigh(x)\n")
    assert "scipy.linalg.eigh" in {_dotted(sub)
                                   for sub in ast.walk(tree.body[1])}
    assert not any(_dotted(sub).startswith("scipy")
                   for sub in ast.walk(tree.body[0]))


def test_a_suite_run_loads_no_scipy_linalg():
    # A fresh interpreter: the test session itself loads both modules
    # through the oracles.
    script = ("import sys; from affconn.suite import run_suite; "
              "run_suite({'scenarios': ['s2-classical', 's3-classical'], "
              "'checks': ['eigenvalue', 'choi-wang']}); "
              "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg')"
              " if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert out.strip() == "[]"


def test_one_refinement_ladder():
    # The report's refinement orders and `affconn converge` share one
    # ladder, so they agree to the last bit.
    assert _scopes_reading("reilly_residual") == {"suite.py:check_reilly",
                                                  "suite.py:_ladder"}


def test_one_kernel_for_every_p1_matrix():
    # Segments, triangles and the boundary loop share one cell kernel, and
    # one scatter sums its local entries, one per pair i <= j: no spectral
    # scope tiles the corners into (k + 1)^2 index pairs per cell.
    assert _scopes_reading("DegenerateCell") == {"spectral.py:_p1_kernel"}
    assert _scopes_reading("coo_matrix") == {"spectral.py:_scatter"}
    assert not {scope for scope in _scopes_reading("tile")
                if scope.startswith("spectral.py:")}


def test_engine_surface():
    # The FEM layer stands below the geometry layer: the premises of the
    # eigenvalue bound are probes of the suite's choi-wang record.
    tree = ast.parse((PACKAGE / "spectral.py").read_text())
    imported = {_imported_module(node, PACKAGE / "spectral.py")
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not imported & {"curvature", "operators"}
    assert {scope.split(":")[0]
            for scope in _scopes_reading("D_MINIMAL_TOL")} == {"suite.py"}
