"""The engine keeps no dead helpers.

Every module-level function or class in ``src/affconn`` is either public
(listed in ``affconn.__all__``) or called from outside its own body by
the package, the CLI or a demo.  Code that only tests call belongs in
``tests/``.
"""

import ast
import pathlib

import affconn

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "affconn"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _used_names(node):
    """Names a statement reads, directly or as an attribute."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _statements():
    """(module, top-level statement, names it reads) for every caller file."""
    out = []
    for path in CALLERS:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            out.append((path, stmt, _used_names(stmt)))
    return out


def test_every_engine_definition_has_a_caller():
    statements = _statements()
    public = set(affconn.__all__)
    dead = []
    for path, stmt, _ in statements:
        if path.parent != PACKAGE or not isinstance(
                stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if stmt.name in public:
            continue
        if not any(stmt.name in used for _, other, used in statements
                   if other is not stmt):
            dead.append(f"{path.name}:{stmt.name}")
    assert not dead, f"no caller outside tests: {dead}"


def test_every_public_name_resolves():
    missing = [name for name in affconn.__all__ if not hasattr(affconn, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"
