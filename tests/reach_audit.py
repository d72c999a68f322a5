"""Which engine lines the report, the CLI and the demos never run.

Traces every line of ``src/affconn`` with ``sys.settrace`` (and
``threading.settrace`` for the suite's worker threads) while it runs
``run_suite()`` at 1 and 2 workers, ``affconn list``, ``affconn verify``,
the three ``affconn converge`` ladders below and the four demos.  It then
prints each engine function that never ran, and each line that never ran
with its enclosing function.  A function that only tests call shows up in
the first list; an error path that no good run takes shows up as lines.
pytest does not collect this file; run it from the root of a checkout as

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/reach_audit.py
"""

import contextlib
import io
import pathlib
import runpy
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "affconn"
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))
CONVERGE = [("s2-classical", "eigenvalue", "3..5"),
            ("s2-hemisphere-weighted", "reilly", "3..5"),
            ("s3-classical", "eigenvalue", "1..3")]
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def lines_of(code):
    return {line for _, _, line in code.co_lines() if line is not None}


def ident(code):
    """The same code object, whether imported or compiled here."""
    return code.co_filename, code.co_qualname, code.co_firstlineno


def enclosing(qualname):
    """The function a comprehension's code object belongs to."""
    parts = qualname.split(".")
    while len(parts) > 1 and parts[-1] in COMPREHENSIONS | {"<locals>"}:
        parts.pop()
    return ".".join(parts)


def code_objects(path):
    """Every code object of an engine file, the module's own first."""
    out, stack = [], [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        out.append(code)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


class Tracer:
    """Keeps, per engine code object that ran, the lines that have not; a
    code object stops being traced once every one of its lines has run."""

    def __init__(self, files):
        self.files = {str(p) for p in files}
        self.left = {}
        self.done = set()

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if code in self.done or code.co_filename not in self.files:
            return None
        return self.local(frame, event, arg)

    def local(self, frame, event, arg):
        code = frame.f_code
        left = self.left.get(code)
        if left is None:
            left = self.left[code] = lines_of(code)
        left.discard(frame.f_lineno)
        if not left:
            self.done.add(code)
        return self.local


def run_workloads():
    from affconn import cli
    from affconn.suite import run_suite
    with contextlib.redirect_stdout(io.StringIO()):
        for workers in (1, 2):
            run_suite({"workers": workers})
        cli.main(["list"])
        cli.main(["verify"])
        for scenario, check, levels in CONVERGE:
            cli.main(["converge", "--scenario", scenario, "--check", check,
                      "--levels", levels])
        for demo in DEMOS:
            runpy.run_path(str(demo), run_name="__main__")


def main():
    files = sorted(PACKAGE.glob("*.py"))
    tracer = Tracer(files)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        run_workloads()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    left = {ident(code): lines for code, lines in tracer.left.items()}
    ran, unreached = {}, {}
    for path in files:
        for code in code_objects(path):
            name = f"{path.name}:{enclosing(code.co_qualname)}"
            lines = left.get(ident(code), lines_of(code))
            ran[name] = ran.get(name, False) or ident(code) in left
            unreached.setdefault(name, set()).update(lines)
    print("functions that never ran:")
    for name in unreached:
        if not ran[name]:
            print(f"  {name}")
    print("lines that never ran, by enclosing function:")
    for name, lines in unreached.items():
        if ran[name] and lines:
            print(f"  {name} {', '.join(map(str, sorted(lines)))}")


if __name__ == "__main__":
    main()
