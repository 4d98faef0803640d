"""Every public function and class of the package is reached outside the unit tests.

A name is reached when another source module, the acceptance tests or the
benchmark uses it as ``module.name`` or imports it by name and reads it, or
when its own module uses its bare name. A re-export (an import the file never
reads, as in ``gaussgeo/__init__.py``) is not a use, so a name that only its
re-export keeps alive fails. Matching on the module keeps a common name such
as ``report`` from passing on another module's attribute.

Every defaulted parameter of a public module-level function, or of a public
method of a public class, is listed with the reason it exists, so a new
knob needs a deliberate entry.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "gaussgeo").glob("*.py"))
CALLERS = [*SOURCES, ROOT / "tests" / "test_acceptance.py", *sorted(ROOT.glob("bench/*.py"))]
TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}


@functools.cache
def _read(path: Path) -> set[str]:
    """The bare names ``path`` reads."""
    return {node.id for node in ast.walk(TREES[path])
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@functools.cache
def _reached_from(path: Path, module: str) -> set[str]:
    """Names ``path`` uses as ``module.name``, or imports from ``module`` and reads."""
    names = set()
    for node in ast.walk(TREES[path]):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == module:
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").rpartition(".")[2] == module:
                names.update(alias.name for alias in node.names
                             if (alias.asname or alias.name) in _read(path))
    return names


PUBLIC = [(path, node.name) for path in SOURCES for node in TREES[path].body
          if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_"]


@pytest.mark.parametrize("path,name", PUBLIC, ids=[f"{p.stem}.{n}" for p, n in PUBLIC])
def test_public_name_is_reached(path, name):
    reached = name in _read(path) or any(
        name in _reached_from(caller, path.stem) for caller in CALLERS if caller != path)
    assert reached, f"{path.stem}.{name} is reached only from unit tests"


#: module.function.parameter: why the default exists
DEFAULTED = {
    "oracle.geodesic_integrate.spec": "refinement self-test with a tighter OdeSpec",
    "oracle.jacobi_integrate.spec": "refinement self-test with a tighter OdeSpec",
    "battery.curvature_fd.step": "the Richardson self-test fed a bad step",
    "battery.purity_bruteforce.check_convergence": "the purity order-doubling self-test",
    "oracle.jacobi_integrate.omega0": "the linearity test of the Jacobi intensity",
    "battery.run_verification.only": "verify --only",
    "cli.main.argv": "sys.argv when run as a program, a list when called in-process",
}


def _public_functions(path):
    """(qualified name, node) of the module's public functions and of the
    public methods of its public classes."""
    for node in TREES[path].body:
        if isinstance(node, ast.FunctionDef) and node.name[0] != "_":
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and node.name[0] != "_":
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef) and m.name[0] != "_")


def test_defaulted_parameters_are_listed():
    found = set()
    for path in SOURCES:
        for name, node in _public_functions(path):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            found.update(f"{path.stem}.{name}.{a.arg}" for a in defaulted)
    assert found == set(DEFAULTED)
