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

No source module imports a public function of a closed-form module by name:
each is called as ``module.name``, so patching that one binding reaches every
caller, as editing the source would.

No source module reads a private name of another, as ``module._name`` or
by import, outside a listed allowlist with a reason for each entry.

Every public callable that takes a ``ModelParams`` is listed with a valid
call, so a new one needs a deliberate entry. Called with an array r, each
either broadcasts over it or refuses it with a DomainError that names r.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import gaussgeo
from gaussgeo import (battery, chaos, complexity, curvature, geodesics, models, oracle,
                      scattering)
from gaussgeo.errors import DomainError
from gaussgeo.geodesics import InitialConditions
from gaussgeo.models import ModelParams
from gaussgeo.scattering import ScatteringConfig

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


#: The modules of the closed forms, each bound once, as ``module.name``.
CLOSED_FORM_MODULES = ("models", "curvature", "geodesics", "chaos", "complexity", "scattering")


def test_closed_forms_are_called_through_their_module():
    functions = {(path.stem, node.name) for path in SOURCES for node in TREES[path].body
                 if path.stem in CLOSED_FORM_MODULES
                 and isinstance(node, ast.FunctionDef) and node.name[0] != "_"}
    by_name = [f"{path.stem}: from {node.module} import {alias.name}"
               for path in SOURCES for node in ast.walk(TREES[path])
               if isinstance(node, ast.ImportFrom) for alias in node.names
               if ((node.module or "").rpartition(".")[2], alias.name) in functions]
    assert by_name == []


def _imported(tree) -> list[str]:
    """Every module and every name a module imports, dotted in full."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names += [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
    return names


#: (module, module._name) where a module reads another's private name, with
#: the reason for each; the list only shrinks
PRIVATE_READS = {
    ("battery", "curvature._max_abs"):
        "the Fisher and curvature rows reduce each point's tensor as the symmetry residuals do",
    ("curvature", "models._BLOCK_SLOTS"):
        "Ricci has the metric's block form, and gathers its entries through the same slots",
}


def _private_reads(path: Path) -> set[str]:
    """Private names ``path`` reads as ``module._name`` of, or imports from,
    another gaussgeo module."""
    modules = {p.stem for p in SOURCES} - {path.stem}
    names = set()
    for node in ast.walk(TREES[path]):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            names.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {name for name in names if name.rpartition(".")[2][0] == "_"}


def test_sources_read_no_private_name_of_another_module():
    # each module reaches another through its public names, so a private
    # helper can change with its own module alone
    reads = {(path.stem, name) for path in SOURCES for name in _private_reads(path)}
    assert sorted(reads - PRIVATE_READS.keys()) == []
    assert sorted(PRIVATE_READS.keys() - reads) == []  # an entry goes once its read does


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_sources_import_public_scipy_only(path):
    # a private scipy module, such as scipy.integrate._ivp, may move or change
    # in any release: the oracles reach scipy.integrate.solve_ivp and
    # scipy.integrate.quad by their public names
    private = [name for name in _imported(TREES[path])
               if name.split(".")[0] == "scipy" and any(p[0] == "_" for p in name.split("."))]
    assert private == []


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


_IC = InitialConditions(p0=1.0, sigma0=0.1)
_CFG = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1)

#: module.function: a valid call of each public callable that takes a ModelParams
R_CALLS = {
    "models.metric_corr3": lambda p: models.metric_corr3(0.5, p),
    "models.metric_corr3_inverse": lambda p: models.metric_corr3_inverse(0.5, p),
    "models.metric_corr3_determinant": lambda p: models.metric_corr3_determinant(0.5, p),
    "models.metric_corr3_eigenvalues": lambda p: models.metric_corr3_eigenvalues(0.5, p),
    "models.metric_corr4": lambda p: models.metric_corr4(0.5, 2.0, p),
    "models.metric_corr4_determinant": lambda p: models.metric_corr4_determinant(0.5, 2.0, p),
    "models.metric_corr4_eigenvalues": lambda p: models.metric_corr4_eigenvalues(0.5, 2.0, p),
    "curvature.christoffel": lambda p: curvature.christoffel(0.5, p),
    "curvature.riemann": lambda p: curvature.riemann(0.5, p),
    "curvature.ricci": lambda p: curvature.ricci(0.5, p),
    "curvature.sectional": lambda p: curvature.sectional(0.5, p, [1.0, 1.0, 0.5], [0.0, 1.0, -2.0]),
    "curvature.maximal_symmetry_check": lambda p: curvature.maximal_symmetry_check(0.5, p),
    "curvature.bundle": lambda p: curvature.bundle(0.5, p),
    "geodesics.geodesic_corr": lambda p: geodesics.geodesic_corr(0.3, p, _IC),
    "geodesics.geodesic_velocity": lambda p: geodesics.geodesic_velocity(0.3, p, _IC),
    "geodesics.geodesic_acceleration": lambda p: geodesics.geodesic_acceleration(0.3, p, _IC),
    "geodesics.joined_path": lambda p: geodesics.joined_path(-0.3, p, _IC),
    "geodesics.geodesic_residual":
        lambda p: geodesics.geodesic_residual(p, _IC, np.linspace(-1.0, 1.0, 9)),
    "chaos.velocity_norm_squared_contracted":
        lambda p: chaos.velocity_norm_squared_contracted(p, _IC, 0.3),
    "complexity.igc_closed": lambda p: complexity.igc_closed(2.0, p, _IC),
    "complexity.ige_closed": lambda p: complexity.ige_closed(2.0, p, _IC),
    "complexity.igc_ratio": lambda p: complexity.igc_ratio(p),
    "complexity.ige_gap": lambda p: complexity.ige_gap(p),
    "battery.fisher_metric_numeric": lambda p: battery.fisher_metric_numeric(
        "corr3", models.Macrostate3(0.4, -0.3, 0.5), p),
    "battery.curvature_fd": lambda p: battery.curvature_fd(0.5, p),
    "battery.igc_gauss": lambda p: battery.igc_gauss(1.0, p, _IC),
    "oracle.geodesic_integrate": lambda p: oracle.geodesic_integrate(p, _IC, (-1.0, 1.0)),
    "oracle.jacobi_integrate": lambda p: oracle.jacobi_integrate(p, _IC, 2.0),
    "oracle.igc_numeric": lambda p: oracle.igc_numeric(1.0, p, _IC),
}

#: the callables that take a scalar r alone
SCALAR_R = {"models.metric_corr3_eigenvalues", "models.metric_corr4",
            "models.metric_corr4_eigenvalues", "geodesics.geodesic_residual",
            "battery.fisher_metric_numeric", "battery.igc_gauss", "oracle.geodesic_integrate",
            "oracle.jacobi_integrate", "oracle.igc_numeric"}


def _takes_model_params(fn) -> bool:
    try:
        parameters = inspect.signature(fn).parameters.values()
    except ValueError:  # an exception class, whose signature is its builtin base's
        return False
    return any(str(getattr(p.annotation, "__name__", p.annotation)).rpartition(".")[2]
               == "ModelParams" for p in parameters)


def _model_params_callables() -> set[str]:
    """module.name of every public function, class or public method of a
    public class in the package whose signature has a ModelParams parameter."""
    found = set()
    for info in pkgutil.iter_modules(gaussgeo.__path__):
        module = importlib.import_module(f"gaussgeo.{info.name}")
        for name, obj in vars(module).items():
            if name[0] == "_" or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{m}", getattr(obj, m)) for m in vars(obj) if m[0] != "_"]
            found.update(f"{info.name}.{qual}" for qual, fn in members
                         if callable(fn) and _takes_model_params(fn))
    return found


def test_model_params_callables_are_listed():
    assert _model_params_callables() == set(R_CALLS)


def _leaves(result) -> list:
    if dataclasses.is_dataclass(result):
        return [getattr(result, f.name) for f in dataclasses.fields(result)]
    return [result]


def _holds_each_r(leaf, per_r) -> bool:
    """Whether an axis of ``leaf`` holds the scalar calls' values in r's order,
    or ``leaf`` is the value of each scalar call (a field r does not reach)."""
    leaf = np.asarray(leaf)
    return any(leaf.shape[axis] == len(per_r) and all(
        np.array_equal(np.take(leaf, i, axis), value, equal_nan=True)
        for i, value in enumerate(per_r)) for axis in range(leaf.ndim)) or all(
        np.array_equal(leaf, value, equal_nan=True) for value in per_r)


@pytest.mark.parametrize("name", sorted(R_CALLS))
def test_array_r_broadcasts_or_is_refused_by_name(name):
    call, rs = R_CALLS[name], (0.0, 0.5)
    if name in SCALAR_R:
        with pytest.raises(DomainError, match=r"^r must be a scalar here, got shape \(2,\)$"):
            call(ModelParams(np.array(rs)))
        return
    result = _leaves(call(ModelParams(np.array(rs))))
    scalar = [_leaves(call(ModelParams(r))) for r in rs]
    for i, leaf in enumerate(result):
        assert _holds_each_r(leaf, [leaves[i] for leaves in scalar])


#: (module.function, input, the call with that input an array) for each
#: numeric input, other than a ModelParams r, that a form takes as a scalar alone
SCALAR_INPUTS = [
    ("models.metric_corr3_eigenvalues", "sigma",
     lambda x: models.metric_corr3_eigenvalues(x, ModelParams(0.3))),
    ("models.metric_corr4", "sigma_x", lambda x: models.metric_corr4(x, 2.0, ModelParams(0.3))),
    ("models.metric_corr4", "sigma_y", lambda x: models.metric_corr4(0.5, x, ModelParams(0.3))),
    ("models.metric_corr4_eigenvalues", "sigma_x",
     lambda x: models.metric_corr4_eigenvalues(x, 2.0, ModelParams(0.3))),
    ("models.metric_corr4_eigenvalues", "sigma_y",
     lambda x: models.metric_corr4_eigenvalues(0.5, x, ModelParams(0.3))),
    ("battery.igc_gauss", "tau", lambda x: battery.igc_gauss(x, ModelParams(0.3), _IC)),
    ("oracle.igc_numeric", "tau", lambda x: oracle.igc_numeric(x, ModelParams(0.3), _IC)),
    ("oracle.geodesic_integrate", "tau_span",
     lambda x: oracle.geodesic_integrate(ModelParams(0.3), _IC, (x, 1.0))),
    ("oracle.jacobi_integrate", "tau_max",
     lambda x: oracle.jacobi_integrate(ModelParams(0.3), _IC, x)),
    ("oracle.jacobi_integrate", "omega0",
     lambda x: oracle.jacobi_integrate(ModelParams(0.3), _IC, 2.0, omega0=x)),
    ("chaos.lyapunov_estimate", "omega0", lambda x: chaos.lyapunov_estimate(x, 1.0, 20.0)),
    ("chaos.lyapunov_estimate", "A0", lambda x: chaos.lyapunov_estimate(1.0, x, 20.0)),
    ("chaos.lyapunov_estimate", "tau_max", lambda x: chaos.lyapunov_estimate(1.0, 1.0, x)),
    ("scattering.phase_shift_exact", "r", lambda x: scattering.phase_shift_exact(_CFG, x)),
    ("scattering.phase_shift_series", "r", lambda x: scattering.phase_shift_series(_CFG, x)),
    ("scattering.purity_from_r", "r", lambda x: scattering.purity_from_r(_CFG, x)),
    ("scattering.r_from_cross_section", "sigma_cs",
     lambda x: scattering.r_from_cross_section(_CFG, x)),
    ("battery.purity_gaussian_state", "r", lambda x: battery.purity_gaussian_state(_CFG, x)),
    ("battery.fisher_metric_numeric", "sigma", lambda x: battery.fisher_metric_numeric(
        "corr3", models.Macrostate3(0.4, -0.3, x), ModelParams(0.3))),
    ("battery.fisher_metric_numeric", "sigma_x", lambda x: battery.fisher_metric_numeric(
        "corr4", models.Macrostate4(0.4, -0.3, x, 1.0), ModelParams(0.3))),
]


@pytest.mark.parametrize("name, input, call", SCALAR_INPUTS,
                         ids=[f"{name}.{input}" for name, input, _ in SCALAR_INPUTS])
def test_array_input_is_refused_by_name(name, input, call):
    # not a raw numpy error, nor values that mix the points: the eigenvalue
    # forms sort, and a sort over an array input runs along its point axis
    with pytest.raises(DomainError, match=rf"^{input} must be a scalar here, got shape \(2,\)$"):
        call(np.array([0.5, 2.0]))
