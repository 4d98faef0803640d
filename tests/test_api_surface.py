"""Every public function and class of the package is reached outside the unit tests.

A name is reached when another source module, the acceptance tests or the
benchmark uses it as ``module.name`` or imports it by name and reads it, or
when its own module uses its bare name. A re-export (an import the file never
reads, as in ``gaussgeo/__init__.py``) is not a use, so a name that only its
re-export keeps alive fails; but a use through the re-exporting source module
counts, as ``oracle.purity_bruteforce`` reaches ``battery.purity_bruteforce``.
Matching on the module keeps a common name such as ``report`` from passing on
another module's attribute.

Every defaulted parameter of a public module-level function, or of a public
method of a public class, is listed with the reason it exists, so a new
knob needs a deliberate entry.

No source module imports a public function of a closed-form module by name:
each is called as ``module.name``, so patching that one binding reaches every
caller, as editing the source would.

No source module reads a private name of another, as ``module._name`` or
by import, outside a listed allowlist with a reason for each entry. Every
name a source or test module imports is read there, or is a marked re-export.

Every public callable and input dataclass is listed with one valid call, so
a new one needs a deliberate entry, and the input contract is derived from
those calls: an array in each numeric input is refused by name where
SCALAR_ONLY lists it, and otherwise broadcasts over the LADDER of multiples of
its valid value, each admitted element the scalar call's bits, each refused
one refusing the array by the scalar call's class, and one warning per
category counting the scalar calls that issued it; an r outside [0, R_MAX) is
refused; and so is each of BAD_VALUES, by the input's name. A module-level
helper that nothing reads fails too. A spread of a geometry form at a value
that leaves the floats is refused by name, or gives finite values.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import math
import pkgutil
import re
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import gaussgeo
from gaussgeo import (battery, chaos, complexity, curvature, geodesics, models, oracle,
                      scattering)
from gaussgeo.errors import R_MAX, DomainError, GaussGeoError, SaturationWarning
from gaussgeo.geodesics import InitialConditions
from gaussgeo.models import Macrostate3, Macrostate4, ModelParams
from gaussgeo.scattering import ScatteringConfig

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "gaussgeo").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
CALLERS = [*SOURCES, ROOT / "tests" / "test_acceptance.py", *sorted(ROOT.glob("bench/*.py"))]
TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in {*CALLERS, *TESTS}}


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
    # path's module, and each source module that imports name from it
    homes = {path.stem} | {source.stem for source in SOURCES for node in TREES[source].body
                           if isinstance(node, ast.ImportFrom) and node.module == path.stem
                           and name in (alias.name for alias in node.names)}
    reached = name in _read(path) or any(name in _reached_from(caller, home) for home in homes
                                         for caller in CALLERS if caller != path)
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


#: The modules under the array contract, where a scalar call must give the
#: bits of its array call.
ROUNDING_MODULES = (*CLOSED_FORM_MODULES, "_elementwise")

#: math functions that libm may round apart from numpy's array ufunc; tanh,
#: cosh, sinh, exp, atanh and log differed in 0.15-27% of random arguments
LIBM_TRANSCENDENTALS = {
    "exp", "exp2", "expm1", "log", "log1p", "log2", "log10", "pow", "sin", "cos", "tan",
    "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh", "asinh", "acosh", "atanh",
    "erf", "erfc", "gamma", "lgamma"}

#: Why each function may apply ** to a non-constant base, or a math
#: transcendental: every input it gives them is a scalar by contract
ROUNDING_EXEMPT = {
    "a field of a ScatteringConfig, which refuses an array": (
        "scattering.ScatteringConfig.kinetic_energy", "scattering._swave",
        "scattering._a_s_per_r", "scattering.normalization_integral",
        "scattering.potential_density"),
    "A0 and tau0 of an InitialConditions, which refuses an array": (
        "geodesics.amplitude_A0", "scattering.prolongation"),
    "an input in SCALAR_ONLY, refused as an array by errors.require_scalar": (
        "scattering.phase_shift_exact", "scattering.phase_shift_series", "chaos._log_ratio"),
}


def _rounding_sites(node, scope):
    """(scope, source) of each ** with a non-constant base and each math
    transcendental call below ``node``, scope the enclosing def or class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _rounding_sites(child, f"{scope}.{child.name}")
            continue
        power = isinstance(child, ast.BinOp) and isinstance(child.op, ast.Pow)
        libm = (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and getattr(child.func.value, "id", None) == "math"
                and child.func.attr in LIBM_TRANSCENDENTALS)
        if power and not isinstance(child.left, ast.Constant) or libm:
            yield scope, ast.unparse(child)
        yield from _rounding_sites(child, scope)


def test_no_scalar_rounding_apart_from_the_array():
    # numpy's scalar ** and libm's math functions round some results apart
    # from the array ufunc, so a scalar call would break the array contract
    # at a fraction of points too small for the ladder to find; squares are
    # products, and transcendentals are numpy's, outside ROUNDING_EXEMPT
    exempt = {name for names in ROUNDING_EXEMPT.values() for name in names}
    sites = [(scope, text) for path in SOURCES if path.stem in ROUNDING_MODULES
             for scope, text in _rounding_sites(TREES[path], path.stem)]
    assert [f"{scope}: {text}" for scope, text in sites if scope not in exempt] == []
    assert sorted(exempt - {scope for scope, _ in sites}) == []  # an entry goes with its sites


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


def test_every_import_is_read():
    # pyflakes' unused-import rule (F401): each name an import binds is read
    # in its module or listed in its __all__; a line marked "# noqa: F401"
    # is a deliberate re-export
    unused = []
    for path in [*SOURCES, *TESTS]:
        text = path.read_text(encoding="utf-8")
        tree, lines = ast.parse(text), text.splitlines()
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {item.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
                 for item in node.value.elts}
        unused += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                   for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   and "# noqa: F401" not in lines[node.lineno - 1]
                   for alias in node.names
                   if (alias.asname or alias.name.partition(".")[0]) not in read]
    assert unused == []


def _top_level(tree):
    """(name, decorated) of each name a module binds at its top level by a
    def, a class or an assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, bool(node.decorator_list)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from ((n.id, False) for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_helper_name_is_read():
    # vulture's unused-code rule at module level: a private name of the
    # package, or a name of a test module that pytest does not collect, is
    # read in src/ or tests/; a decorator registers what it decorates (a
    # fixture, a strategy, a row of the battery), so that counts as a read
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for path in [*SOURCES, *TESTS] for node in ast.walk(TREES[path])
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    dead = [f"{path.name}: {name}" for path in [*SOURCES, *TESTS]
            for name, decorated in _top_level(TREES[path])
            if not (decorated or name in read or name.startswith("__"))
            and (name[0] == "_" if path in SOURCES else not name.startswith(("test", "Test")))]
    assert dead == []


#: module.function.parameter: why the default exists
DEFAULTED = {
    "oracle.geodesic_integrate.spec": "refinement self-test with a tighter OdeSpec",
    "oracle.jacobi_integrate.spec": "refinement self-test with a tighter OdeSpec",
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


_P = ModelParams(0.5)
_IC = InitialConditions(p0=1.0, sigma0=0.1)
# R0 = 100 puts eta_c past 1/2, so r_from_purity's half purity is still valid
_CFG = ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=100.0, L=0.1, a_s=1e-5)
_PATH = {"tau": 0.3, "params": _P, "ic": _IC}

#: (keywords, callable, ...): a valid call, in any order, that names every
#: parameter of each public callable and input dataclass listed with it. A
#: callable listed twice has a second call, which reaches another branch. Half
#: of each float is valid too
_GROUPS = [
    ({"r": 0.5}, ModelParams),
    ({"mu1": 0.4, "mu2": -0.3, "sigma": 0.5}, Macrostate3),
    ({}, Macrostate3(0.4, -0.3, 0.5).as_array),
    ({"mu_x": 0.4, "mu_y": -0.3, "sigma_x": 0.5, "sigma_y": 2.0}, Macrostate4),
    ({"sigma": 0.5, "params": _P}, models.metric_corr3, models.metric_corr3_inverse,
     models.metric_corr3_determinant, models.metric_corr3_eigenvalues, curvature.christoffel,
     curvature.riemann, curvature.ricci, curvature.maximal_symmetry_check, curvature.bundle),
    ({"sigma_x": 0.5, "sigma_y": 2.0, "params": _P}, models.metric_corr4,
     models.metric_corr4_determinant, models.metric_corr4_eigenvalues),
    ({"sigma": 0.5, "params": _P, "u": [1.0, 1.0, 0.5], "v": [0.0, 1.0, -2.0]},
     curvature.sectional),
    ({"p0": 1.0, "sigma0": 0.1, "tau0": 1.0, "R0": 10.0}, InitialConditions),
    ({"ic": _IC}, geodesics.amplitude_A0, chaos.velocity_norm_squared),
    (_PATH, geodesics.geodesic_corr, geodesics.geodesic_velocity,
     geodesics.geodesic_acceleration, chaos.velocity_norm_squared_contracted),
    ({**_PATH, "tau": -0.3}, geodesics.joined_path),
    ({"params": _P, "ic": _IC, "tau_grid": np.linspace(-1.0, 1.0, 9)},
     geodesics.geodesic_residual),
    ({"A0": 2.0}, chaos.jlc_coefficient, chaos.lyapunov_exponent),
    ({"tau": 0.3, "omega0": 1.0, "A0": 2.0}, chaos.jacobi_intensity),
    ({"omega0": 1.0, "A0": 1.0, "tau_max": 20.0}, chaos.lyapunov_estimate),
    ({**_PATH, "tau": 2.0}, complexity.igc_closed, complexity.ige_closed),
    ({"params": _P}, complexity.igc_ratio, complexity.ige_gap),
    ({"v_noncorr": 1.0, "v_corr": 0.5}, complexity.r_from_complexities),
    ({"k0": 1.0, "sigma_k0": 0.1, "R0": 10.0, "L": 0.1, "a_s": 1e-5, "reduced_mass": 0.5,
      "hbar": 1.0}, ScatteringConfig),
    ({"tau0": 2.0}, _CFG.initial_conditions),
    ({"cfg": _CFG}, scattering.r_qm, scattering.normalization_integral,
     scattering.purity_series, scattering.eta_c, scattering.potential_density),
    ({"cfg": _CFG, "r": 0.1}, scattering.phase_shift_exact, scattering.phase_shift_series,
     scattering.potential_from_r, scattering.scattering_length_from_r, scattering.cross_section,
     scattering.purity_from_r, battery.purity_gaussian_state),
    ({"cfg": _CFG, "V": 0.1}, scattering.phase_shift_from_potential, scattering.r_from_potential),
    ({"cfg": _CFG, "sigma_cs": 1e-10}, scattering.r_from_cross_section),
    ({"cfg": _CFG, "purity": 0.99}, scattering.r_from_purity),
    ({"ic": _IC, "r": 1e-3}, scattering.prolongation),
    ({"model": "corr3", "state": Macrostate3(0.4, -0.3, 0.5), "params": _P},
     battery.fisher_metric_numeric),
    ({"model": "corr4", "state": Macrostate4(0.4, -0.3, 0.5, 1.0), "params": _P},
     battery.fisher_metric_numeric),
    ({"sigma": 0.5, "params": _P}, battery.curvature_fd),
    ({"cfg": _CFG, "check_convergence": False}, battery.purity_bruteforce),
    ({**_PATH, "tau": 1.0}, battery.igc_gauss, oracle.igc_numeric),
    ({"rtol": 1e-10, "atol": 1e-12}, oracle.OdeSpec),
    ({"params": _P, "ic": _IC, "tau_span": (-1.0, 1.0), "spec": oracle.OdeSpec()},
     oracle.geodesic_integrate),
    ({"params": _P, "ic": _IC, "tau_max": 2.0, "spec": oracle.OdeSpec(), "omega0": 1.0},
     oracle.jacobi_integrate),
]

#: module.name: (callable, keywords, ...) of each callable in _GROUPS
CALLS = {}
for _kwargs, *_fns in _GROUPS:
    for _fn in _fns:
        _name = f"{_fn.__module__.rpartition('.')[2]}.{_fn.__qualname__}"
        CALLS[_name] = (*CALLS.get(_name, (_fn,)), _kwargs)

#: module or module.name: why a public callable has no valid call in CALLS
EXEMPT = {
    "errors": "the guards that every refusal below goes through, and the exception classes",
    "cli": "argv and config files, held by the exit-code contract of tests/test_cli_fuzz.py",
    "battery.run_verification": "its one input is the name of a group",
    **dict.fromkeys(["battery.CheckResult", "chaos.LyapunovEstimate", "curvature.CurvatureBundle",
                     "curvature.SymmetryReport", "oracle.GeodesicComparison",
                     "oracle.JacobiComparison", "scattering.ProlongationReport"],
                    "a result, which the package builds"),
}


def _public_callables() -> set[str]:
    """module.name of every public function and class of the package's
    public modules, and of every public method of a public class."""
    found = set()
    for stem in [info.name for info in pkgutil.iter_modules(gaussgeo.__path__)
                 if info.name[0] != "_"]:
        module = importlib.import_module(f"gaussgeo.{stem}")
        for name, obj in vars(module).items():
            if name[0] == "_" or getattr(obj, "__module__", None) != module.__name__:
                continue
            found.add(f"{stem}.{name}")
            if inspect.isclass(obj):
                found.update(f"{stem}.{name}.{m}" for m in vars(obj)
                             if m[0] != "_" and callable(getattr(obj, m)))
    return found


def test_every_public_callable_has_a_valid_call_or_a_reason():
    found = _public_callables()
    exempt = {key: {name for name in found if f"{name}.".startswith(f"{key}.")} for key in EXEMPT}
    assert sorted(found - set().union(*exempt.values()) - CALLS.keys()) == []
    assert sorted(CALLS.keys() - found) == []
    assert sorted(key for key, names in exempt.items() if not names) == []  # a stale reason
    assert sorted(SCALAR_ONLY - INPUTS.keys()) == []


@pytest.mark.parametrize("entry", sorted(CALLS))
def test_call_is_valid(entry):
    # every parameter named, so each numeric one has a row below, and no
    # warning, so a refusal below is of the input it replaces
    fn, *calls = CALLS[entry]
    for kwargs in calls:
        assert set(kwargs) == set(inspect.signature(fn).parameters)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fn(**kwargs)


#: An argument of these classes is probed through its fields: each broadcasts
#: over an array field, and each form that takes one states its own rule
_POINTS = (ModelParams, Macrostate3, Macrostate4)
#: The config dataclasses, which refuse an array in every field
_CONFIGS = (InitialConditions, ScatteringConfig, oracle.OdeSpec)


def _inputs(kwargs):
    """The path of each numeric input of a call: (argument,) for a float or a
    pair of floats, (argument, field) for a field of a ModelParams or Macrostate."""
    for arg, value in kwargs.items():
        if isinstance(value, _POINTS):
            yield from ((arg, field.name) for field in dataclasses.fields(value))
        elif isinstance(value, (float, tuple)):
            yield (arg,)


#: module.name.input: (callable, keywords, path, value) of each numeric input,
#: in the first call of its entry that has it
INPUTS = {}
for _entry, (_fn, *_calls) in CALLS.items():
    for _kwargs in _calls:
        for _path in _inputs(_kwargs):
            _value = _kwargs[_path[0]]
            INPUTS.setdefault(f"{_entry}.{_path[-1]}", (
                _fn, _kwargs, _path, getattr(_value, _path[1]) if _path[1:] else _value))


def _call(name: str, x):
    """The valid call of ``name``'s entry with that input x."""
    fn, kwargs, (arg, *field), _ = INPUTS[name]
    value = dataclasses.replace(kwargs[arg], **{field[0]: x}) if field else x
    return fn(**{**kwargs, arg: value})


#: module.name.input of each numeric input that a form takes as a scalar alone;
#: every other one broadcasts
SCALAR_ONLY = {
    *(f"{name}.r" for name in (
        "geodesics.geodesic_residual", "oracle.geodesic_integrate", "oracle.jacobi_integrate",
        "oracle.igc_numeric", "scattering.phase_shift_exact", "scattering.phase_shift_series",
        "scattering.purity_from_r", "battery.purity_gaussian_state")),
    "oracle.igc_numeric.tau", "oracle.geodesic_integrate.tau_span",
    "oracle.jacobi_integrate.tau_max", "oracle.jacobi_integrate.omega0",
    *(f"chaos.lyapunov_estimate.{input}" for input in ("omega0", "A0", "tau_max")),
    "scattering.r_from_cross_section.sigma_cs",
    "scattering.ScatteringConfig.initial_conditions.tau0",
    *(name for name, (fn, *_) in INPUTS.items() if fn in _CONFIGS),
}


#: Multiples of each input's valid value at which the array contract is held:
#: between them they reach the clamp of the path forms and an unclamped call,
#: both sides of tau = 0, both forms of igc_closed, a flagged and an unflagged
#: prolongation, and the overflow guards (test_ladder_reaches_each_branch)
LADDER = (1.0, 0.5, -1.0, 2.0, 0.05, 0.1, 10.0, 30.0, 1e3, 1e4, 1e-3)


def _rungs(value, ladder=LADDER):
    """The ladder's multiples of an input's valid value, as one array; of a
    pair of floats, of each."""
    if isinstance(value, tuple):
        return tuple(_rungs(v, ladder) for v in value)
    return value * np.array(ladder)


def _outcome(name: str, x):
    """The valid call of ``name``'s entry with that input x: its result, or
    the exception it raised, and the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)  # as in the test run
        try:
            result = _call(name, x)
        except Exception as exc:  # its class is compared below
            result = exc
    return result, [w.message for w in caught]


def _ladder(name: str) -> tuple[list, list]:
    """The scalar call at each rung: (x, result, warnings) where it is
    admitted, (x, exception) where it is refused."""
    rungs = [(x, *_outcome(name, x)) for x in _rungs(INPUTS[name][3]).tolist()]
    return ([rung for rung in rungs if not isinstance(rung[1], Exception)],
            [(x, exc) for x, exc, _ in rungs if isinstance(exc, Exception)])


def _leaves(result) -> list:
    if dataclasses.is_dataclass(result):
        return [getattr(result, f.name) for f in dataclasses.fields(result)]
    return [result]


def _same(a, b) -> bool:
    """Whether a and b hold the same bits, in one dtype and shape."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def _holds_each(leaf, per_point) -> bool:
    """Whether an axis of ``leaf`` holds the scalar calls' values in order, or
    ``leaf`` is the value of each scalar call (a field the input does not reach)."""
    leaf = np.asarray(leaf)
    return any(leaf.shape[axis] == len(per_point) and all(
        _same(np.take(leaf, i, axis), value) for i, value in enumerate(per_point))
        for axis in range(leaf.ndim)) or all(_same(leaf, value) for value in per_point)


def _assert_broadcasts_or_is_refused_by_name(name: str):
    if name in SCALAR_ONLY:
        # not a raw numpy error, nor values that mix the points
        message = rf"^{name.rpartition('.')[2]} must be a scalar here, got shape \(2,\)$"
        with pytest.raises(DomainError, match=message):
            _call(name, _rungs(INPUTS[name][3], LADDER[:2]))
        return
    admitted, refused = _ladder(name)
    xs = [x for x, *_ in admitted]
    # (i) element i of the array call is the scalar call at element i, bit for bit
    result, caught = _outcome(name, np.array(xs))
    assert not isinstance(result, Exception), result
    scalar = [_leaves(each) for _, each, _ in admitted]
    for i, leaf in enumerate(_leaves(result)):
        assert _holds_each(leaf, [leaves[i] for leaves in scalar])
    # (ii) a refused value refuses the whole array, by the scalar call's class,
    # one of the package's errors
    for x, exc in refused:
        assert isinstance(exc, GaussGeoError), (x, exc)
        got = _outcome(name, np.array([*xs, x]))[0]
        assert type(got) is type(exc), (x, got, exc)
    # (iii) one warning per category, counting the scalar calls that issued it
    issued = Counter(category for *_, warned in admitted for category in set(map(type, warned)))
    assert sorted((type(w).__name__, w.count) for w in caught) == sorted(
        (category.__name__, count) for category, count in issued.items())


def _both(outcomes) -> bool:
    return set(outcomes) == {True, False}


def _igc_forms() -> bool:
    name = "complexity.igc_closed.tau"
    lam = chaos.lyapunov_exponent(geodesics.amplitude_A0(INPUTS[name][1]["ic"]))
    return _both(lam * x < complexity.IGC_SERIES_MAX for x, *_ in _ladder(name)[0])


def _guarded(name: str) -> bool:
    return any("overflow guard" in str(exc) for _, exc in _ladder(name)[1])


#: branch: whether the ladder reaches both of its sides, or, for a guard,
#: has a rung that it refuses
BRANCHES = {
    "geodesic_clamp": lambda: _both(any(isinstance(w, SaturationWarning) for w in caught)
                                    for *_, caught in _ladder("geodesics.geodesic_corr.tau")[0]),
    "joined_path_sides": lambda: _both(
        x < 0.0 for x, *_ in _ladder("geodesics.joined_path.tau")[0]),
    "igc_closed_forms": _igc_forms,
    "prolongation_flag": lambda: _both(
        rep.flagged for _, rep, _ in _ladder("scattering.prolongation.r")[0]),
    "jacobi_intensity_guard": lambda: _guarded("chaos.jacobi_intensity.tau"),
    "igc_closed_guard": lambda: _guarded("complexity.igc_closed.tau"),
    "igc_gauss_guard": lambda: _guarded("battery.igc_gauss.tau"),
}


@pytest.mark.parametrize("branch", BRANCHES)
def test_ladder_reaches_each_branch(branch):
    # the clamp of the path forms, both sides of the join at tau = 0, both
    # forms of igc_closed, both prolongation outcomes and the overflow guards
    assert BRANCHES[branch]()


_R_AXIS = sorted(name for name, (*_, path, _) in INPUTS.items() if path == ("params", "r"))
_OTHER = sorted(INPUTS.keys() - set(_R_AXIS))


@pytest.mark.parametrize("name", _R_AXIS, ids=[name[:-2] for name in _R_AXIS])
def test_array_r_broadcasts_or_is_refused_by_name(name):
    _assert_broadcasts_or_is_refused_by_name(name)


@pytest.mark.parametrize("name", [name for name in _OTHER if name in SCALAR_ONLY])
def test_array_input_is_refused_by_name(name):
    _assert_broadcasts_or_is_refused_by_name(name)


@pytest.mark.parametrize("name", [name for name in _OTHER if name not in SCALAR_ONLY])
def test_array_input_broadcasts(name):
    _assert_broadcasts_or_is_refused_by_name(name)


@pytest.mark.parametrize("name", [name for name, (*_, path, _) in INPUTS.items()
                                  if path == ("r",)])
def test_r_outside_the_range_is_refused(name):
    # an array r is refused for its one bad element
    for r in (R_MAX, -1e-12, math.nan, math.inf):
        for x in [r] if name in SCALAR_ONLY else [r, np.array([INPUTS[name][3], r])]:
            with pytest.raises(DomainError, match="correlation"):
                _call(name, x)


#: (module.name, input, value): each in the entry's valid call is refused
BAD_VALUES = [
    ("models.ModelParams", "r", -0.1), ("models.ModelParams", "r", 1.0),
    ("models.Macrostate3", "sigma", 0.0), ("models.Macrostate3", "sigma", math.inf),
    ("models.Macrostate4", "sigma_y", math.inf),
    *(("models.Macrostate3", "mu1", x) for x in (math.nan, math.inf, -math.inf)),
    *(("models.Macrostate4", "mu_y", x) for x in (math.nan, math.inf, -math.inf)),
    *(("models.metric_corr3", "sigma", x) for x in (-1.0, 0.0, math.inf)),
    ("curvature.christoffel", "sigma", 0.0),
    ("geodesics.InitialConditions", "p0", -1.0), ("geodesics.InitialConditions", "p0", math.inf),
    ("geodesics.InitialConditions", "tau0", 0.0), ("geodesics.InitialConditions", "R0", math.inf),
    ("geodesics.InitialConditions", "sigma0", 0.2),  # sigma0/p0 past LOCALIZATION_MAX
    ("chaos.jlc_coefficient", "A0", 0.0), ("chaos.jlc_coefficient", "A0", 1e308),
    ("chaos.jlc_coefficient", "A0", 1e-300),  # -A0^2 underflows
    ("chaos.lyapunov_exponent", "A0", 1e308),
    ("chaos.jacobi_intensity", "omega0", math.nan), ("chaos.jacobi_intensity", "tau", math.nan),
    ("chaos.jacobi_intensity", "A0", 5e-324),  # omega0/A0 overflows
    *(("chaos.lyapunov_estimate", "tau_max", x) for x in (5e-324, 1e300, 1e308)),
    ("complexity.igc_closed", "tau", -1.0),
    ("complexity.igc_closed", "tau", 701.0 / (2.0 * geodesics.amplitude_A0(_IC))),  # lambda*tau
    *(("battery.igc_gauss", "tau", x) for x in (1e300, 1e308)),  # a clamped path
    *(("chaos.velocity_norm_squared_contracted", "tau", x)
      for x in (math.inf, -math.inf, 1e300, 1e308)),
    *(("complexity.r_from_complexities", "v_corr", x) for x in (1e-6, 1.1)),
    ("complexity.r_from_complexities", "v_noncorr", 0.0),
    ("scattering.ScatteringConfig", "k0", 0.0), ("scattering.ScatteringConfig", "L", math.inf),
    ("scattering.ScatteringConfig", "a_s", -1e-5), ("scattering.ScatteringConfig", "a_s", math.nan),
    ("scattering.phase_shift_from_potential", "V", math.inf),
    ("scattering.r_from_potential", "V", 1e3), ("scattering.r_from_potential", "V", -0.1),
    *(("scattering.r_from_cross_section", "sigma_cs", x) for x in (1.0, -1e-9, -1.0)),
    ("scattering.r_from_purity", "purity", -5.0), ("scattering.r_from_purity", "purity", 1.5),
    ("scattering.r_from_purity", "purity", math.nan), ("scattering.prolongation", "r", -0.1),
]


@pytest.mark.parametrize("entry, input, value", BAD_VALUES,
                         ids=[f"{entry}.{input}={value}" for entry, input, value in BAD_VALUES])
def test_bad_value_is_refused_by_name(entry, input, value):
    # by the input's name, or, for an inversion, as the correlation it gives
    with pytest.raises(DomainError, match=rf"\b{input}\b|correlation"):
        _call(f"{entry}.{input}", value)


#: The spread inputs of the geometry forms, and values of them that leave the floats
SPREADS = sorted(name for name in INPUTS if name.split(".")[0] in ("models", "curvature")
                 and name.rpartition(".")[2] in ("sigma", "sigma_x", "sigma_y"))
OFF_SCALE = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308, 1e300, 1e-300, 5e-324]


def _refused_by_name_or_finite(name, value, *aliases):
    """The valid call of ``name``'s entry with that value is refused by the
    input's name or one of ``aliases``, or gives finite values, under the
    CLI's floating-point error state, so that no raw error escapes it either."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            result = _call(name, value)
        except DomainError as exc:
            words = (name.rpartition(".")[2], *aliases)
            assert re.search("|".join(rf"\b{word}\b" for word in words), str(exc)), exc
            return
    if isinstance(result, curvature.CurvatureBundle):  # K(e_i, e_i) is NaN by definition
        result = dataclasses.replace(result, sectional=result.sectional[~np.eye(3, dtype=bool)])
    assert all(np.isfinite(leaf).all() for leaf in _leaves(result))


@pytest.mark.parametrize("value", OFF_SCALE)
@pytest.mark.parametrize("name", SPREADS)
def test_spread_is_refused_by_name_or_gives_finite_values(name, value):
    _refused_by_name_or_finite(name, value)


#: Every numeric input of the oracles, which hold the closed forms to a tolerance
ORACLE_INPUTS = sorted(name for name in INPUTS if name.split(".")[0] in ("battery", "oracle"))


@pytest.mark.parametrize("value", OFF_SCALE)
@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_oracle_input_is_refused_by_name_or_gives_finite_values(name, value):
    # an r may be refused as the correlation, as in BAD_VALUES
    _refused_by_name_or_finite(name, value, "correlation")
