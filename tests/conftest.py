import dataclasses
import inspect

import numpy as np
import pytest

from gaussgeo import chaos, complexity, curvature, geodesics, models, scattering
from gaussgeo.geodesics import InitialConditions
from gaussgeo.scattering import ScatteringConfig


@pytest.fixture
def desk_ic() -> InitialConditions:
    """Reference initial conditions used throughout: p0=1, sigma0=0.1, tau0=1."""
    return InitialConditions(p0=1.0, sigma0=0.1, tau0=1.0, R0=10.0)


@pytest.fixture
def narrow_ic() -> InitialConditions:
    """Very well-localized packets, sigma0/p0 = 1e-3."""
    return InitialConditions(p0=1.0, sigma0=1e-3, tau0=1.0, R0=10.0)


@pytest.fixture
def desk_cfg() -> ScatteringConfig:
    """Reference scattering configuration: k0=1, sigma=0.1, R0=10, L=0.1."""
    return ScatteringConfig(k0=1.0, sigma_k0=0.1, R0=10.0, L=0.1, a_s=1e-5)


def grid_cases():
    return [(sg, r) for sg in (0.1, 1.0, 10.0) for r in (0.0, 0.3, 0.7, 0.9)]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def _cells() -> list[str]:
    """module.name of each public function of the closed-form modules or,
    where it returns a report, module.name.field of each numeric field; then
    the two curvature constants."""
    cells = []
    for module in (models, curvature, geodesics, chaos, complexity, scattering):
        stem = module.__name__.rpartition(".")[2]
        for name, form in inspect.getmembers(module, inspect.isfunction):
            if name[0] == "_" or form.__module__ != module.__name__:
                continue
            report = inspect.signature(form, eval_str=True).return_annotation
            cells += ([f"{stem}.{name}.{f.name}" for f in dataclasses.fields(report)
                       if f.type != "bool"] if dataclasses.is_dataclass(report)
                      else [f"{stem}.{name}"])
    return [*cells, "curvature.SCALAR_CURVATURE", "curvature.SECTIONAL_CURVATURE"]


#: The mutation-matrix cells: every closed form, or field of the report it returns
CELLS = _cells()
