"""Information geometry of correlated Gaussian manifolds.

Closed-form Fisher-Rao metrics, geodesics, curvature and chaos indicators,
statistical complexity, and the s-wave scattering entanglement chain, each
backed by an independent numeric oracle in :mod:`gaussgeo.oracle`.

``import gaussgeo`` loads `gaussgeo.errors` alone. The input dataclasses it
names are resolved on first access from the module that defines them, so a
``gaussgeo`` command loads only the modules it reads.
"""

import importlib

from .errors import (
    ConvergenceError,
    DomainError,
    GaussGeoError,
    RegimeError,
    RegimeWarning,
    ResonanceError,
    SaturationWarning,
)

#: The module of each name that `__getattr__` resolves.
_LAZY = {
    "InitialConditions": "geodesics",
    "Macrostate3": "models",
    "Macrostate4": "models",
    "ModelParams": "models",
    "ScatteringConfig": "scattering",
}

__all__ = [
    "ConvergenceError",
    "DomainError",
    "GaussGeoError",
    "InitialConditions",
    "Macrostate3",
    "Macrostate4",
    "ModelParams",
    "RegimeError",
    "RegimeWarning",
    "ResonanceError",
    "SaturationWarning",
    "ScatteringConfig",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: called only for a name not yet in the module's namespace
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
