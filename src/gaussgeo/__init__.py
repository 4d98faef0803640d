"""Information geometry of correlated Gaussian manifolds.

Closed-form Fisher-Rao metrics, geodesics, curvature and chaos indicators,
statistical complexity, and the s-wave scattering entanglement chain, each
backed by an independent numeric oracle in :mod:`gaussgeo.oracle`.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    GaussGeoError,
    RegimeError,
    RegimeWarning,
    ResonanceError,
    SaturationWarning,
)
from .geodesics import InitialConditions
from .models import Macrostate3, Macrostate4, ModelParams
from .scattering import ScatteringConfig

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
