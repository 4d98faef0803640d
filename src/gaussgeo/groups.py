"""Names of the verification check groups.

Kept apart from :mod:`gaussgeo.oracle`, which imports scipy.integrate, so
that the command line can offer ``verify --only GROUP`` without loading it.
"""

#: Check groups of the verification battery, sorted.
GROUPS = (
    "chaos",
    "complexity",
    "curvature",
    "geodesics",
    "models",
    "oracle",
    "scattering",
)
