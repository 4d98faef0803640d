"""Names of the verification check groups.

Kept apart from :mod:`gaussgeo.battery`, so that the command line can offer
``verify --only GROUP`` without loading the battery for every command.
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
