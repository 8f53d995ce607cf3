"""Exact calculator for strong Nielsen and minimum coincidence numbers.

Given homotopy-class data for pairs of maps from spheres into projective
spaces, spheres, or spherical space forms, computes the strong Nielsen
number N#, the minimum numbers MCC and MC of coincidence components and
points, and classifies how removable self-coincidences are.  All
arithmetic is exact; all homotopy-group inputs come from a validated,
user-extensible database.
"""

from .fgab import (
    FgAbGroup,
    GroupElement,
    Homomorphism,
    Subgroup,
    exact_at,
    in_image,
    is_surjective,
    kernel,
    paired_injective,
    smith_normal_form,
)
from .homotopy_db import (
    Database,
    DatabaseError,
    InsufficientDataError,
    SpaceId,
    load,
    load_default,
    loads,
    serialize,
    validate,
)
from .classifier import (
    INF,
    CoincidenceAnswer,
    ClassificationError,
    InconsistentDataError,
    ProjectiveClass,
    SpaceFormQuery,
    classify_projective,
    classify_space_form,
    classify_sphere_target,
    reidemeister_count,
    table_conditions,
)
from .selfcoincidence import (
    LoosenessVerdict,
    criteria_equivalence_iii,
    criteria_equivalence_iii_prime,
    self_verdict,
)

__version__ = "0.1.0"
