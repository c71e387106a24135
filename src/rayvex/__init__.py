"""Closed-form convex envelopes of ray-concave functions over polytopes.

Construct an :class:`EnvelopeModel` from a scalar field and a polytope; the
model evaluates the secant envelope along rays through the origin, its
simplified homogeneous form, and its gradient, and carries a numerical
certification of the hypotheses that make the secant the convex envelope.
"""

from . import errors
from .envelope import (
    EnvelopeModel,
    EnvelopeValue,
    build,
    eval_homogeneous,
    gradient,
    secant_raw,
)
from .functions import (
    CATALOG_BUILDERS,
    CatalogEntry,
    ScalarField,
    bilinear_neg,
    catalog,
    cobb_douglas,
    cubic_rational,
    fractional,
    reliability,
)
from .geometry import (
    Polytope,
    RayTrace,
    RayTraceBatch,
    RegionId,
    ValidationReport,
    enumerate_regions_2d,
    normalize_facet,
    ray_intersect,
    ray_intersect_batch,
    region_of,
    sample_interior,
    validate,
    vertices,
)
from .simplex import LPResult, solve_lp
from .verify import (
    CertificationReport,
    CheckResult,
    SampledOracle,
    certify,
    check_corollary_convexity,
    check_facet_convexity,
    check_positive_homogeneity,
    check_ray_concavity,
    oracle_build,
    oracle_eval,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG_BUILDERS",
    "CatalogEntry",
    "CertificationReport",
    "CheckResult",
    "EnvelopeModel",
    "EnvelopeValue",
    "LPResult",
    "Polytope",
    "RayTrace",
    "RayTraceBatch",
    "RegionId",
    "SampledOracle",
    "ScalarField",
    "ValidationReport",
    "bilinear_neg",
    "build",
    "catalog",
    "certify",
    "check_corollary_convexity",
    "check_facet_convexity",
    "check_positive_homogeneity",
    "check_ray_concavity",
    "cobb_douglas",
    "cubic_rational",
    "enumerate_regions_2d",
    "errors",
    "eval_homogeneous",
    "fractional",
    "gradient",
    "normalize_facet",
    "oracle_build",
    "oracle_eval",
    "ray_intersect",
    "ray_intersect_batch",
    "region_of",
    "reliability",
    "sample_interior",
    "secant_raw",
    "solve_lp",
    "validate",
    "vertices",
]
