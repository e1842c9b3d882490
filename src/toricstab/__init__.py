"""Exact toric K-stability invariants, optimal destabilizers, and limit combinatorics."""

from .exactgeom import (
    ConeGenerators,
    ConeH,
    Fan,
    HPolytope,
    VPolytope,
    dual_polytope,
    extreme_rays,
    facets_from_vertices,
    normal_fan,
    primitive,
    triangulate,
    vertices_from_facets,
    vpolytope,
)
from .limits import (
    WeightedPoint,
    WeightPolytope,
    face_limit,
    face_of_direction,
    is_fixed,
    limit_point,
    normal_cone_of_face,
    weight_polytope,
    weighted_point,
)
from .moments import (
    ExtrapolationResult,
    LatticeSeries,
    MomentData,
    extrapolate,
    is_positive_definite,
    lattice_series,
    moment_data,
)
from .optimizer import (
    CertificateError,
    DestabReport,
    SigmaOne,
    Stage1Result,
    build_sigma1,
    minimize_mu1,
    minimize_mu2_on_cone,
    optimal_destabilizer,
)
from .stability import (
    SEMISTABLE,
    UNSTABLE,
    StabilityContext,
    StabilityValue,
    context_from_constraints,
    context_from_rays,
    context_from_vertices,
    futaki,
    l2_norm_sq,
    log_discrepancy_S,
    min_norm,
    mu,
    mu_prime_trunc,
    verdict,
)

__version__ = "0.1.0"
