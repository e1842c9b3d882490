"""Exact toric K-stability invariants, optimal destabilizers, and limit combinatorics.

Every public name below is importable from the package and loads its module
on first access (PEP 562), so a process compiles only the modules it reads.
"""

import importlib

_EXPORTS = {
    "exactgeom": (
        "CertificateError", "ConeH", "Fan", "HPolytope", "VPolytope", "dual_polytope",
        "facets_from_vertices", "primitive",
    ),
    "invariants": ("futaki", "l2_norm_sq", "log_discrepancy_S", "min_norm", "mu", "mu_prime_trunc"),
    "lattice": ("ExtrapolationResult", "LatticeSeries", "extrapolate", "lattice_series"),
    "limits": (
        "WeightedPoint", "WeightPolytope", "face_limit", "face_of_direction", "is_fixed",
        "limit_point", "normal_cone_of_face", "weight_polytope", "weighted_point",
    ),
    "moments": ("MomentData", "is_positive_definite", "moment_data"),
    "optimizer": (
        "DestabReport", "SigmaOne", "Stage1Result", "build_sigma1", "minimize_mu1",
        "minimize_mu2_on_cone", "optimal_destabilizer",
    ),
    "polytopes": (
        "ConeGenerators", "extreme_rays", "normal_fan", "triangulate", "vertices_from_facets",
        "vpolytope",
    ),
    "stability": (
        "SEMISTABLE", "UNSTABLE", "StabilityContext", "StabilityValue",
        "context_from_constraints", "context_from_rays", "context_from_vertices", "verdict",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
