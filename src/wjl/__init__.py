"""Dimensionality reduction and streaming sketches for dynamically weighted
Euclidean norms, using linear maps into a complex vector space."""

__version__ = "0.1.0"

from .generators import SparseSpec, gen_pair
from .oracle import (
    WeightedPair,
    distortion,
    exact_rho_expectation,
    exact_sketch_expectation,
    weighted_sq_norm,
)
from .projection import (
    PlanParams,
    ProjectionMatrix,
    ProvenanceError,
    ReducedVector,
    reduce,
    reduce_sparse,
    required_k,
    rho,
    rho_pairwise,
)
from .sketch import (
    ConfigMismatchError,
    SketchConfig,
    StreamSketch,
    WeightedNormEstimate,
    new_pair,
    plan_sketch,
    sketch_estimate,
    sketch_merge,
)

__all__ = [
    "ConfigMismatchError",
    "PlanParams",
    "ProjectionMatrix",
    "ProvenanceError",
    "ReducedVector",
    "SketchConfig",
    "SparseSpec",
    "StreamSketch",
    "WeightedNormEstimate",
    "WeightedPair",
    "distortion",
    "exact_rho_expectation",
    "exact_sketch_expectation",
    "gen_pair",
    "new_pair",
    "plan_sketch",
    "reduce",
    "reduce_sparse",
    "required_k",
    "rho",
    "rho_pairwise",
    "sketch_estimate",
    "sketch_merge",
    "weighted_sq_norm",
]
