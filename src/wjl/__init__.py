"""Dimensionality reduction and streaming sketches for dynamically weighted
Euclidean norms, using linear maps into a complex vector space."""

__version__ = "0.1.0"

from .generators import SparseSpec, gen_pair
from .oracle import (
    WeightedPair,
    distortion,
    exact_expectation,
    weighted_sq_norm,
)
from .projection import (
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
    "ProjectionMatrix",
    "ProvenanceError",
    "ReducedVector",
    "SketchConfig",
    "SparseSpec",
    "StreamSketch",
    "WeightedNormEstimate",
    "WeightedPair",
    "distortion",
    "exact_expectation",
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
