"""Constrained Markov random fields in single-variable form.

Exact constraint-aware sampling by iterated resampling of violated
constraints, brute-force enumeration oracles for verification, and
contrastive-divergence training, with generators for benchmark constraint
families and a reproducible file-based CLI.
"""

__version__ = "0.1.0"

from .cnf import (
    Clause,
    ConstraintSet,
    Dataset,
    DependencyGraph,
    Literal,
    build_dependency_graph,
    check_extremal,
    clause,
    emit_dimacs,
    gamma,
    load_constraints,
    parse_dimacs,
    violated_constraints,
)
from .learn import TrainConfig, cd_step, neg_log_likelihood, train
from .metrics import grad_error, map_at_10, resample_stats
from .model import FactorSpec, ModelParams, marginals, pairwise_to_single, potential
from .oracle import (
    exact_distribution,
    exact_grad_log_partition,
    expected_resamples,
    tv_distance,
)
from .problems import gen_ksat, gen_routes, gen_sinkfree, gen_training_set
from .samplers import (
    AssignmentBatch,
    SamplerConfig,
    SamplerStats,
    gibbs_sample,
    moser_tardos_sample,
    nelson_sample,
    sample_stream,
)
from .tensors import ClauseTensors, encode_tensors, resample_mask, satisfaction_pass

__all__ = [
    "AssignmentBatch",
    "Clause",
    "ClauseTensors",
    "ConstraintSet",
    "Dataset",
    "DependencyGraph",
    "FactorSpec",
    "Literal",
    "ModelParams",
    "SamplerConfig",
    "SamplerStats",
    "TrainConfig",
    "build_dependency_graph",
    "cd_step",
    "check_extremal",
    "clause",
    "emit_dimacs",
    "encode_tensors",
    "exact_distribution",
    "exact_grad_log_partition",
    "expected_resamples",
    "gamma",
    "gen_ksat",
    "gen_routes",
    "gen_sinkfree",
    "gen_training_set",
    "gibbs_sample",
    "grad_error",
    "load_constraints",
    "map_at_10",
    "marginals",
    "moser_tardos_sample",
    "neg_log_likelihood",
    "nelson_sample",
    "pairwise_to_single",
    "parse_dimacs",
    "potential",
    "resample_mask",
    "resample_stats",
    "sample_stream",
    "satisfaction_pass",
    "train",
    "tv_distance",
    "violated_constraints",
]
