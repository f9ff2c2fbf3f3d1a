"""Contrastive-divergence training of constrained MRFs.

Each iteration contrasts a minibatch of training assignments against a batch
of valid assignments drawn from the current model by one of the samplers: the
gradient of the mean potential difference is just (model mean - data mean) of
the assignment vectors, and plain constant-rate SGD follows it. The exact
negative log-likelihood (via the enumeration oracle) is traced periodically
when the instance is small enough.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .cnf import ConstraintSet, Dataset
from .model import ModelParams, potential_batch
from .oracle import ENUMERATION_CAP, ExactDistribution, exact_distribution
from .rng import fold_seed, uniforms
from .samplers import SAMPLERS, SamplerConfig, draw_valid_rows


@dataclass
class TrainConfig:
    m: int = 200
    eta: float = 0.1
    t_max: int = 1000
    sampler_kind: str = "nelson"  # a key of SAMPLERS, or "exact"
    seed: int = 0
    t_tryout: int = SamplerConfig.t_tryout
    nll_every: int = 10  # trace exact NLL every k-th iteration (when n <= cap)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0 < self.eta < float("inf"):
            raise ValueError("eta must be positive and finite")
        if self.t_max < 0:
            raise ValueError("t_max must be >= 0")
        if self.nll_every < 1:
            raise ValueError("nll_every must be >= 1")
        if self.sampler_kind != "exact" and self.sampler_kind not in SAMPLERS:
            raise ValueError(f"unknown sampler kind {self.sampler_kind!r}")


@dataclass
class TraceRow:
    iteration: int
    nll: float | None
    grad_l1: float
    wall_ms: float


def cd_step(theta: ModelParams, data_batch: np.ndarray, model_batch: np.ndarray) -> np.ndarray:
    """Contrastive-divergence gradient estimate of the negative log-likelihood.

    With a linear potential the per-assignment gradient is the assignment
    itself, so the estimate is model mean minus data mean; stepping
    theta <- theta - eta * g increases the data likelihood.
    """
    data = np.asarray(data_batch, dtype=np.float64)
    model = np.asarray(model_batch, dtype=np.float64)
    if data.size == 0 or model.size == 0:
        raise ValueError("empty batch")
    if data.shape[1] != theta.n or model.shape[1] != theta.n:
        raise ValueError("batch width does not match theta")
    return model.mean(axis=0) - data.mean(axis=0)


def neg_log_likelihood(theta: ModelParams, ds: Dataset, cs: ConstraintSet) -> float:
    """Exact NLL: log Z (enumerated) minus the mean data potential."""
    ds.validate(cs)
    return _nll(exact_distribution(cs, theta), theta, ds)


def _nll(dist: ExactDistribution, theta: ModelParams, ds: Dataset) -> float:
    """neg_log_likelihood with dist the exact distribution under theta, on a
    dataset already validated against its constraints."""
    mean_potential = float(potential_batch(theta, ds.assignments).mean())
    return dist.log_partition - mean_potential


def train(
    ds: Dataset, cs: ConstraintSet, cfg: TrainConfig, theta0: ModelParams
) -> tuple[ModelParams, list[TraceRow]]:
    """Run t_max contrastive-divergence iterations starting from theta0.

    Per iteration: draw m data rows uniformly with replacement, draw m valid
    model rows from the configured sampler, take one SGD step. Kind "exact"
    replaces both expectations with their exact values (enumeration oracle on
    the model side, full-dataset mean on the data side), making the update a
    deterministic gradient-descent step on the NLL. NLL is traced every
    nll_every iterations (and on the last) when the oracle cap allows.
    """
    ds.validate(cs)
    theta = theta0.copy()
    trace: list[TraceRow] = []
    trace_nll = cs.n_vars <= ENUMERATION_CAP
    n_data = len(ds)
    data_mean = ds.assignments.astype(np.float64).mean(axis=0)
    dist, dist_theta = None, None  # enumerated on first use, then weighed once per theta

    def exact(m):
        nonlocal dist, dist_theta
        if dist is None:
            dist = exact_distribution(cs, m)
        elif m is not dist_theta:
            dist = dist.reweight(m)
        dist_theta = m
        return dist

    start = time.perf_counter()
    for it in range(1, cfg.t_max + 1):
        if cfg.sampler_kind == "exact":
            g = exact(theta).mean() - data_mean
        else:
            u = uniforms(fold_seed(cfg.seed, "data", it), np.arange(cfg.m))
            data_rows = ds.assignments[np.minimum((u * n_data).astype(np.int64), n_data - 1)]
            model_rows = draw_valid_rows(
                cs,
                theta,
                cfg.sampler_kind,
                cfg.m,
                seed=fold_seed(cfg.seed, "model", it),
                t_tryout=cfg.t_tryout,
            )
            g = cd_step(theta, data_rows, model_rows)
        theta = ModelParams(theta.theta - cfg.eta * g)
        want_nll = trace_nll and (it % cfg.nll_every == 0 or it == cfg.t_max)
        nll = _nll(exact(theta), theta, ds) if want_nll else None
        trace.append(
            TraceRow(
                iteration=it,
                nll=nll,
                grad_l1=float(np.abs(g).sum()),
                wall_ms=(time.perf_counter() - start) * 1000.0,
            )
        )
    return theta, trace


def save_trace_csv(trace: list[TraceRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "nll", "grad_l1", "wall_ms"])
        for row in trace:
            writer.writerow(
                [
                    row.iteration,
                    "" if row.nll is None else f"{row.nll:.12g}",
                    f"{row.grad_l1:.12g}",
                    f"{row.wall_ms:.3f}",
                ]
            )
