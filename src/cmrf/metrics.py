"""Evaluation metrics: MAP@10 ranking score, gradient error, round
histogram."""

from __future__ import annotations

import csv

import numpy as np

from .cnf import ConstraintSet, row_keys
from .model import ModelParams, potential
from .oracle import exact_grad_log_partition
from .samplers import draw_valid_rows


def map_at_10(theta: ModelParams, preferred, unseen) -> float:
    """Mean averaged precision over the top 10 by potential, as a percentage.

    Ranks the union of both sets by potential, descending (ties broken by
    bitstring, descending), then averages precision-at-k for k = 1..10; 100
    means the entire top 10 is preferred.
    """
    both = np.concatenate([np.asarray(rows, dtype=np.uint8).reshape(len(rows), theta.n)
                           for rows in (preferred, unseen)])
    keys = row_keys(both)
    preferred_keys = set(keys[:len(preferred)])
    pool = dict(zip(keys, both))  # equal keys are equal rows
    if len(preferred) == 0 or len(unseen) == 0:
        raise ValueError("both assignment sets must be nonempty")
    if len(pool) == len(preferred_keys):
        raise ValueError("every unseen assignment is also preferred")
    if len(pool) < 10:
        raise ValueError(f"need at least 10 candidates, got {len(pool)}")

    def sort_key(key: str):
        # descending potential, then descending bitstring (flip bits for asc sort)
        return (-potential(theta, pool[key]), key.translate(str.maketrans("01", "10")))

    ranked = sorted(pool, key=sort_key)
    hits = 0
    score = 0.0
    for k, key in enumerate(ranked[:10], start=1):
        if key in preferred_keys:
            hits += 1
        score += hits / k
    return score / 10.0 * 100.0


def grad_error(
    cs: ConstraintSet,
    theta: ModelParams,
    sampler_kind: str,
    m: int,
    seed: int,
) -> float:
    """L1 distance between the exact log-partition gradient and the mean of m
    valid sampler draws."""
    exact = exact_grad_log_partition(cs, theta)
    rows = draw_valid_rows(cs, theta, sampler_kind, m, seed=seed)
    estimate = rows.astype(np.float64).mean(axis=0)
    return float(np.abs(exact - estimate).sum())


def resample_stats(rounds: np.ndarray) -> dict[int, int]:
    """Round histogram: {rounds: number of rows that took that many}, by
    ascending round count."""
    values, counts = np.unique(rounds, return_counts=True)
    return dict(zip(map(int, values), map(int, counts)))


def save_histogram_csv(histogram: dict[int, int], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "count"])
        for round_count in sorted(histogram):
            writer.writerow([round_count, histogram[round_count]])
