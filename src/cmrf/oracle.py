"""Exhaustive-enumeration ground truth for small instances.

Everything here walks all 2^n assignments, 2^16 at a time in one reused
variable-major buffer (see _enumerate), and evaluates constraints with the
reference evaluator `cnf.violation_matrix`, independently of the samplers'
constraint kernel. It provides the exact constrained
distribution, the gradient of the log-partition function, and the
product-measure violation probabilities that predict expected resample
counts, plus the total-variation distance used to compare empirical and
exact distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cnf import ConstraintSet, row_keys, violation_matrix
from .model import ModelParams, marginals

ENUMERATION_CAP = 25
_CHUNK_BITS = 16
_WEIGH_ROWS = 1 << 12

class EnumerationCapError(RuntimeError):
    """An exhaustive enumeration would need more variables than allowed."""


class EmptySupportError(RuntimeError):
    """No assignment satisfies all constraints."""


@dataclass
class ExactDistribution:
    support: np.ndarray        # (M, n) uint8, rows in lexicographic bitstring order
    probabilities: np.ndarray  # (M,) float64, sums to 1
    log_partition: float

    def prob_table(self) -> dict[str, float]:
        return dict(zip(row_keys(self.support), self.probabilities.tolist()))

    def reweight(self, m: ModelParams) -> ExactDistribution:
        """The distribution under theta m on the same support, without
        enumerating again; equal to exact_distribution(cs, m) bit for bit."""
        if m.n != self.support.shape[1]:
            raise ValueError("theta length does not match n_vars")
        return _weigh(self.support, m)

    def mean(self) -> np.ndarray:
        """Coordinate-wise mean of x: the gradient of log Z in theta. The
        support is converted to float64 _WEIGH_ROWS rows at a time, never
        whole."""
        total = np.zeros(self.support.shape[1])
        for i in range(0, len(self.support), _WEIGH_ROWS):
            rows = slice(i, i + _WEIGH_ROWS)
            total += self.probabilities[rows] @ self.support[rows].astype(np.float64)
        return total


@dataclass
class ResampleExpectation:
    q_empty: float
    q_single: np.ndarray             # (n_constraints,)
    per_constraint_expected: np.ndarray
    total_expected: float


def _enumerate(cs: ConstraintSet, m: ModelParams):
    """Check the cap and theta's length, then return a generator of (rows,
    violation_matrix(cs, rows)) over all 2^n codes in ascending order, 2^16
    codes a block, variable i at bit n-1-i of the code (so rows come in
    lexicographic order). The checks run on the call, not on first
    iteration. The rows are the transpose of one variable-major buffer, so
    each of violation_matrix's columns is contiguous: its low variables hold
    the block's bit pattern, built once per call, and the others the bits of
    the block's start, constant in a block. The yielded rows are a view that
    the next block overwrites: callers copy what they keep, and delete the
    rows and their violation matrix before asking for the next, so one
    matrix is alive at a time and no view keeps the buffer past the loop."""
    n = cs.n_vars
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(f"{n} variables exceeds enumeration cap {ENUMERATION_CAP}")
    if m.n != n:
        raise ValueError("theta length does not match n_vars")
    low = min(n, _CHUNK_BITS)
    codes = np.arange(1 << low, dtype="<u8").view(np.uint8).reshape(-1, 8)
    bits = np.empty((n, 1 << low), dtype=np.uint8)
    bits[n - low :] = np.unpackbits(codes, axis=1, count=low, bitorder="little")[:, ::-1].T
    shifts = np.arange(n - low - 1, -1, -1)  # bit of the block number per high variable

    def blocks():
        for block in range(1 << (n - low)):
            bits[: n - low] = ((block >> shifts) & 1)[:, None]
            yield bits.T, violation_matrix(cs, bits.T)

    return blocks()


def exact_distribution(cs: ConstraintSet, m: ModelParams) -> ExactDistribution:
    """Enumerate the constrained Boltzmann distribution exactly.

    log_partition is computed with a max-shifted log-sum-exp over the valid
    assignments' potentials.
    """
    support = []
    for rows, viol in _enumerate(cs, m):
        support.append(rows[~viol.any(axis=1)])
        del rows, viol
    support = np.concatenate(support)
    if not len(support):
        raise EmptySupportError("constraint set is unsatisfiable")
    return _weigh(support, m)


def _weigh(support: np.ndarray, m: ModelParams) -> ExactDistribution:
    """Boltzmann probabilities and log Z of the support rows under m. The
    potentials are taken _WEIGH_ROWS rows at a time, so the float64 copy of
    the support stays under 1 MB, and at most two support-long float64
    arrays are alive at once."""
    pots = np.empty(len(support))
    for i in range(0, len(support), _WEIGH_ROWS):
        rows = slice(i, i + _WEIGH_ROWS)
        np.matmul(support[rows].astype(np.float64), m.theta, out=pots[rows])
    peak = pots.max()
    shifted = pots - peak
    log_z = peak + np.log(np.exp(shifted, out=shifted).sum())
    del shifted
    probs = np.exp(np.subtract(pots, log_z, out=pots), out=pots)
    probs /= probs.sum()  # remove residual rounding so probabilities sum to 1
    return ExactDistribution(support=support, probabilities=probs, log_partition=float(log_z))


def exact_grad_log_partition(cs: ConstraintSet, m: ModelParams) -> np.ndarray:
    """Coordinate-wise mean of x under the exact constrained distribution."""
    return exact_distribution(cs, m).mean()


def product_measure_weights(m: ModelParams, bits: np.ndarray) -> np.ndarray:
    """Probability of each row under independent per-variable draws."""
    p_zero = marginals(m)
    probs = np.where(bits.astype(bool), 1.0 - p_zero[None, :], p_zero[None, :])
    return probs.prod(axis=1)


def expected_resamples(cs: ConstraintSet, m: ModelParams) -> ResampleExpectation:
    """Predicted resample counts for the all-violated-constraints sampler.

    Under the product measure of the marginals, q_empty is the probability
    that no constraint is violated and q_single[j] that exactly constraint j
    is; on extremal instances the expected number of resamples of constraint
    j across a full run is q_single[j] / q_empty.
    """
    q_empty = 0.0
    q_single = np.zeros(cs.n_constraints)
    for rows, viol in _enumerate(cs, m):
        weights = product_measure_weights(m, rows)
        counts = viol.sum(axis=1)
        q_empty += weights[counts == 0].sum()
        lone = counts == 1
        if lone.any():
            q_single += weights[lone] @ viol[lone]
        del rows, viol
    if q_empty <= 0.0:
        raise EmptySupportError("no assignment satisfies all constraints")
    per = q_single / q_empty
    return ResampleExpectation(
        q_empty=float(q_empty),
        q_single=q_single,
        per_constraint_expected=per,
        total_expected=float(per.sum()),
    )


def tv_distance(p: dict, q: dict) -> float:
    """Total-variation distance between two probability tables.

    Tables map outcomes (any hashable key) to masses; keys missing from one
    table count as 0 there.
    """
    for table in (p, q):
        for key, mass in table.items():
            if mass < 0:
                raise ValueError(f"negative mass {mass} at {key!r}")
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def empirical_table(rows: np.ndarray) -> dict[str, float]:
    """Frequency table of a (rows, n) 0/1 matrix keyed by bitstring, in
    lexicographic key order; only the distinct rows are keyed."""
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.size == 0:  # no rows, or every row is the empty key
        return {"": 1.0} if len(rows) else {}
    packed = np.packbits(rows, axis=1)  # sorts like the bits, 8 to a byte
    order = np.lexsort(packed.T[::-1])
    packed = packed[order]
    starts = np.flatnonzero(np.r_[True, (packed[1:] != packed[:-1]).any(axis=1)])
    counts = np.diff(starts, append=len(order))
    return dict(zip(row_keys(rows[order[starts]]), counts / len(order)))
