"""The paper's arithmetic clause-satisfaction formulation.

Clauses are packed into three arrays: a literal tensor W (L x K x n, entries
-1/0/1), a negation offset matrix b (L x K), and a clause-variable incidence
matrix V (L x n). Satisfaction of a whole batch then reduces to one matrix
product plus max/threshold ops, as the paper writes it. Acceptance criterion
4 pins these values. The samplers do not run this pipeline: their kernel
(`samplers._ConstraintKernel`) evaluates clauses and exactly-one groups on
per-constraint variable index lists, a gather instead of a dense product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cnf import ConstraintSet


@dataclass(frozen=True)
class ClauseTensors:
    W: np.ndarray  # (L, K, n) int8: +1 positive literal, -1 negated, 0 padding
    b: np.ndarray  # (L, K) int8: 1 iff slot holds a negated literal
    V: np.ndarray  # (L, n) int8: clause-variable incidence
    K: int
    L: int
    n: int

    @property
    def w_matrix(self) -> np.ndarray:
        """(L*K, n) float64 view of W used for the batched matmul."""
        return self.W.reshape(self.L * self.K, self.n).astype(np.float64)


def encode_tensors(cs: ConstraintSet) -> ClauseTensors:
    """Pack the clauses of cs into W/b/V; K is the longest clause length.

    Short clauses are padded with all-zero literal rows (and b = 0): a padded
    slot always evaluates to 0, which can never mark the clause satisfied.
    Exactly-one groups are handled natively by the sampler and must not be
    present here.
    """
    if cs.exactly_one_groups:
        raise ValueError("encode_tensors expects a clause-only constraint set")
    L = cs.n_clauses
    K = max((len(cl.literals) for cl in cs.clauses), default=0)
    n = cs.n_vars
    W = np.zeros((L, K, n), dtype=np.int8)
    b = np.zeros((L, K), dtype=np.int8)
    V = np.zeros((L, n), dtype=np.int8)
    for j, cl in enumerate(cs.clauses):
        for k, lit in enumerate(cl.literals):
            W[j, k, lit.variable_index] = -1 if lit.negated else 1
            b[j, k] = 1 if lit.negated else 0
            V[j, lit.variable_index] = 1
    return ClauseTensors(W=W, b=b, V=V, K=K, L=L, n=n)


def satisfaction_pass(t: ClauseTensors, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate every clause for every row of a (rows, n) 0/1 batch.

    Returns (Z, S): Z[r, j, k] = sum_i W[j,k,i]*x[r,i] + b[j,k] is 1 iff the
    k-th literal of clause j is true in row r; S[r, j] = 1 - max_k Z[r, j, k]
    is 1 iff row r violates clause j. S.sum() == 0 iff the whole batch is
    satisfying.
    """
    X = np.asarray(X)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.shape[1] != t.n:
        raise ValueError(f"batch width {X.shape[1]} != n {t.n}")
    rows = X.shape[0]
    if t.L == 0:
        return (
            np.zeros((rows, 0, t.K), dtype=np.int8),
            np.zeros((rows, 0), dtype=np.int8),
        )
    Zf = X.astype(np.float64) @ t.w_matrix.T + t.b.reshape(-1).astype(np.float64)
    Z = Zf.reshape(rows, t.L, t.K).astype(np.int8)
    if __debug__:
        real = np.abs(t.W).sum(axis=2) > 0  # (L, K) mask of non-padded slots
        vals = Z[:, real]
        assert vals.size == 0 or (
            (vals >= 0).all() and (vals <= 1).all()
        ), "literal values outside {0,1}: encoding bug"
    S = (1 - Z.max(axis=2, initial=0)).astype(np.int8)
    return Z, S


def resample_mask(t: ClauseTensors, S: np.ndarray) -> np.ndarray:
    """A[r, i] = 1 iff variable i occurs in some clause violated by row r."""
    S = np.asarray(S)
    if S.ndim == 1:
        S = S.reshape(1, -1)
    if S.shape[1] != t.L:
        raise ValueError(f"violation matrix width {S.shape[1]} != L {t.L}")
    if t.L == 0:
        return np.zeros((S.shape[0], t.n), dtype=np.int8)
    counts = S.astype(np.float64) @ t.V.astype(np.float64)
    return (counts >= 1).astype(np.int8)
