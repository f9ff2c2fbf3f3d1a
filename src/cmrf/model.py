"""Constrained MRF in single-variable form.

The model is P(x) proportional to exp(sum_i theta_i x_i) restricted to
assignments satisfying the constraint set: one real weight per Boolean
variable, nothing else. Pairwise interactions are supported only through a
compilation step that introduces four indicator variables per product term
plus CNF consistency clauses, after which the potential is linear again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .cnf import Clause, ConstraintSet, Literal


@dataclass
class ModelParams:
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64).reshape(-1)
        if not np.isfinite(self.theta).all():
            raise ValueError("theta must be finite")

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    def copy(self) -> "ModelParams":
        return ModelParams(self.theta.copy())


def marginals(m: ModelParams) -> np.ndarray:
    """Per-variable probability of taking value 0: 1 / (1 + exp(theta_i))."""
    # exp(0) / (exp(0) + exp(theta)) computed stably for large |theta|
    t = m.theta
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = np.exp(-t[pos]) / (1.0 + np.exp(-t[pos]))
    out[~pos] = 1.0 / (1.0 + np.exp(t[~pos]))
    return out


def potential(m: ModelParams, x) -> float:
    """Linear potential sum_i theta_i * x_i."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != m.n:
        raise ValueError(f"assignment length {x.shape[0]} != n {m.n}")
    return float(m.theta @ x)


def potential_batch(m: ModelParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != m.n:
        raise ValueError(f"batch width {X.shape[1]} != n {m.n}")
    return X @ m.theta


@dataclass
class FactorSpec:
    """Potential with per-variable and productterms over variable pairs."""
    linear: dict[int, float] = field(default_factory=dict)
    pairwise: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        fixed = {}
        for key, coef in self.pairwise.items():
            a, b = int(key[0]), int(key[1])
            if a == b:
                raise ValueError(f"pairwise term on a single variable {a}")
            fixed[(min(a, b), max(a, b))] = float(coef)
        self.pairwise = fixed
        self.linear = {int(k): float(v) for k, v in self.linear.items()}


@dataclass(frozen=True)
class PairwiseCompilation:
    """Where each pairwise term went: (a, b) -> indices of the 4 indicators.

    aux_vars[(a, b)] = (i00, i01, i10, i11), where i_uv is the variable that
    must equal 1 exactly when (x_a, x_b) == (u, v).
    """
    n_original: int
    aux_vars: dict[tuple[int, int], tuple[int, int, int, int]]


def _lit(var: int, value: int) -> Literal:
    """Literal that is true exactly when variable var takes the given value."""
    return Literal(var, negated=(value == 0))


def pairwise_to_single(
    f: FactorSpec, base_cs: ConstraintSet
) -> tuple[ModelParams, ConstraintSet, PairwiseCompilation]:
    """Compile linear+pairwise potential into a purely linear model.

    Each pairwise coefficient theta_p on x_a * x_b becomes theta_p on a fresh
    indicator variable for (x_a, x_b) == (1, 1); three more indicators cover
    the other value combinations so that exactly one fires per assignment.
    Consistency is enforced with CNF clauses (indicator -> each equality, and
    the conjunction of equalities -> indicator), 3 clauses per indicator.

    The induced distribution over the original variables is unchanged: every
    original assignment extends uniquely to the indicators, and the extended
    linear potential evaluates to the original linear+pairwise potential.
    """
    n = base_cs.n_vars
    for i in f.linear:
        if not 0 <= i < n:
            raise ValueError(f"linear term variable {i} out of range")
    for a, b in f.pairwise:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"pairwise term ({a},{b}) out of range")

    pairs = sorted(f.pairwise)
    n_ext = n + 4 * len(pairs)
    theta = np.zeros(n_ext)
    for i, coef in f.linear.items():
        theta[i] = coef

    new_clauses: list[Clause] = []
    aux_vars: dict[tuple[int, int], tuple[int, int, int, int]] = {}
    for p, (a, b) in enumerate(pairs):
        base = n + 4 * p
        ids = (base, base + 1, base + 2, base + 3)  # order 00, 01, 10, 11
        aux_vars[(a, b)] = ids
        theta[ids[3]] = f.pairwise[(a, b)]
        for idx, (u, v) in zip(ids, ((0, 0), (0, 1), (1, 0), (1, 1))):
            new_clauses.append(Clause((Literal(idx, True), _lit(a, u))))
            new_clauses.append(Clause((Literal(idx, True), _lit(b, v))))
            new_clauses.append(Clause((_lit(a, 1 - u), _lit(b, 1 - v), Literal(idx, False))))

    extended = ConstraintSet(
        n_vars=n_ext,
        clauses=base_cs.clauses + tuple(new_clauses),
        exactly_one_groups=base_cs.exactly_one_groups,
    )
    return ModelParams(theta), extended, PairwiseCompilation(n, aux_vars)


def save_model(m: ModelParams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": m.n, "theta": m.theta.tolist()}, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_model(path) -> ModelParams:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        theta = payload["theta"]
        # type(), not isinstance(): JSON true and false load as bool, an int subclass
        if not isinstance(theta, list) or any(type(x) not in (int, float) for x in theta):
            raise ValueError("model theta must be a flat list of numbers")
        if "n" in payload:
            if type(payload["n"]) is not int:
                raise ValueError("model file n must be an integer")
            if payload["n"] != len(theta):
                raise ValueError("model file n does not match theta length")
    except (TypeError, KeyError) as exc:
        raise ValueError(f'model file is not {{"theta": [numbers]}}: {exc!r}') from exc
    return ModelParams(np.asarray(theta, dtype=np.float64))

