"""Benchmark instance generators and synthetic preference training sets.

Three families: random K-SAT formulas, sink-free-orientation formulas over
random graphs, and vehicle-route instances with exactly-one degree
constraints. Every generator is a pure function of its seed.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .cnf import Clause, ConstraintSet, Dataset, Literal, emit_dimacs
from .model import ModelParams
from .rng import fold_seed, uniforms
from .samplers import draw_valid_rows


@dataclass
class ProblemInstance:
    constraints: ConstraintSet
    metadata: dict = field(default_factory=dict)


def gen_ksat(n: int, L: int, K: int, seed: int = 0) -> ProblemInstance:
    """L random clauses of exactly K distinct variables, fair-coin polarities."""
    if K < 1:
        raise ValueError(f"clause width {K} must be >= 1")
    if K > n:
        raise ValueError(f"clause width {K} exceeds variable count {n}")
    ksat_seed = fold_seed(seed, "ksat")
    clauses = []
    for c in range(L):  # one clause at a time keeps memory O(n), not O(L n)
        # Clause c draws counters c*(n+K) .. (c+1)*(n+K)-1: its variables are
        # the first K of a stable argsort of n values, its signs the K after.
        u = uniforms(ksat_seed, c * (n + K) + np.arange(n + K))
        variables = np.argsort(u[:n], kind="stable")[:K].tolist()
        signs = (u[n:] < 0.5).tolist()
        clauses.append(Clause(tuple(Literal(v, s) for v, s in zip(variables, signs))))
    cs = ConstraintSet(n_vars=n, clauses=tuple(clauses))
    return ProblemInstance(
        constraints=cs,
        metadata={"family": "ksat", "params": {"n": n, "L": L, "K": K, "seed": seed}},
    )


SINKFREE_EDGE_PROB = 0.55  # gen_sinkfree's default, and `cmrf gen`'s


def gen_sinkfree(num_vertices: int, edge_prob: float = SINKFREE_EDGE_PROB,
                 seed: int = 0) -> ProblemInstance:
    """Sink-free-orientation formula over a random graph.

    Edge e = (a, b) with a < b gets one Boolean variable; value 1 means the
    edge points a -> b. The clause of vertex v requires one outgoing edge:
    literal X_e when v is the lower endpoint, otherwise its negation. Graphs
    are redrawn until every vertex has degree >= 1 (an isolated vertex would
    make the formula unsatisfiable); two clauses never share a variable with
    equal polarity, so the result always passes check_extremal. The formula
    is satisfiable only if every component of the graph holds a cycle, and
    nothing redraws a graph with a tree component: 3 vertices can give a
    2-edge path, which no assignment satisfies, and 17 of seeds 0-99 at 5
    vertices give a tree component (see tree_components).
    """
    if num_vertices < 2:
        raise ValueError("need at least two vertices")
    if not 0 < edge_prob <= 1:
        raise ValueError(f"edge_prob {edge_prob} is outside (0, 1]")
    # Graph attempt a draws one uniform per vertex pair, counters a*P ..
    # (a+1)*P-1, in np.triu_indices order.
    graph_seed = fold_seed(seed, "sinkfree")
    pairs = np.stack(np.triu_indices(num_vertices, 1), axis=1)
    for attempt in range(1000):
        u = uniforms(graph_seed, attempt * len(pairs) + np.arange(len(pairs)))
        edges = pairs[u < edge_prob]
        if np.bincount(edges.ravel(), minlength=num_vertices).min() >= 1:
            break
    else:
        raise ValueError(
            f"no graph with minimum degree >= 1 in 1000 draws at edge_prob {edge_prob};"
            " raise edge_prob (--edge-prob)")

    edges = edges.tolist()
    lits = [[] for _ in range(num_vertices)]
    for e, (a, b) in enumerate(edges):
        lits[a].append(Literal(e, negated=False))
        lits[b].append(Literal(e, negated=True))
    clauses = [Clause(tuple(row)) for row in lits]
    cs = ConstraintSet(n_vars=len(edges), clauses=tuple(clauses))
    return ProblemInstance(
        constraints=cs,
        metadata={
            "family": "sinkfree",
            "params": {"num_vertices": num_vertices, "edge_prob": edge_prob, "seed": seed},
            "edges": edges,
        },
    )


def tree_components(num_vertices: int, edges) -> list[int]:
    """The vertex counts, ascending, of the components of a graph that hold
    no cycle, for vertices 0 .. num_vertices - 1 and (a, b) edges. A tree
    with k vertices has k - 1 edges and k vertex clauses that each need an
    outgoing edge, so no sink-free orientation exists while one is left."""
    root = list(range(num_vertices))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for a, b in edges:
        root[find(a)] = find(b)
    vertices = Counter(find(v) for v in range(num_vertices))
    links = Counter(find(a) for a, _ in edges)
    return sorted(k for r, k in vertices.items() if links[r] == k - 1)


def gen_routes(num_cities: int, seed: int = 0) -> ProblemInstance:
    """Visit-once route instance: one variable per ordered city pair.

    Variable for (i, j) means the step i -> j is taken. One exactly-one group
    per origin row (leave every city once) and one per destination column
    (enter every city once). Weights favor short steps: theta = -distance,
    with distances a symmetric uniform [0,1] matrix drawn from the seed.
    """
    if num_cities < 2:
        raise ValueError("need at least two cities")
    var_pairs = [(i, j) for i in range(num_cities) for j in range(num_cities) if i != j]
    var_index = {pair: v for v, pair in enumerate(var_pairs)}

    upper = np.triu_indices(num_cities, 1)
    dist = np.zeros((num_cities, num_cities))
    dist[upper] = uniforms(fold_seed(seed, "routes"), np.arange(len(upper[0])))
    dist += dist.T

    groups = []
    for i in range(num_cities):
        groups.append(frozenset(var_index[(i, j)] for j in range(num_cities) if j != i))
    for j in range(num_cities):
        groups.append(frozenset(var_index[(i, j)] for i in range(num_cities) if i != j))

    theta = np.array([-dist[i, j] for (i, j) in var_pairs])
    cs = ConstraintSet(
        n_vars=len(var_pairs), clauses=(), exactly_one_groups=tuple(groups)
    )
    return ProblemInstance(
        constraints=cs,
        metadata={
            "family": "routes",
            "params": {"num_cities": num_cities, "seed": seed},
            "var_pairs": [list(p) for p in var_pairs],
            "distances": dist.tolist(),
            "theta": theta.tolist(),
        },
    )


def gen_training_set(
    inst: ProblemInstance, theta_star: ModelParams, N: int, seed: int = 0
) -> Dataset:
    """N valid assignments drawn from the instance under preference weights
    theta_star; stands in for a solver-generated set of preferred solutions."""
    cs = inst.constraints
    if theta_star.n != cs.n_vars:
        raise ValueError("theta_star width does not match instance")
    if N == 0:
        return Dataset(np.zeros((0, cs.n_vars), dtype=np.uint8), n_vars=cs.n_vars)
    rows = draw_valid_rows(
        cs, theta_star, "nelson", N, seed=fold_seed(seed, "training-set")
    )
    return Dataset(rows, n_vars=cs.n_vars)


def instance_theta(inst: ProblemInstance) -> ModelParams | None:
    """Instance-provided initial weights (routes), if any."""
    theta = inst.metadata.get("theta")
    return None if theta is None else ModelParams(np.asarray(theta))


def save_instance(inst: ProblemInstance, cnf_path, sidecar_path) -> None:
    """DIMACS file plus sidecar JSON with groups and generation metadata."""
    with open(cnf_path, "w", encoding="utf-8") as fh:
        fh.write(emit_dimacs(inst.constraints))
    sidecar = dict(inst.metadata)
    sidecar["exactly_one"] = [sorted(g) for g in inst.constraints.exactly_one_groups]
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")
