import itertools

import numpy as np
import pytest

from cmrf.cnf import check_extremal, load_constraints, violated_constraints
from cmrf.model import ModelParams
from cmrf.oracle import (
    EmptySupportError,
    empirical_table,
    exact_distribution,
    tv_distance,
)
from cmrf.problems import (
    ProblemInstance,
    gen_ksat,
    gen_routes,
    gen_sinkfree,
    gen_training_set,
    instance_theta,
    save_instance,
    tree_components,
)


class TestKsat:
    def test_shape(self):
        inst = gen_ksat(10, 10, 5, seed=0)
        cs = inst.constraints
        assert cs.n_vars == 10 and cs.n_clauses == 10
        for cl in cs.clauses:
            assert len(cl.literals) == 5
            assert len(cl.variables()) == 5

    def test_deterministic(self):
        assert gen_ksat(8, 6, 3, seed=5).constraints == gen_ksat(8, 6, 3, seed=5).constraints
        assert gen_ksat(8, 6, 3, seed=5).constraints != gen_ksat(8, 6, 3, seed=6).constraints

    def test_width_exceeds_vars(self):
        for K in (6, 0, -2):  # wider than the 5 variables, or below 1
            with pytest.raises(ValueError, match=f"clause width {K}"):
                gen_ksat(5, 3, K, seed=0)

    def test_polarities_vary(self):
        inst = gen_ksat(12, 30, 4, seed=1)
        negations = [
            lit.negated for cl in inst.constraints.clauses for lit in cl.literals
        ]
        assert any(negations) and not all(negations)


def _sinkfree_orientation_count(edges, num_vertices):
    """Graph-level reference: count orientations leaving no vertex without
    an outgoing edge."""
    count = 0
    for bits in itertools.product((0, 1), repeat=len(edges)):
        outgoing = [0] * num_vertices
        for (a, b), bit in zip(edges, bits):
            outgoing[a if bit else b] += 1
        if all(outgoing[v] > 0 for v in range(num_vertices)):
            count += 1
    return count


class TestSinkfree:
    def test_single_edge_unsatisfiable(self):
        inst = gen_sinkfree(2, seed=0)
        cs = inst.constraints
        assert cs.n_vars == 1 and cs.n_clauses == 2
        with pytest.raises(EmptySupportError):
            exact_distribution(cs, ModelParams(np.zeros(1)))

    def test_triangle_two_cycles(self):
        inst = gen_sinkfree(3, edge_prob=1.0, seed=0)
        dist = exact_distribution(inst.constraints, ModelParams(np.zeros(3)))
        assert dist.support.shape[0] == 2

    def test_always_extremal(self):
        for seed in range(10):
            inst = gen_sinkfree(5, seed=seed)
            assert check_extremal(inst.constraints) == (True, None)

    def test_valid_assignments_are_sinkfree_orientations(self):
        for seed in (0, 3, 9):
            inst = gen_sinkfree(5, seed=seed)
            cs = inst.constraints
            if cs.n_vars > 10:
                continue
            edges = [tuple(e) for e in inst.metadata["edges"]]
            expected = _sinkfree_orientation_count(edges, 5)
            try:
                dist = exact_distribution(cs, ModelParams(np.zeros(cs.n_vars)))
                actual = dist.support.shape[0]
            except EmptySupportError:
                actual = 0
            assert actual == expected

    def test_clause_polarity_convention(self):
        inst = gen_sinkfree(3, edge_prob=1.0, seed=0)
        cs = inst.constraints
        edges = [tuple(e) for e in inst.metadata["edges"]]
        for v, cl in enumerate(cs.clauses):
            for lit in cl.literals:
                a, b = edges[lit.variable_index]
                assert v in (a, b)
                assert lit.negated == (v == b)

    def test_min_degree_enforced(self):
        for seed in range(5):
            inst = gen_sinkfree(6, edge_prob=0.3, seed=seed)
            degree = [0] * 6
            for a, b in inst.metadata["edges"]:
                degree[a] += 1
                degree[b] += 1
            assert min(degree) >= 1

    def test_tree_components_decide_satisfiability(self):
        # A sink-free orientation exists exactly when no component is a tree.
        assert tree_components(5, [(0, 1), (2, 3), (3, 4), (2, 4)]) == [2]
        assert tree_components(6, [(0, 1), (1, 2), (3, 4), (4, 5)]) == [3, 3]
        for seed in range(20):
            inst = gen_sinkfree(5, seed=seed)
            edges = inst.metadata["edges"]
            if len(edges) > 10:
                continue
            satisfiable = _sinkfree_orientation_count([tuple(e) for e in edges], 5) > 0
            assert satisfiable == (tree_components(5, edges) == []), seed

    @pytest.mark.parametrize("edge_prob", [0.0, -1.0, 1.5])
    def test_edge_prob_out_of_range(self, edge_prob):
        with pytest.raises(ValueError, match="outside"):
            gen_sinkfree(4, edge_prob=edge_prob)

    def test_gives_up_with_value_error(self):
        with pytest.raises(ValueError, match="raise edge_prob"):
            gen_sinkfree(4, edge_prob=1e-9)


class TestRoutes:
    def test_three_cities(self):
        inst = gen_routes(3, seed=2)
        cs = inst.constraints
        assert cs.n_vars == 6
        assert len(cs.exactly_one_groups) == 6
        dist = exact_distribution(cs, ModelParams(np.zeros(6)))
        assert dist.support.shape[0] == 2  # the two directed 3-cycles

    def test_two_cities_unique_assignment(self):
        inst = gen_routes(2, seed=0)
        dist = exact_distribution(inst.constraints, ModelParams(np.zeros(2)))
        assert dist.support.tolist() == [[1, 1]]

    def test_deterministic(self):
        a, b = gen_routes(4, seed=3), gen_routes(4, seed=3)
        assert a.constraints == b.constraints
        assert a.metadata["distances"] == b.metadata["distances"]

    def test_too_few_cities(self):
        with pytest.raises(ValueError):
            gen_routes(1, seed=0)

    def test_theta_is_negative_distance(self):
        inst = gen_routes(3, seed=7)
        theta = instance_theta(inst)
        dist = np.asarray(inst.metadata["distances"])
        for v, (i, j) in enumerate(inst.metadata["var_pairs"]):
            assert theta.theta[v] == pytest.approx(-dist[i, j])

    def test_valid_assignments_are_derangements(self):
        for cities in (3, 4):
            inst = gen_routes(cities, seed=1)
            cs = inst.constraints
            dist = exact_distribution(cs, ModelParams(np.zeros(cs.n_vars)))
            pairs = [tuple(p) for p in inst.metadata["var_pairs"]]
            for row in dist.support:
                successor = {}
                for v, bit in enumerate(row):
                    if bit:
                        i, j = pairs[v]
                        successor[i] = j
                assert sorted(successor) == list(range(cities))
                assert sorted(successor.values()) == list(range(cities))
                assert all(successor[i] != i for i in successor)

    def test_var_map_is_bijection(self):
        inst = gen_routes(4, seed=0)
        pairs = [tuple(p) for p in inst.metadata["var_pairs"]]
        assert len(set(pairs)) == len(pairs) == inst.constraints.n_vars


class TestTrainingSet:
    def test_empty(self, toy_cs):
        inst = ProblemInstance(constraints=toy_cs, metadata={})
        ds = gen_training_set(inst, ModelParams(np.zeros(3)), 0, seed=0)
        assert len(ds) == 0

    def test_rows_valid(self, toy_cs):
        inst = ProblemInstance(constraints=toy_cs, metadata={})
        ds = gen_training_set(inst, ModelParams([0.5, -0.5, 0.2]), 500, seed=1)
        assert len(ds) == 500
        for row in ds.assignments:
            assert not violated_constraints(toy_cs, row)

    def test_matches_preference_distribution(self, toy_cs, toy_uniform):
        inst = ProblemInstance(constraints=toy_cs, metadata={})
        ds = gen_training_set(inst, toy_uniform, 10_000, seed=2)
        exact = exact_distribution(toy_cs, toy_uniform).prob_table()
        assert tv_distance(empirical_table(ds.assignments), exact) <= 0.03


class TestInstanceFiles:
    def test_save_load_round_trip(self, tmp_path):
        inst = gen_routes(3, seed=4)
        cnf = tmp_path / "instance.cnf"
        sidecar = tmp_path / "instance.json"
        save_instance(inst, cnf, sidecar)
        loaded = load_constraints(cnf, sidecar)
        assert loaded == inst.constraints

    def test_sinkfree_save_load(self, tmp_path):
        inst = gen_sinkfree(4, seed=2)
        cnf = tmp_path / "instance.cnf"
        sidecar = tmp_path / "instance.json"
        save_instance(inst, cnf, sidecar)
        loaded = load_constraints(cnf, sidecar)
        assert loaded == inst.constraints
