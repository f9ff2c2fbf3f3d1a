import math

import numpy as np
import pytest

from cmrf import oracle
from cmrf.cnf import ConstraintSet, clause, satisfies_all
from cmrf.model import ModelParams
from cmrf.oracle import (
    EmptySupportError,
    EnumerationCapError,
    empirical_table,
    exact_distribution,
    exact_grad_log_partition,
    expected_resamples,
    tv_distance,
)
from cmrf.problems import gen_ksat, gen_routes, instance_theta

import corpus


class TestExactDistribution:
    def test_toy_uniform(self, toy_cs, toy_uniform):
        dist = exact_distribution(toy_cs, toy_uniform)
        assert dist.support.shape == (4, 3)
        assert np.allclose(dist.probabilities, 0.25)
        assert dist.log_partition == pytest.approx(math.log(4))

    def test_toy_weighted(self, toy_cs):
        dist = exact_distribution(toy_cs, ModelParams([math.log(2), 0.0, 0.0]))
        keys = ["".join(map(str, row)) for row in dist.support]
        assert keys == ["010", "011", "101", "111"]
        assert np.allclose(dist.probabilities, [1 / 6, 1 / 6, 1 / 3, 1 / 3])

    def test_unsatisfiable(self):
        cs = ConstraintSet(n_vars=1, clauses=(clause(1), clause(-1)))
        with pytest.raises(EmptySupportError):
            exact_distribution(cs, ModelParams([0.0]))

    def test_cap(self):
        cs = ConstraintSet(n_vars=26)
        with pytest.raises(EnumerationCapError):
            exact_distribution(cs, ModelParams(np.zeros(26)))

    def test_clause_reordering_invariance(self, toy_cs):
        m = ModelParams([0.4, -0.2, 0.9])
        reordered = ConstraintSet(n_vars=3, clauses=toy_cs.clauses[::-1])
        a = exact_distribution(toy_cs, m)
        b = exact_distribution(reordered, m)
        assert np.array_equal(a.support, b.support)
        assert np.allclose(a.probabilities, b.probabilities)

    def test_reweight_equals_fresh_enumeration(self):
        # 18 variables: four enumeration blocks, and a support that is weighed
        # in many row chunks.
        cs = gen_ksat(18, 8, 3, seed=0).constraints
        rng = np.random.default_rng(1)
        base = exact_distribution(cs, ModelParams(np.zeros(18)))
        assert len(base.support) > 1 << 16
        for _ in range(3):
            m = ModelParams(rng.normal(size=18) * 2)
            fresh, moved = exact_distribution(cs, m), base.reweight(m)
            assert np.array_equal(moved.support, fresh.support)
            assert np.array_equal(moved.probabilities, fresh.probabilities)
            assert moved.log_partition == fresh.log_partition
            assert np.array_equal(moved.mean(), exact_grad_log_partition(cs, m))
        with pytest.raises(ValueError, match="theta length"):
            base.reweight(ModelParams(np.zeros(17)))

    def test_blocks_of_any_size_enumerate_alike(self, monkeypatch):
        # Blocks of 8 codes refill the high variables of the one buffer 2^15
        # times; the support and its weights match the default 2^16-code
        # blocks, and the support lists every satisfying row of 18 variables
        # in lexicographic order. The resample prediction adds up one partial
        # sum per block, so other blocks round it differently, within the
        # float64 bound of a sum of 2^15 terms.
        ksat = gen_ksat(18, 8, 3, seed=0).constraints
        routes, rtol = gen_routes(4), (1 << 15) * np.finfo(np.float64).eps
        cases = [(ksat, ModelParams(np.linspace(-1.0, 1.0, 18))),
                 (routes.constraints, instance_theta(routes))]
        default = [(exact_distribution(cs, m), expected_resamples(cs, m)) for cs, m in cases]
        monkeypatch.setattr(oracle, "_CHUNK_BITS", 3)
        for (cs, m), (dist, expect) in zip(cases, default):
            small, small_expect = exact_distribution(cs, m), expected_resamples(cs, m)
            assert np.array_equal(small.support, dist.support)
            assert np.array_equal(small.probabilities, dist.probabilities)
            assert small.log_partition == dist.log_partition
            assert small_expect.q_empty == pytest.approx(expect.q_empty, rel=rtol)
            np.testing.assert_allclose(small_expect.q_single, expect.q_single, rtol=rtol)
        codes = np.arange(1 << 18, dtype=">u4").view(np.uint8).reshape(-1, 4)
        rows = np.unpackbits(codes, axis=1)[:, -18:]
        assert np.array_equal(default[0][0].support, rows[satisfies_all(ksat, rows)])

    def test_mean_in_row_chunks(self, monkeypatch):
        cs = gen_ksat(10, 4, 3, seed=0).constraints
        dist = exact_distribution(cs, ModelParams(np.linspace(-1.0, 1.0, 10)))
        whole = dist.probabilities @ dist.support.astype(np.float64)
        assert np.array_equal(dist.mean(), whole)  # one chunk: the same product
        monkeypatch.setattr(oracle, "_WEIGH_ROWS", 7)
        assert len(dist.support) > 7 * 10
        assert np.abs(dist.mean() - whole).max() <= 1e-12

    def test_probabilities_sum_to_one(self):
        for _, cs in corpus.extremal_corpus()[:6]:
            dist = exact_distribution(cs, corpus.uniform_params(cs))
            assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


class TestExactGrad:
    def test_unconstrained_symmetry(self):
        grad = exact_grad_log_partition(ConstraintSet(n_vars=3), ModelParams(np.zeros(3)))
        assert np.allclose(grad, 0.5)

    def test_toy(self, toy_cs, toy_uniform):
        assert np.allclose(
            exact_grad_log_partition(toy_cs, toy_uniform), [0.5, 0.75, 0.75]
        )

    def test_forced_variable(self):
        cs = ConstraintSet(n_vars=2, clauses=(clause(1),))
        grad = exact_grad_log_partition(cs, ModelParams(np.zeros(2)))
        assert grad[0] == pytest.approx(1.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5150)
        step = 1e-5
        for _ in range(10):
            inst = gen_ksat(6, 4, 3, seed=int(rng.integers(1 << 30)))
            cs = inst.constraints
            theta = rng.uniform(-1, 1, size=6)
            try:
                grad = exact_grad_log_partition(cs, ModelParams(theta))
            except EmptySupportError:
                continue
            for i in range(6):
                up, down = theta.copy(), theta.copy()
                up[i] += step
                down[i] -= step
                fd = (
                    exact_distribution(cs, ModelParams(up)).log_partition
                    - exact_distribution(cs, ModelParams(down)).log_partition
                ) / (2 * step)
                assert abs(fd - grad[i]) < 1e-6


class TestExpectedResamples:
    def test_toy(self, toy_cs, toy_uniform):
        er = expected_resamples(toy_cs, toy_uniform)
        assert er.q_empty == pytest.approx(0.5)
        assert np.allclose(er.q_single, [0.25, 0.25])
        assert np.allclose(er.per_constraint_expected, [0.5, 0.5])
        assert er.total_expected == pytest.approx(1.0)

    def test_unconstrained(self):
        er = expected_resamples(ConstraintSet(n_vars=3), ModelParams(np.zeros(3)))
        assert er.total_expected == 0.0

    def test_single_clause(self):
        cs = ConstraintSet(n_vars=1, clauses=(clause(1),))
        er = expected_resamples(cs, ModelParams([0.0]))
        assert er.q_empty == pytest.approx(0.5)
        assert er.per_constraint_expected[0] == pytest.approx(1.0)

    def test_unsatisfiable(self):
        cs = ConstraintSet(n_vars=1, clauses=(clause(1), clause(-1)))
        with pytest.raises(EmptySupportError):
            expected_resamples(cs, ModelParams([0.0]))


class TestTvDistance:
    def test_identical(self):
        assert tv_distance({"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}) == 0.0

    def test_disjoint(self):
        assert tv_distance({"a": 1.0}, {"b": 1.0}) == 1.0

    def test_direct_value(self):
        assert tv_distance({"a": 0.5, "b": 0.5}, {"a": 0.75, "b": 0.25}) == pytest.approx(0.25)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            tv_distance({"a": -0.1}, {"a": 1.0})

    def test_missing_keys_read_as_zero(self):
        assert tv_distance({"a": 1.0}, {"a": 0.5, "b": 0.5}) == pytest.approx(0.5)


def test_empirical_table_counts():
    rows = np.array([[0, 1], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    table = empirical_table(rows)
    assert table == {"01": 0.5, "10": 0.25, "11": 0.25}
