from collections import Counter

import numpy as np
import pytest

from cmrf.cnf import ConstraintSet, clause
from cmrf.metrics import (
    grad_error,
    map_at_10,
    resample_stats,
    save_histogram_csv,
)
from cmrf.model import ModelParams
from cmrf.oracle import exact_distribution, exact_grad_log_partition
from cmrf.samplers import SamplerConfig, draw_valid_rows, nelson_sample


def _assignments(n, codes):
    return [np.array([int(c) for c in format(code, f"0{n}b")]) for code in codes]


class TestMapAt10:
    def test_perfect_top_ten(self):
        theta = ModelParams(np.ones(4) * 2.0)
        preferred = _assignments(4, range(10, 16))  # heavy assignments
        # pad preferred so the union is >= 10 and top ten all preferred
        preferred += _assignments(4, (8, 9, 6, 7))
        unseen = _assignments(4, (0, 1, 2))
        assert map_at_10(theta, preferred, unseen) == pytest.approx(100.0)

    def test_worst_top_ten(self):
        theta = ModelParams(np.ones(4) * 2.0)
        preferred = _assignments(4, (0, 1))  # light assignments rank last
        unseen = _assignments(4, range(4, 16))
        assert map_at_10(theta, preferred, unseen) == 0.0

    def test_ranks_one_and_two(self):
        # preferred exactly at ranks 1 and 2 of a 12-candidate pool
        theta = ModelParams(np.array([8.0, 4.0, 2.0, 1.0]))  # potential == code value
        preferred = _assignments(4, (15, 14))
        unseen = _assignments(4, range(10))
        expected = (1.0 + 1.0 + sum(2.0 / k for k in range(3, 11))) / 10 * 100
        assert map_at_10(theta, preferred, unseen) == pytest.approx(expected)
        assert map_at_10(theta, preferred, unseen) == pytest.approx(48.5794, abs=1e-3)

    def test_too_few_candidates(self):
        theta = ModelParams(np.zeros(4))
        with pytest.raises(ValueError, match="10"):
            map_at_10(theta, _assignments(4, (0,)), _assignments(4, (1, 2)))

    def test_empty_set(self):
        theta = ModelParams(np.zeros(4))
        for preferred, unseen in ((_assignments(4, range(12)), []),
                                  ([], _assignments(4, range(12)))):
            with pytest.raises(ValueError, match="nonempty"):
                map_at_10(theta, preferred, unseen)

    def test_unseen_adds_no_candidate(self):
        theta = ModelParams(np.zeros(4))
        with pytest.raises(ValueError, match="every unseen assignment is also preferred"):
            map_at_10(theta, _assignments(4, range(12)), _assignments(4, (3, 5, 3)))

    def test_scale_invariance(self):
        theta = ModelParams(np.array([1.0, -0.5, 0.25, 2.0]))
        preferred = _assignments(4, (3, 5, 9))
        unseen = _assignments(4, (0, 1, 2, 4, 6, 7, 8, 10))
        base = map_at_10(theta, preferred, unseen)
        for c in (0.1, 3.0, 42.0):
            scaled = ModelParams(theta.theta * c)
            assert map_at_10(scaled, preferred, unseen) == pytest.approx(base)

    def test_deterministic_tie_break(self):
        theta = ModelParams(np.zeros(4))  # every potential ties at 0
        preferred = _assignments(4, (15, 14, 13))
        unseen = _assignments(4, range(10))
        first = map_at_10(theta, preferred, unseen)
        assert first == map_at_10(theta, preferred, unseen)
        # descending-bitstring tie break puts 1111, 1110, 1101 on top
        assert first == pytest.approx(100.0 * (1 + 1 + 1 + sum(3 / k for k in range(4, 11))) / 10)


class TestGradError:
    def test_forced_coordinate_contributes_zero(self):
        cs = ConstraintSet(n_vars=1, clauses=(clause(1),))
        err = grad_error(cs, ModelParams(np.zeros(1)), "nelson", m=64, seed=0)
        assert err == 0.0

    def test_toy_small_error_with_m2000(self, toy_cs, toy_uniform):
        # Even an exact sampler's 2000-draw error exceeds 0.05 in about 4.6%
        # of seeds, so the bound is the error an exact sampler exceeds with
        # probability 1e-4 (about 0.0975), from the oracle's distribution, as
        # criterion 5 derives its count. So that the check can fail, draws
        # biased by +1 on the last weight (an L1 bias of 0.28), scored
        # against the same exact gradient, must exceed it.
        m = 2000
        dist = exact_distribution(toy_cs, toy_uniform)
        exact = exact_grad_log_partition(toy_cs, toy_uniform)
        counts = np.random.default_rng(2000).multinomial(m, dist.probabilities, size=400_000)
        exact_errors = np.abs(exact - counts @ dist.support.astype(np.int64) / m).sum(axis=1)
        bound = np.quantile(exact_errors, 1 - 1e-4)
        assert grad_error(toy_cs, toy_uniform, "nelson", m=m, seed=1) <= bound
        shifted = ModelParams(toy_uniform.theta + np.array([0.0, 0.0, 1.0]))
        biased = draw_valid_rows(toy_cs, shifted, "nelson", m, seed=1).mean(axis=0)
        assert np.abs(exact - biased).sum() > bound

    def test_error_shrinks_with_m(self, toy_cs, toy_uniform):
        errs_small = [
            grad_error(toy_cs, toy_uniform, "nelson", m=500, seed=s) for s in range(10)
        ]
        errs_big = [
            grad_error(toy_cs, toy_uniform, "nelson", m=8000, seed=s) for s in range(10)
        ]
        assert np.median(errs_big) < np.median(errs_small)

    def test_full_support_exact_weights_recover_gradient(self, toy_cs, toy_uniform):
        # the oracle-as-sampler limit: weighting the whole support by the
        # exact probabilities reproduces the exact gradient identically
        dist = exact_distribution(toy_cs, toy_uniform)
        estimate = dist.probabilities @ dist.support.astype(np.float64)
        exact = exact_grad_log_partition(toy_cs, toy_uniform)
        assert np.abs(estimate - exact).sum() == pytest.approx(0.0, abs=1e-15)


class TestResampleStats:
    def test_all_first_round(self):
        cs = ConstraintSet(n_vars=2)
        batch_size = 300
        _, stats = nelson_sample(
            cs, ModelParams(np.zeros(2)), SamplerConfig(batch_size=batch_size, seed=0)
        )
        assert resample_stats(stats.rounds_per_row) == {1: batch_size}

    def test_histogram_matches_counter(self):
        rounds = np.random.default_rng(0).integers(1, 40, size=5000).astype(np.int64)
        histogram = resample_stats(rounds)
        expected = dict(sorted(Counter(rounds.tolist()).items()))
        assert list(histogram.items()) == list(expected.items())
        assert all(type(k) is int and type(v) is int for k, v in histogram.items())

    def test_histogram_csv(self, tmp_path):
        path = tmp_path / "hist.csv"
        save_histogram_csv({1: 5, 3: 2}, path)
        assert path.read_text().splitlines() == ["round,count", "1,5", "3,2"]
