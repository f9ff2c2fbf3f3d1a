import itertools
import math

import numpy as np
import pytest

from cmrf.cnf import ConstraintSet, check_extremal, clause, violated_constraints
from cmrf.model import (
    FactorSpec,
    ModelParams,
    load_model,
    marginals,
    pairwise_to_single,
    potential,
    save_model,
)
from cmrf.oracle import exact_distribution, tv_distance
from cmrf.samplers import SamplerConfig, nelson_sample


class TestMarginals:
    def test_zero_weight(self):
        assert marginals(ModelParams([0.0]))[0] == pytest.approx(0.5)

    def test_log_three(self):
        assert marginals(ModelParams([math.log(3)]))[0] == pytest.approx(0.25)

    def test_large_weight_limit(self):
        assert marginals(ModelParams([50.0]))[0] < 1e-20

    def test_large_negative_weight(self):
        assert marginals(ModelParams([-50.0]))[0] == pytest.approx(1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ModelParams([np.inf])

    def test_monte_carlo_agreement(self):
        # unconstrained draws: frequency of zeros within 3 sigma of marginals
        theta = np.array([0.3, -0.8, 1.2])
        m = ModelParams(theta)
        cs = ConstraintSet(n_vars=3)
        batch, _ = nelson_sample(cs, m, SamplerConfig(batch_size=40_000, seed=123))
        p_zero = marginals(m)
        freq_zero = 1.0 - batch.rows.mean(axis=0)
        sigma = np.sqrt(p_zero * (1 - p_zero) / 40_000)
        assert (np.abs(freq_zero - p_zero) <= 3 * sigma).all()


class TestPotential:
    def test_example(self):
        assert potential(ModelParams([1.0, 2.0, 3.0]), [1, 0, 1]) == pytest.approx(4.0)

    def test_all_zero_assignment(self):
        assert potential(ModelParams([1.0, 2.0]), [0, 0]) == 0.0

    def test_zero_weights(self):
        assert potential(ModelParams([0.0, 0.0]), [1, 1]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            potential(ModelParams([1.0]), [1, 0])


def _direct_pairwise_table(spec: FactorSpec, n: int, base_cs: ConstraintSet) -> dict:
    weights = {}
    for bits in itertools.product((0, 1), repeat=n):
        if violated_constraints(base_cs, bits):
            continue
        value = sum(spec.linear.get(i, 0.0) * bits[i] for i in range(n))
        value += sum(
            coef * bits[a] * bits[b] for (a, b), coef in spec.pairwise.items()
        )
        weights["".join(map(str, bits))] = math.exp(value)
    z = sum(weights.values())
    return {k: v / z for k, v in weights.items()}


def _marginalize_to_original(dist, n_original: int) -> dict:
    out: dict[str, float] = {}
    for row, p in zip(dist.support, dist.probabilities):
        key = "".join(map(str, row[:n_original]))
        out[key] = out.get(key, 0.0) + float(p)
    return out


class TestPairwiseToSingle:
    def test_identity_without_pairwise(self):
        base = ConstraintSet(n_vars=2, clauses=(clause(1, 2),))
        spec = FactorSpec(linear={0: 0.4})
        params, extended, mapping = pairwise_to_single(spec, base)
        assert extended == base
        assert params.theta.tolist() == [0.4, 0.0]
        assert mapping.aux_vars == {}

    def test_distribution_preserved(self):
        base = ConstraintSet(n_vars=2)
        spec = FactorSpec(linear={0: 0.5, 1: 0.3}, pairwise={(0, 1): 0.7})
        params, extended, _ = pairwise_to_single(spec, base)
        assert extended.n_vars == 6 and extended.n_clauses == 12
        marginal = _marginalize_to_original(exact_distribution(extended, params), 2)
        direct = _direct_pairwise_table(spec, 2, base)
        assert tv_distance(marginal, direct) < 1e-12

    def test_consistency_truth_table(self):
        base = ConstraintSet(n_vars=2)
        spec = FactorSpec(pairwise={(0, 1): 1.0})
        _, extended, mapping = pairwise_to_single(spec, base)
        ids = mapping.aux_vars[(0, 1)]
        expected = {
            (0, 0): (1, 0, 0, 0),
            (0, 1): (0, 1, 0, 0),
            (1, 0): (0, 0, 1, 0),
            (1, 1): (0, 0, 0, 1),
        }
        for bits in itertools.product((0, 1), repeat=extended.n_vars):
            if violated_constraints(extended, bits):
                continue
            aux = tuple(bits[i] for i in ids)
            assert aux == expected[(bits[0], bits[1])]
            assert sum(aux) == 1  # exactly one indicator fires

    def test_each_original_assignment_has_unique_extension(self):
        base = ConstraintSet(n_vars=2)
        spec = FactorSpec(pairwise={(0, 1): -0.3})
        params, extended, _ = pairwise_to_single(spec, base)
        dist = exact_distribution(extended, params)
        assert dist.support.shape[0] == 4

    def test_out_of_range_pairwise(self):
        with pytest.raises(ValueError, match="out of range"):
            pairwise_to_single(
                FactorSpec(pairwise={(0, 5): 1.0}), ConstraintSet(n_vars=2)
            )

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError, match="single variable"):
            FactorSpec(pairwise={(1, 1): 1.0})

    def test_extremality_reported_not_assumed(self, toy_cs):
        # The consistency clauses share variables aggressively; on top of a
        # base formula the extended set is generally NOT extremal, which is
        # why callers must re-check rather than inherit the base's status.
        spec = FactorSpec(pairwise={(0, 1): 0.2})
        _, extended, _ = pairwise_to_single(spec, toy_cs)
        ok, witness = check_extremal(extended)
        assert ok in (True, False)
        if not ok:
            assert witness is not None


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        m = ModelParams([0.1, -2.5, 3.25])
        path = tmp_path / "model.json"
        save_model(m, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.theta, m.theta)

    def test_n_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"n": 2, "theta": [0.0]}')
        with pytest.raises(ValueError, match="does not match"):
            load_model(path)


def test_random_pairwise_models_preserved():
    rng = np.random.default_rng(91)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        pairs = list(itertools.combinations(range(n), 2))
        chosen = [pairs[i] for i in rng.permutation(len(pairs))[: rng.integers(1, len(pairs) + 1)]]
        spec = FactorSpec(
            linear={i: float(rng.uniform(-1, 1)) for i in range(n)},
            pairwise={p: float(rng.uniform(-1, 1)) for p in chosen},
        )
        base = ConstraintSet(n_vars=n)
        params, extended, _ = pairwise_to_single(spec, base)
        marginal = _marginalize_to_original(exact_distribution(extended, params), n)
        direct = _direct_pairwise_table(spec, n, base)
        assert tv_distance(marginal, direct) < 1e-12
