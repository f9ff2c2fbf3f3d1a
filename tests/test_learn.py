import math

import numpy as np
import pytest

from cmrf import cnf, learn
from cmrf.cnf import ConstraintSet, clause, satisfies_all
from cmrf.learn import (
    Dataset,
    TrainConfig,
    cd_step,
    draw_valid_rows,
    neg_log_likelihood,
    save_trace_csv,
    train,
)
from cmrf.model import ModelParams
from cmrf.oracle import ExactDistribution, exact_distribution, exact_grad_log_partition
from cmrf.problems import gen_routes, gen_training_set, instance_theta, ProblemInstance
from cmrf.rng import fold_seed
from cmrf.samplers import SAMPLERS, SamplerConfig, SamplerExhaustedError, nelson_sample


class TestCdStep:
    def test_worked_example(self):
        g = cd_step(
            ModelParams(np.zeros(2)),
            data_batch=np.array([[1, 1], [1, 0]]),
            model_batch=np.array([[0, 0], [0, 1]]),
        )
        assert g.tolist() == [-1.0, 0.0]

    def test_fixed_point(self):
        batch = np.array([[1, 0], [0, 1]])
        g = cd_step(ModelParams(np.zeros(2)), batch, batch)
        assert np.allclose(g, 0.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            cd_step(ModelParams(np.zeros(2)), np.empty((0, 2)), np.array([[0, 1]]))

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            cd_step(ModelParams(np.zeros(2)), np.array([[1, 1, 0]]), np.array([[0, 1, 1]]))

    def test_unbiased_at_stationarity(self, toy_cs, toy_uniform):
        # data drawn exactly from the model: mean gradient within 3 sigma of 0
        exact = exact_grad_log_partition(toy_cs, toy_uniform)
        reps, m = 200, 500
        sums = np.zeros(3)
        for rep in range(reps):
            model_rows = draw_valid_rows(toy_cs, toy_uniform, "nelson", m, seed=rep)
            data_rows = draw_valid_rows(toy_cs, toy_uniform, "nelson", m, seed=10_000 + rep)
            sums += cd_step(toy_uniform, data_rows, model_rows)
        mean_g = sums / reps
        sigma = np.sqrt(2 * exact * (1 - exact) / (m * reps))
        assert (np.abs(mean_g) <= 3 * sigma).all()


class TestNegLogLikelihood:
    def test_uniform_toy(self, toy_cs, toy_uniform):
        ds = Dataset(np.array([[0, 1, 1], [1, 1, 1]], dtype=np.uint8), n_vars=3)
        assert neg_log_likelihood(toy_uniform, ds, toy_cs) == pytest.approx(math.log(4))

    def test_invalid_row_rejected(self, toy_cs, toy_uniform):
        ds = Dataset(np.array([[0, 0, 0]], dtype=np.uint8), n_vars=3)
        with pytest.raises(ValueError, match="violates"):
            neg_log_likelihood(toy_uniform, ds, toy_cs)

    def test_unconstrained(self):
        cs = ConstraintSet(n_vars=2)
        ds = Dataset(np.array([[0, 1]], dtype=np.uint8), n_vars=2)
        assert neg_log_likelihood(ModelParams(np.zeros(2)), ds, cs) == pytest.approx(
            math.log(4)
        )


class TestTrain:
    def test_zero_iterations_returns_theta0(self, toy_cs):
        ds = Dataset(np.array([[0, 1, 1]], dtype=np.uint8), n_vars=3)
        theta0 = ModelParams([0.5, -0.5, 0.0])
        theta, trace = train(ds, toy_cs, TrainConfig(t_max=0, seed=0), theta0)
        assert np.array_equal(theta.theta, theta0.theta)
        assert trace == []

    def test_bernoulli_mle(self):
        # 75% ones, no constraints: the stationary weight is ln 3
        cs = ConstraintSet(n_vars=1)
        ds = Dataset(np.array([[1]] * 75 + [[0]] * 25, dtype=np.uint8), n_vars=1)
        cfg = TrainConfig(m=200, eta=0.1, t_max=800, sampler_kind="exact", seed=0, nll_every=400)
        theta, _ = train(ds, cs, cfg, ModelParams(np.zeros(1)))
        assert theta.theta[0] == pytest.approx(math.log(3), abs=0.1)

    def test_nll_improves_on_toy(self, toy_cs):
        theta_star = ModelParams([1.0, -1.0, 0.5])
        inst = ProblemInstance(constraints=toy_cs, metadata={})
        ds = gen_training_set(inst, theta_star, 200, seed=4)
        theta0 = ModelParams(np.zeros(3))
        cfg = TrainConfig(m=200, eta=0.1, t_max=500, sampler_kind="nelson", seed=1, nll_every=250)
        theta, trace = train(ds, toy_cs, cfg, theta0)
        before = neg_log_likelihood(theta0, ds, toy_cs)
        after = neg_log_likelihood(theta, ds, toy_cs)
        assert after <= before - 0.05
        assert trace[-1].nll == pytest.approx(after)

    def test_descent_with_exact_expectation(self, toy_cs):
        theta_star = ModelParams([0.8, -0.6, 0.2])
        inst = ProblemInstance(constraints=toy_cs, metadata={})
        ds = gen_training_set(inst, theta_star, 300, seed=6)
        cfg = TrainConfig(m=300, eta=0.1, t_max=60, sampler_kind="exact", seed=2, nll_every=1)
        _, trace = train(ds, toy_cs, cfg, ModelParams(np.zeros(3)))
        nlls = [row.nll for row in trace]
        assert all(b <= a + 1e-12 for a, b in zip(nlls, nlls[1:]))

    def test_trace_determinism(self, toy_cs):
        ds = Dataset(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=np.uint8), n_vars=3)
        cfg = TrainConfig(m=50, eta=0.1, t_max=25, sampler_kind="nelson", seed=9, nll_every=5)
        theta1, trace1 = train(ds, toy_cs, cfg, ModelParams(np.zeros(3)))
        theta2, trace2 = train(ds, toy_cs, cfg, ModelParams(np.zeros(3)))
        assert np.array_equal(theta1.theta, theta2.theta)
        for a, b in zip(trace1, trace2):
            assert (a.iteration, a.nll, a.grad_l1) == (b.iteration, b.nll, b.grad_l1)

    def test_dataset_validated_once(self, toy_cs, monkeypatch):
        # Traced NLL points reuse the validation train made before its loop.
        calls = []

        def counting(cs, X):
            calls.append(len(X))
            return satisfies_all(cs, X)

        monkeypatch.setattr(cnf, "satisfies_all", counting)
        ds = Dataset(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=np.uint8), n_vars=3)
        cfg = TrainConfig(m=20, t_max=5, sampler_kind="nelson", seed=0, nll_every=1)
        _, trace = train(ds, toy_cs, cfg, ModelParams(np.zeros(3)))
        assert all(row.nll is not None for row in trace)
        assert calls == [3]

    def test_support_enumerated_once(self, toy_cs, monkeypatch):
        # Exact gradients and traced NLLs reweight one enumerated support, once
        # per theta (a step's NLL and the next step's gradient share one), and
        # each equals a fresh enumeration under that step's theta.
        calls, reweights = [], []
        reweight = ExactDistribution.reweight

        def counting(cs, m):
            calls.append(m)
            return exact_distribution(cs, m)

        def counting_reweight(dist, m):
            reweights.append(m)
            return reweight(dist, m)

        monkeypatch.setattr(learn, "exact_distribution", counting)
        monkeypatch.setattr(ExactDistribution, "reweight", counting_reweight)
        ds = Dataset(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=np.uint8), n_vars=3)
        cfg = TrainConfig(eta=0.3, t_max=4, sampler_kind="exact", nll_every=1)
        theta, trace = train(ds, toy_cs, cfg, ModelParams(np.zeros(3)))
        assert len(calls) == 1
        assert len(reweights) == cfg.t_max
        monkeypatch.undo()
        data_mean = ds.assignments.astype(np.float64).mean(axis=0)
        ref = ModelParams(np.zeros(3))
        for row in trace:
            ref = ModelParams(ref.theta - 0.3 * (exact_grad_log_partition(toy_cs, ref) - data_mean))
            assert row.nll == neg_log_likelihood(ref, ds, toy_cs)
        assert np.array_equal(theta.theta, ref.theta)

    def test_invalid_dataset_rejected(self, toy_cs):
        ds = Dataset(np.array([[0, 0, 0]], dtype=np.uint8), n_vars=3)
        with pytest.raises(ValueError, match="violates"):
            train(ds, toy_cs, TrainConfig(t_max=1, seed=0), ModelParams(np.zeros(3)))

    def test_empty_dataset_rejected(self, toy_cs, toy_uniform):
        inst = ProblemInstance(constraints=toy_cs)
        ds = gen_training_set(inst, toy_uniform, 0)
        with pytest.raises(ValueError, match="no rows"):
            train(ds, toy_cs, TrainConfig(t_max=1), toy_uniform)
        with pytest.raises(ValueError, match="no rows"):
            neg_log_likelihood(toy_uniform, ds, toy_cs)

    def test_sampler_exhaustion_propagates(self):
        cs = ConstraintSet(n_vars=2, clauses=(clause(1), clause(-1)))
        ds = Dataset(np.array([[1, 0]], dtype=np.uint8), n_vars=2)
        with pytest.raises(ValueError):
            # dataset row itself is invalid -> caught before sampling
            train(ds, cs, TrainConfig(t_max=1, seed=0), ModelParams(np.zeros(2)))

    def test_estimator_consistency_in_m(self, toy_cs, toy_uniform):
        exact = exact_grad_log_partition(toy_cs, toy_uniform)

        def errors(m, seeds):
            out = []
            for seed in seeds:
                rows = draw_valid_rows(toy_cs, toy_uniform, "nelson", m, seed=seed)
                out.append(np.abs(rows.mean(axis=0) - exact).sum())
            return np.median(out)

        seeds = range(20)
        assert errors(8000, seeds) < errors(500, seeds)


class TestDrawValidRows:
    def test_discards_invalid_and_refills(self):
        # one pinned variable, tiny tryout: some rows exhaust, retries refill
        cs = ConstraintSet(n_vars=3, clauses=(clause(1), clause(2), clause(3)))
        rows = draw_valid_rows(cs, ModelParams(np.zeros(3)), "nelson", 200, seed=0, t_tryout=2)
        assert rows.shape == (200, 3)
        assert (rows == 1).all()

    def test_retry_continues_the_stream(self):
        # On routes(5) at a tryout of 200 the first batch of 5 rows holds
        # invalid rows, so the draw reads on into the next batches of the
        # same stream, in row order.
        inst = gen_routes(5)
        cs, theta = inst.constraints, instance_theta(inst)
        count, key = 5, fold_seed(0, "draw", 0)
        valid, offset = [], 0
        while sum(len(rows) for rows in valid) < count:
            cfg = SamplerConfig(batch_size=count, seed=key, t_tryout=200, row_offset=offset)
            batch, _ = nelson_sample(cs, theta, cfg)
            valid.append(batch.rows[batch.valid_flags])
            offset += count
        assert len(valid[0]) < count
        rows = draw_valid_rows(cs, theta, "nelson", count, seed=0, t_tryout=200)
        assert np.array_equal(rows, np.concatenate(valid)[:count])

    def test_exhaustion_raises(self):
        cs = ConstraintSet(n_vars=1, clauses=(clause(1), clause(-1)))
        with pytest.raises(SamplerExhaustedError):
            draw_valid_rows(cs, ModelParams(np.zeros(1)), "nelson", 10, seed=0, t_tryout=5)

    @pytest.mark.parametrize("kind", sorted(SAMPLERS))
    def test_every_sampler_name(self, toy_cs, toy_uniform, kind):
        rows = draw_valid_rows(toy_cs, toy_uniform, kind, 40, seed=3)
        assert rows.shape == (40, 3)
        assert satisfies_all(toy_cs, rows).all()


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        ds = Dataset(np.array([[0, 1], [1, 1]], dtype=np.uint8), n_vars=2)
        path = tmp_path / "data.txt"
        ds.save(path)
        loaded = Dataset.load(path)
        assert np.array_equal(loaded.assignments, ds.assignments)

    def test_validation_on_load(self, tmp_path, toy_cs):
        path = tmp_path / "data.txt"
        path.write_text("000\n")
        with pytest.raises(ValueError, match="violates"):
            Dataset.load(path, constraint_set=toy_cs)

    def test_bad_characters(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("01x\n")
        with pytest.raises(ValueError, match="bitstring"):
            Dataset.load(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("\n")
        with pytest.raises(ValueError, match="empty"):
            Dataset.load(path)

    def test_inconsistent_widths(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("01\n010\n")
        with pytest.raises(ValueError, match="widths"):
            Dataset.load(path)


def test_trace_csv_format(tmp_path, toy_cs):
    ds = Dataset(np.array([[0, 1, 1]], dtype=np.uint8), n_vars=3)
    cfg = TrainConfig(m=10, eta=0.1, t_max=3, sampler_kind="nelson", seed=0, nll_every=2)
    _, trace = train(ds, toy_cs, cfg, ModelParams(np.zeros(3)))
    path = tmp_path / "trace.csv"
    save_trace_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,nll,grad_l1,wall_ms"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == ""  # nll traced on iters 2 and 3 only


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(m=0)
    with pytest.raises(ValueError):
        TrainConfig(eta=0.0)
    for eta in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(eta=eta)
    with pytest.raises(ValueError):
        TrainConfig(sampler_kind="annealed")
    with pytest.raises(ValueError, match="moser_tardos"):
        TrainConfig(sampler_kind="moser_tardos")  # the function's name, not a SAMPLERS key
