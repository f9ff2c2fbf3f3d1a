"""Golden fingerprints of seeded outputs.

Criterion 11 only compares a rerun with itself, so it cannot catch a
refactor that changes results. These sha256 values pin the bytes that the
samplers and the trainer produce for fixed seeds: any change to them is a
change of behaviour, not an implementation detail. Floats that pass through
BLAS or transcendental functions (NLL, gradient norm) are pinned at the
12 significant digits `save_trace_csv` writes; theta is pinned bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from cmrf.learn import TrainConfig, train
from cmrf.model import ModelParams
from cmrf.problems import gen_routes, gen_sinkfree, gen_training_set
from cmrf.samplers import SamplerConfig, gibbs_sample, moser_tardos_sample, nelson_sample

import corpus


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode("utf-8"))
            continue
        a = np.ascontiguousarray(part)
        h.update(f"{a.dtype.str}{a.shape}".encode("ascii"))
        h.update(a.tobytes())
    return h.hexdigest()


def _run_digest(batch, stats) -> str:
    return _digest(
        batch.rows,
        batch.valid_flags,
        stats.rounds_per_row,
        stats.per_constraint_resamples,
    )


def _sinkfree():
    cs = gen_sinkfree(30, 0.3, seed=1).constraints
    return cs, ModelParams(np.zeros(cs.n_vars))


def _routes():
    inst = gen_routes(5)
    return inst.constraints, ModelParams(np.asarray(inst.metadata["theta"]))


def _resampler(sampler, instance, batch_size):
    def case():
        cs, m = instance()
        return _run_digest(*sampler(cs, m, SamplerConfig(batch_size=batch_size, seed=1)))

    return case


def _toy_records():
    cs = corpus.toy_formula()
    cfg = SamplerConfig(batch_size=200, seed=13, record=True)
    batch, stats = nelson_sample(cs, ModelParams(np.zeros(cs.n_vars)), cfg)
    records = repr([[sorted(s) for s in rec] for rec in stats.records])
    return _digest(_run_digest(batch, stats), records)


def _gibbs_chain():
    cs, m = _sinkfree()
    cfg = SamplerConfig(batch_size=20, seed=5, gibbs_burn_in=20, gibbs_thinning=2)
    return _run_digest(*gibbs_sample(cs, m, cfg))


def _train_trace():
    inst = gen_sinkfree(8, 0.5, seed=0)
    cs = inst.constraints
    theta_star = ModelParams(np.linspace(-1.0, 1.0, cs.n_vars))
    ds = gen_training_set(inst, theta_star, 200, seed=3)
    cfg = TrainConfig(m=100, eta=0.1, t_max=20, sampler_kind="nelson", seed=4, nll_every=10)
    theta, trace = train(ds, cs, cfg, ModelParams(np.zeros(cs.n_vars)))
    rows = repr([
        (r.iteration, None if r.nll is None else f"{r.nll:.12g}", f"{r.grad_l1:.12g}")
        for r in trace
    ])
    return _digest(rows, theta.theta)


CASES = {
    "nelson_sinkfree": _resampler(nelson_sample, _sinkfree, 2000),
    "moser_sinkfree": _resampler(moser_tardos_sample, _sinkfree, 2000),
    "nelson_routes": _resampler(nelson_sample, _routes, 300),
    "moser_routes": _resampler(moser_tardos_sample, _routes, 300),
    "nelson_toy_records": _toy_records,
    "gibbs_sinkfree": _gibbs_chain,
    "train_nelson": _train_trace,
}

GOLDEN = {
    "nelson_sinkfree": "b869aa1b9f4a67860a754306e8aafac60cf4d60ce889bb846babd5e3547922b5",
    "moser_sinkfree": "6c257e7be44ae3d66af9482ee75d876e9251bd587d6bab5e4528fccc16b8b798",
    "nelson_routes": "01e39064095e692c9a8d2ef630cf8e945b049de9d4b5afece7d1c7bd390e174b",
    "moser_routes": "58116693d263375951a57c4a6a7946f272d283fb6e278d38547f9d824411d0eb",
    "nelson_toy_records": "d5f9620c67e5994d6761dda13238c76851bb7664b3bed91fd733239b8b8ac4bf",
    "gibbs_sinkfree": "6ab3af434f266a062f5e83ec6ad5bad60492a102ecae93d5663ddca2c8ff3a76",
    "train_nelson": "62fe4c1a36e8857e6b8e88ff297735b90aca7055ea70d1c606756f480189c32b",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_fingerprint(name):
    assert CASES[name]() == GOLDEN[name]
