"""Golden fingerprints of seeded outputs.

Criterion 11 only compares a rerun with itself, so it cannot catch a
refactor that changes results. These sha256 values pin the bytes that the
samplers and the trainer produce for fixed seeds: any change to them is a
change of behaviour, not an implementation detail. Floats that pass through
BLAS or transcendental functions (NLL, gradient norm) are pinned at the
12 significant digits `save_trace_csv` writes; theta is pinned bit for bit.

The generator cases pin the DIMACS text and sidecar JSON that
`save_instance` writes, and `fold_seed` values, so the instances every
other golden starts from cannot drift either.

The CLI cases pin the files `cmrf sample` writes (`samples.txt`,
`stats.json`, `histogram.csv`), so a writer that changes the file format
fails here even when the sampled arrays are unchanged. The report cases pin
what `cmrf eval` (`report.json`) and `cmrf oracle` write on one small
sink-free instance.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from cmrf import samplers
from cmrf.cli import run
from cmrf.cnf import ConstraintSet, clause, encode_rows
from cmrf.learn import TrainConfig, train
from cmrf.model import ModelParams, save_model
from cmrf.oracle import exact_distribution
from cmrf.problems import gen_ksat, gen_routes, gen_sinkfree, gen_training_set, save_instance
from cmrf.rng import fold_seed
from cmrf.samplers import SamplerConfig, moser_tardos_sample, nelson_sample, sample_stream

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
    cfg = SamplerConfig(batch_size=200, seed=13)
    batch, stats, records = corpus.replay_violations(
        nelson_sample, cs, ModelParams(np.zeros(cs.n_vars)), cfg)
    return _digest(_run_digest(batch, stats), repr([[sorted(s) for s in rec] for rec in records]))


def _gibbs_chain():
    cs, m = _sinkfree()
    cfg = SamplerConfig(batch_size=20, seed=5, gibbs_burn_in=20)
    return _run_digest(*next(sample_stream(cs, m, "gibbs", cfg)))


def _gibbs_mixed_chain():
    # Clauses share variables with two of the groups, yet the chain moves:
    # the group members stay frozen, the free variables do not.
    cs = ConstraintSet(
        n_vars=12,
        clauses=(clause(1, 4), clause(-2, 5, 7), clause(-4, -5), clause(6, -8, 9),
                 clause(-9, 11), clause(3, -11, 4), clause(8, 12), clause(-12, -7, 11)),
        exactly_one_groups=(frozenset({0, 1, 2}), frozenset({5, 6}), frozenset({9})),
    )
    m = ModelParams(np.linspace(-1.0, 1.0, cs.n_vars))
    cfg = SamplerConfig(batch_size=50, seed=7, gibbs_burn_in=10)
    batch, stats = next(sample_stream(cs, m, "gibbs", cfg))
    assert len(np.unique(batch.rows, axis=0)) > 1
    return _run_digest(batch, stats)


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
    "gibbs_mixed": _gibbs_mixed_chain,
    "train_nelson": _train_trace,
}

GOLDEN = {
    "nelson_sinkfree": "b869aa1b9f4a67860a754306e8aafac60cf4d60ce889bb846babd5e3547922b5",
    "moser_sinkfree": "6c257e7be44ae3d66af9482ee75d876e9251bd587d6bab5e4528fccc16b8b798",
    "nelson_routes": "01e39064095e692c9a8d2ef630cf8e945b049de9d4b5afece7d1c7bd390e174b",
    "moser_routes": "58116693d263375951a57c4a6a7946f272d283fb6e278d38547f9d824411d0eb",
    "nelson_toy_records": "d5f9620c67e5994d6761dda13238c76851bb7664b3bed91fd733239b8b8ac4bf",
    "gibbs_sinkfree": "68ae392155329005a5ae323fde50b6698357a0dacd4d642ea8923958e29b54bf",
    "gibbs_mixed": "e49d9bf3d31cb7b60dbf86135b3a91867a0279f0514ea944c0599c22068c71e2",
    "train_nelson": "62fe4c1a36e8857e6b8e88ff297735b90aca7055ea70d1c606756f480189c32b",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_fingerprint(name):
    assert CASES[name]() == GOLDEN[name]


@pytest.mark.parametrize("share", [1.0, -1.0], ids=["all_sparse", "all_dense"])
@pytest.mark.parametrize("name", ["nelson_sinkfree", "moser_sinkfree", "nelson_routes",
                                  "moser_routes"])
def test_resampler_golden_on_either_draw_path(name, share, monkeypatch):
    # A round hashes only its masked cells unless more than _DENSE_SHARE of
    # them are masked; both paths must give the same bytes.
    monkeypatch.setattr(samplers, "_DENSE_SHARE", share)
    assert CASES[name]() == GOLDEN[name]


SAMPLE_FILES = ("samples.txt", "stats.json", "histogram.csv")


def _cli_files(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def _cli_sample(tmp_path, inst, theta, sampler, n, *extra):
    save_instance(inst, tmp_path / "instance.cnf", tmp_path / "instance.json")
    save_model(ModelParams(theta), tmp_path / "theta.json")
    out = tmp_path / "out"
    code = run(["sample", "--cnf", str(tmp_path / "instance.cnf"),
                "--theta", str(tmp_path / "theta.json"), "--sampler", sampler,
                "--n", str(n), "--seed", "1", "--out", str(out), *extra])
    assert code == 0
    return _cli_files(out, SAMPLE_FILES)


def _cli_sinkfree(sampler, n, *extra):
    def case(tmp_path):
        inst = gen_sinkfree(30, 0.3, seed=1)
        return _cli_sample(tmp_path, inst, np.zeros(inst.constraints.n_vars),
                           sampler, n, *extra)

    return case


def _cli_routes(sampler, *extra):
    def case(tmp_path):
        inst = gen_routes(5)
        return _cli_sample(tmp_path, inst, np.asarray(inst.metadata["theta"]), sampler,
                           300, "--groups", str(tmp_path / "instance.json"), *extra)

    return case


CLI_CASES = {
    "nelson_sinkfree": _cli_sinkfree("nelson", 500),
    "nelson_routes": _cli_routes("nelson"),  # 139 of 300 rows INVALID
    # A short tryout, so that moser also leaves INVALID rows (138 of 300).
    "moser_routes": _cli_routes("moser", "--tryout", "100"),
    "gibbs_sinkfree": _cli_sinkfree("gibbs", 20, "--burn-in", "20"),
}

CLI_GOLDEN = {
    "nelson_sinkfree": {
        "samples.txt": "7e2dd19e9cc7486d73f9293568b4558159c7ec396a3ab47c257acea89d1d0acb",
        "stats.json": "1611da557de489a3b38924c50eac3ecc5436d87b95adba5e0b91a205e73adaf3",
        "histogram.csv": "8dabea01ab95b4fbbc6e6437b715ce8c3f17f4192e041580de71f00c8afdce25",
    },
    "nelson_routes": {
        "samples.txt": "c0a7010cdc396ff33f5e881f80fbcb8c7df92853e91126a7888f3b95a9699add",
        "stats.json": "ce8ba1115d2388295995edf86c3c6f40617d2d6fd3994f09e91f45b91caa05da",
        "histogram.csv": "edb94caa7c9fa257c18f750625f22bf5736f4c726be6cd9d7b1ed70231a3bd16",
    },
    "moser_routes": {
        "samples.txt": "28f973d64a6c64f5b4554ad1fb20f3cd62e737dc068652b4234c2d111a8522ae",
        "stats.json": "68d2ea0de01e2b769f84013a1db00641b32d81c71d3b3cb0de93d2690fa8e21c",
        "histogram.csv": "f79e8b1b45b304fabc4e274fac52b7b1d95b852948caca0f7e0242ad548df9b1",
    },
    "gibbs_sinkfree": {
        "samples.txt": "7454228ae392faaf900867c5c2136b8751d06618cb9dd0e7130797db981df6e4",
        "stats.json": "d5f17e02a0eedf32372b890546d8eb16d4ca74009c5d5d9e634a9c55bc28e0aa",
        "histogram.csv": "b60cf5ea37d76845a3673e551ebcf51d8a2714b456730d5c8d5eed5ce26824de",
    },
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_golden_fingerprint(name, tmp_path):
    assert CLI_CASES[name](tmp_path) == CLI_GOLDEN[name]


def _instance_files(gen, *args, **kwargs):
    def case(tmp_path):
        save_instance(gen(*args, **kwargs), tmp_path / "i.cnf", tmp_path / "i.json")
        return _digest((tmp_path / "i.cnf").read_text(), (tmp_path / "i.json").read_text())

    return case


GENERATOR_CASES = {
    "ksat_20_20_3": _instance_files(gen_ksat, 20, 20, 3, seed=0),
    "ksat_5_3_5": _instance_files(gen_ksat, 5, 3, 5, seed=1),  # K = n
    "sinkfree_80": _instance_files(gen_sinkfree, 80, 0.1, seed=1),
    "sinkfree_6": _instance_files(gen_sinkfree, 6, 0.3, seed=0),  # 4 graph draws
    "routes_6": _instance_files(gen_routes, 6, seed=3),
}

GENERATOR_GOLDEN = {
    "ksat_20_20_3": "4af78d333f4e590810deedd6b2b1a59d0b08daa41015df9289a96467fdc63177",
    "ksat_5_3_5": "972aa8a329128fd10b3471163f4ed78df4ba70fb7606d9bafcf5d617db5e685b",
    "sinkfree_80": "670045f170012c89cf53eb52bbf7057351aef006a66d13a6cce39ceb4f0cb2eb",
    "sinkfree_6": "06d601c52ca70a3113fbc017d61035a8bc59dca926dda436bb25207671aa7f35",
    "routes_6": "e06e0ce4f7212f5e192b11bb16607daa072216f6b0726610d0d36940b33cc751",
}


@pytest.mark.parametrize("name", sorted(GENERATOR_CASES))
def test_generator_golden_fingerprint(name, tmp_path):
    assert GENERATOR_CASES[name](tmp_path) == GENERATOR_GOLDEN[name]


@pytest.mark.parametrize(
    "seed, tags, value",
    [
        (9, (), 12587370737594032228),
        (7, ("ksat",), 11073347654237336339),
        (7, (3,), 7758145696617331093),
        (7, ("draw", 2), 8180660082593636220),
        # seed and int tags wrap mod 2**64; a string tag is its UTF-8 bytes
        (2**64 + 5, (-1, "\u00e9"), 11321475132618634902),
    ],
)
def test_fold_seed_golden(seed, tags, value):
    assert fold_seed(seed, *tags) == value


def _small_sinkfree(tmp_path):
    """gen_sinkfree(5, 0.55, seed=6) (7 variables, 40 valid rows) under zero
    weights, written as instance files; returns the shared CLI arguments and
    the support rows."""
    inst = gen_sinkfree(5, 0.55, seed=6)
    save_instance(inst, tmp_path / "instance.cnf", tmp_path / "instance.json")
    theta = ModelParams(np.zeros(inst.constraints.n_vars))
    save_model(theta, tmp_path / "theta.json")
    args = ["--cnf", str(tmp_path / "instance.cnf"), "--groups", str(tmp_path / "instance.json"),
            "--theta", str(tmp_path / "theta.json")]
    return args, exact_distribution(inst.constraints, theta).support


def _cli_eval(*extra):
    def case(tmp_path):
        args, support = _small_sinkfree(tmp_path)
        for name, rows in (("preferred", support[0::2]), ("unseen", support[1::2])):
            (tmp_path / f"{name}.txt").write_bytes(encode_rows(rows))
        out = tmp_path / "out"
        assert run(["eval", *args, "--preferred", str(tmp_path / "preferred.txt"),
                    "--unseen", str(tmp_path / "unseen.txt"), "--out", str(out), *extra]) == 0
        return _cli_files(out, ["report.json"])

    return case


def _cli_oracle(tmp_path):
    args, _ = _small_sinkfree(tmp_path)
    files = {"dist": ("dist.json", "partition.json"), "grad": ("grad.json",),
             "resamples": ("resamples.json",)}
    digests = {}
    for what, names in files.items():
        out = tmp_path / what
        assert run(["oracle", *args, "--what", what, "--out", str(out)]) == 0
        digests.update(_cli_files(out, names))
    return digests


REPORT_CASES = {
    "eval": _cli_eval(),
    "eval_grad": _cli_eval("--grad-m", "200", "--seed", "1"),
    "oracle": _cli_oracle,
}

REPORT_GOLDEN = {
    "eval": {
        "report.json": "6a8bffcec49b5d9dc4c9b9439faf4efae0e0e9d14600dde1141e20e54cf69e75",
    },
    "eval_grad": {
        "report.json": "b20a3f8143c99ff2467bc68f57a8a73ffcbd12abc8eb10a050e77f3a8aa20a0f",
    },
    "oracle": {
        "dist.json": "a41d0ae4732b089cc438abbd2fb4a294abc134b6d731ac0127a5a1c74f5204da",
        "partition.json": "bb1155dc1e904b0192b8c0a5189b39ef83140dc2a533f3b2f7602d18e16eeaf3",
        "grad.json": "83f0e934312f23e8b6feaff23258f45b1a3b9da26209a6e47d01b86b976b8516",
        "resamples.json": "81fddb9e65fe5f6e41fa7df261ea48f4bb767344b168d370b3bb7113fbbc9f59",
    },
}


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_cli_report_golden_fingerprint(name, tmp_path):
    assert REPORT_CASES[name](tmp_path) == REPORT_GOLDEN[name]
