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
    "nelson_sinkfree": "f4071c446aa4a584d8fd13340c0c1da0844b157922bd75295d1c9ee0192187a4",
    "moser_sinkfree": "98c98572f20765d07a798111852ac39f743c62e7578edf2aa1365cc4216c5dd8",
    "nelson_routes": "7633a99793a055a75bb6f6b07f73ee4849f09e06dd5042fe16ae4b41545eba77",
    "moser_routes": "c66648f20dbc530bf81f2a1008902ebf2062dcce947e8354d5fbac7869fa29dc",
    "nelson_toy_records": "7ff95c2c578682385fc7b575a5d12f364be9d7b52928b3e33b62fd71c6f21dd8",
    "gibbs_sinkfree": "68ae392155329005a5ae323fde50b6698357a0dacd4d642ea8923958e29b54bf",
    "gibbs_mixed": "624fd9cc8d4cab0d5ad94adab4e5544c0a4d0154add1cfce357491bc3199faf8",
    "train_nelson": "bf6eb4e1cefedaf9d1af3a6eb7f37da6045b1f0aaec4176fa8e38b916e7311fe",
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
    "nelson_routes": _cli_routes("nelson"),  # 140 of 300 rows INVALID
    # A short tryout, so that moser also leaves INVALID rows (150 of 300).
    "moser_routes": _cli_routes("moser", "--tryout", "100"),
    "gibbs_sinkfree": _cli_sinkfree("gibbs", 20, "--burn-in", "20"),
}

CLI_GOLDEN = {
    "nelson_sinkfree": {
        "samples.txt": "87e07806c0be214e143eca6a5428de2f123c42f44c021afde7d900e8343aa71c",
        "stats.json": "3b99cf76b33e098cf2ab42759d7a5d0a7723ca098d74b36ea51883f9e57d7813",
        "histogram.csv": "7facfad1a493f164c54db67042a9d2a53c87cc51dfc4c699f166d74484275ab2",
    },
    "nelson_routes": {
        "samples.txt": "26ce22d159fc46d13ec00f5f24615335abf86dbf90103bcc2c970dd7118b976c",
        "stats.json": "d1ed74ee6814809271dacee05172397c051fc7527067a3decadd030feacd8460",
        "histogram.csv": "6cb9bee00edfbd29813bec0e14ef9a795180bb5456637cd9bfe48281c0df517c",
    },
    "moser_routes": {
        "samples.txt": "38a0c5878978a7eb0e476af4034376efdee9464fe9d7338e3de79f6d6e59034c",
        "stats.json": "03621c3dea26ab4a8286a13da9305b3d3470eec77a24335405822ab19d780524",
        "histogram.csv": "a98a0fae156b36b89e83f89a78f90627e877452fd11a2528ff9193a183885222",
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
        "report.json": "fe4ddbecc147ff6dd59b4219d853fed9f5934f7407f7cb7ad7e3a1fbe047844c",
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
