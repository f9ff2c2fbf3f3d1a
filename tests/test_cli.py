import json
import os
from collections import Counter
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cmrf
from cmrf import cli
from cmrf.cli import (
    EXIT_CAP,
    EXIT_EXHAUSTED,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_USAGE,
    UsageError,
    build_plan,
    run,
)
from cmrf.cnf import Dataset, load_constraints, satisfies_all
from cmrf.model import ModelParams, load_model, save_model
from cmrf.problems import gen_routes, save_instance
from cmrf.samplers import SAMPLERS

TOY_DIMACS = "p cnf 3 2\n1 2 0\n-1 3 0\n"


def _write_toy(tmp_path):
    cnf = tmp_path / "toy.cnf"
    cnf.write_text(TOY_DIMACS)
    theta = tmp_path / "theta.json"
    save_model(ModelParams(np.zeros(3)), theta)
    return cnf, theta


class TestBuildPlan:
    def test_sample_defaults(self):
        plan = build_plan(
            ["sample", "--cnf", "f.cnf", "--theta", "t.json",
             "--sampler", "nelson", "--n", "1000"]
        )
        assert plan.command == "sample"
        assert plan.options["tryout"] == 1000
        assert plan.options["seed"] == 0
        assert plan.options["out"] == "."

    @pytest.mark.parametrize("argv", [
        ["sample", "--cnf", "f.cnf", "--theta", "t.json", "--n", "5"],
        ["train", "--cnf", "f.cnf", "--data", "d.txt"],
    ], ids=["sample", "train"])
    def test_sampler_names_are_the_samplers_keys(self, argv):
        assert build_plan([*argv, "--sampler", "moser"]).options["sampler"] == "moser"
        with pytest.raises(UsageError, match="moser_tardos"):
            build_plan([*argv, "--sampler", "moser_tardos"])

    def test_train_missing_data(self):
        with pytest.raises(UsageError):
            build_plan(["train", "--cnf", "f.cnf", "--out", "o"])

    def test_oracle_plan(self, tmp_path):
        cnf, theta = _write_toy(tmp_path)
        plan = build_plan(
            ["oracle", "--cnf", str(cnf), "--theta", str(theta),
             "--what", "grad", "--out", str(tmp_path / "o")]
        )
        assert plan.command == "oracle" and plan.options["what"] == "grad"
        assert "seed" not in plan.options  # enumeration draws nothing

    def test_unknown_flag(self):
        with pytest.raises(UsageError):
            build_plan(["gen", "--family", "ksat", "--size", "5", "--frobnicate", "1",
                        "--out", "o"])

    def test_unknown_command(self):
        with pytest.raises(UsageError):
            build_plan(["transmogrify"])


class TestGen:
    def test_sinkfree_writes_instance(self, tmp_path):
        out = tmp_path / "out"
        code = run(["gen", "--family", "sinkfree", "--size", "4", "--seed", "3",
                    "--out", str(out)])
        assert code == 0
        assert (out / "instance.cnf").exists()
        sidecar = json.loads((out / "instance.json").read_text())
        assert sidecar["family"] == "sinkfree"
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest) == ["command", "options", "version"]

    @pytest.mark.parametrize("size, seed, vertices", [(2, 0, 2), (5, 0, 5)])
    def test_sinkfree_tree_component_warns(self, tmp_path, capsys, size, seed, vertices):
        # One edge, and seed 0's 5-vertex tree: no orientation is sink-free.
        out = tmp_path / "out"
        assert run(["gen", "--family", "sinkfree", "--size", str(size), "--seed", str(seed),
                    "--out", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        warning = json.loads(lines[0])["warning"]
        assert warning["tree_vertices"] == [vertices]
        assert f"a tree component of {vertices} vertices" in warning["message"]
        assert (out / "instance.cnf").exists()

    def test_sinkfree_with_cycles_writes_no_warning(self, tmp_path, capsys):
        assert run(["gen", "--family", "sinkfree", "--size", "5", "--seed", "1",
                    "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_routes_writes_theta(self, tmp_path):
        out = tmp_path / "out"
        assert run(["gen", "--family", "routes", "--size", "3", "--seed", "1",
                    "--out", str(out)]) == 0
        theta = load_model(out / "theta.json")
        assert theta.n == 6
        sidecar = json.loads((out / "instance.json").read_text())
        assert len(sidecar["exactly_one"]) == 6

    def test_ksat(self, tmp_path):
        out = tmp_path / "out"
        assert run(["gen", "--family", "ksat", "--size", "8", "--k", "3",
                    "--seed", "2", "--out", str(out)]) == 0
        header = (out / "instance.cnf").read_text().splitlines()[0]
        assert header == "p cnf 8 8"


class TestSample:
    def test_happy_path(self, tmp_path):
        cnf, theta = _write_toy(tmp_path)
        out = tmp_path / "out"
        code = run(["sample", "--cnf", str(cnf), "--theta", str(theta),
                    "--sampler", "nelson", "--n", "500", "--seed", "9",
                    "--out", str(out)])
        assert code == 0
        lines = (out / "samples.txt").read_text().splitlines()
        assert len(lines) == 500
        assert all(set(line) <= {"0", "1"} for line in lines)
        stats = json.loads((out / "stats.json").read_text())
        assert stats["exhausted"] == 0
        assert len(stats["rounds"]) == 500
        assert (out / "histogram.csv").exists()

    def test_unsatisfiable_exits_5(self, tmp_path):
        cnf = tmp_path / "unsat.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        theta = tmp_path / "theta.json"
        save_model(ModelParams(np.zeros(1)), theta)
        out = tmp_path / "out"
        code = run(["sample", "--cnf", str(cnf), "--theta", str(theta),
                    "--sampler", "nelson", "--n", "20", "--tryout", "10",
                    "--seed", "0", "--out", str(out)])
        assert code == EXIT_EXHAUSTED
        stats = json.loads((out / "stats.json").read_text())
        assert stats["exhausted"] == 20
        marked = (out / "samples.txt").read_text().splitlines()
        assert all(line.endswith(" INVALID") for line in marked)

    def _sample_options(self, tmp_path, sampler, *extra):
        cnf, theta = _write_toy(tmp_path)
        out = tmp_path / "out"
        code = run(["sample", "--cnf", str(cnf), "--theta", str(theta), "--sampler", sampler,
                    "--n", "50", "--seed", "1", "--out", str(out), *extra])
        assert code == 0
        # Every row is valid: Dataset.load rejects a row that violates the instance.
        assert len(Dataset.load(out / "samples.txt", load_constraints(cnf))) == 50
        return json.loads((out / "manifest.json").read_text())["options"]

    @pytest.mark.parametrize("sampler", ["nelson", "moser"])
    def test_resampler_manifest_leaves_gibbs_flags_null(self, tmp_path, sampler):
        options = self._sample_options(tmp_path, sampler)
        assert options["burn_in"] is None and "thin" not in options

    @pytest.mark.parametrize("extra, expected", [([], 1000), (["--burn-in", "20"], 20)],
                             ids=["default", "given"])
    def test_gibbs_manifest_records_burn_in(self, tmp_path, extra, expected):
        options = self._sample_options(tmp_path, "gibbs", *extra)
        assert options["burn_in"] == expected and "thin" not in options

    def test_allocation_failure_exits_1_with_json(self, tmp_path, capsys):
        # 10**17 rounds of int64 is 711 PiB, more than a 57-bit address space
        # holds, so the allocation is refused at once and touches no memory.
        cnf, theta = _write_toy(tmp_path)
        out = tmp_path / "out"
        code = run(["sample", "--cnf", str(cnf), "--theta", str(theta), "--sampler", "nelson",
                    "--n", str(10**17), "--out", str(out)])
        assert code == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["exit_code"] == EXIT_USAGE and "MemoryError" in error["type"]
        assert (out / "manifest.json").exists() and not (out / "samples.txt").exists()

    def test_gibbs_without_chain_starts_names_them(self, tmp_path, capsys):
        # Seed 0 draws a 2-edge path, which no row satisfies: nelson cannot
        # draw the valid rows the Gibbs chains start from.
        gen = tmp_path / "gen"
        assert run(["gen", "--family", "sinkfree", "--size", "3", "--seed", "0",
                    "--out", str(gen)]) == 0
        theta = tmp_path / "theta.json"
        save_model(ModelParams(np.zeros(2)), theta)
        capsys.readouterr()
        code = run(["sample", "--cnf", str(gen / "instance.cnf"), "--theta", str(theta),
                    "--sampler", "gibbs", "--n", "3", "--out", str(tmp_path / "out")])
        assert code == EXIT_EXHAUSTED
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message == "nelson produced only 0/3 valid rows for the gibbs chain starts in 10 batches"

    def test_byte_identical_reruns(self, tmp_path):
        cnf, theta = _write_toy(tmp_path)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["sample", "--cnf", str(cnf), "--theta", str(theta),
                        "--sampler", "nelson", "--n", "200", "--seed", "4",
                        "--out", str(out)]) == 0
            outputs.append({
                p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"
            })
        assert outputs[0] == outputs[1]


class TestResampleReport:
    """The resample effort `sample` reports (stats.json, histogram.csv) and
    the prediction `oracle --what resamples` writes, on the toy instance at
    the row count and bound of test_samplers.py's TestExpectedResampleCounts."""

    N = 100_000

    def _sample(self, tmp_path, sampler, *extra):
        cnf, theta = _write_toy(tmp_path)
        out = tmp_path / sampler
        assert run(["sample", "--cnf", str(cnf), "--theta", str(theta), "--sampler", sampler,
                    "--n", str(self.N), "--seed", "101", "--out", str(out), *extra]) == 0
        return out, json.loads((out / "stats.json").read_text())

    def test_nelson_tallies_match_oracle(self, tmp_path):
        _, stats = self._sample(tmp_path, "nelson")
        cnf, theta = _write_toy(tmp_path)
        out = tmp_path / "oracle"
        assert run(["oracle", "--cnf", str(cnf), "--theta", str(theta),
                    "--what", "resamples", "--out", str(out)]) == 0
        expected = np.array(json.loads((out / "resamples.json").read_text())["per_constraint"])
        observed = np.array(stats["per_constraint"]) / self.N
        assert np.abs(observed - expected).max() / expected.max() < 0.05

    @pytest.mark.parametrize("sampler, extra", [
        ("nelson", ()), ("moser", ("--tryout", "2")), ("gibbs", ("--burn-in", "10")),
    ], ids=["nelson", "moser", "gibbs"])
    def test_histogram_and_exhausted_count_the_rows(self, tmp_path, sampler, extra):
        out, stats = self._sample(tmp_path, sampler, *extra)
        table = sorted(Counter(stats["rounds"]).items())
        assert (out / "histogram.csv").read_text().splitlines() == [
            "round,count", *(f"{rounds},{count}" for rounds, count in table)]
        lines = (out / "samples.txt").read_text().splitlines()
        assert len(lines) == self.N
        assert stats["exhausted"] == sum(line.endswith(" INVALID") for line in lines)


SAMPLE_FILES = ("samples.txt", "stats.json", "histogram.csv")


class TestSampleChunks:
    """`sample` split into chunks of 1, 7 or 130 rows, with --n not a
    multiple of any, writes the same bytes as one chunk larger than --n."""

    def _chunked_runs(self, monkeypatch, tmp_path, argv, expected_code=0):
        outputs = []
        for chunk in (10**6, 1, 7, 130):
            monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
            out = tmp_path / f"chunk-{chunk}"
            assert run([*argv, "--out", str(out)]) == expected_code
            outputs.append({name: (out / name).read_bytes() for name in SAMPLE_FILES})
        for chunked in outputs[1:]:
            assert chunked == outputs[0]
        # The streamed stats.json is exactly what json.dump writes for it.
        stats = json.loads(outputs[0]["stats.json"])
        assert outputs[0]["stats.json"].decode() == json.dumps(stats, sort_keys=True, indent=2) + "\n"
        return outputs[0]["samples.txt"].decode().splitlines(), stats

    @pytest.mark.parametrize("sampler, tryout", [("nelson", "300"), ("moser", "100")])
    def test_routes_mixes_valid_and_invalid(self, monkeypatch, tmp_path, sampler, tryout):
        inst = gen_routes(5)
        save_instance(inst, tmp_path / "routes.cnf", tmp_path / "routes.json")
        save_model(ModelParams(np.asarray(inst.metadata["theta"])), tmp_path / "theta.json")
        argv = ["sample", "--cnf", str(tmp_path / "routes.cnf"),
                "--groups", str(tmp_path / "routes.json"),
                "--theta", str(tmp_path / "theta.json"), "--sampler", sampler,
                "--n", "23", "--tryout", tryout, "--seed", "2"]
        lines, stats = self._chunked_runs(monkeypatch, tmp_path, argv)
        invalid = [line.endswith(" INVALID") for line in lines]
        assert len(lines) == 23 and 0 < sum(invalid) < 23
        # Some chunk of 7 holds both kinds of row.
        assert any(0 < sum(invalid[k:k + 7]) < len(invalid[k:k + 7]) for k in range(0, 23, 7))
        assert stats["exhausted"] == sum(invalid)

    def test_unsatisfiable_all_invalid_exits_5(self, monkeypatch, tmp_path):
        cnf = tmp_path / "unsat.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        theta = tmp_path / "theta.json"
        save_model(ModelParams(np.zeros(1)), theta)
        argv = ["sample", "--cnf", str(cnf), "--theta", str(theta), "--sampler", "nelson",
                "--n", "20", "--tryout", "10", "--seed", "0"]
        lines, stats = self._chunked_runs(monkeypatch, tmp_path, argv, EXIT_EXHAUSTED)
        assert all(line.endswith(" INVALID") for line in lines)
        assert stats["exhausted"] == 20 and stats["rounds"] == [10] * 20

    def test_zero_constraints(self, monkeypatch, tmp_path):
        cnf = tmp_path / "free.cnf"
        cnf.write_text("p cnf 4 0\n")
        theta = tmp_path / "theta.json"
        save_model(ModelParams(np.zeros(4)), theta)
        argv = ["sample", "--cnf", str(cnf), "--theta", str(theta), "--sampler", "moser",
                "--n", "15", "--seed", "3"]
        lines, stats = self._chunked_runs(monkeypatch, tmp_path, argv)
        assert len(lines) == 15 and stats["per_constraint"] == []

    def test_gibbs_chunks_match_one_batch(self, monkeypatch, tmp_path):
        # 150 chains in one batch, in batches of 1 or 7 chains, or in 130
        # chains (crossing words) and a short last batch of 20.
        cnf, theta = _write_toy(tmp_path)
        argv = ["sample", "--cnf", str(cnf), "--theta", str(theta), "--sampler", "gibbs",
                "--n", "150", "--burn-in", "2", "--seed", "4"]
        lines, stats = self._chunked_runs(monkeypatch, tmp_path, argv)
        assert len(lines) == 150 and stats["exhausted"] == 0

    def test_gibbs_calls_stay_within_a_chunk(self, monkeypatch, tmp_path):
        # Gibbs memory follows _CHUNK_ROWS, not --n.
        sizes = []
        gibbs = cmrf.samplers.SAMPLERS["gibbs"]

        def recording(cs, m, cfg, *starts):
            sizes.append(cfg.batch_size)
            return gibbs(cs, m, cfg, *starts)

        monkeypatch.setitem(cmrf.samplers.SAMPLERS, "gibbs", recording)
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 64)
        cnf, theta = _write_toy(tmp_path)
        assert run(["sample", "--cnf", str(cnf), "--theta", str(theta), "--sampler", "gibbs",
                    "--n", "150", "--burn-in", "2", "--out", str(tmp_path / "o")]) == 0
        assert sizes == [64, 64, 22]

    @pytest.mark.parametrize("sampler", ["nelson", "moser"])
    def test_writes_from_words_without_unpacking(self, monkeypatch, tmp_path, sampler):
        # INVALID rows on routes(5), in chunks of 130 rows: two full words
        # and two rows of a third.
        def refuse(*args):
            raise AssertionError("rows were unpacked")

        monkeypatch.setattr(cmrf.cnf, "unpack_rows", refuse)
        monkeypatch.setattr(cmrf.samplers, "_unpack_rows", refuse)
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 130)
        inst = gen_routes(5)
        save_instance(inst, tmp_path / "routes.cnf", tmp_path / "routes.json")
        save_model(ModelParams(np.asarray(inst.metadata["theta"])), tmp_path / "theta.json")
        out = tmp_path / "out"
        assert run(["sample", "--cnf", str(tmp_path / "routes.cnf"),
                    "--groups", str(tmp_path / "routes.json"),
                    "--theta", str(tmp_path / "theta.json"), "--sampler", sampler,
                    "--n", "300", "--tryout", "50", "--seed", "2", "--out", str(out)]) == 0
        lines = (out / "samples.txt").read_text().splitlines()
        stats = json.loads((out / "stats.json").read_text())
        assert len(lines) == 300 and 0 < stats["exhausted"] < 300
        assert sum(line.endswith(" INVALID") for line in lines) == stats["exhausted"]

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_zero_rows_exits_1_before_sampling(self, monkeypatch, tmp_path, chunk):
        cnf, theta = _write_toy(tmp_path)
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
        out = tmp_path / "out"
        assert run(["sample", "--cnf", str(cnf), "--theta", str(theta),
                    "--sampler", "nelson", "--n", "0", "--out", str(out)]) == EXIT_USAGE
        assert not (out / "samples.txt").exists()


class TestTrainEval:
    def test_train_then_eval(self, tmp_path):
        cnf, theta_path = _write_toy(tmp_path)
        data = tmp_path / "data.txt"
        data.write_text("011\n111\n101\n111\n")
        out = tmp_path / "train-out"
        code = run(["train", "--cnf", str(cnf), "--data", str(data), "--m", "40",
                    "--eta", "0.1", "--iters", "30", "--sampler", "nelson",
                    "--seed", "3", "--out", str(out)])
        assert code == 0
        model = load_model(out / "model.json")
        assert model.n == 3
        trace_lines = (out / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == "iter,nll,grad_l1,wall_ms"
        assert len(trace_lines) == 31

        preferred = tmp_path / "preferred.txt"
        preferred.write_text("111\n101\n")
        unseen = tmp_path / "unseen.txt"
        unseen.write_text("011\n010\n")
        # 4 unique candidates is below the MAP@10 pool minimum -> usage error
        ev_out = tmp_path / "eval-out"
        code = run(["eval", "--cnf", str(cnf), "--theta", str(out / "model.json"),
                    "--preferred", str(preferred), "--unseen", str(unseen),
                    "--out", str(ev_out)])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    def test_train_with_every_sampler(self, tmp_path, sampler):
        cnf, _ = _write_toy(tmp_path)
        data = tmp_path / "data.txt"
        data.write_text("011\n111\n101\n")
        out = tmp_path / "o"
        assert run(["train", "--cnf", str(cnf), "--data", str(data), "--m", "20",
                    "--iters", "3", "--sampler", sampler, "--out", str(out)]) == 0
        assert len((out / "trace.csv").read_text().splitlines()) == 4

    def test_eval_with_enough_candidates(self, tmp_path):
        out = tmp_path / "gen"
        assert run(["gen", "--family", "sinkfree", "--size", "5", "--seed", "6",
                    "--out", str(out)]) == 0
        from cmrf.cnf import load_constraints
        from cmrf.oracle import exact_distribution

        cs = load_constraints(out / "instance.cnf", out / "instance.json")
        theta_path = tmp_path / "theta.json"
        save_model(ModelParams(np.zeros(cs.n_vars)), theta_path)
        dist = exact_distribution(cs, ModelParams(np.zeros(cs.n_vars)))
        rows = ["".join(map(str, r)) for r in dist.support]
        preferred = tmp_path / "preferred.txt"
        preferred.write_text("\n".join(rows[:5]) + "\n")
        unseen = tmp_path / "unseen.txt"
        unseen.write_text("\n".join(rows[5:20]) + "\n")
        ev_out = tmp_path / "eval"
        code = run(["eval", "--cnf", str(out / "instance.cnf"),
                    "--groups", str(out / "instance.json"),
                    "--theta", str(theta_path), "--preferred", str(preferred),
                    "--unseen", str(unseen), "--grad-m", "200", "--seed", "1",
                    "--out", str(ev_out)])
        assert code == 0
        report = json.loads((ev_out / "report.json").read_text())
        assert 0.0 <= report["map_at_10"] <= 100.0
        assert report["grad_error_l1"] >= 0.0

    def test_train_validates_dataset_once(self, tmp_path, monkeypatch):
        cnf, _ = _write_toy(tmp_path)
        data = tmp_path / "data.txt"
        data.write_text("011\n111\n101\n")
        calls = []

        def counting(cs, X):
            calls.append(len(X))
            return satisfies_all(cs, X)

        monkeypatch.setattr(cmrf.cnf, "satisfies_all", counting)
        assert run(["train", "--cnf", str(cnf), "--data", str(data), "--m", "20",
                    "--iters", "3", "--nll-every", "1", "--out", str(tmp_path / "o")]) == 0
        assert calls == [3]

    def test_train_rejects_violating_row(self, tmp_path, capsys):
        cnf, _ = _write_toy(tmp_path)
        data = tmp_path / "data.txt"
        data.write_text("011\n000\n")
        code = run(["train", "--cnf", str(cnf), "--data", str(data), "--iters", "3",
                    "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        error = json.loads(capsys.readouterr().err.strip())["error"]
        assert error["message"] == "dataset row 1 violates the constraints"

    def test_model_round_trip_lossless(self, tmp_path):
        theta = ModelParams(np.array([0.123456789, -2.5, 1e-9]))
        path = tmp_path / "m.json"
        save_model(theta, path)
        assert np.array_equal(load_model(path).theta, theta.theta)


class TestOracleCommand:
    def test_dist(self, tmp_path):
        cnf, theta = _write_toy(tmp_path)
        out = tmp_path / "out"
        assert run(["oracle", "--cnf", str(cnf), "--theta", str(theta),
                    "--what", "dist", "--out", str(out)]) == 0
        table = json.loads((out / "dist.json").read_text())
        assert {entry["assignment"] for entry in table} == {"010", "011", "101", "111"}
        assert sum(entry["prob"] for entry in table) == pytest.approx(1.0)
        partition = json.loads((out / "partition.json").read_text())
        assert partition["log_partition"] == pytest.approx(np.log(4))

    def test_grad_and_resamples(self, tmp_path):
        cnf, theta = _write_toy(tmp_path)
        for what, filename in (("grad", "grad.json"), ("resamples", "resamples.json")):
            out = tmp_path / f"out-{what}"
            assert run(["oracle", "--cnf", str(cnf), "--theta", str(theta),
                        "--what", what, "--out", str(out)]) == 0
            assert (out / filename).exists()
        grad = json.loads((tmp_path / "out-grad" / "grad.json").read_text())
        assert grad["grad"] == pytest.approx([0.5, 0.75, 0.75])
        res = json.loads((tmp_path / "out-resamples" / "resamples.json").read_text())
        assert res["total"] == pytest.approx(1.0)

    def test_unsat_exits_3(self, tmp_path):
        cnf = tmp_path / "unsat.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        theta = tmp_path / "theta.json"
        save_model(ModelParams(np.zeros(1)), theta)
        code = run(["oracle", "--cnf", str(cnf), "--theta", str(theta),
                    "--what", "dist", "--out", str(tmp_path / "o")])
        assert code == EXIT_INFEASIBLE

    def test_cap_exits_4(self, tmp_path):
        n = 26
        cnf = tmp_path / "big.cnf"
        cnf.write_text(f"p cnf {n} 0\n")
        theta = tmp_path / "theta.json"
        save_model(ModelParams(np.zeros(n)), theta)
        code = run(["oracle", "--cnf", str(cnf), "--theta", str(theta),
                    "--what", "dist", "--out", str(tmp_path / "o")])
        assert code == EXIT_CAP


class TestRunPipeline:
    """execute_plan loads each run's inputs once, in one place."""

    def test_each_run_loads_its_inputs_once(self, tmp_path, monkeypatch):
        loads = []

        def counting(name, load):
            def wrapped(*args):
                loads.append(name)
                return load(*args)
            return wrapped

        monkeypatch.setattr(cli, "load_constraints", counting("cnf", cli.load_constraints))
        monkeypatch.setattr(cli, "load_model", counting("theta", cli.load_model))
        cnf = tmp_path / "four.cnf"
        cnf.write_text("p cnf 4 1\n1 2 0\n")  # 12 valid rows
        theta = tmp_path / "theta.json"
        save_model(ModelParams(np.zeros(4)), theta)
        (tmp_path / "preferred.txt").write_text("0100\n0101\n0110\n0111\n1000\n")
        (tmp_path / "unseen.txt").write_text("1001\n1010\n1011\n1100\n1101\n")
        inputs = ["--cnf", str(cnf)]
        runs = {
            "sample": [*inputs, "--theta", str(theta), "--sampler", "nelson", "--n", "5"],
            "train": [*inputs, "--data", str(tmp_path / "preferred.txt"), "--m", "5",
                      "--iters", "2"],
            "eval": [*inputs, "--theta", str(theta), "--preferred",
                     str(tmp_path / "preferred.txt"), "--unseen", str(tmp_path / "unseen.txt")],
            "oracle": [*inputs, "--theta", str(theta), "--what", "dist"],
        }
        for command, argv in runs.items():
            loads.clear()
            assert run([command, *argv, "--out", str(tmp_path / command)]) == 0
            assert loads == (["cnf"] if command == "train" else ["cnf", "theta"]), command

    @pytest.mark.parametrize("command, extra", [
        ("sample", ["--sampler", "nelson", "--n", "5"]),
        ("eval", ["--preferred", "p", "--unseen", "u"]),
        ("oracle", ["--what", "dist"]),
    ])
    def test_theta_of_another_width_exits_2_after_the_manifest(self, tmp_path, capsys,
                                                               command, extra):
        cnf, _ = _write_toy(tmp_path)
        theta = tmp_path / "wide.json"
        save_model(ModelParams(np.zeros(4)), theta)
        out = tmp_path / "o"
        assert run([command, "--cnf", str(cnf), "--theta", str(theta), *extra,
                    "--out", str(out)]) == EXIT_IO
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["message"] == "theta length 4 does not match instance width 3"
        assert json.loads((out / "manifest.json").read_text())["command"] == command


class TestErrorPaths:
    def test_missing_file_exits_2(self, tmp_path):
        theta = tmp_path / "theta.json"
        save_model(ModelParams(np.zeros(3)), theta)
        code = run(["sample", "--cnf", str(tmp_path / "nope.cnf"), "--theta", str(theta),
                    "--sampler", "nelson", "--n", "5", "--out", str(tmp_path / "o")])
        assert code == EXIT_IO

    def test_bad_dimacs_exits_2(self, tmp_path):
        cnf = tmp_path / "bad.cnf"
        cnf.write_text("p cnf 1 1\n2 0\n")
        theta = tmp_path / "theta.json"
        save_model(ModelParams(np.zeros(1)), theta)
        code = run(["sample", "--cnf", str(cnf), "--theta", str(theta),
                    "--sampler", "nelson", "--n", "5", "--out", str(tmp_path / "o")])
        assert code == EXIT_IO

    def test_second_dimacs_header_exits_2(self, tmp_path, capsys):
        cnf = tmp_path / "two.cnf"
        cnf.write_text("p cnf 5 1\n1 0\np cnf 8 2\n2 0\n")
        theta = tmp_path / "theta.json"
        save_model(ModelParams(np.zeros(5)), theta)
        code = run(["sample", "--cnf", str(cnf), "--theta", str(theta),
                    "--sampler", "nelson", "--n", "5", "--out", str(tmp_path / "o")])
        assert code == EXIT_IO
        assert "second header" in json.loads(capsys.readouterr().err)["error"]["message"]

    def _sample(self, tmp_path, theta_text, *extra):
        cnf = tmp_path / "toy.cnf"
        cnf.write_text(TOY_DIMACS)
        theta = tmp_path / "theta.json"
        theta.write_text(theta_text)
        return run(["sample", "--cnf", str(cnf), "--theta", str(theta), "--sampler",
                    "nelson", "--n", "5", "--out", str(tmp_path / "o"), *extra])

    def test_groups_sidecar_not_an_object_exits_2(self, tmp_path, capsys):
        groups = tmp_path / "groups.json"
        groups.write_text("[[0, 1]]")
        code = self._sample(tmp_path, '{"theta": [0, 0, 0]}', "--groups", str(groups))
        assert code == EXIT_IO
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "DimacsError"

    @pytest.mark.parametrize("text", [
        '{"exactly_one": ["01"]}', '{"exactly_one": [[0.5, 2.9]]}',
        '{"exactly_one": {"12": 1}}', '{"exactly_one": [[true, 2]]}',
        '{"exactly_one": 3}', '{"exactly_one": [[0, 7]]}', '{"exactly_one": [[0, 0, 1]]}',
    ], ids=["string", "floats", "object", "bool", "number", "out-of-range", "duplicate"])
    def test_groups_sidecar_bad_members_exits_2(self, tmp_path, capsys, text):
        # Each member must be a JSON integer, once; int() would read "01" as {0, 1}
        # and [0.5, 2.9] as {0, 2}.
        groups = tmp_path / "groups.json"
        groups.write_text(text)
        code = self._sample(tmp_path, '{"theta": [0, 0, 0]}', "--groups", str(groups))
        assert code == EXIT_IO
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "DimacsError"

    @pytest.mark.parametrize("name, data", [
        ("toy.cnf", b"c \xff\np cnf 3 2\n1 2 0\n-1 3 0\n"),
        ("groups.json", b'{"exactly_one": [[0, 1]], "name": "\xff"}'),
        ("groups.json", b'{"exactly_one": [[0, 1]]'),
    ], ids=["cnf-not-utf8", "sidecar-not-utf8", "sidecar-not-json"])
    def test_undecodable_instance_exits_2(self, tmp_path, capsys, name, data):
        cnf, theta = _write_toy(tmp_path)
        groups = tmp_path / "groups.json"
        groups.write_text('{"exactly_one": [[0, 1]]}')
        (tmp_path / name).write_bytes(data)
        code = run(["sample", "--cnf", str(cnf), "--groups", str(groups), "--theta", str(theta),
                    "--sampler", "nelson", "--n", "5", "--out", str(tmp_path / "o")])
        assert code == EXIT_IO
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "DimacsError"

    def test_non_json_theta_exits_1(self, tmp_path, capsys):
        assert self._sample(tmp_path, '{"theta": [0, 0, 0]') == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "JSONDecodeError"

    @pytest.mark.parametrize(
        "text", ["[0, 0]", "{}", '{"theta": {}}', '{"theta": [[0, 0, 0]], "n": 1}',
                 '{"theta": ["0.5", "1", "0"]}', '{"theta": [true, false, true]}',
                 '{"n": 3.9, "theta": [0, 0, 0]}', '{"n": "3", "theta": [0, 0, 0]}'])
    def test_malformed_theta_exits_1(self, tmp_path, capsys, text):
        assert self._sample(tmp_path, text) == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("edge_prob", ["0", "-1", "2"])
    def test_sinkfree_edge_prob_out_of_range_exits_1(self, tmp_path, capsys, edge_prob):
        # Rejected while parsing, before manifest.json is written.
        out = tmp_path / "o"
        code = run(["gen", "--family", "sinkfree", "--size", "4", "--edge-prob", edge_prob,
                    "--out", str(out)])
        assert code == EXIT_USAGE
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "UsageError" and "--edge-prob" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "--family", "routes", "--size", "3", "--edge-prob", "0.5", "--k", "99"],
        ["gen", "--family", "routes", "--size", "3", "--k", "3"],
        ["gen", "--family", "sinkfree", "--size", "4", "--k", "3"],
        ["gen", "--family", "ksat", "--size", "5", "--edge-prob", "0.5"],
    ])
    def test_gen_flag_the_family_ignores_exits_1(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert run([*argv, "--out", str(out)]) == EXIT_USAGE
        assert "does not read" in json.loads(capsys.readouterr().err)["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "--family", "routes", "--size", "1"],
        ["gen", "--family", "sinkfree", "--size", "1"],
        ["gen", "--family", "ksat", "--size", "3"],  # below the default --k of 5
        ["gen", "--family", "ksat", "--size", "2", "--k", "3"],
    ])
    def test_gen_size_below_the_family_least_exits_1(self, tmp_path, capsys, argv):
        # Rejected while parsing, before manifest.json is written.
        out = tmp_path / "o"
        assert run([*argv, "--out", str(out)]) == EXIT_USAGE
        assert "--size" in json.loads(capsys.readouterr().err)["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("sampler", ["nelson", "moser"])
    @pytest.mark.parametrize("flag", ["--burn-in"])
    def test_gibbs_flag_on_a_resampler_exits_1(self, tmp_path, capsys, sampler, flag):
        cnf, theta = _write_toy(tmp_path)
        out = tmp_path / "o"
        code = run(["sample", "--cnf", str(cnf), "--theta", str(theta), "--sampler", sampler,
                    "--n", "5", flag, "3", "--out", str(out)])
        assert code == EXIT_USAGE
        assert flag in json.loads(capsys.readouterr().err)["error"]["message"]
        assert not out.exists()

    def test_eval_seed_without_grad_m_exits_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(["eval", "--cnf", "x.cnf", "--theta", "t.json", "--preferred", "p.txt",
                    "--unseen", "u.txt", "--seed", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "--seed" in json.loads(capsys.readouterr().err)["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("seed", [str(2**64), str(-(2**64)), "-1"])
    @pytest.mark.parametrize("command", ["gen", "sample", "train", "eval"])
    def test_seed_outside_u64_exits_1(self, tmp_path, capsys, command, seed):
        argv = {
            "gen": ["gen", "--family", "routes", "--size", "3"],
            "sample": ["sample", "--cnf", "c", "--theta", "t", "--sampler", "nelson", "--n", "5"],
            "train": ["train", "--cnf", "c", "--data", "d"],
            "eval": ["eval", "--cnf", "c", "--theta", "t", "--preferred", "p", "--unseen", "u",
                     "--grad-m", "5"],
        }[command]
        out = tmp_path / "o"
        assert run([*argv, f"--seed={seed}", "--out", str(out)]) == EXIT_USAGE
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "UsageError" and "2**64" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-3"])
    @pytest.mark.parametrize("command", ["sample", "eval"])
    def test_row_count_below_one_exits_1(self, tmp_path, capsys, command, count):
        # Rejected while parsing, before any input is read.
        argv, flag = {
            "sample": (["sample", "--cnf", "c", "--theta", "t", "--sampler", "nelson"], "--n"),
            "eval": (["eval", "--cnf", "c", "--theta", "t", "--preferred", "p", "--unseen", "u"],
                     "--grad-m"),
        }[command]
        out = tmp_path / "o"
        assert run([*argv, flag, count, "--out", str(out)]) == EXIT_USAGE
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "UsageError" and flag in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    @pytest.mark.parametrize("argv, flag, least", [
        (["sample", "--sampler", "nelson", "--n", "5"], "--tryout", 1),
        (["sample", "--sampler", "gibbs", "--n", "5"], "--tryout", 1),
        (["sample", "--sampler", "gibbs", "--n", "5"], "--burn-in", 1),
        (["train", "--data", "d"], "--tryout", 1),
        (["train", "--data", "d"], "--m", 1),
        (["train", "--data", "d"], "--nll-every", 1),
        (["train", "--data", "d"], "--iters", 0),
        (["train", "--data", "d"], "--eta", 1),
        (["train", "--data", "d"], "--eta", "inf"),
        (["gen", "--family", "sinkfree"], "--size", 1),
        (["gen", "--family", "ksat", "--size", "5"], "--k", 1),
        (["gen", "--family", "sinkfree", "--size", "5"], "--edge-prob", 1),
    ], ids=["sample-tryout", "gibbs-tryout", "gibbs-burn-in", "train-tryout", "train-m",
            "train-nll-every", "train-iters", "train-eta", "train-eta-inf", "gen-size", "gen-k",
            "gen-edge-prob"])
    def test_round_budget_below_one_exits_1(self, tmp_path, capsys, argv, flag, least, count):
        # Rejected while parsing, before manifest.json is written. The value
        # is `count` shifted below the flag's least accepted value (--iters
        # accepts 0, so it gets -1 and -3; --eta and --edge-prob must be
        # above 0). A str `least` is itself the value: --eta must be finite.
        cnf, theta = _write_toy(tmp_path)
        inputs = {"sample": ["--cnf", str(cnf), "--theta", str(theta)],
                  "train": ["--cnf", str(cnf)], "gen": []}[argv[0]]
        out = tmp_path / "o"
        value = least if isinstance(least, str) else str(int(count) + least - 1)
        assert run([*argv, *inputs, flag, value, "--out", str(out)]) == EXIT_USAGE
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "UsageError" and flag in error["message"]
        assert not out.exists()

    def test_thin_is_not_a_flag(self, tmp_path, capsys):
        # Each Gibbs chain emits its final state, so there is nothing to thin.
        cnf, theta = _write_toy(tmp_path)
        out = tmp_path / "o"
        code = run(["sample", "--cnf", str(cnf), "--theta", str(theta), "--sampler", "gibbs",
                    "--n", "5", "--thin", "2", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "--thin" in json.loads(capsys.readouterr().err)["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag, kind", [
        (["sample", "--cnf", "c", "--theta", "t", "--sampler", "nelson"], "--n", "positive_int"),
        (["sample", "--cnf", "c", "--theta", "t", "--sampler", "nelson", "--n", "5"], "--seed",
         "seed_value"),
        (["sample", "--cnf", "c", "--theta", "t", "--sampler", "gibbs", "--n", "5"], "--burn-in",
         "positive_int"),
        (["train", "--cnf", "c", "--data", "d"], "--tryout", "positive_int"),
    ], ids=["n", "seed", "burn-in", "tryout"])
    def test_non_integer_names_a_public_type(self, tmp_path, capsys, argv, flag, kind):
        out = tmp_path / "o"
        assert run([*argv, flag, "x", "--out", str(out)]) == EXIT_USAGE
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message == f"argument {flag}: invalid {kind} value: 'x'"
        assert not out.exists()

    def test_largest_seed_is_accepted(self, tmp_path):
        cnf, theta = _write_toy(tmp_path)
        out = tmp_path / "o"
        code = run(["sample", "--cnf", str(cnf), "--theta", str(theta), "--sampler", "nelson",
                    "--n", "5", "--seed", str(2**64 - 1), "--out", str(out)])
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["options"]["seed"] == 2**64 - 1

    def test_conditional_options_resolve_only_where_read(self):
        def options(*argv):
            return build_plan([*argv, "--out", "o"]).options

        assert (options("gen", "--family", "ksat", "--size", "5")["k"],
                options("gen", "--family", "sinkfree", "--size", "4")["edge_prob"]) == (5, 0.55)
        routes = options("gen", "--family", "routes", "--size", "3")
        assert routes["k"] is None and routes["edge_prob"] is None
        ev = ("eval", "--cnf", "c", "--theta", "t", "--preferred", "p", "--unseen", "u")
        assert options(*ev)["seed"] is None
        assert options(*ev, "--grad-m", "10")["seed"] == 0

    @pytest.mark.parametrize("command, name", [(command, name) for command, names
                                               in cli._READ_ONLY_BY.items() for name in names])
    def test_conditional_option_help_names_its_resolved_default(self, command, name):
        reading = {  # a run of each command that reads the option
            "k": ("--family", "ksat", "--size", "5"),
            "edge_prob": ("--family", "sinkfree", "--size", "4"),
            "burn_in": ("--cnf", "c", "--theta", "t", "--sampler", "gibbs", "--n", "1"),
            "seed": ("--cnf", "c", "--theta", "t", "--preferred", "p", "--unseen", "u",
                     "--grad-m", "10"),
        }
        resolved = build_plan([command, *reading[name], "--out", "o"]).options[name]
        subcommands = next(a for a in cli._build_parser()._actions if a.dest == "command")
        help_text = next(a.help for a in subcommands.choices[command]._actions if a.dest == name)
        assert help_text.endswith(f"(default: {resolved})")

    def test_usage_error_exits_1(self):
        assert run(["train", "--cnf", "x"]) == EXIT_USAGE

    def test_error_json_on_stderr(self, tmp_path, capsys):
        run(["train", "--cnf", "x"])
        err = capsys.readouterr().err
        payload = json.loads(err.strip())
        assert payload["error"]["exit_code"] == EXIT_USAGE


def test_module_entry_point(tmp_path):
    cnf = tmp_path / "toy.cnf"
    cnf.write_text(TOY_DIMACS)
    theta = tmp_path / "theta.json"
    save_model(ModelParams(np.zeros(3)), theta)
    out = tmp_path / "out"
    # The child imports the same cmrf as this process, installed or not.
    src = str(Path(cmrf.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cmrf.cli", "sample", "--cnf", str(cnf),
         "--theta", str(theta), "--sampler", "nelson", "--n", "10",
         "--seed", "0", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "samples.txt").exists()
