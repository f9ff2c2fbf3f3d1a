"""The demo scripts under scripts/ run end to end on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import cmrf

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(tmp_path, name, *args):
    # The child imports the same cmrf as this process, installed or not.
    src = str(Path(cmrf.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=120,
    )


def test_sampler_bias_check(tmp_path):
    proc = _run_script(tmp_path, "sampler_bias_check.py",
                       "--draws", "2000", "--vertices", "4", "--instances", "2")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 1 + 2 * 2  # header, two weights per instance


def test_train_sinkfree(tmp_path):
    out = tmp_path / "run"
    proc = _run_script(tmp_path, "train_sinkfree.py", "--vertices", "8", "--iters", "5",
                       "--train-size", "50", "--m", "50", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "NLL" in proc.stdout
    assert {"model.json", "trace.csv", "train.txt"} <= {p.name for p in out.iterdir()}


def test_train_sinkfree_with_moser(tmp_path):
    out = tmp_path / "run"
    proc = _run_script(tmp_path, "train_sinkfree.py", "--vertices", "8", "--iters", "3",
                       "--train-size", "50", "--m", "50", "--sampler", "moser",
                       "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert len((out / "trace.csv").read_text().splitlines()) == 4


def test_train_sinkfree_without_orientation_exits_1(tmp_path):
    # Seed 0 draws a 5-vertex tree, which has no sink-free orientation.
    proc = _run_script(tmp_path, "train_sinkfree.py", "--vertices", "5",
                       "--out", str(tmp_path / "run"))
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and "no sink-free orientation" in proc.stderr
    assert not (tmp_path / "run").exists()


def test_train_sinkfree_above_enumeration_cap_exits_1(tmp_path):
    # Seed 0 draws 33 edges on 12 vertices, above the exact NLL's enumeration cap.
    proc = _run_script(tmp_path, "train_sinkfree.py", "--vertices", "12",
                       "--out", str(tmp_path / "run"))
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and "enumeration cap 25" in proc.stderr
    assert not (tmp_path / "run").exists()


def test_bench_sample(tmp_path):
    out = tmp_path / "bench.json"
    for sampler in ("nelson", "moser", "gibbs"):
        proc = _run_script(tmp_path, "bench_sample.py", "--label", "t", "--instance", "routes:3",
                           "--sampler", sampler, "--sizes", "40", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    proc = _run_script(tmp_path, "bench_sample.py", "--label", "t", "--instance", "routes:3",
                       "--sampler", "gibbs", "--burn-in", "3", "--sizes", "40", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(out.read_text())["results"]["t"]["runs"]
    assert [run["sampler"] for run in runs] == ["nelson", "moser", "gibbs", "gibbs"]
    for run in runs:
        assert run["exit_code"] == 0 and run["n"] == 40 and run["instance"] == "routes:3"
        assert run["valid_share"] == (40 - run["exhausted"]) / 40
        assert run["valid_rows_per_s"] > 0 and run["mean_rounds"] >= 1
    assert [run.get("burn_in", "-") for run in runs] == ["-", "-", None, 3]
    assert runs[3]["mean_rounds"] == 3  # every chain runs the burn-in, then emits
    # Only the burn-in differs between the two gibbs runs; routes chains never move.
    assert runs[2]["samples_sha256"] == runs[3]["samples_sha256"]
    assert len({run["samples_sha256"] for run in runs}) == 3


def test_bench_sample_append(tmp_path):
    # --append adds to the runs of a key; without it a call replaces them.
    out = tmp_path / "bench.json"

    def bench(*extra):
        proc = _run_script(tmp_path, "bench_sample.py", "--label", "t", "--instance", "routes:3",
                           "--sizes", "40", "--out", str(out), *extra)
        assert proc.returncode == 0, proc.stderr
        return json.loads(out.read_text())["results"]["t"]["runs"]

    bench()
    bench("--sampler", "moser")
    runs = bench("--append")
    assert [run["sampler"] for run in runs] == ["nelson", "moser", "nelson"]
    assert runs[0]["samples_sha256"] == runs[2]["samples_sha256"]
    assert [run["sampler"] for run in bench()] == ["moser", "nelson"]


def test_bench_sample_skewed_instances(tmp_path):
    # wide:N and hub:N spread the clause widths and variable degrees of ksat:N;
    # mixed:C puts clauses on free variables next to the groups of routes:C.
    out = tmp_path / "bench.json"
    for instance in ("ksat:12", "wide:12", "hub:12", "mixed:3"):
        proc = _run_script(tmp_path, "bench_sample.py", "--label", "t", "--instance", instance,
                           "--sizes", "40", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    runs = json.loads(out.read_text())["results"]["t"]["runs"]
    assert [run["instance"] for run in runs] == ["ksat:12", "wide:12", "hub:12", "mixed:3"]
    assert all(run["exit_code"] == 0 and run["valid_share"] > 0 for run in runs)


def test_bench_sample_train_and_oracle(tmp_path):
    # --command train times `cmrf train` at each --m, --command oracle one
    # `cmrf oracle --what dist` per repeat; both write the same bytes twice.
    out = tmp_path / "bench.json"
    for extra in (("--command", "train", "--sizes", "20"),
                  ("--command", "oracle", "--repeats", "2")):
        proc = _run_script(tmp_path, "bench_sample.py", "--label", "t", "--instance", "ksat:8",
                           "--append", "--out", str(out), *extra)
        assert proc.returncode == 0, proc.stderr
    proc = _run_script(tmp_path, "bench_sample.py", "--label", "t", "--instance", "ksat:8",
                       "--append", "--out", str(out), "--command", "train", "--sizes", "20")
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(out.read_text())["results"]["t"]["runs"]
    assert [(run["command"], run["sampler"], run["n"]) for run in runs] == [
        ("train", "nelson", 20), ("oracle", None, None), ("oracle", None, None),
        ("train", "nelson", 20)]
    assert all(run["exit_code"] == 0 and run["wall_s"] > 0 for run in runs)
    assert runs[0]["model_sha256"] == runs[3]["model_sha256"] is not None
    assert runs[1]["dist_sha256"] == runs[2]["dist_sha256"] is not None
    assert "valid_rows_per_s" not in runs[0] and "model_sha256" not in runs[1]
    for extra in (("--sizes", "10"), ("--sampler", "moser")):
        proc = _run_script(tmp_path, "bench_sample.py", "--label", "t", "--command", "oracle",
                           "--instance", "ksat:8", "--out", str(out), *extra)
        assert proc.returncode == 2 and extra[0] in proc.stderr
    proc = _run_script(tmp_path, "bench_sample.py", "--label", "t", "--command", "train",
                       "--sampler", "gibbs", "--burn-in", "3", "--instance", "ksat:8",
                       "--out", str(out))
    assert proc.returncode == 2 and "--burn-in" in proc.stderr
    assert len(json.loads(out.read_text())["results"]["t"]["runs"]) == 4


def test_bench_sample_burn_in_is_gibbs_only(tmp_path):
    proc = _run_script(tmp_path, "bench_sample.py", "--label", "t", "--instance", "routes:3",
                       "--sampler", "nelson", "--burn-in", "3", "--sizes", "40",
                       "--out", str(tmp_path / "bench.json"))
    assert proc.returncode == 2 and "--burn-in" in proc.stderr
    assert not (tmp_path / "bench.json").exists()


def test_every_script_has_a_case():
    # Each scripts/NAME.py is run by a test_NAME case in this module.
    missing = [p.name for p in sorted(SCRIPTS.glob("*.py")) if f"test_{p.stem}" not in globals()]
    assert missing == []
