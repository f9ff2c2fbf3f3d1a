#!/usr/bin/env python3
"""Wall time, valid rows/s, rounds and peak memory of `cmrf sample`, and
wall time and peak memory of `cmrf train` and `cmrf oracle`.

Each size runs in a fresh Python process that imports cmrf from --src,
writes the --instance with its weights, then times one
`cmrf sample --sampler S --n N` call with perf_counter and reports its
own peak RSS (ru_maxrss) and what the call wrote to stats.json. An instance
is `sinkfree:V`, gen_sinkfree(V, 0.1, seed=1) with zero weights, `ksat:N`,
gen_ksat(N, N, 3, seed=1) with zero weights (what `cmrf gen --family ksat
--size N --k 3 --seed 1` writes), or `routes:C`, gen_routes(C, seed=0) with
its exactly-one groups and instance weights. Two more spread the constraint
widths and variable degrees that ksat:N keeps narrow, with zero weights:
`wide:N` adds one clause holding all N variables, positive (widths 3 and N),
and `hub:N` adds a variable N, positive, to every clause (variable N in
all N clauses, the others in about 3). `mixed:C` is routes:C plus the clauses
of gen_sinkfree(10, 0.5, seed=0) moved onto 20 more variables with zero
weight, so a gibbs run has free variables next to the groups' members. Each
run reports `wall_s`, `peak_rss_mb`, `exhausted` (INVALID rows),
`valid_share` (valid rows / N), `valid_rows_per_s` (valid rows / wall_s),
`mean_rounds` (mean of the rounds in stats.json; for gibbs the burn-in,
after which each chain emits) and `samples_sha256`, the digest of samples.txt, which shows whether two
checkouts wrote the same rows.
`--burn-in N` is passed to `cmrf sample` for gibbs runs only, and a gibbs
run records it as `burn_in` (null: the CLI default).
`--command train` times `cmrf train --sampler S --m N --iters 100
--nll-every 25 --seed 1` instead, N taken from --sizes (default 200), on
1000 training rows that gen_training_set draws (seed 1) under fixed weights
uniform in [-1, 1] (numpy default_rng(0)); the run reports `wall_s`,
`peak_rss_mb` and `model_sha256`, the digest of model.json. `--command
oracle` times `cmrf oracle --what dist` once per repeat, the instance
setting its size (--sizes and --sampler are refused; the run records n and
sampler as null), and reports `wall_s`, `peak_rss_mb` and `dist_sha256`,
the digest of dist.json. Every run records its `command`.
The results, with the git revision of --src, the numpy version and the CPU
count, are stored under --label in the output JSON; other labels, and runs
of other commands, instances or samplers under the same label, are kept, so
checkouts and instance ladders can be compared in one file. A call replaces
the runs of its (label, command, instance, sampler, burn-in) unless
`--append` is given, which adds to them, so two checkouts' repeats can
alternate one call at a time:

    python scripts/bench_sample.py --label parent --src ../parent/src --sizes 10000 100000
    python scripts/bench_sample.py --label change
    python scripts/bench_sample.py --label change --instance ksat:10000 --sizes 1000
    python scripts/bench_sample.py --label change --instance hub:10000 --sizes 1000
    python scripts/bench_sample.py --label change --instance routes:5 --sampler moser \
        --sizes 2000 --repeats 5 --out BENCH_masked_draws.json
    python scripts/bench_sample.py --label change --instance sinkfree:30 --sampler gibbs \
        --burn-in 500 --sizes 100 1000 --out BENCH_gibbs_chains.json
    python scripts/bench_sample.py --label change --command train --instance ksat:20
    python scripts/bench_sample.py --label change --command oracle --instance ksat:20
    for i in 1 2 3; do
        python scripts/bench_sample.py --append --label parent --src ../parent/src --sizes 10000
        python scripts/bench_sample.py --append --label change --sizes 10000
    done
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs inside the child: argv[1] is the work directory, argv[2] the command,
# argv[3] the size, argv[4] the instance, argv[5] the sampler, argv[6:] more
# CLI flags.
_CHILD = """
import hashlib, json, resource, sys, time
from dataclasses import replace
from pathlib import Path
import numpy as np
from cmrf import cli
from cmrf.cnf import Clause, ConstraintSet, Literal
from cmrf.model import ModelParams, save_model
from cmrf.problems import (gen_ksat, gen_routes, gen_sinkfree, gen_training_set, instance_theta,
                           save_instance)

work, command, n, sampler = Path(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[5]
family, size = sys.argv[4].split(":")
if family == "sinkfree":
    inst = gen_sinkfree(int(size), 0.1, seed=1)
elif family in ("routes", "mixed"):
    inst = gen_routes(int(size), seed=0)
    if family == "mixed":  # gen_sinkfree(10, 0.5, seed=0)'s clauses on 20 more variables
        extra, shift = gen_sinkfree(10, 0.5, seed=0).constraints, inst.constraints.n_vars
        inst.constraints = replace(inst.constraints, n_vars=shift + extra.n_vars, clauses=tuple(
            Clause(tuple(Literal(lit.variable_index + shift, lit.negated) for lit in c.literals))
            for c in extra.clauses))
        inst.metadata["theta"] += [0.0] * extra.n_vars
else:  # ksat, wide and hub all hold the clauses of gen_ksat(N, N, 3, seed=1)
    inst, N = gen_ksat(int(size), int(size), 3, seed=1), int(size)
    cs = inst.constraints
    if family == "wide":
        every = Clause(tuple(map(Literal, range(N))))
        inst.constraints = replace(cs, clauses=cs.clauses + (every,))
    elif family == "hub":
        inst.constraints = ConstraintSet(n_vars=N + 1, clauses=tuple(
            Clause(c.literals + (Literal(N),)) for c in cs.clauses))
save_instance(inst, work / "instance.cnf", work / "instance.json")
theta = instance_theta(inst)
save_model(theta or ModelParams(np.zeros(inst.constraints.n_vars)), work / "theta.json")
inputs = ["--cnf", str(work / "instance.cnf"), "--groups", str(work / "instance.json")]
out = ["--out", str(work / "out")]
if command == "sample":
    argv = ["sample", *inputs, "--theta", str(work / "theta.json"), "--sampler", sampler,
            "--n", n, "--seed", "1", *out, *sys.argv[6:]]
elif command == "train":
    theta_star = np.random.default_rng(0).uniform(-1.0, 1.0, inst.constraints.n_vars)
    gen_training_set(inst, ModelParams(theta_star), 1000, seed=1).save(work / "train.txt")
    argv = ["train", *inputs, "--data", str(work / "train.txt"), "--sampler", sampler,
            "--m", n, "--iters", "100", "--nll-every", "25", "--seed", "1", *out]
else:
    argv = ["oracle", *inputs, "--theta", str(work / "theta.json"), "--what", "dist", *out]
start = time.perf_counter()
code = cli.run(argv)
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def digest(name):
    path = work / "out" / name
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


result = {"exit_code": code, "wall_s": wall, "peak_rss_mb": peak, "numpy": np.__version__}
if command == "train":
    result["model_sha256"] = digest("model.json")
elif command == "oracle":
    result["dist_sha256"] = digest("dist.json")
else:
    stats_path = work / "out" / "stats.json"
    stats = json.loads(stats_path.read_text()) if stats_path.exists() else None
    valid = None if stats is None else int(n) - stats["exhausted"]
    result.update({
        "exhausted": None if stats is None else stats["exhausted"],
        "valid_share": None if stats is None else valid / int(n),
        "valid_rows_per_s": None if stats is None else valid / wall,
        "mean_rounds": None if stats is None else float(np.mean(stats["rounds"])),
        "samples_sha256": digest("samples.txt"),
    })
print(json.dumps(result))
"""

RUN_KEYS = {
    "sample": ("exit_code", "wall_s", "peak_rss_mb", "exhausted", "valid_share",
               "valid_rows_per_s", "mean_rounds", "samples_sha256"),
    "train": ("exit_code", "wall_s", "peak_rss_mb", "model_sha256"),
    "oracle": ("exit_code", "wall_s", "peak_rss_mb", "dist_sha256"),
}


def _git_rev(src: Path) -> str | None:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=src, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


_FAMILIES = ("sinkfree", "ksat", "wide", "hub", "routes", "mixed")


def _instance(text: str) -> str:
    family, _, size = text.partition(":")
    if family not in _FAMILIES or not size.isdigit() or int(size) < 1:
        raise argparse.ArgumentTypeError(
            f"expected one of {', '.join(f'{f}:N' for f in _FAMILIES)}, got {text!r}")
    return text


def _measure(src: Path, command: str, n: int | None, instance: str, sampler: str | None,
             flags: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run([sys.executable, "-c", _CHILD, work, command, str(n), instance,
                               str(sampler), *flags],
                              env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of these results in the output")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the cmrf package to measure")
    parser.add_argument("--command", choices=sorted(RUN_KEYS), default="sample",
                        help="the cmrf subcommand to time (default: sample)")
    parser.add_argument("--sizes", type=int, nargs="+", default=None,
                        help="sample: --n per run (default: 10000 100000 1000000); "
                             "train: --m per run (default: 200); oracle: refused")
    parser.add_argument("--instance", type=_instance, default="sinkfree:80",
                        help="sinkfree:V, ksat:N, wide:N, hub:N, routes:C or mixed:C "
                             "(default: sinkfree:80)")
    parser.add_argument("--sampler", choices=["nelson", "moser", "gibbs"], default=None,
                        help="sample and train: the sampler (default: nelson)")
    parser.add_argument("--burn-in", type=int, default=None,
                        help="sample --sampler gibbs only: sweeps per chain (default: the CLI's)")
    parser.add_argument("--repeats", type=int, default=1, help="runs per size")
    parser.add_argument("--append", action="store_true",
                        help="add these runs to the stored ones of the same label, command, "
                             "instance, sampler and burn-in instead of replacing them")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_sample_stream.json")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    sizes = {"sample": [10_000, 100_000, 1_000_000], "train": [200], "oracle": [None]}
    if args.command == "oracle":
        for flag, value in (("--sizes", args.sizes), ("--sampler", args.sampler)):
            if value is not None:
                parser.error(f"{flag} is not read by --command oracle")
    elif args.sampler is None:
        args.sampler = "nelson"
    flags, key = [], (args.command, args.instance, args.sampler, None)
    if args.burn_in is not None:
        if args.command != "sample" or args.sampler != "gibbs":
            parser.error("--burn-in is read by --sampler gibbs of --command sample only")
        if args.burn_in < 1:
            parser.error("--burn-in must be >= 1")
        flags, key = ["--burn-in", str(args.burn_in)], key[:3] + (args.burn_in,)

    src = args.src.resolve()
    runs = []
    for n in args.sizes or sizes[args.command]:
        for _ in range(args.repeats):
            result = _measure(src, args.command, n, args.instance, args.sampler, flags)
            rate = result.get("valid_rows_per_s")
            print(f"{args.label}: {args.command} {args.sampler or '-'} {args.instance} n={n} "
                  f"wall {result['wall_s']:.2f} s, "
                  f"{'-' if rate is None else f'{rate:.0f}'} valid rows/s, "
                  f"peak RSS {result['peak_rss_mb']:.1f} MB, exit {result['exit_code']}")
            run = {"command": args.command, "instance": args.instance, "sampler": args.sampler,
                   "n": n, **{k: result[k] for k in RUN_KEYS[args.command]}}
            if args.sampler == "gibbs" and args.command == "sample":
                run["burn_in"] = args.burn_in
            runs.append(run)

    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report["workload"] = ("cmrf sample --seed 1 with each run's sampler on each run's "
                          "instance, or for a run whose command is train `cmrf train --m n "
                          "--iters 100 --nll-every 25 --seed 1` on 1000 gen_training_set "
                          "rows, for oracle `cmrf oracle --what dist` "
                          "(sinkfree:V is gen_sinkfree(V, 0.1, seed=1) and ksat:N "
                          "gen_ksat(N, N, 3, seed=1), both with zero weights; wide:N is "
                          "ksat:N plus one positive clause over all N variables and hub:N "
                          "ksat:N with a new variable N added positive to every clause, "
                          "both with zero weights; routes:C is "
                          "gen_routes(C, seed=0) with its groups and weights, and mixed:C "
                          "routes:C plus the clauses of gen_sinkfree(10, 0.5, seed=0) on 20 "
                          "more variables with zero weight); wall_s times "
                          "cli.run in a fresh process, peak_rss_mb is that process's "
                          "ru_maxrss, the rest comes from stats.json")
    kept = report.setdefault("results", {}).get(args.label, {}).get("runs", [])
    report["results"][args.label] = {
        "git_rev": _git_rev(src),
        "numpy": result["numpy"],
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "runs": [r for r in kept
                 if args.append
                 or (r.get("command", "sample"), r.get("instance"), r.get("sampler", "nelson"),
                     r.get("burn_in")) != key]
                + runs,
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
