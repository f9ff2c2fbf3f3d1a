#!/usr/bin/env python3
"""Wall time and peak memory of `cmrf sample` as --n grows.

Each size runs in a fresh Python process that imports cmrf from --src,
writes gen_sinkfree(80, 0.1, seed=1) with zero weights, then times one
`cmrf sample --sampler nelson --n N` call with perf_counter and reports its
own peak RSS (ru_maxrss). The results, with the git revision of --src, the
numpy version and the CPU count, are stored under --label in the output
JSON; other labels already in that file are kept, so two checkouts can be
compared in one file:

    python scripts/bench_sample.py --label parent --src ../parent/src --sizes 10000 100000
    python scripts/bench_sample.py --label change
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

# Runs inside the child: argv[1] is the work directory, argv[2] the row count.
_CHILD = """
import json, resource, sys, time
from pathlib import Path
import numpy as np
from cmrf import cli
from cmrf.model import ModelParams, save_model
from cmrf.problems import gen_sinkfree, save_instance

work, n = Path(sys.argv[1]), sys.argv[2]
inst = gen_sinkfree(80, 0.1, seed=1)
save_instance(inst, work / "instance.cnf", work / "instance.json")
save_model(ModelParams(np.zeros(inst.constraints.n_vars)), work / "theta.json")
start = time.perf_counter()
code = cli.run(["sample", "--cnf", str(work / "instance.cnf"),
                "--theta", str(work / "theta.json"), "--sampler", "nelson",
                "--n", n, "--seed", "1", "--out", str(work / "out")])
wall = time.perf_counter() - start
print(json.dumps({
    "exit_code": code,
    "wall_s": wall,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "numpy": np.__version__,
}))
"""


def _git_rev(src: Path) -> str | None:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=src, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _measure(src: Path, n: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run([sys.executable, "-c", _CHILD, work, str(n)],
                              env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of these results in the output")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the cmrf package to measure")
    parser.add_argument("--sizes", type=int, nargs="+", default=[10_000, 100_000, 1_000_000])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_sample_stream.json")
    args = parser.parse_args()

    src = args.src.resolve()
    runs = []
    for n in args.sizes:
        result = _measure(src, n)
        print(f"{args.label}: n={n} wall {result['wall_s']:.2f} s, "
              f"peak RSS {result['peak_rss_mb']:.1f} MB, exit {result['exit_code']}")
        runs.append({"n": n, **{k: result[k] for k in ("exit_code", "wall_s", "peak_rss_mb")}})

    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report["workload"] = ("cmrf sample --sampler nelson --seed 1 on gen_sinkfree(80, 0.1, "
                          "seed=1), zero weights; wall_s times cli.run in a fresh process, "
                          "peak_rss_mb is that process's ru_maxrss")
    report.setdefault("results", {})[args.label] = {
        "git_rev": _git_rev(src),
        "numpy": result["numpy"],
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
