#!/usr/bin/env python3
"""Wall time and peak memory of `cmrf sample` as --n grows.

Each size runs in a fresh Python process that imports cmrf from --src,
writes the --instance with zero weights, then times one
`cmrf sample --sampler nelson --n N` call with perf_counter and reports its
own peak RSS (ru_maxrss). An instance is `sinkfree:V`, gen_sinkfree(V, 0.1,
seed=1), or `ksat:N`, gen_ksat(N, N, 3, seed=1) (what `cmrf gen --family
ksat --size N --k 3 --seed 1` writes). The results, with the git revision
of --src, the numpy version and the CPU count, are stored under --label in
the output JSON; other labels, and runs of other instances under the same
label, are kept, so checkouts and instance ladders can be compared in one
file:

    python scripts/bench_sample.py --label parent --src ../parent/src --sizes 10000 100000
    python scripts/bench_sample.py --label change
    python scripts/bench_sample.py --label change --instance ksat:10000 --sizes 1000
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

# Runs inside the child: argv[1] is the work directory, argv[2] the row
# count, argv[3] the instance.
_CHILD = """
import json, resource, sys, time
from pathlib import Path
import numpy as np
from cmrf import cli
from cmrf.model import ModelParams, save_model
from cmrf.problems import gen_ksat, gen_sinkfree, save_instance

work, n = Path(sys.argv[1]), sys.argv[2]
family, size = sys.argv[3].split(":")
if family == "sinkfree":
    inst = gen_sinkfree(int(size), 0.1, seed=1)
else:
    inst = gen_ksat(int(size), int(size), 3, seed=1)
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


def _instance(text: str) -> str:
    family, _, size = text.partition(":")
    if family not in ("sinkfree", "ksat") or not size.isdigit() or int(size) < 1:
        raise argparse.ArgumentTypeError(f"expected sinkfree:V or ksat:N, got {text!r}")
    return text


def _measure(src: Path, n: int, instance: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run([sys.executable, "-c", _CHILD, work, str(n), instance],
                              env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of these results in the output")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the cmrf package to measure")
    parser.add_argument("--sizes", type=int, nargs="+", default=[10_000, 100_000, 1_000_000])
    parser.add_argument("--instance", type=_instance, default="sinkfree:80",
                        help="sinkfree:V or ksat:N (default: sinkfree:80)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_sample_stream.json")
    args = parser.parse_args()

    src = args.src.resolve()
    runs = []
    for n in args.sizes:
        result = _measure(src, n, args.instance)
        print(f"{args.label}: {args.instance} n={n} wall {result['wall_s']:.2f} s, "
              f"peak RSS {result['peak_rss_mb']:.1f} MB, exit {result['exit_code']}")
        runs.append({"instance": args.instance, "n": n,
                     **{k: result[k] for k in ("exit_code", "wall_s", "peak_rss_mb")}})

    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report["workload"] = ("cmrf sample --sampler nelson --seed 1 on each run's instance "
                          "(sinkfree:V is gen_sinkfree(V, 0.1, seed=1), ksat:N is "
                          "gen_ksat(N, N, 3, seed=1)), zero weights; wall_s times cli.run "
                          "in a fresh process, peak_rss_mb is that process's ru_maxrss")
    kept = report.setdefault("results", {}).get(args.label, {}).get("runs", [])
    report["results"][args.label] = {
        "git_rev": _git_rev(src),
        "numpy": result["numpy"],
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "runs": [r for r in kept if r.get("instance") != args.instance] + runs,
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
