"""Benchmark of the cmrf command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout's root (paths resolve from this file). It writes the
workload's inputs from the seed, times the set-up, then calls `cmrf.cli.run`
in-process in a closed loop (one client, the next request only after the
last returns) for S seconds, checks every output, and prints a detail report
followed by one JSON line of metrics. With --trace 0 that line holds the
end-to-end metrics; with --trace 1 every second request runs with spans
around the package's public functions and the line holds the per-layer
metrics. `--workload all` runs every workload, each in a fresh process.
Exits 1 when an output check fails, 2 when the sources are absent or the
workload is unknown. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# One OpenBLAS thread: steadier on a shared 2-CPU machine, and the matmuls
# on these sizes gain little from a second thread.
BLAS_THREADS = "1"
SETUP_REPS = 7
TRACED_SETUP_REPS = 3
PEAK = "tensors.satisfaction_pass.peak_mb"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment() -> dict:
    import numpy as np

    rev = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            rev = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def _fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


def _file_digests(directory: Path) -> dict[str, str]:
    return {p.relative_to(directory).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _setup(name: str, seed: int, work: Path) -> tuple[float, Path, list[dict]]:
    """Write the inputs SETUP_REPS times, each in a fresh process; return the
    median wall time from process start to exit, the first input directory,
    and the digests of every repetition's files."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    script = Path(__file__).resolve().parent / "workloads.py"
    times, inputs = [], []
    for rep in range(SETUP_REPS):
        directory = work / f"inputs{rep}"
        start = time.perf_counter()
        # No timeout: with one, Popen.wait polls and rounds the time up to 50 ms.
        subprocess.run([sys.executable, str(script), name, str(seed), str(directory)],
                       env=env, check=True)
        times.append(time.perf_counter() - start)
        inputs.append(directory)
    return statistics.median(times), inputs[0], [_file_digests(d) for d in inputs]


def _traced_setup_seconds(tracer, name: str, seed: int, work: Path) -> float:
    """Median busy time of problems.gen_* over in-process traced set-ups."""
    import tracing
    import workloads

    seconds = []
    for rep in range(TRACED_SETUP_REPS):
        request = -1 - rep
        tracer.install(request)
        try:
            workloads.make_inputs(name, seed, work / f"traced_inputs{rep}")
        finally:
            tracer.uninstall()
        seconds.append(tracing.gen_seconds(tracer.totals()[request]))
    return statistics.median(seconds)


def _closed_loop(calls, seconds: float, tracer) -> list[dict]:
    """Send requests one after another until `seconds` have passed. With a
    tracer, every second request is traced, the first traced one with its
    memory peaks, and at least one untraced and one traced request are made."""
    import workloads
    from cmrf import cli

    records = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        if traced:
            tracer.install(len(records), memory=len(records) == 1)
        walls, codes = [], []
        try:
            for call in calls:
                start = time.perf_counter()
                codes.append(cli.run(list(call.argv)))
                walls.append(time.perf_counter() - start)
        finally:
            if traced:
                tracer.uninstall()
        records.append({
            "traced": traced,
            "wall_s": sum(walls),
            "call_walls": walls,
            "codes": codes,
            "digests": [workloads.digests(call) for call in calls],
        })
        if time.perf_counter() >= deadline and (tracer is None or len(records) >= 2):
            return records


def _verify(records, calls) -> tuple[list[str], list[dict]]:
    """Every call must exit 0 and every request write the same bytes; the
    files left on disk (the last request's) are then checked once for all.
    Returns the problems found and each call's check result."""
    import workloads

    problems = []
    failed = sum(code != 0 for r in records for code in r["codes"])
    if failed:
        problems.append(f"{failed} CLI calls exited nonzero")
    if any(r["digests"] != records[0]["digests"] for r in records):
        problems.append("requests with the same inputs wrote different outputs")
    checked = []
    for call in calls:
        try:
            checked.append(workloads.check(call))
        except (workloads.CheckError, OSError, ValueError, KeyError) as exc:
            problems.append(f"{type(exc).__name__}: {exc}")
    return problems, checked


def _layer_metrics(tracer, records, calls, gen_s: float, untraced_wall: float):
    """Per-layer metrics (name -> (value, unit)) and the traced wall time."""
    import tracing
    import workloads

    totals = tracer.totals()
    traced = [i for i, r in enumerate(records) if r["traced"]]
    timed = traced[1:] or traced  # the first traced request also ran tracemalloc
    layers = {key: statistics.median(tracing.layer_metrics(totals[i])[key] for i in timed)
              for key in tracing.layer_metrics(totals[timed[0]])}
    layers[PEAK] = tracing.layer_metrics(totals[traced[0]])[PEAK]
    traced_wall = statistics.median(records[i]["wall_s"] for i in timed)
    metrics = {key: (value, tracing.UNITS.get(key, "s")) for key, value in layers.items()}
    metrics["cli.output_bytes"] = (sum(workloads.output_bytes(call) for call in calls), "bytes")
    metrics["problems.gen.s"] = (gen_s, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics, {"median": traced_wall, "count": len(timed)}


def run_workload(args) -> int:
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    work = _fresh(WORK / args.workload)
    setup_s, inputs, input_digests = _setup(args.workload, args.seed, work)
    tracer = tracing.Tracer() if args.trace else None
    gen_s = _traced_setup_seconds(tracer, args.workload, args.seed, work) if tracer else None
    calls = workloads.calls(args.workload, args.seed, inputs, work / "out")
    records = _closed_loop(calls, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems, checked = _verify(records, calls)
    if any(d != input_digests[0] for d in input_digests):
        problems.append("set-up wrote different inputs for the same seed")
    correct = not problems
    requested = sum(call.requested for call in calls)
    valid_ops = sum(c["valid_ops"] for c in checked) if correct else 0
    valid_rows = sum(c["valid_rows"] for c in checked) if correct else 0
    plain = [r for r in records if not r["traced"]]
    wall_s = statistics.median(r["wall_s"] for r in plain)
    labels = [call.out.relative_to(work / "out").as_posix() for call in calls]
    call_wall_s = {label: statistics.median(r["call_walls"][k] for r in plain)
                   for k, label in enumerate(labels)}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _environment(),
        "requests": len(records),
        "untraced_request_wall_s": {
            "median": wall_s,
            "count": len(plain),
            "each": [round(r["wall_s"], 4) for r in plain],
        },
        "untraced_call_wall_s": call_wall_s,
        "failed_share": 1 - valid_ops / requested,
        "input_digests": input_digests[0],
        "output_digests": dict(zip(labels, records[-1]["digests"])),
        "problems": problems,
    }
    for label, call, result in zip(labels, calls, checked if correct else []):
        if call.command == "train":
            detail["cd_iters_per_s"] = call.requested / call_wall_s[label]
            detail["first_nll"] = result["first_nll"]
            detail["final_nll"] = result["final_nll"]

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "valid_rows_per_s": (valid_rows / wall_s, "1/s"),
            "valid_share": (valid_ops / requested, "share"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics, detail["traced_request_wall_s"] = _layer_metrics(
            tracer, records, calls, gen_s, wall_s)
        detail["unmeasured"] = sorted(set(tracer.missing) | tracer.hook_errors)
        tracer.write_csv(work / "spans.csv")
        detail["spans"] = str(work / "spans.csv")

    print(json.dumps(detail, indent=1))
    for key, (value, unit) in metrics.items():
        print(f"{args.workload:16s} {key:40s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(r["codes"]) for r in records),
        "failed": sum(code != 0 for r in records for code in r["codes"]),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process; print each report and one
    combined line keyed `<workload>.<metric>`."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        print(done.stdout, end="")
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "cmrf" / "__init__.py").is_file():
        print(f"perfbench: no cmrf package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # before numpy is imported
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
