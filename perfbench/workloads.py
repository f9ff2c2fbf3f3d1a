"""Benchmark workloads: the input files each one writes from a seed, the CLI
calls that make up one request, and the checks on what those calls write.

A workload is a list of components; each component has its own instance
(inputs under `<inputs>/<component>/`) and CLI calls. Run as a script, this
module writes one workload's inputs and exits; the benchmark times that
process to measure set-up:

    PYTHONPATH=src python3 perfbench/workloads.py <workload> <seed> <dir>

The instances are fixed; the seed picks the sampler and training streams and
the training set. Drawing the instance or its weights from the seed as well
would change the amount of work from seed to seed (mean rounds by 5-11% and
the routes valid share by 8% across ten seeds), which would swamp the
run-to-run spread the benchmark has to resolve.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cmrf import problems
from cmrf.cnf import load_constraints, satisfies_all
from cmrf.model import ModelParams, save_model

# Sizes. sinkfree uses 10k rows rather than 30k: a request takes about 1.7 s
# and peaks near 280 MB instead of 600 MB. The small_mix components are
# sized so that one request stays near 4 s.
SINKFREE_ROWS = 10_000
ROUTES_ROWS = 2_000
GIBBS_ROWS = 100
GIBBS_BURN_IN = 500
TRAIN_ROWS = 1_000
TRAIN_M = 200
TRAIN_ITERS = 100
TRAIN_NLL_EVERY = 25


class CheckError(Exception):
    """A CLI call wrote output that is wrong."""


@dataclass(frozen=True)
class Call:
    """One CLI call: its argv, the directory of its inputs and of its outputs,
    and the operations it requests (rows for `sample`, iterations for `train`)."""

    argv: list[str]
    inputs: Path
    out: Path
    requested: int

    @property
    def command(self) -> str:
        return self.argv[0]


def _save(inst, d: Path, theta: np.ndarray | None) -> None:
    d.mkdir(parents=True, exist_ok=True)
    problems.save_instance(inst, d / "instance.cnf", d / "instance.json")
    if theta is not None:
        save_model(ModelParams(theta), d / "theta.json")


def _sample_call(inputs: Path, outputs: Path, sampler: str, rows: int, seed: int,
                 *extra: str) -> Call:
    out = outputs / sampler
    argv = [
        "sample",
        "--cnf", str(inputs / "instance.cnf"),
        "--theta", str(inputs / "theta.json"),
        "--sampler", sampler,
        "--n", str(rows),
        "--seed", str(seed),
        "--out", str(out),
        *extra,
    ]
    return Call(argv=argv, inputs=inputs, out=out, requested=rows)


def _sinkfree_inputs(seed: int, d: Path) -> None:
    inst = problems.gen_sinkfree(80, 0.1, seed=1)
    _save(inst, d, np.zeros(inst.constraints.n_vars))


def _sinkfree_calls(seed: int, inputs: Path, outputs: Path) -> list[Call]:
    return [_sample_call(inputs, outputs, "nelson", SINKFREE_ROWS, seed)]


def _routes_inputs(seed: int, d: Path) -> None:
    inst = problems.gen_routes(5, seed=0)
    _save(inst, d, np.asarray(inst.metadata["theta"]))


def _routes_calls(seed: int, inputs: Path, outputs: Path) -> list[Call]:
    groups = ("--groups", str(inputs / "instance.json"))
    return [_sample_call(inputs, outputs, sampler, ROUTES_ROWS, seed, *groups)
            for sampler in ("nelson", "moser")]


def _gibbs_inputs(seed: int, d: Path) -> None:
    inst = problems.gen_sinkfree(30, 0.3, seed=1)
    _save(inst, d, np.zeros(inst.constraints.n_vars))


def _gibbs_calls(seed: int, inputs: Path, outputs: Path) -> list[Call]:
    burn_in = ("--burn-in", str(GIBBS_BURN_IN))
    return [_sample_call(inputs, outputs, "gibbs", GIBBS_ROWS, seed, *burn_in)]


def _train_inputs(seed: int, d: Path) -> None:
    inst = problems.gen_sinkfree(10, 0.5, seed=0)
    _save(inst, d, None)
    # Fixed target weights far enough from zero that NLL still falls over
    # every iteration run; the seed only picks which rows are drawn.
    theta_star = np.random.default_rng(0).uniform(-1.0, 1.0, inst.constraints.n_vars)
    ds = problems.gen_training_set(inst, ModelParams(theta_star), TRAIN_ROWS, seed=seed)
    ds.save(d / "train.txt")


def _train_calls(seed: int, inputs: Path, outputs: Path) -> list[Call]:
    out = outputs / "train"
    argv = [
        "train",
        "--cnf", str(inputs / "instance.cnf"),
        "--data", str(inputs / "train.txt"),
        "--sampler", "nelson",
        "--m", str(TRAIN_M),
        "--iters", str(TRAIN_ITERS),
        "--nll-every", str(TRAIN_NLL_EVERY),
        "--seed", str(seed),
        "--out", str(out),
    ]
    return [Call(argv=argv, inputs=inputs, out=out, requested=TRAIN_ITERS)]


# component -> (write its inputs, list its calls)
COMPONENTS = {
    "sinkfree": (_sinkfree_inputs, _sinkfree_calls),
    "routes": (_routes_inputs, _routes_calls),
    "gibbs": (_gibbs_inputs, _gibbs_calls),
    "train": (_train_inputs, _train_calls),
}

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "sinkfree_sample": ("sinkfree",),
    "small_mix": ("routes", "gibbs", "train"),
}


def make_inputs(workload: str, seed: int, d: Path) -> None:
    for component in WORKLOADS[workload]:
        COMPONENTS[component][0](seed, d / component)


def calls(workload: str, seed: int, inputs: Path, outputs: Path) -> list[Call]:
    """The CLI calls of one request, in order."""
    return [call for component in WORKLOADS[workload]
            for call in COMPONENTS[component][1](seed, inputs / component, outputs / component)]


def _trace_without_wall(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    drop = rows[0].index("wall_ms")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [cell for k, cell in enumerate(row) if k != drop] for row in rows
    )
    return buf.getvalue()


DIGESTED = {
    "sample": ("samples.txt", "stats.json", "histogram.csv"),
    "train": ("model.json", "trace.csv"),
}


def digests(call: Call) -> dict[str, str]:
    """sha256 of each deterministic output of a call (trace.csv without its
    wall_ms column). A missing file digests as None."""
    out = {}
    for name in DIGESTED[call.command]:
        path = call.out / name
        if not path.is_file():
            out[name] = None
            continue
        data = path.read_bytes()
        if name == "trace.csv":
            data = _trace_without_wall(data.decode("utf-8")).encode("utf-8")
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def output_bytes(call: Call) -> int:
    return sum(p.stat().st_size for p in call.out.iterdir() if p.is_file())


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _check_sample(call: Call) -> dict:
    groups = call.inputs / "instance.json" if "--groups" in call.argv else None
    cs = load_constraints(call.inputs / "instance.cnf", groups)
    lines = (call.out / "samples.txt").read_text(encoding="utf-8").splitlines()
    _require(len(lines) == call.requested,
             f"{call.out}: {len(lines)} sample lines, expected {call.requested}")
    invalid = [line.endswith(" INVALID") for line in lines]
    bits = [line.removesuffix(" INVALID") for line in lines]
    _require(all(len(b) == cs.n_vars and set(b) <= {"0", "1"} for b in bits),
             f"{call.out}: a sample line is not a {cs.n_vars}-bit string")
    rows = np.frombuffer("".join(bits).encode("ascii"), dtype=np.uint8).reshape(-1, cs.n_vars) - 48
    valid = ~np.asarray(invalid, dtype=bool)
    ok = satisfies_all(cs, rows)
    _require(bool(ok[valid].all()),
             f"{call.out}: {int((~ok[valid]).sum())} rows not marked INVALID violate a constraint")
    stats = json.loads((call.out / "stats.json").read_text(encoding="utf-8"))
    _require(stats["exhausted"] == int((~valid).sum()),
             f"{call.out}: stats.json exhausted={stats['exhausted']}, "
             f"but {int((~valid).sum())} rows are INVALID")
    return {"valid_ops": int(valid.sum()), "valid_rows": int(valid.sum())}


def _check_train(call: Call) -> dict:
    model = json.loads((call.out / "model.json").read_text(encoding="utf-8"))
    theta = np.asarray(model["theta"], dtype=np.float64)
    _require(bool(np.isfinite(theta).all()), f"{call.out}: theta is not finite")
    with open(call.out / "trace.csv", encoding="utf-8", newline="") as fh:
        trace = list(csv.DictReader(fh))
    _require(len(trace) == call.requested,
             f"{call.out}: {len(trace)} trace rows, expected {call.requested}")
    nll = [float(row["nll"]) for row in trace if row["nll"]]
    _require(len(nll) >= 2, f"{call.out}: fewer than two traced NLL values")
    _require(nll[-1] < nll[0], f"{call.out}: final NLL {nll[-1]} is not below first {nll[0]}")
    return {
        "valid_ops": call.requested,
        "valid_rows": TRAIN_M * call.requested,
        "first_nll": nll[0],
        "final_nll": nll[-1],
    }


def check(call: Call) -> dict:
    """Check the outputs a call left on disk; raises CheckError when wrong.

    Returns the valid operations (rows or iterations), the valid rows the
    call delivered (for `train`, the model rows its CD steps consumed), and
    for `train` the first and last traced NLL.
    """
    if call.command == "sample":
        return _check_sample(call)
    return _check_train(call)


if __name__ == "__main__":
    make_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
