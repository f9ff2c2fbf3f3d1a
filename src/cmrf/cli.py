"""Command-line entry point.

Subcommands wire the generators, samplers, trainer, oracle and metrics into
file-based runs: every run takes explicit input paths, writes its artifacts
plus a manifest echoing the fully resolved plan, and draws random values from
the plan seed only (`oracle` enumerates and draws nothing, so it takes no
seed). Flag defaults are read from SamplerConfig and TrainConfig. Failures
exit with a stable code (1 usage or a failed allocation, 2 I/O, 3 infeasible
instance, 4 oracle enumeration cap, 5 sampler exhaustion) and a JSON error
object on stderr.
A run that goes on but cannot give what it was asked for writes a JSON
warning object on stderr: `gen --family sinkfree` when the graph it drew has
a tree component, which makes the instance unsatisfiable.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .cnf import ConstraintSet, Dataset, DimacsError, encode_words, load_constraints
from .learn import TrainConfig, save_trace_csv, train
from .metrics import grad_error, map_at_10, resample_stats, save_histogram_csv
from .model import ModelParams, load_model, save_model
from .oracle import (
    EmptySupportError,
    EnumerationCapError,
    exact_distribution,
    exact_grad_log_partition,
    expected_resamples,
)
from .problems import (SINKFREE_EDGE_PROB, gen_ksat, gen_routes, gen_sinkfree, instance_theta,
                       save_instance, tree_components)
from .samplers import SAMPLERS, SamplerConfig, SamplerExhaustedError, sample_stream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INFEASIBLE = 3
EXIT_CAP = 4
EXIT_EXHAUSTED = 5


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of exiting so errors map to code 1
        raise UsageError(message)


def seed_value(text: str) -> int:
    """A --seed value. The streams read a seed mod 2**64, so a seed outside
    [0, 2**64) would repeat the output of another while the manifest
    recorded a different one."""
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def positive_int(text: str) -> int:
    """A count that must be at least 1: rows (--n, --grad-m, --m), rounds
    (--tryout), sweeps (--burn-in), iterations (--nll-every), an instance
    size (--size) or a clause width (--k). argparse names this function in
    the message for a value that is not an integer."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def nonnegative_int(text: str) -> int:
    """A count that may be 0: training iterations (--iters)."""
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {count}")
    return count


def positive_float(text: str) -> float:
    """A finite value that must be above 0: the learning rate (--eta)."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be > 0 and finite, got {value}")
    return value


def probability(text: str) -> float:
    """A value in (0, 1]: the edge probability (--edge-prob)."""
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


@dataclass
class RunPlan:
    command: str
    options: dict


def _build_parser() -> _Parser:
    parser = _Parser(prog="cmrf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Each flag that several subcommands read is declared once, in a parent.
    inputs, theta, seed, tryout, out = (_Parser(add_help=False) for _ in range(5))
    inputs.add_argument("--cnf", required=True)
    inputs.add_argument("--groups", default=None)
    theta.add_argument("--theta", required=True)
    seed.add_argument("--seed", type=seed_value, default=0)
    tryout.add_argument("--tryout", type=positive_int, default=SamplerConfig.t_tryout)
    out.add_argument("--out", default=".", help="output directory (default: current)")

    gen = sub.add_parser("gen", parents=[seed, out], help="generate a benchmark instance")
    gen.add_argument("--family", required=True, choices=["ksat", "sinkfree", "routes"])
    gen.add_argument("--size", required=True, type=positive_int,
                     help="variables (ksat), vertices (sinkfree), cities (routes)")
    gen.add_argument("--k", type=positive_int, default=None,
                     help=f"clause width for ksat (default: {_READ_ONLY_BY['gen']['k'][1]})")
    gen.add_argument("--edge-prob", type=probability, default=None, help=(
        f"edge probability for sinkfree (default: {_READ_ONLY_BY['gen']['edge_prob'][1]})"))

    sample = sub.add_parser("sample", parents=[inputs, theta, seed, tryout, out],
                            help="draw assignments from a model")
    sample.add_argument("--sampler", required=True, choices=sorted(SAMPLERS))
    sample.add_argument("--n", required=True, type=positive_int, help="number of rows to draw")
    sample.add_argument("--burn-in", type=positive_int, default=None, help=(
        f"gibbs only: sweeps per chain (default: {_READ_ONLY_BY['sample']['burn_in'][1]})"))

    tr = sub.add_parser("train", parents=[inputs, seed, tryout, out],
                        help="contrastive-divergence training")
    tr.add_argument("--data", required=True)
    tr.add_argument("--m", type=positive_int, default=TrainConfig.m)
    tr.add_argument("--eta", type=positive_float, default=TrainConfig.eta)
    tr.add_argument("--iters", type=nonnegative_int, default=TrainConfig.t_max)
    tr.add_argument("--sampler", default=TrainConfig.sampler_kind, choices=sorted(SAMPLERS))
    tr.add_argument("--nll-every", type=positive_int, default=TrainConfig.nll_every)

    ev = sub.add_parser("eval", parents=[inputs, theta, out],
                        help="evaluate a model against assignment sets")
    ev.add_argument("--preferred", required=True)
    ev.add_argument("--unseen", required=True)
    ev.add_argument("--grad-m", type=positive_int, default=None,
                    help="also estimate gradient error with this many samples")
    ev.add_argument("--seed", type=seed_value, default=None, help=(
        f"seed of the --grad-m draws (default: {_READ_ONLY_BY['eval']['seed'][1]})"))

    orc = sub.add_parser("oracle", parents=[inputs, theta, out],
                         help="exact enumeration quantities")
    orc.add_argument("--what", required=True, choices=["dist", "grad", "resamples"])

    return parser


# Options that only some runs of a command read: command -> option -> (does
# this run read it, its default there). Given to a run that does not read it,
# the option is a usage error; left unset there, the plan holds None.
_READ_ONLY_BY = {
    "gen": {"k": (lambda o: o["family"] == "ksat", 5),
            "edge_prob": (lambda o: o["family"] == "sinkfree", SINKFREE_EDGE_PROB)},
    "sample": {"burn_in": (lambda o: o["sampler"] == "gibbs", SamplerConfig.gibbs_burn_in)},
    "eval": {"seed": (lambda o: o["grad_m"] is not None, 0)},
}


def build_plan(argv: list[str]) -> RunPlan:
    """Resolve argv into a fully defaulted plan; raises UsageError on bad input."""
    namespace = _build_parser().parse_args(argv)
    options = vars(namespace)
    command = options.pop("command")
    for name, (reads, default) in _READ_ONLY_BY.get(command, {}).items():
        if not reads(options):
            if options[name] is not None:
                flag = "--" + name.replace("_", "-")
                raise UsageError(f"{command}: this run does not read {flag}")
        elif options[name] is None:
            options[name] = default
    if command == "gen":  # the least size each generator can build
        least = options["k"] if options["family"] == "ksat" else 2
        if options["size"] < least:
            raise UsageError(f"gen: --size must be >= {least} for family {options['family']}, "
                             f"got {options['size']}")
    return RunPlan(command=command, options=options)


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_manifest(plan: RunPlan, outdir: Path) -> None:
    _write_json(
        outdir / "manifest.json",
        {
            "command": plan.command,
            "options": plan.options,
            "version": __version__,
        },
    )


def _run_gen(options: dict, outdir: Path, *_) -> int:
    family = options["family"]
    if family == "ksat":
        inst = gen_ksat(options["size"], options["size"], options["k"], seed=options["seed"])
    elif family == "sinkfree":
        inst = gen_sinkfree(options["size"], options["edge_prob"], seed=options["seed"])
        trees = tree_components(options["size"], inst.metadata["edges"])
        if trees:
            which = "a tree component" if len(trees) == 1 else f"{len(trees)} tree components"
            _warn(f"the graph has {which} of {', '.join(map(str, trees))} vertices; no "
                  "orientation of a tree is sink-free, so no row satisfies this instance",
                  tree_vertices=trees)
    else:
        inst = gen_routes(options["size"], seed=options["seed"])
    save_instance(inst, outdir / "instance.cnf", outdir / "instance.json")
    theta = instance_theta(inst)
    if theta is not None:
        save_model(theta, outdir / "theta.json")
    return EXIT_OK


# Rows per sampler call and per write in `sample`. Memory follows this, not
# --n: a split batch matches the whole batch bit for bit (row_offset).
_CHUNK_ROWS = 4096


def _write_stats(path: Path, rounds: np.ndarray, tally: np.ndarray, exhausted: int) -> None:
    """The bytes _write_json would give for {"exhausted", "per_constraint",
    "rounds"} (rounds nonempty), with rounds converted one slice at a time."""
    head = json.dumps({"exhausted": exhausted, "per_constraint": tally.tolist()},
                      sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head.removesuffix("\n}") + ',\n  "rounds": [')
        sep = "\n    "
        for start in range(0, rounds.size, _CHUNK_ROWS):
            fh.write(sep + ",\n    ".join(map(str, rounds[start:start + _CHUNK_ROWS].tolist())))
            sep = ",\n    "
        fh.write("\n  ]\n}\n")


def _run_sample(options: dict, outdir: Path, cs: ConstraintSet, theta: ModelParams) -> int:
    n = options["n"]
    cfg = SamplerConfig(batch_size=min(n, _CHUNK_ROWS), seed=options["seed"],
                        t_tryout=options["tryout"],
                        gibbs_burn_in=options["burn_in"] or SamplerConfig.gibbs_burn_in)
    rounds = np.empty(n, dtype=np.int64)
    tally = np.zeros(cs.n_constraints, dtype=np.int64)
    exhausted = 0
    start = 0
    with open(outdir / "samples.txt", "wb") as fh:  # the rows are never unpacked
        for batch, stats in sample_stream(cs, theta, options["sampler"], cfg, stop=n):
            size = batch.valid_flags.size
            fh.write(encode_words(batch.words, size, batch.valid_flags))
            rounds[start:start + size] = stats.rounds_per_row
            tally += stats.per_constraint_resamples
            exhausted += size - int(np.count_nonzero(batch.valid_flags))
            start += size
    _write_stats(outdir / "stats.json", rounds, tally, exhausted)
    save_histogram_csv(resample_stats(rounds), outdir / "histogram.csv")
    if exhausted == n:
        raise SamplerExhaustedError("every row exhausted its resampling budget")
    return EXIT_OK


def _run_train(options: dict, outdir: Path, cs: ConstraintSet, _theta) -> int:
    ds = Dataset.load(options["data"])  # train validates it against cs
    cfg = TrainConfig(
        m=options["m"],
        eta=options["eta"],
        t_max=options["iters"],
        sampler_kind=options["sampler"],
        seed=options["seed"],
        t_tryout=options["tryout"],
        nll_every=options["nll_every"],
    )
    theta0 = ModelParams(np.zeros(cs.n_vars))
    theta, trace = train(ds, cs, cfg, theta0)
    save_model(theta, outdir / "model.json")
    save_trace_csv(trace, outdir / "trace.csv")
    return EXIT_OK


def _run_eval(options: dict, outdir: Path, cs: ConstraintSet, theta: ModelParams) -> int:
    preferred = Dataset.load(options["preferred"], constraint_set=cs)
    unseen = Dataset.load(options["unseen"], constraint_set=cs)
    report = {"map_at_10": map_at_10(theta, preferred.assignments, unseen.assignments)}
    if options["grad_m"] is not None:
        report["grad_error_l1"] = grad_error(
            cs, theta, "nelson", options["grad_m"], seed=options["seed"]
        )
    _write_json(outdir / "report.json", report)
    return EXIT_OK


def _run_oracle(options: dict, outdir: Path, cs: ConstraintSet, theta: ModelParams) -> int:
    what = options["what"]
    if what == "dist":
        dist = exact_distribution(cs, theta)
        table = [  # the support's lexicographic order is the keys' order
            {"assignment": key, "prob": prob} for key, prob in dist.prob_table().items()
        ]
        _write_json(outdir / "dist.json", table)
        _write_json(outdir / "partition.json", {"log_partition": dist.log_partition})
    elif what == "grad":
        _write_json(outdir / "grad.json", {"grad": exact_grad_log_partition(cs, theta).tolist()})
    else:
        expectation = expected_resamples(cs, theta)
        _write_json(
            outdir / "resamples.json",
            {
                "q_empty": expectation.q_empty,
                "q_single": expectation.q_single.tolist(),
                "per_constraint": expectation.per_constraint_expected.tolist(),
                "total": expectation.total_expected,
            },
        )
    return EXIT_OK


_RUNNERS = {
    "gen": _run_gen,
    "sample": _run_sample,
    "train": _run_train,
    "eval": _run_eval,
    "oracle": _run_oracle,
}


def execute_plan(plan: RunPlan) -> int:
    """The one run pipeline: write the manifest, then load the instance and
    theta where the subcommand declares --cnf and --theta, check that their
    widths agree, and call the subcommand's runner on them."""
    options = plan.options
    outdir = Path(options["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    _write_manifest(plan, outdir)
    cs = load_constraints(options["cnf"], options["groups"]) if "cnf" in options else None
    theta = load_model(options["theta"]) if "theta" in options else None
    if theta is not None and theta.n != cs.n_vars:
        raise DimacsError(f"theta length {theta.n} does not match instance width {cs.n_vars}")
    return _RUNNERS[plan.command](options, outdir, cs, theta)


def _warn(message: str, **fields) -> None:
    """One JSON warning object on stderr; the run goes on."""
    print(json.dumps({"warning": {"message": message, **fields}}, sort_keys=True),
          file=sys.stderr)


def _fail(exit_code: int, exc: Exception) -> int:
    payload = {"error": {"exit_code": exit_code, "type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return exit_code


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return execute_plan(build_plan(argv))
    except DimacsError as exc:
        return _fail(EXIT_IO, exc)
    except (ValueError, MemoryError) as exc:  # UsageError is a ValueError
        return _fail(EXIT_USAGE, exc)
    except SamplerExhaustedError as exc:
        return _fail(EXIT_EXHAUSTED, exc)
    except EnumerationCapError as exc:
        return _fail(EXIT_CAP, exc)
    except EmptySupportError as exc:
        return _fail(EXIT_INFEASIBLE, exc)
    except OSError as exc:
        return _fail(EXIT_IO, exc)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
