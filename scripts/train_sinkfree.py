#!/usr/bin/env python3
"""End-to-end learning demo on a sink-free orientation instance.

Generates a random graph instance, draws a preference training set from
hidden ground-truth weights, trains a constrained MRF with
contrastive divergence, and reports exact NLL plus MAP@10 before and after.

Example:
    python scripts/train_sinkfree.py --vertices 8 --iters 300 --out /tmp/sinkfree-run
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from cmrf.learn import TrainConfig, neg_log_likelihood, save_trace_csv, train
from cmrf.metrics import map_at_10
from cmrf.model import ModelParams, save_model
from cmrf.oracle import EmptySupportError, EnumerationCapError, exact_distribution
from cmrf.problems import gen_sinkfree, gen_training_set, save_instance
from cmrf.samplers import SAMPLERS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=8)
    parser.add_argument("--train-size", type=int, default=200)
    parser.add_argument("--m", type=int, default=TrainConfig.m)
    parser.add_argument("--eta", type=float, default=TrainConfig.eta)
    parser.add_argument("--iters", type=int, default=300)
    parser.add_argument("--sampler", default="nelson", choices=sorted(SAMPLERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path("sinkfree-run"))
    args = parser.parse_args()

    inst = gen_sinkfree(args.vertices, seed=args.seed)
    cs = inst.constraints
    theta0 = ModelParams(np.zeros(cs.n_vars))
    # Some graphs (a tree, for one) have no sink-free orientation: stop here
    # rather than let the sampler spend its whole budget on one. The exact NLL
    # enumerates every orientation, so a graph with too many edges stops too.
    try:
        support = exact_distribution(cs, theta0).support
    except EmptySupportError:
        sys.exit(f"no sink-free orientation of this {args.vertices}-vertex graph "
                 f"({cs.n_vars} edges); try another --seed or more --vertices")
    except EnumerationCapError as exc:
        sys.exit(f"{exc}: the exact NLL enumerates every orientation of the "
                 f"{args.vertices}-vertex graph; try fewer --vertices")
    rng = np.random.default_rng(args.seed)
    theta_star = ModelParams(rng.uniform(-1, 1, cs.n_vars))
    ds = gen_training_set(inst, theta_star, args.train_size, seed=args.seed + 1)

    cfg = TrainConfig(
        m=args.m,
        eta=args.eta,
        t_max=args.iters,
        sampler_kind=args.sampler,
        seed=args.seed + 2,
        nll_every=max(1, args.iters // 10),
    )
    theta, trace = train(ds, cs, cfg, theta0)

    args.out.mkdir(parents=True, exist_ok=True)
    save_instance(inst, args.out / "instance.cnf", args.out / "instance.json")
    ds.save(args.out / "train.txt")
    save_model(theta, args.out / "model.json")
    save_trace_csv(trace, args.out / "trace.csv")

    counts = {}
    for r in ds.assignments:
        counts[tuple(r)] = counts.get(tuple(r), 0) + 1
    preferred = [np.array(r) for r in sorted(counts, key=lambda r: (-counts[r], r))[:10]]
    candidates = [row for row in support if tuple(row) not in counts]
    unseen = candidates[:: max(1, len(candidates) // 40)][:40]

    print(f"instance: {args.vertices} vertices, {cs.n_vars} edges, {cs.n_clauses} constraints")
    print(f"NLL     before {neg_log_likelihood(theta0, ds, cs):8.4f}"
          f"   after {neg_log_likelihood(theta, ds, cs):8.4f}")
    if unseen:
        print(f"MAP@10  before {map_at_10(theta0, preferred, unseen):8.2f}"
              f"   after {map_at_10(theta, preferred, unseen):8.2f}")
    else:
        print("MAP@10  skipped: the training set covers every valid assignment")
    print(f"artifacts in {args.out}")


if __name__ == "__main__":
    main()
