"""Constraint-aware samplers for single-variable-form constrained MRFs.

Three samplers share one contract: draw a batch of assignments whose valid
rows are distributed according to the constrained model.

* nelson_sample: start from independent per-variable draws, then repeatedly
  redraw every variable belonging to any currently violated constraint until
  none is violated. On extremal constraint sets the terminated rows are exact
  draws from the constrained distribution.
* moser_tardos_sample: identical, except each round redraws the variables of
  a single violated constraint (the lowest-indexed one).
* gibbs_sample: single-site conditional-resampling chain with burn-in and
  thinning. It starts from a valid assignment and every update keeps it
  valid, so the current value of a site is always a feasible choice.

SAMPLERS names them nelson, moser and gibbs. draw_valid_rows collects a
fixed number of valid rows from any of them, redrawing tryout-exhausted
batches with derived seeds.

All randomness is counter-based (see rng): a draw for (row, round, variable)
never depends on batch size or scheduling, so batched and sequential runs are
bit-identical and every run is reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .cnf import ConstraintSet, Literal
from .model import ModelParams, marginals
from .rng import bernoulli_cells, bernoulli_field, bernoulli_threshold, fold_seed, uniform_field


class SamplerExhaustedError(RuntimeError):
    """The sampler could not produce the requested valid rows."""


@dataclass
class SamplerConfig:
    batch_size: int
    seed: int = 0
    t_tryout: int = 1000
    gibbs_burn_in: int = 1000
    gibbs_thinning: int = 10
    row_offset: int = 0     # first global row index; makes split batches reproducible
    record: bool = False    # keep per-row sequences of violated-constraint sets

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.t_tryout < 1:
            raise ValueError("t_tryout must be >= 1")
        if self.gibbs_burn_in < 1 or self.gibbs_thinning < 1:
            raise ValueError("gibbs_burn_in and gibbs_thinning must be >= 1")


@dataclass
class AssignmentBatch:
    rows: np.ndarray          # (b, n) uint8
    valid_flags: np.ndarray   # (b,) bool; True only for rows satisfying all constraints


@dataclass
class SamplerStats:
    rounds_per_row: np.ndarray           # (b,) int64 satisfaction-check rounds
    per_constraint_resamples: np.ndarray  # (n_constraints,) int64 resample events
    records: list[list[frozenset[int]]] | None = None
    exhausted: int = 0


def _pack(lists) -> tuple[np.ndarray, np.ndarray]:
    """Ragged integer lists as (len(lists), K) values and a liveness mask, K
    the longest length. Dead slots repeat the row's first value (0 for an
    empty row), so they index something valid and the mask drops them."""
    width = max(map(len, lists), default=0)
    values = np.zeros((len(lists), width), dtype=np.intp)
    live = np.zeros((len(lists), width), dtype=bool)
    for r, row in enumerate(lists):
        if row:
            values[r] = row[0]
            values[r, : len(row)] = row
            live[r, : len(row)] = True
    return values, live


class _ConstraintKernel:
    """Every constraint, clause or exactly-one group, as one row of slots.

    idx[j] holds the variables of constraint j, neg[j] the negation of each
    literal (never set for groups) and live[j] which slots are real. A
    constraint is violated when the count of its true literals is 0 (clause)
    or differs from 1 (group). var_c[i] and var_live[i] are the transposed
    lists: the constraints that contain variable i.

    The counts run over the batch transposed, one contiguous row per
    variable: row v of a (2n, rows) table is x_v and row n + v its negation.
    Constraints are sorted widest first, so those with a k-th literal are a
    prefix, and slots[k] names the table row of each one's k-th literal;
    adding those rows slot by slot costs one row copy and add per literal,
    and the table holds 2n bytes per row. The count dtype holds the widest
    constraint, so counts are exact at any width.
    """

    def __init__(self, cs: ConstraintSet):
        literals = [cl.literals for cl in cs.clauses]
        literals += [[Literal(v) for v in sorted(g)] for g in cs.exactly_one_groups]
        self.n = cs.n_vars
        self.is_group = np.arange(len(literals)) >= cs.n_clauses
        self.idx, self.live = _pack([[lit.variable_index for lit in row] for row in literals])
        neg, _ = _pack([[lit.negated for lit in row] for row in literals])
        self.neg = neg.astype(bool)
        width = self.live.sum(axis=1)
        order = np.argsort(-width, kind="stable")
        literal = np.ascontiguousarray((self.idx + self.n * self.neg)[order].T)
        having = (width[:, None] > np.arange(literal.shape[0])).sum(axis=0)
        self.slots = [literal[k, :m] for k, m in enumerate(having.tolist())]
        self.unsort = np.argsort(order)
        self.group_sorted = self.is_group[order, None]
        self.count_dtype = np.min_scalar_type(self.idx.shape[1])
        containing = [[] for _ in range(self.n)]
        for j, row in enumerate(literals):
            for lit in row:
                containing[lit.variable_index].append(j)
        self.var_c, self.var_live = _pack(containing)

    def violations(self, X: np.ndarray) -> np.ndarray:
        """(rows, n_constraints) bool: row r violates constraint j."""
        rows = X.shape[0]
        value = np.empty((2 * self.n, rows), dtype=np.uint8)
        value[: self.n] = X.T
        np.bitwise_xor(value[: self.n], 1, out=value[self.n :])
        count = np.zeros((self.is_group.size, rows), dtype=self.count_dtype)
        for slot in self.slots:
            count[: slot.size] += value[slot]
        violated = np.where(self.group_sorted, count != 1, count == 0)
        return np.ascontiguousarray(violated[self.unsort].T)

    def union_mask(self, S: np.ndarray) -> np.ndarray:
        """(rows, n) bool: variable i lies in a constraint that row r violates."""
        return (S[:, self.var_c] & self.var_live).any(axis=-1)

    def gibbs_levels(self) -> list[tuple[np.ndarray, ...]]:
        """Plan of an index-order Gibbs sweep that updates a level at a time.

        A variable's level is one more than the highest level of any
        lower-indexed variable it shares a constraint with, or 0 if none. So
        no constraint holds two members of a level, lower-indexed neighbours
        sit in earlier levels and higher-indexed ones in later levels, and
        updating a whole level at once equals the site-by-site scan.

        Each level is (members, slots, neg, other, lo, hi). Row d of member k
        is its d-th constraint; `other` marks the slots of the other
        variables. With the member at value v the constraint holds exactly
        when the true-literal count over those slots lies in [lo[v], hi[v]];
        padding rows hold for every count.
        """
        level = np.zeros(self.n, dtype=np.intp)
        for i in range(self.n):
            cons = self.var_c[i, self.var_live[i]]
            lower = self.idx[cons][self.live[cons] & (self.idx[cons] < i)]
            level[i] = level[lower].max(initial=-1) + 1
        out = []
        for lv in range(level.max(initial=-1) + 1):
            members = np.flatnonzero(level == lv)
            cons, real = self.var_c[members], self.var_live[members]
            slots, live = self.idx[cons], self.live[cons]
            own = live & (slots == members[:, None, None])
            neg_own = (self.neg[cons] & own).any(axis=-1)
            lo = np.where(real, np.stack([~neg_own, neg_own]), 0)
            hi = np.where(real & self.is_group[cons], lo, slots.shape[-1])
            out.append((members, slots, self.neg[cons], live & ~own, lo, hi))
        return out


@lru_cache(maxsize=8)
def _kernel(cs: ConstraintSet) -> _ConstraintKernel:
    """The kernel of cs, built once per constraint set: `cmrf sample` calls a
    sampler per chunk and `train` per CD iteration, all on one set."""
    return _ConstraintKernel(cs)


def _append_records(records, active, S):
    for local in np.nonzero(S.any(axis=1))[0]:
        records[active[local]].append(frozenset(np.nonzero(S[local])[0].tolist()))


# Share of the (active rows x n) cells a round redraws above which it hashes
# the whole field; below it, only the masked cells (BENCH_masked_draws.json).
_DENSE_SHARE = 0.25


def _resample_rounds(cs, m, cfg, resample_all: bool):
    kernel = _kernel(cs)
    b = cfg.batch_size
    threshold = bernoulli_threshold(marginals(m))
    row_ids = cfg.row_offset + np.arange(b, dtype=np.int64)

    X = bernoulli_field(cfg.seed, row_ids, 0, threshold).view(np.uint8)
    rounds = np.zeros(b, dtype=np.int64)
    valid = np.zeros(b, dtype=bool)
    tally = np.zeros(cs.n_constraints, dtype=np.int64)
    records = [[] for _ in range(b)] if cfg.record else None
    active = np.arange(b)

    for t in range(1, cfg.t_tryout + 1):
        S = kernel.violations(X[active])
        viol_any = S.any(axis=1)
        finished = active[~viol_any]
        rounds[finished] = t
        valid[finished] = True
        if records is not None:
            _append_records(records, active, S)
        active = active[viol_any]
        if active.size == 0:
            break
        if t == cfg.t_tryout:
            rounds[active] = cfg.t_tryout
            break
        S = S[viol_any]
        if not resample_all:  # keep only each row's lowest-indexed violation
            first = S.argmax(axis=1)
            S = np.zeros_like(S)
            S[np.arange(first.size), first] = True
        tally += S.sum(axis=0)
        mask = kernel.union_mask(S)
        ids = row_ids[active]
        if np.count_nonzero(mask) > _DENSE_SHARE * mask.size:
            X[active] = np.where(mask, bernoulli_field(cfg.seed, ids, t, threshold), X[active])
        else:  # the same bits, hashed only at the masked cells
            cells = np.flatnonzero(mask)
            redrawn = X[active]
            redrawn.reshape(-1)[cells] = bernoulli_cells(cfg.seed, ids, t, threshold, cells)
            X[active] = redrawn

    batch = AssignmentBatch(rows=X, valid_flags=valid)
    stats = SamplerStats(
        rounds_per_row=rounds,
        per_constraint_resamples=tally,
        records=records,
        exhausted=int((~valid).sum()),
    )
    return batch, stats


def nelson_sample(cs: ConstraintSet, m: ModelParams, cfg: SamplerConfig):
    """Batched partial rejection sampling: redraw all violated constraints per round.

    Rows still violating constraints after t_tryout check rounds are returned
    with valid_flags False (their last assignment is kept); nothing is raised.
    """
    _check_shapes(cs, m)
    return _resample_rounds(cs, m, cfg, resample_all=True)


def moser_tardos_sample(cs: ConstraintSet, m: ModelParams, cfg: SamplerConfig):
    """Single-constraint variant: each round redraws only the lowest-indexed
    violated constraint's variables."""
    _check_shapes(cs, m)
    return _resample_rounds(cs, m, cfg, resample_all=False)


def _check_shapes(cs: ConstraintSet, m: ModelParams) -> None:
    if m.n != cs.n_vars:
        raise ValueError(f"theta length {m.n} != n_vars {cs.n_vars}")


def gibbs_sample(cs: ConstraintSet, m: ModelParams, cfg: SamplerConfig, init=None):
    """Single-site Gibbs chain over the satisfying region.

    Each sweep visits every variable once, in index order, and redraws it
    from its conditional given the rest, with candidate values that would
    violate a constraint getting zero weight. The chain starts from `init`
    (which must satisfy all constraints) or the first valid row of a
    _RETRY_BATCHES-row nelson_sample batch; every update keeps it valid,
    so a site's current value is always feasible. It runs gibbs_burn_in
    sweeps, then emits a row every gibbs_thinning sweeps until batch_size
    rows are collected. Sweeps run level by level; see _ConstraintKernel.gibbs_levels.
    """
    _check_shapes(cs, m)
    n = cs.n_vars
    kernel = _kernel(cs)
    if init is None:
        init_cfg = replace(cfg, batch_size=_RETRY_BATCHES, record=False, row_offset=0,
                           seed=fold_seed(cfg.seed, "gibbs-init"))
        starts, _ = nelson_sample(cs, m, init_cfg)
        if not starts.valid_flags.any():
            raise SamplerExhaustedError(
                "no valid Gibbs initialization within t_tryout rounds"
            )
        x = starts.rows[np.argmax(starts.valid_flags)].astype(bool)
    else:
        x = np.asarray(init, dtype=np.uint8).reshape(-1).astype(bool)
        if x.shape[0] != n:
            raise ValueError("init length mismatch")
        if kernel.violations(x[None]).any():
            raise ValueError("init must satisfy all constraints")

    p_one = 1.0 - marginals(m)
    levels = kernel.gibbs_levels()
    chain_seed = fold_seed(cfg.seed, "gibbs-chain")
    total_sweeps = cfg.gibbs_burn_in + cfg.gibbs_thinning * cfg.batch_size
    rows = np.empty((cfg.batch_size, n), dtype=np.uint8)
    rounds = np.empty(cfg.batch_size, dtype=np.int64)
    emitted = 0
    sweep_chunk = 4096
    for chunk_start in range(0, total_sweeps, sweep_chunk):
        sweeps = np.arange(
            chunk_start + 1, min(chunk_start + sweep_chunk, total_sweeps) + 1
        )
        draws_one = uniform_field(chain_seed, sweeps, 0, n) < p_one
        for local, sweep in enumerate(sweeps):
            for members, slots, neg, other, lo, hi in levels:
                count = ((x[slots] ^ neg) & other).sum(axis=-1)
                ok0, ok1 = ((lo <= count) & (count <= hi)).all(axis=-1)
                x[members] = ~ok0 | (ok1 & draws_one[local, members])
            if sweep > cfg.gibbs_burn_in and (sweep - cfg.gibbs_burn_in) % cfg.gibbs_thinning == 0:
                rows[emitted] = x
                rounds[emitted] = sweep
                emitted += 1
    batch = AssignmentBatch(rows=rows, valid_flags=np.ones(cfg.batch_size, dtype=bool))
    stats = SamplerStats(
        rounds_per_row=rounds,
        per_constraint_resamples=np.zeros(cs.n_constraints, dtype=np.int64),
        records=None,
        exhausted=0,
    )
    return batch, stats


_RETRY_BATCHES = 10  # batches draw_valid_rows tries; also the rows a Gibbs start draws

SAMPLERS = {
    "nelson": nelson_sample,
    "moser": moser_tardos_sample,
    "gibbs": gibbs_sample,
}


def draw_valid_rows(
    cs: ConstraintSet,
    m: ModelParams,
    kind: str,
    count: int,
    seed: int,
    t_tryout: int = SamplerConfig.t_tryout,
) -> np.ndarray:
    """Collect `count` valid assignments from the named sampler.

    Invalid (tryout-exhausted) rows are discarded and redrawn with a fresh
    derived seed, up to _RETRY_BATCHES batches; Gibbs runs with the
    SamplerConfig burn-in and thinning.
    """
    sampler = SAMPLERS[kind]
    collected = []
    have = 0
    for attempt in range(_RETRY_BATCHES):
        cfg = SamplerConfig(
            batch_size=count,
            seed=fold_seed(seed, "draw", attempt),
            t_tryout=t_tryout,
        )
        batch, _ = sampler(cs, m, cfg)
        good = batch.rows[batch.valid_flags]
        if good.shape[0] > 0:
            collected.append(good)
            have += good.shape[0]
        if have >= count:
            return np.concatenate(collected, axis=0)[:count]
    raise SamplerExhaustedError(
        f"{kind} produced only {have}/{count} valid rows in {_RETRY_BATCHES} batches"
    )
