"""Constraint-aware samplers for single-variable-form constrained MRFs.

Three samplers share one contract: draw a batch of assignments whose valid
rows are distributed according to the constrained model.

* nelson_sample: start from independent per-variable draws, then repeatedly
  redraw every variable belonging to any currently violated constraint until
  none is violated. On extremal constraint sets the terminated rows are exact
  draws from the constrained distribution.
* moser_tardos_sample: identical, except each round redraws the variables of
  a single violated constraint (the lowest-indexed one).
* gibbs_sample: batch_size independent single-site conditional-resampling
  chains, each run for a burn-in and emitting its final state. Each starts
  from its own valid assignment, passed in packed, and every update keeps it
  valid, so the current value of a site is always a feasible choice.

All three run on batches packed 64 rows to a word (cnf.WORD), return them
packed, and read the constraints through one kernel of literal codes
(_ConstraintKernel).
SAMPLERS names them nelson, moser and gibbs. sample_stream is the one way
rows are drawn: any of them over rows 0, 1, 2, ... of one seed, a batch at
a time, with the Gibbs starts taken from a nelson stream. draw_valid_rows
takes the first valid rows of a stream.

All randomness is counter-based (see rng): a draw for (row, round, variable)
never depends on batch size or scheduling, so batched and sequential runs are
bit-identical and every run is reproducible from its seed. The resamplers'
round 0 reads a row's lane of its 64-row word (rng.bernoulli_words), the
later rounds and the Gibbs sweeps a cell per (row, variable).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .cnf import (WORD, ConstraintSet, pack_rows as _pack_rows,
                  unpack_rows as _unpack_rows)
from .model import ModelParams, marginals
from .rng import (bernoulli_bits, bernoulli_cells, bernoulli_threshold, bernoulli_words,
                  fold_seed, row_hashes)


class SamplerExhaustedError(RuntimeError):
    """The sampler could not produce the requested valid rows."""


@dataclass
class SamplerConfig:
    batch_size: int
    seed: int = 0
    t_tryout: int = 1000
    gibbs_burn_in: int = 1000
    row_offset: int = 0     # first global row index; makes split batches reproducible

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.t_tryout < 1:
            raise ValueError("t_tryout must be >= 1")
        if self.gibbs_burn_in < 1:
            raise ValueError("gibbs_burn_in must be >= 1")


@dataclass
class AssignmentBatch:
    # Bits past row b in the last word are padding, and no reader looks at them.
    words: np.ndarray         # (n, ceil(b / 64)) packed rows, 64 to a word (cnf.WORD)
    valid_flags: np.ndarray   # (b,) bool; True only for rows satisfying all constraints

    @cached_property
    def rows(self) -> np.ndarray:
        """(b, n) uint8 rows, unpacked on first use."""
        return _unpack_rows(self.words, self.valid_flags.size)


@dataclass
class SamplerStats:
    rounds_per_row: np.ndarray           # (b,) int64 satisfaction-check rounds
    per_constraint_resamples: np.ndarray  # (n_constraints,) int64 resample events


_SPREAD = 2  # the most a _split matrix pads its lists' entries by


def _split(lists, fill: int, first: int = 0) -> list[tuple]:
    """Ragged integer lists as index matrices [(columns, rows)]: column k of
    rows holds the list at place columns[k] - first, padded with `fill`, a
    row whose words leave an OR (zero) or an AND (all ones) as it was. The
    lists are cut widest first, a matrix taking the next narrower ones while
    its size stays within _SPREAD times their entries (an empty list counts
    1), so a gather follows the entry count whatever the spread of widths
    and degrees. Lists that fit in one matrix keep their order, as a slice."""
    width = np.maximum(np.array([len(row) for row in lists], dtype=np.intp), 1)
    order, parts = np.argsort(-width, kind="stable"), []
    while order.size:
        w = width[order]
        k = 1 + int(np.flatnonzero(w[0] * np.arange(1, w.size + 1) <= _SPREAD * w.cumsum())[-1])
        cols, order = np.sort(order[:k]), order[k:]
        rows = np.full((w[0], k), fill, dtype=np.intp)
        for c, j in enumerate(cols.tolist()):
            rows[: len(lists[j]), c] = lists[j]
        parts.append((slice(first, first + k) if k == width.size else first + cols, rows))
    return parts


def _or_into(out: np.ndarray, table: np.ndarray, parts) -> np.ndarray:
    """Row c of out, for each column c of the _split parts: the OR of the
    table rows that its list names."""
    for cols, rows in parts:
        if isinstance(cols, slice):  # one part, in list order: no copy
            np.bitwise_or.reduce(table.take(rows, axis=0), axis=0, out=out[cols])
        else:
            out[cols] = np.bitwise_or.reduce(table.take(rows, axis=0), axis=0)
    return out


class _ConstraintKernel:
    """Every constraint, clause or exactly-one group, as a list of literal
    codes: codes[j] holds v + n * negated for each literal of constraint j
    (group literals are never negated; the groups follow the n_clauses
    clauses), and containing[i] lists the constraints that hold variable i.

    All three samplers read a batch packed 64 rows to a word (cnf.WORD)
    through one (2n + 2, words) `table`: row v holds x_v, row n + v its
    negation, row 2n a zero word and row 2n + 1 an all-ones word. Each list
    set is _split into padded index matrices, a `take` and an OR-reduce
    each. violations ORs each constraint's literal words (padding: row 2n)
    and marks the rows where the OR is 0; over a group's words w,
    `two |= one & w; one |= w` also marks where two members are set.
    union_mask ORs the violation words over each variable's constraints
    (padding: the zero last row of V).
    """

    def __init__(self, cs: ConstraintSet):
        n = self.n = cs.n_vars
        c = self.n_clauses = cs.n_clauses
        self.codes = [[lit.variable_index + n * lit.negated for lit in cl.literals]
                      for cl in cs.clauses]
        self.codes += [sorted(g) for g in cs.exactly_one_groups]
        self.containing = [[] for _ in range(n)]
        for j, row in enumerate(self.codes):
            for code in row:
                self.containing[code % n].append(j)
        self.clause_rows = _split(self.codes[:c], 2 * n)
        self.group_rows = _split(self.codes[c:], 2 * n, first=c)
        self.constraint_rows = _split(self.containing, len(self.codes))

    def table(self, values: np.ndarray) -> np.ndarray:
        """The (2n + 2, words) table of (n, words) packed values."""
        out = np.zeros((2 * self.n + 2, values.shape[1]), dtype=WORD)
        out[: self.n] = values
        np.invert(values, out=out[self.n : 2 * self.n])
        out[-1] = ~np.uint64(0)
        return out

    def violations(self, table: np.ndarray) -> np.ndarray:
        """(n_constraints + 1, words): bit j of word w of row c is set where
        row 64w + j of the table violates constraint c. The last row is 0, for
        union_mask to read where a variable is in no constraint."""
        V = _or_into(np.zeros((len(self.codes) + 1, table.shape[1]), dtype=WORD),
                     table, self.clause_rows)
        for cols, rows in self.group_rows:  # `two` over clauses too made ksat(1000) 3x slower
            words = table.take(rows, axis=0)
            one, two = words[0], np.zeros_like(words[0])
            for w in words[1:]:
                two |= one & w
                one |= w
            V[cols] = one & ~two
        np.invert(V[:-1], out=V[:-1])
        return V

    def union_mask(self, V: np.ndarray) -> np.ndarray:
        """(n, words): the rows for which variable i lies in a constraint that
        V marks violated."""
        return _or_into(np.empty((self.n, V.shape[1]), dtype=WORD), V, self.constraint_rows)

    @cached_property
    def gibbs_levels(self) -> tuple[np.ndarray, list[tuple]]:
        """Plan of an index-order Gibbs sweep that updates a level at a time,
        on chains packed 64 to a word like the resamplers' table.

        Only free variables, in no exactly-one group, get levels; group
        members never move (see gibbs_sample) and act as constants. A free
        variable's level is one more than the highest level of any
        lower-indexed free variable it shares a clause with, or 0 if none. So
        no clause holds two members of a level, lower-indexed neighbours sit
        in earlier levels and higher-indexed ones in later levels, and
        updating a whole level at once equals the site-by-site scan.

        Returns (order, levels). The sweep runs on the `table` of the
        variables relabelled level by level, the group members last: row p
        holds variable order[p] and row n + p its negation, so each level is
        a slice [start, stop) of rows. Each level is (start, stop, lits, depth):
        list (v * depth + d) * size + k of the _split lits, size = stop - start,
        holds the rows of the other literals of the d-th clause of member k that
        can fail at value v, padded with the zero row; a member with fewer than
        depth such clauses is padded with the all-ones row. A clause can fail
        only at the value that makes its own literal false, and there it
        holds where the OR of its other literals is set.
        """
        n, zero, ones = self.n, 2 * self.n, 2 * self.n + 1
        frozen = np.zeros(n, dtype=bool)  # group codes are the members' indices
        frozen[[c for row in self.codes[self.n_clauses :] for c in row]] = True
        level = [-1] * n  # -1 until visited, so only lower-indexed free neighbours count
        for i in np.flatnonzero(~frozen).tolist():
            level[i] = 1 + max((level[c % n] for j in self.containing[i] for c in self.codes[j]),
                               default=-1)
        top = max(level, default=-1)
        level = np.where(frozen, top + 1, level)
        order = np.argsort(level, kind="stable")
        place = np.empty(n, dtype=np.intp)
        place[order] = np.arange(n)
        bounds = np.searchsorted(level[order], np.arange(top + 2))
        levels = []
        for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            cells = [[[] for _ in range(stop - start)] for _ in range(2)]  # [v][k]: clause rows
            for k, i in enumerate(order[start:stop].tolist()):
                for j in self.containing[i]:
                    own = next(c for c in self.codes[j] if c % n == i)
                    cells[own >= n][k].append([place[c % n] + n * (c >= n)
                                               for c in self.codes[j] if c != own])
            depth = max(1, max(len(cell) for half in cells for cell in half))
            lits = _split([cell[d] if d < len(cell) else [ones]
                           for half in cells for d in range(depth) for cell in half], zero)
            levels.append((start, stop, lits, depth))
        return order, levels


@lru_cache(maxsize=8)
def _kernel(cs: ConstraintSet) -> _ConstraintKernel:
    """The kernel of cs, built once per constraint set: `cmrf sample` calls a
    sampler per chunk and `train` per CD iteration, all on one set."""
    return _ConstraintKernel(cs)


# Share of the (active rows x n) cells a round redraws above which it hashes
# every cell of the active rows; below it, only the masked cells. Either path
# alone was slower on some ladder instance (BENCH_packed_rounds.json).
_DENSE_SHARE = 0.25


def _set_bits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The set bits of a uint64 array, unpacking only its nonzero words: the
    flat indices of those words, their bits (uint8, 64 per word) and the
    positions of the set ones among those bits."""
    flat = words.reshape(-1)
    nonzero = flat.nonzero()[0]
    bits = np.unpackbits(flat[nonzero].view(np.uint8), bitorder="little")
    return nonzero, bits, bits.view(bool).nonzero()[0]


def _row_words(b: int) -> np.ndarray:
    """(ceil(b / 64),) words with the bits of rows 0 .. b - 1 set."""
    words = np.full(-(-b // 64), ~np.uint64(0), dtype=WORD)
    if b % 64:
        words[-1] = (1 << (b % 64)) - 1
    return words


def _columns(words: np.ndarray) -> np.ndarray:
    """Bit positions 64 * word + bit of the set bits of a 1-d uint64 array."""
    nonzero, _, at = _set_bits(words)
    return (nonzero[at >> 6] << 6) | (at & 63)


def _resample_rounds(cs, m, cfg, resample_all: bool):
    """The round loop on packed words (see _ConstraintKernel).

    `active` marks the rows still resampling, one bit per row; the table
    keeps every word of the batch for the whole call. Round 0 draws the whole
    field under the word key (rng.bernoulli_words); round t >= 1 redraws the
    masked cells under the cell key (row, t, variable). Both draw paths
    (_DENSE_SHARE) end in one update of the table words that hold a masked cell."""
    _check_shapes(cs, m)
    kernel = _kernel(cs)
    n, b = cs.n_vars, cfg.batch_size
    threshold = bernoulli_threshold(marginals(m))
    active = _row_words(b)
    row_hash = row_hashes(cfg.seed, cfg.row_offset + np.arange(64 * active.size, dtype=np.int64))
    table = kernel.table(bernoulli_words(cfg.seed, cfg.row_offset, b, 0, threshold))
    values, negations = table[: 2 * n].reshape(2, -1)  # flat views
    live = drawn = None  # the dense rounds' active rows (None once rows finish) and cells
    finished = []  # (round, words): the rows that passed the check of a round
    tally = np.zeros(cs.n_constraints, dtype=np.int64)

    for t in range(1, cfg.t_tryout + 1):
        V = kernel.violations(table)
        V &= active
        still = np.bitwise_or.reduce(V, axis=0)
        done = active ^ still
        if done.any():
            finished.append((t, done))
            active = still
            if not active.any():
                break
            live = None
        if t == cfg.t_tryout:
            break
        if not resample_all:  # keep only each row's lowest-indexed violation
            V[1:] &= ~np.bitwise_or.accumulate(V[:-1], axis=0)
        tally += np.bitwise_count(V[:-1]).sum(axis=1, dtype=np.int64)
        mask = kernel.union_mask(V).reshape(-1)
        if np.bitwise_count(mask).sum() > _DENSE_SHARE * n * np.bitwise_count(active).sum():
            if live is None:
                live = _columns(active)
                live_hash = row_hash[live]
            if drawn is None:
                drawn = np.zeros((n, 64 * active.size), dtype=bool)
            # cells off live are masked
            drawn[:, live] = bernoulli_bits(live_hash, t, threshold, np.arange(n))
            cover, draws = slice(None), np.packbits(drawn, axis=1, bitorder="little")
        else:  # the same bits, hashed only at the masked cells
            cover, bits, at = _set_bits(mask)
            variable, row = np.divmod((cover[at >> 6] << 6) | (at & 63), 64 * active.size)
            bits[at] = bernoulli_cells(row_hash, t, threshold, row, variable)
            draws = np.packbits(bits, bitorder="little")
        values[cover] ^= (values[cover] ^ draws.view(WORD).reshape(-1)) & mask[cover]
        negations[cover] = ~values[cover]

    rounds = np.full(b, cfg.t_tryout, dtype=np.int64)  # rows that never passed
    valid = np.zeros(b, dtype=bool)
    if finished:
        check, words = zip(*finished)
        turn, rows = np.divmod(_columns(np.concatenate(words)), 64 * active.size)
        rounds[rows] = np.array(check)[turn]
        valid[rows] = True
    batch = AssignmentBatch(words=table[:n], valid_flags=valid)
    return batch, SamplerStats(rounds_per_row=rounds, per_constraint_resamples=tally)


def nelson_sample(cs: ConstraintSet, m: ModelParams, cfg: SamplerConfig):
    """Batched partial rejection sampling: redraw all violated constraints per round.

    Rows still violating constraints after t_tryout check rounds are returned
    with valid_flags False (their last assignment is kept); nothing is raised.
    """
    return _resample_rounds(cs, m, cfg, resample_all=True)


def moser_tardos_sample(cs: ConstraintSet, m: ModelParams, cfg: SamplerConfig):
    """Single-constraint variant: each round redraws only the lowest-indexed
    violated constraint's variables."""
    return _resample_rounds(cs, m, cfg, resample_all=False)


def _check_shapes(cs: ConstraintSet, m: ModelParams) -> None:
    if m.n != cs.n_vars:
        raise ValueError(f"theta length {m.n} != n_vars {cs.n_vars}")


def gibbs_sample(cs: ConstraintSet, m: ModelParams, cfg: SamplerConfig, starts: np.ndarray):
    """batch_size independent single-site Gibbs chains over the satisfying
    region, packed 64 to a word.

    Each sweep visits every variable once, in index order, and redraws it
    from its conditional given the rest, with candidate values that would
    violate a constraint getting zero weight: the new value is
    ~ok0 | (ok1 & draw), with ok_v the chains in which value v keeps every
    constraint of the variable. Chain r starts from row r of `starts`,
    (n, ceil(batch_size / 64)) packed words whose rows must all satisfy the
    constraints; every update keeps a chain valid, so a site's current value
    is always feasible. Each chain runs gibbs_burn_in sweeps and emits its
    final state. The draw of chain r (global row row_offset + r) at sweep s
    is bernoulli_bits(row_hashes(fold_seed(seed, "gibbs-chain"),
    row_offset + r), s, ...), so a batch equals its chains run one at a time;
    a sweep draws the free variables only, since no update reads another.
    A group member never moves: its group has one member set, so 0 would
    empty the group if that member is this one, and 1 would set a second if
    not. Sweeps update the free variables level by level; see
    _ConstraintKernel.gibbs_levels. The buffers of a sweep depend on
    batch_size, so each call builds them once, as a plan of per-level views
    that every sweep reuses, and the cached kernel keeps none of them.
    sample_stream draws the starts.
    """
    _check_shapes(cs, m)
    n, b = cs.n_vars, cfg.batch_size
    kernel = _kernel(cs)
    starts = np.asarray(starts, dtype=WORD)
    if starts.shape != (n, -(-b // 64)):
        raise ValueError(f"starts must be ({n}, {-(-b // 64)}) words, got {starts.shape}")
    if (kernel.violations(kernel.table(starts)) & _row_words(b)).any():
        raise ValueError("every start must satisfy all constraints")

    order, levels = kernel.gibbs_levels
    table = kernel.table(starts.take(order, axis=0))
    free = order[: levels[-1][1] if levels else 0]  # the variables the levels update
    draw = np.zeros((free.size, table.shape[1]), dtype=WORD)
    threshold = bernoulli_threshold(marginals(m))
    row_hash = row_hashes(fold_seed(cfg.seed, "gibbs-chain"), cfg.row_offset + np.arange(b))
    plan = []  # per level: its _split parts, ok rows and AND target, then its table rows
    for start, stop, lits, depth in levels:
        ok = np.empty((2 * depth * (stop - start), table.shape[1]), dtype=WORD)
        both = ok.reshape(2, depth, stop - start, -1)
        anded = np.empty_like(both[:, 0]) if depth > 1 else both[:, 0]
        plan.append((lits[0][1] if len(lits) == 1 else lits, ok,
                     (both, anded) if depth > 1 else None, anded[0], anded[1],
                     table[start:stop], table[n + start:n + stop], draw[start:stop]))
    sweeps = cfg.gibbs_burn_in if levels else 0  # with no levels, no variable can move
    for sweep in range(1, sweeps + 1):
        draw.view(np.uint8)[:, : -(-b // 8)] = np.packbits(
            bernoulli_bits(row_hash, sweep, threshold, free), axis=1, bitorder="little")
        for lits, ok, deep, ok0, ok1, new, neg, drawn in plan:
            if isinstance(lits, np.ndarray):  # one part, in list order (see _split): all of ok
                np.bitwise_or.reduce(table.take(lits, axis=0), axis=0, out=ok)
            else:
                _or_into(ok, table, lits)
            if deep is not None:
                np.bitwise_and.reduce(deep[0], axis=1, out=deep[1])
            np.bitwise_and(ok1, drawn, out=new)
            new |= np.invert(ok0, out=neg)  # neg is scratch until the last line
            np.invert(new, out=neg)
    values = np.empty_like(starts)
    values[order] = table[:n]
    batch = AssignmentBatch(words=values, valid_flags=np.ones(b, dtype=bool))
    return batch, SamplerStats(rounds_per_row=np.full(b, cfg.gibbs_burn_in, dtype=np.int64),
                               per_constraint_resamples=np.zeros(cs.n_constraints, dtype=np.int64))


SAMPLERS = {
    "nelson": nelson_sample,
    "moser": moser_tardos_sample,
    "gibbs": gibbs_sample,
}


def sample_stream(cs: ConstraintSet, m: ModelParams, kind: str, cfg: SamplerConfig,
                  stop: int | None = None):
    """(AssignmentBatch, SamplerStats) of the named sampler for rows
    row_offset, row_offset + 1, ... of one seed, batch_size rows a batch.
    The last batch ends short at `stop`; without `stop` the stream has no
    end. A row's draws do not depend on the batch it lands in, so every
    batch size gives the same rows.

    The chains of a Gibbs batch start from the next valid rows, in row
    order, of the nelson stream keyed fold_seed(fold_seed(seed,
    "gibbs-init"), "draw", 0), counted from its row 0 whatever row_offset is.
    """
    sampler = SAMPLERS[kind]
    starts = None
    if kind == "gibbs":
        starts = _valid_blocks(cs, m, "nelson", cfg.batch_size, fold_seed(cfg.seed, "gibbs-init"),
                               cfg.t_tryout, rows="valid rows for the gibbs chain starts")
    row = cfg.row_offset
    while stop is None or row < stop:
        size = cfg.batch_size if stop is None else min(cfg.batch_size, stop - row)
        part = replace(cfg, batch_size=size, row_offset=row)
        if starts is None:
            yield sampler(cs, m, part)
        else:  # a short last batch takes only its own rows of the block
            yield sampler(cs, m, part, _pack_rows(next(starts)[:size]))
        row += size


_RETRY_BATCHES = 10  # stream batches in a row that may pass without completing a block


def _valid_blocks(cs, m, kind, count, seed, t_tryout, rows="valid rows"):
    """Blocks of `count` valid rows, (count, n) uint8, in row order, from the
    named sampler's stream keyed fold_seed(seed, "draw", 0) in batches of
    `count` rows. Raises SamplerExhaustedError once _RETRY_BATCHES batches
    pass without completing a block, so an unsatisfiable instance cannot
    loop forever; its message names the blocks' use as `rows`."""
    cfg = SamplerConfig(batch_size=count, seed=fold_seed(seed, "draw", 0), t_tryout=t_tryout)
    held = np.zeros((0, cs.n_vars), dtype=np.uint8)
    idle = 0
    for batch, _ in sample_stream(cs, m, kind, cfg):
        held = np.concatenate([held, batch.rows[batch.valid_flags]])
        idle += 1
        if held.shape[0] >= count:  # held < 2 * count, so at most one block
            yield held[:count]
            held, idle = held[count:], 0
        elif idle == _RETRY_BATCHES:
            raise SamplerExhaustedError(f"{kind} produced only {held.shape[0]}/{count} {rows} "
                                        f"in {_RETRY_BATCHES} batches")


def draw_valid_rows(
    cs: ConstraintSet,
    m: ModelParams,
    kind: str,
    count: int,
    seed: int,
    t_tryout: int = SamplerConfig.t_tryout,
) -> np.ndarray:
    """The first `count` valid rows, (count, n) uint8, of the named sampler's
    stream (see _valid_blocks): tryout-exhausted rows are skipped and the
    stream goes on past them, for up to _RETRY_BATCHES batches of `count`
    rows. Gibbs runs with the SamplerConfig burn-in.
    """
    return next(_valid_blocks(cs, m, kind, count, seed, t_tryout))
