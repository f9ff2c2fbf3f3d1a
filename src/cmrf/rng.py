"""Counter-based random streams.

Every random draw in this package is a pure function of a 64-bit seed and
counters: (row, round, slot) for the samplers' fields, one running counter
for the generators and the trainer's data picks. There is no generator state
to advance, so a batch of b parallel rows is bit-identical to b single-row
runs, results do not depend on scheduling order, and any sub-computation can
re-derive its own stream from the plan seed.

The mixing function is the splitmix64 finalizer applied once per key field
by hash_u64, implemented directly on uint64 arrays so whole (rows x
variables) fields of uniforms come out of a handful of vectorized ops.
Because a field's cells are keyed, not drawn in sequence, bernoulli_cells
can hash any subset of a field's cells and give exactly the field's bits.
"""

from __future__ import annotations

import numpy as np

from .cnf import WORD

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1


def _mix(x: np.uint64 | np.ndarray) -> np.uint64 | np.ndarray:
    """splitmix64 finalizer; full avalanche on uint64, wraps mod 2**64.

    The first add makes the result; on arrays every later step works in
    place on it, so only the shifts allocate."""
    with np.errstate(over="ignore"):
        x = x + _GOLDEN
        x ^= x >> np.uint64(30)
        x *= _MIX_1
        x ^= x >> np.uint64(27)
        x *= _MIX_2
        x ^= x >> np.uint64(31)
        return x


def _as_u64(value) -> np.uint64 | np.ndarray:
    if isinstance(value, np.ndarray):
        return value.astype(np.uint64, copy=False)
    return np.uint64(int(value) & _U64_MASK)


def hash_u64(seed, *fields) -> np.uint64 | np.ndarray:
    """Chain-mix seed with any number of (broadcastable) integer fields.

    The one splitmix chain of the package: every draw below is a keyed view
    of it."""
    h = _mix(_as_u64(seed))
    for f in fields:
        h = _mix(h ^ _as_u64(f))
    return h


def _to_unit(h) -> np.ndarray | float:
    """Top 53 bits of a uint64 hash, mapped to [0, 1)."""
    return (h >> np.uint64(11)) * (2.0 ** -53)


def fold_seed(seed: int, *tags) -> int:
    """Derive a sub-seed from (seed, tags); tags may be ints or short strings.

    A string tag enters the chain as its UTF-8 bytes, one field per byte.
    Used to give independent streams to logically distinct consumers
    (Gibbs chain vs. its initializer, per-iteration batches in training, ...)
    without any hidden entropy.
    """
    fields = []
    for tag in tags:
        fields.extend(tag.encode("utf-8") if isinstance(tag, str) else (tag,))
    return int(hash_u64(seed, *fields))


def uniforms(seed: int, counters) -> np.ndarray:
    """Uniforms in [0,1) keyed by (seed, counter), one per entry of counters."""
    return _to_unit(hash_u64(seed, np.asarray(counters, dtype=np.uint64)))


def _field(seed: int, rows: np.ndarray, round_index: int, n_slots: int) -> np.ndarray:
    """Hashes keyed by (seed, row, round, slot), shape (len(rows), n_slots)."""
    rows = np.asarray(rows, dtype=np.uint64).reshape(-1, 1)
    return hash_u64(seed, rows, round_index, np.arange(n_slots, dtype=np.uint64))


def uniform_field(seed: int, rows: np.ndarray, round_index: int, n_slots: int) -> np.ndarray:
    """Uniforms in [0,1) keyed by (seed, row, round, slot), shape (len(rows), n_slots)."""
    return _to_unit(_field(seed, rows, round_index, n_slots))


def bernoulli_threshold(p) -> np.ndarray:
    """The largest hash h with _to_unit(h) <= p, for each p in [0, 1]: the
    form in which bernoulli_field and bernoulli_cells take the zero
    probabilities, so a caller that draws many fields converts them once.

    _to_unit(h) is k * 2**-53 with k = h >> 11, so it exceeds p exactly when
    k > T = floor(p * 2**53), that is when h > (T << 11) | 2047. Capping T at
    2**53 - 1 (k never exceeds it) keeps p = 1 from wrapping to 2047.
    """
    top = np.minimum(np.floor(np.asarray(p, dtype=np.float64) * 2.0**53), 2.0**53 - 1)
    return (top.astype(np.uint64) << np.uint64(11)) | np.uint64(2047)


# Cells per block of bernoulli_field and bernoulli_cells. Blocks this size
# keep the hash buffers in cache; blocks of 16k and 256k cells built a
# 4096 x 299 field slower (BENCH_masked_draws.json).
_BLOCK_CELLS = 65_536


def row_hashes(seed: int, rows) -> np.ndarray:
    """The hash of (seed, row) per row. bernoulli_field and bernoulli_cells
    take these, so a caller that draws many rounds for the same rows hashes
    the rows once."""
    return hash_u64(seed, np.asarray(rows, dtype=np.uint64).reshape(-1))


def _round_prefix(rows: np.ndarray, round_index: int) -> np.ndarray:
    """The hash of (seed, row, round) per row hash. The hash of (seed, row,
    round, slot) is hash_u64(prefix ^ slot), one finalizer pass per cell."""
    return hash_u64(rows ^ _as_u64(round_index))


def bernoulli_field(row_hash: np.ndarray, round_index: int,
                    threshold: np.ndarray) -> np.ndarray:
    """Bits keyed like uniform_field, for row_hash = row_hashes(seed, rows),
    packed variable-major: a (len(threshold), ceil(len(rows) / 64))
    array of WORD words in which bit j of word w of variable v is the draw of
    (rows[64w + j], v), and bits past len(rows) are 0. For threshold =
    bernoulli_threshold(p_zero), p_zero in [0, 1], the draws equal
    uniform_field(seed, rows, round_index, len(p_zero)) > p_zero, but are
    compared as integers without the float conversion. The field is hashed in
    blocks of at most _BLOCK_CELLS cells (at least 64 rows of one variable)."""
    prefix = _round_prefix(row_hash, round_index)
    n = threshold.size
    words = np.zeros((n, -(-prefix.size // 64)), dtype=WORD)
    packed = words.view(np.uint8)
    row_step = 64 * max(1, _BLOCK_CELLS // (64 * max(1, n)))
    var_step = max(1, _BLOCK_CELLS // row_step)
    slots = np.arange(n, dtype=np.uint64)[:, None]
    for v in range(0, n, var_step):
        for start in range(0, prefix.size, row_step):
            block = prefix[start:start + row_step] ^ slots[v:v + var_step]
            bits = hash_u64(block) > threshold[v:v + var_step, None]
            packed[v:v + var_step, start // 8:][:, : -(-bits.shape[1] // 8)] = (
                np.packbits(bits, axis=1, bitorder="little"))
    return words


def bernoulli_cells(row_hash: np.ndarray, round_index: int, threshold: np.ndarray,
                    rows: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The draws of bernoulli_field(row_hash, round_index, threshold) at the
    cells (rows[i], slots[i]), rows indexing row_hash, as bool, hashing only
    those cells, _BLOCK_CELLS of them at a time."""
    prefix = _round_prefix(row_hash, round_index)
    bits = np.empty(rows.size, dtype=bool)
    for start in range(0, rows.size, _BLOCK_CELLS):
        r, v = rows[start:start + _BLOCK_CELLS], slots[start:start + _BLOCK_CELLS]
        block = prefix[r] ^ v.astype(np.uint64)
        np.greater(hash_u64(block), threshold[v], out=bits[start:start + _BLOCK_CELLS])
    return bits
