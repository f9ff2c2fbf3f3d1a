"""Counter-based random streams.

Every random draw in this package is a pure function of a 64-bit seed and
counters: (row, round, slot) for the samplers' cells, (64-row word, round,
variable, bit step) for the resamplers' round-0 field, one running counter
for the generators and the trainer's data picks. There is no generator state
to advance, so a batch of b parallel rows is bit-identical to b single-row
runs, results do not depend on scheduling order, and any sub-computation can
re-derive its own stream from the plan seed.

The mixing function is the splitmix64 finalizer applied once per key field
by hash_u64, implemented directly on uint64 arrays so whole fields of draws
come out of a handful of vectorized ops. Two keys draw Bernoulli bits:

* the cell key (seed, row, round, variable): one hash per cell, compared
  with an integer threshold. The later resample rounds and the Gibbs sweeps
  draw through it. A field's cells are keyed, not drawn in sequence, so
  bernoulli_bits(..., variables) can hash any variables' rows of a field
  (the Gibbs sweeps draw the free variables only) and bernoulli_cells any
  subset of its cells, and both give exactly the field's bits.
* the word key (seed, 64-row word, round, variable, bit step): one hash
  gives one bit of a 53-bit uniform for each of the 64 rows of a word, and a
  row decides its draw at the first bit where its uniform differs from the
  threshold (bernoulli_words). A whole field then takes about 12 hashes per
  64 cells instead of 64; the resamplers draw their round 0 through it.
"""

from __future__ import annotations

import numpy as np

from .cnf import WORD

_GOLDEN, _MIX_1, _MIX_2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_U64_MASK = (1 << 64) - 1
_STEPS = ((np.uint64(30), np.uint64(_MIX_1)), (np.uint64(27), np.uint64(_MIX_2)),
          (np.uint64(31), None))


def _mix(x: np.uint64 | np.ndarray, scratch: np.ndarray | None = None) -> np.uint64 | np.ndarray:
    """splitmix64 finalizer; full avalanche on uint64, wraps mod 2**64.

    A scalar is mixed as a Python int, exact and several times cheaper than
    numpy scalar arithmetic. On an array (uint64 arrays wrap silently) the
    first add makes the result and every later step works in place on it,
    with the shifts written to one scratch array. Given `scratch`, an array
    of x's shape, x itself is mixed in place and nothing is allocated."""
    if not isinstance(x, np.ndarray):
        x = (int(x) + _GOLDEN) & _U64_MASK
        x = ((x ^ (x >> 30)) * _MIX_1) & _U64_MASK
        x = ((x ^ (x >> 27)) * _MIX_2) & _U64_MASK
        return np.uint64(x ^ (x >> 31))
    if scratch is None:
        x = x + np.uint64(_GOLDEN)
        scratch = np.empty_like(x)
    else:
        x += np.uint64(_GOLDEN)
    for shift, factor in _STEPS:
        x ^= np.right_shift(x, shift, out=scratch)
        if factor is not None:
            x *= factor
    return x


def _as_u64(value) -> np.uint64 | np.ndarray:
    if isinstance(value, np.ndarray):
        return value.astype(np.uint64, copy=False)
    return np.uint64(int(value) & _U64_MASK)


def hash_u64(seed, *fields, scratch: np.ndarray | None = None) -> np.uint64 | np.ndarray:
    """Chain-mix seed with any number of (broadcastable) integer fields.

    The one splitmix chain of the package: every draw below is a keyed view
    of it. Given `scratch`, a uint64 array of seed's shape, seed must be a
    uint64 array too, and it is mixed in place with no array allocated."""
    h = _mix(_as_u64(seed), scratch)
    for f in fields:
        h = _mix(h ^ _as_u64(f), scratch)
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


def bernoulli_threshold(p) -> np.ndarray:
    """The largest hash h with _to_unit(h) <= p, for each p in [0, 1]: the
    form in which bernoulli_bits and bernoulli_cells take the zero
    probabilities, so a caller that draws many fields converts them once.

    _to_unit(h) is k * 2**-53 with k = h >> 11, so it exceeds p exactly when
    k > T = floor(p * 2**53), that is when h > (T << 11) | 2047. Capping T at
    2**53 - 1 (k never exceeds it) keeps p = 1 from wrapping to 2047.
    """
    top = np.minimum(np.floor(np.asarray(p, dtype=np.float64) * 2.0**53), 2.0**53 - 1)
    return (top.astype(np.uint64) << np.uint64(11)) | np.uint64(2047)


# Cells per block of bernoulli_bits and bernoulli_cells. Blocks this size
# keep the hash buffers in cache; blocks of 16k and 256k cells built a
# 4096 x 299 field slower (BENCH_masked_draws.json).
_BLOCK_CELLS = 65_536


def row_hashes(seed: int, rows) -> np.ndarray:
    """The hash of (seed, row) per row. bernoulli_bits and bernoulli_cells
    take these, so a caller that draws many rounds for the same rows hashes
    the rows once."""
    return hash_u64(seed, np.asarray(rows, dtype=np.uint64).reshape(-1))


def _round_prefix(rows: np.ndarray, round_index: int) -> np.ndarray:
    """The hash of (seed, row, round) per row hash. The hash of (seed, row,
    round, slot) is hash_u64(prefix ^ slot), one finalizer pass per cell."""
    return hash_u64(rows ^ _as_u64(round_index))


def bernoulli_bits(row_hash: np.ndarray, round_index: int, threshold: np.ndarray,
                   variables: np.ndarray) -> np.ndarray:
    """Bits of the cell key, for row_hash = row_hashes(seed, rows), unpacked:
    a (len(variables), len(rows)) bool array whose cell (k, i) is the draw of
    (rows[i], variables[k]). The draw of (row, v) is True where
    hash_u64(seed, row, round_index, v) > threshold[v]; for threshold =
    bernoulli_threshold(p_zero) that is where the hash's top 53 bits, as a
    uniform in [0, 1), exceed p_zero[v], compared as integers without the
    float conversion. A cell is keyed by its variable, not by its place in
    `variables`, so any subset in any order gives the bits of the full
    field. The field is hashed in blocks of at most _BLOCK_CELLS cells (at
    least 64 rows of one variable)."""
    prefix = _round_prefix(row_hash, round_index)
    n = variables.size
    bits = np.empty((n, prefix.size), dtype=bool)
    row_step = 64 * max(1, _BLOCK_CELLS // (64 * max(1, n)))
    var_step = max(1, _BLOCK_CELLS // row_step)
    keys, limits = variables.astype(np.uint64)[:, None], threshold[variables, None]
    for v in range(0, n, var_step):
        for start in range(0, prefix.size, row_step):
            block = prefix[start:start + row_step] ^ keys[v:v + var_step]
            np.greater(hash_u64(block, scratch=np.empty_like(block)),  # in place: 1 buffer, not 2
                       limits[v:v + var_step],
                       out=bits[v:v + var_step, start:start + row_step])
    return bits


def bernoulli_cells(row_hash: np.ndarray, round_index: int, threshold: np.ndarray,
                    rows: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The draws of bernoulli_bits at the cells (rows[i], slots[i]), rows
    indexing row_hash and slots naming variables, hashing only those cells,
    _BLOCK_CELLS of them at a time."""
    prefix = _round_prefix(row_hash, round_index)
    bits = np.empty(rows.size, dtype=bool)
    for start in range(0, rows.size, _BLOCK_CELLS):
        r, v = rows[start:start + _BLOCK_CELLS], slots[start:start + _BLOCK_CELLS]
        block = prefix[r] ^ v.astype(np.uint64)
        np.greater(hash_u64(block, scratch=np.empty_like(block)), threshold[v],
                   out=bits[start:start + _BLOCK_CELLS])
    return bits


# Bit steps of the word key hashed for every (variable, word) pair at once.
# All 64 rows of a pair have decided after k steps with probability
# (1 - 2**-k)**64, 0.984 at k = 12; the rest take the remaining steps.
_SLICE_STEPS = 12
_UNIFORM_BITS = 53


def _first_differences(hashes: np.ndarray, tbits: np.ndarray,
                       seen: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Steps of the word key along axis 0 of hashes, against the threshold's
    bits at those steps (tbits: 0 or all ones, broadcast to hashes). A lane
    decides at its first step where its hash bit differs from the threshold
    bit, unless it had decided before (seen), and draws 1 exactly where that
    threshold bit is 0, that is where U > T. Returns the lanes that drew 1
    and the lanes decided by the last step. Overwrites hashes."""
    hashes ^= tbits  # the lanes that differ at each step
    if seen is not None:
        hashes[0] |= seen
    for k in range(1, hashes.shape[0]):  # the lanes decided by step k
        hashes[k] |= hashes[k - 1]
    decided = hashes[-1].copy()
    for k in range(hashes.shape[0] - 1, 0, -1):  # the lanes deciding at step k
        hashes[k] ^= hashes[k - 1]
    if seen is not None:
        hashes[0] &= ~seen
    hashes &= ~tbits
    return np.bitwise_or.reduce(hashes, axis=0), decided


def bernoulli_words(seed: int, first_row: int, b: int, round_index: int,
                    threshold: np.ndarray) -> np.ndarray:
    """Bits of the word key for rows first_row .. first_row + b - 1, packed
    variable-major: a (len(threshold), ceil(b / 64)) array of WORD words in
    which bit j of word w of variable v is the draw of (row first_row + 64w
    + j, v), and bits past b are 0.

    Row r lies in lane r % 64 of global word r // 64. The hash of (seed
    folded with "words", word, round_index, v, k) gives, in each lane, bit k
    (counted from the top) of a 53-bit uniform U of that row; the draw is 1
    where U > T = threshold[v] >> 11, so P(1) = (2**53 - 1 - T) / 2**53, the
    probability bernoulli_bits gives. A lane is decided at the first step
    where its bit of U differs from T's (Knuth & Yao, 1976); the words hold
    64 rows side by side, as a bitslice layout does (Biham, 1997). The first
    _SLICE_STEPS steps of every (variable, word) pair are hashed in blocks
    of at most _BLOCK_CELLS hashes; the pairs with a lane left undecided
    take the remaining steps together, and a lane equal to T in all 53 bits
    draws 0. A row reads only its own lane of its own word, so a batch
    equals its rows drawn one at a time: a first_row that is not a multiple
    of 64 hashes the global words the rows straddle and shifts them.
    """
    n, shift = threshold.size, first_row % 64
    span = -(-(shift + b) // 64)  # global words the rows touch
    word_hash = hash_u64(fold_seed(seed, "words"),
                         np.arange(first_row // 64, first_row // 64 + span, dtype=np.uint64),
                         round_index)
    steps = np.arange(_UNIFORM_BITS, dtype=np.uint64)
    top = threshold >> np.uint64(11)  # T; row k of tbits is T's bit k from the top, as 0 or ~0
    tbits = -((top >> (np.uint64(_UNIFORM_BITS - 1) - steps[:, None])) & np.uint64(1))
    pairs = np.bitwise_xor(word_hash, np.arange(n, dtype=np.uint64)[:, None])
    words, decided = np.empty_like(pairs), np.empty_like(pairs)
    hash_u64(pairs, scratch=words)  # in place: the hash of (.., word, round, v) per pair
    k = _SLICE_STEPS
    word_step = max(1, min(span, _BLOCK_CELLS // k))
    var_step = max(1, min(n, _BLOCK_CELLS // (k * word_step)))
    hashes, scratch = np.empty((2, k, var_step, word_step), dtype=WORD)  # reused by every block
    for v in range(0, n, var_step):
        for w in range(0, span, word_step):
            block = np.s_[v:v + var_step, w:w + word_step]
            pair = pairs[block]
            work = np.s_[:, : pair.shape[0], : pair.shape[1]]
            np.bitwise_xor(pair, steps[:k, None, None], out=hashes[work])
            words[block], decided[block] = _first_differences(
                hash_u64(hashes[work], scratch=scratch[work]), tbits[:k, v:v + var_step, None])
    open_var, open_word = np.nonzero(~decided)
    chunk = max(1, _BLOCK_CELLS // (_UNIFORM_BITS - k))
    for start in range(0, open_var.size, chunk):
        v, w = open_var[start:start + chunk], open_word[start:start + chunk]
        ones, _ = _first_differences(hash_u64(pairs[v, w] ^ steps[k:, None]), tbits[k:, v],
                                     decided[v, w])
        words[v, w] |= ones
    if shift:  # local word j takes the top of global word j and the bottom of j + 1
        out = words[:, : -(-b // 64)] >> np.uint64(shift)
        tail = min(out.shape[1], span - 1)
        out[:, :tail] |= words[:, 1 : tail + 1] << np.uint64(64 - shift)
        words = out
    if b % 64:
        words[:, -1] &= np.uint64((1 << (b % 64)) - 1)
    return words
