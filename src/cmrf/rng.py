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
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1


def _mix(x: np.uint64 | np.ndarray) -> np.uint64 | np.ndarray:
    """splitmix64 finalizer; full avalanche on uint64, wraps mod 2**64."""
    with np.errstate(over="ignore"):
        x = x + _GOLDEN
        x = (x ^ (x >> np.uint64(30))) * _MIX_1
        x = (x ^ (x >> np.uint64(27))) * _MIX_2
        return x ^ (x >> np.uint64(31))


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


def _threshold(p) -> np.ndarray:
    """The largest hash h with _to_unit(h) <= p, for each p in [0, 1].

    _to_unit(h) is k * 2**-53 with k = h >> 11, so it exceeds p exactly when
    k > T = floor(p * 2**53), that is when h > (T << 11) | 2047. Capping T at
    2**53 - 1 (k never exceeds it) keeps p = 1 from wrapping to 2047.
    """
    top = np.minimum(np.floor(np.asarray(p, dtype=np.float64) * 2.0**53), 2.0**53 - 1)
    return (top.astype(np.uint64) << np.uint64(11)) | np.uint64(2047)


def bernoulli_field(seed: int, rows: np.ndarray, round_index: int, p_zero) -> np.ndarray:
    """Bits keyed like uniform_field, (len(rows), len(p_zero)) bool, equal to
    uniform_field(seed, rows, round_index, len(p_zero)) > p_zero for p_zero
    in [0, 1], but compared as integers without the float conversion."""
    threshold = _threshold(p_zero)
    return _field(seed, rows, round_index, threshold.size) > threshold
