"""Counter-based random streams.

Every random draw in this package is a pure function of a 64-bit seed and a
small tuple of counters (row index, round index, slot index). There is no
generator state to advance, so a batch of b parallel rows is bit-identical
to b single-row runs, results do not depend on scheduling order, and any
sub-computation can re-derive its own stream from the plan seed.

The mixing function is the splitmix64 finalizer applied once per key field,
implemented directly on uint64 arrays so whole (rows x variables) fields of
uniforms come out of a handful of vectorized ops.
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
    """Chain-mix seed with any number of (broadcastable) integer fields."""
    h = _mix(_as_u64(seed))
    for f in fields:
        h = _mix(h ^ _as_u64(f))
    return h


def _to_unit(h) -> np.ndarray | float:
    """Top 53 bits of a uint64 hash, mapped to [0, 1)."""
    return (h >> np.uint64(11)) * (2.0 ** -53)


def fold_seed(seed: int, *tags) -> int:
    """Derive a sub-seed from (seed, tags); tags may be ints or short strings.

    Used to give independent streams to logically distinct consumers
    (Gibbs chain vs. its initializer, per-iteration batches in training, ...)
    without any hidden entropy.
    """
    h = _mix(_as_u64(seed))
    for tag in tags:
        if isinstance(tag, str):
            for byte in tag.encode("utf-8"):
                h = _mix(h ^ np.uint64(byte))
        else:
            h = _mix(h ^ _as_u64(tag))
    return int(h)


def uniform_field(seed: int, rows: np.ndarray, round_index: int, n_slots: int) -> np.ndarray:
    """Uniforms in [0,1) keyed by (seed, row, round, slot), shape (len(rows), n_slots)."""
    rows = np.asarray(rows, dtype=np.uint64).reshape(-1, 1)
    slots = np.arange(n_slots, dtype=np.uint64).reshape(1, -1)
    h = _mix(_mix(_mix(_mix(_as_u64(seed)) ^ rows) ^ _as_u64(round_index)) ^ slots)
    return _to_unit(h)


class Stream:
    """Sequential uniforms off a counter; convenience wrapper for generators.

    Draw k values at a time; the k-th overall value is hash(seed, k), so the
    stream is reproducible and position-addressable.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _U64_MASK
        self.pos = 0

    def uniforms(self, k: int) -> np.ndarray:
        idx = np.arange(self.pos, self.pos + k, dtype=np.uint64)
        self.pos += k
        return _to_unit(hash_u64(self.seed, idx))

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def integers(self, k: int, bound: int) -> np.ndarray:
        """k integers uniform over [0, bound)."""
        return np.minimum((self.uniforms(k) * bound).astype(np.int64), bound - 1)

    def permutation(self, n: int) -> np.ndarray:
        return np.argsort(self.uniforms(n), kind="stable")
