import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmrf import rng
from cmrf.rng import (
    _to_unit,
    bernoulli_cells,
    bernoulli_field,
    bernoulli_threshold,
    row_hashes,
    uniform_field,
)

# p values where floor(p * 2**53) or the float compare could go wrong: the
# ends, the subnormal minimum, one ulp below 0.5 and 1, and 2**-53 / 2**-54,
# which put T at 1 and 0 (a p between two grid points).
EDGE_P = [0.0, 1.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(1.0, 0.0), 5e-324, 2.0**-53,
          2.0**-54]


def _boundary_hashes(p: float) -> np.ndarray:
    """Hashes whose top 53 bits k sit at T - 1, T and T + 1 (T = floor(p * 2**53)),
    each with the low 11 bits all 0 and all 1, plus the extreme hashes."""
    top = math.floor(p * 2**53)
    ks = [k for k in (top - 1, top, top + 1) if 0 <= k < 2**53]
    return np.array([(k << 11) | low for k in ks for low in (0, 2047)] + [0, 2**64 - 1],
                    dtype=np.uint64)


def _test_ps() -> list[float]:
    rng = np.random.default_rng(0)
    random_p = np.concatenate([rng.random(2000), 2.0 ** -rng.integers(1, 60, size=200)])
    return EDGE_P + random_p.tolist()


def test_threshold_matches_float_compare_at_the_boundaries():
    for p in _test_ps():
        h = _boundary_hashes(p)
        assert np.array_equal(h > bernoulli_threshold(p), _to_unit(h) > p), p


def _field(seed, rows, round_index, threshold):
    """bernoulli_field unpacked to (len(rows), len(threshold)) bool."""
    words = bernoulli_field(row_hashes(seed, rows), round_index, threshold)
    assert words.dtype == rng.WORD
    assert words.shape == (threshold.size, -(-len(rows) // 64))
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    assert not bits[:, len(rows):].any()  # bits past the last row are 0
    return bits[:, : len(rows)].T.astype(bool)


@pytest.mark.parametrize("round_index", [0, 7])
def test_bernoulli_field_equals_uniform_compare(round_index):
    p = np.array(_test_ps())
    rows = np.arange(3, 203)
    bits = _field(11, rows, round_index, bernoulli_threshold(p))
    assert np.array_equal(bits, uniform_field(11, rows, round_index, p.size) > p)


def test_bernoulli_field_ends():
    bits = _field(5, np.arange(1000), 2, bernoulli_threshold([0.0, 1.0]))
    assert bits[:, 0].all() and not bits[:, 1].any()


WIDTH = 300
BLOCK_ROWS = rng._BLOCK_CELLS // WIDTH  # rows of WIDTH cells that fill one block
ROW_STEP = 64 * (rng._BLOCK_CELLS // (64 * WIDTH))  # rows per block at WIDTH
WIDE = rng._BLOCK_CELLS // 64 + 1  # 64 rows of this many variables overflow a block


@pytest.mark.parametrize("rows, width", [
    (0, WIDTH), (1, WIDTH), (BLOCK_ROWS - 1, WIDTH), (BLOCK_ROWS, WIDTH),
    (BLOCK_ROWS + 1, WIDTH), (3, rng._BLOCK_CELLS + 5),  # one row is wider than a block
    (5, 0),
    (63, WIDTH), (64, WIDTH), (65, WIDTH),  # word edges
    (ROW_STEP - 1, WIDTH), (ROW_STEP, WIDTH), (ROW_STEP + 1, WIDTH),
    (65, WIDE), (129, WIDE - 2),  # blocks split the variables
])
def test_bernoulli_field_at_block_edges(rows, width):
    p = np.random.default_rng(rows).random(width)
    ids = np.arange(7, 7 + rows)
    bits = _field(3, ids, 4, bernoulli_threshold(p))
    assert np.array_equal(bits, uniform_field(3, ids, 4, width) > p)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    round_index=st.integers(0, 2**32),
    mask=st.integers(0, 30).flatmap(
        lambda width: arrays(bool, st.tuples(st.integers(0, 20), st.just(width)))),
    p_seed=st.integers(0, 2**32 - 1),
)
def test_bernoulli_cells_equal_the_field_at_the_cells(seed, round_index, mask, p_seed):
    rows, width = mask.shape
    p = np.random.default_rng(p_seed).random(width)
    p[::3] = np.array([0.0, 1.0, 0.5])[np.arange(len(p[::3])) % 3]
    ids = np.arange(100, 100 + 2 * rows, 2)
    threshold = bernoulli_threshold(p)
    r, v = np.nonzero(mask)
    cells = bernoulli_cells(row_hashes(seed, ids), round_index, threshold, r, v)
    assert np.array_equal(cells, _field(seed, ids, round_index, threshold)[mask])


def test_bernoulli_cells_across_blocks():
    # More cells than one block holds, in an order that is not row-major.
    rows, width = 400, 300
    p = np.random.default_rng(1).random(width)
    ids = np.arange(rows)
    cells = np.random.default_rng(2).permutation(rows * width)[: rng._BLOCK_CELLS * 2 + 7]
    r, v = np.divmod(cells, width)
    threshold = bernoulli_threshold(p)
    bits = bernoulli_cells(row_hashes(9, ids), 5, threshold, r, v)
    assert np.array_equal(bits, _field(9, ids, 5, threshold)[r, v])
