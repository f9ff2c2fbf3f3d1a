import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmrf import rng
from cmrf.rng import (
    _to_unit,
    bernoulli_bits,
    bernoulli_cells,
    bernoulli_threshold,
    bernoulli_words,
    fold_seed,
    hash_u64,
    row_hashes,
)
from corpus import uniform_field

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


def _field(seed, rows, round_index, threshold, variables=None):
    """bernoulli_bits of `variables` (default: every variable of threshold),
    transposed to (len(rows), len(variables))."""
    if variables is None:
        variables = np.arange(threshold.size)
    bits = bernoulli_bits(row_hashes(seed, rows), round_index, threshold, variables)
    assert bits.dtype == bool and bits.shape == (variables.size, len(rows))
    return bits.T


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


def test_bernoulli_bits_of_a_shuffled_subset():
    # A cell is keyed by its variable, so a proper subset drawn in any order
    # gives the matching columns of the full field; 1500 rows of 100
    # variables take three blocks.
    p = np.random.default_rng(6).random(WIDTH)
    variables = np.random.default_rng(7).permutation(WIDTH)[: WIDTH // 3]
    ids = np.arange(2, 1502)
    bits = _field(17, ids, 3, bernoulli_threshold(p), variables)
    assert np.array_equal(bits, uniform_field(17, ids, 3, WIDTH)[:, variables] > p[variables])


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


def _lane_draw(seed, row, round_index, v, threshold):
    """The word key's draw of (row, v), one lane at a time: walk the 53 bits
    of the row's uniform U from the top, each from its own hash of (word,
    round, v, step), and stop at the first bit that differs from T's."""
    top, key = int(threshold) >> 11, fold_seed(seed, "words")
    for k in range(53):
        bit = (int(hash_u64(key, row // 64, round_index, v, k)) >> (row % 64)) & 1
        if bit != (top >> (52 - k)) & 1:
            return bit
    return 0  # U == T


def _words_bits(seed, first_row, b, round_index, threshold):
    """bernoulli_words unpacked to (n, b) uint8, checking its layout and
    that the padding bits past b are 0."""
    words = bernoulli_words(seed, first_row, b, round_index, threshold)
    assert words.dtype == rng.WORD and words.shape == (threshold.size, -(-b // 64))
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    assert not bits[:, b:].any()
    return bits[:, :b]


WORD_P = np.array([0.0, 1.0, 0.5, np.nextafter(0.5, 0.0), 2.0**-53, 0.3, 0.97, 0.012])


@pytest.mark.parametrize("first_row", [0, 1, 63, 64, 100])
@pytest.mark.parametrize("b", [1, 63, 64, 65, 200])
def test_bernoulli_words_equal_the_lane_reference(first_row, b):
    threshold = bernoulli_threshold(WORD_P)
    bits = _words_bits(21, first_row, b, 3, threshold)
    expected = [[_lane_draw(21, first_row + r, 3, v, threshold[v]) for r in range(b)]
                for v in range(WORD_P.size)]
    assert np.array_equal(bits, expected)


def test_bernoulli_words_undecided_pairs_take_the_remaining_steps(monkeypatch):
    # With one step hashed up front, most (variable, word) pairs keep a lane
    # undecided, so nearly every bit comes from the remaining steps.
    threshold = bernoulli_threshold(np.random.default_rng(4).random(40))
    full = bernoulli_words(8, 37, 1000, 2, threshold)
    monkeypatch.setattr(rng, "_SLICE_STEPS", 1)
    assert np.array_equal(bernoulli_words(8, 37, 1000, 2, threshold), full)
    assert np.array_equal(_words_bits(8, 37, 20, 2, threshold[:3]),
                          [[_lane_draw(8, 37 + r, 2, v, threshold[v]) for r in range(20)]
                           for v in range(3)])


def test_bernoulli_words_ends():
    # p_zero = 1 never draws a 1; p_zero = 0 draws 1 unless U == 0 exactly.
    bits = _words_bits(5, 17, 1000, 0, bernoulli_threshold([1.0, 0.0]))
    assert not bits[0].any() and bits[1].all()


def test_bernoulli_words_across_blocks():
    # More (variable, word) pairs than one block of _SLICE_STEPS hashes holds,
    # split both ways; rows drawn apart equal the rows drawn together.
    wide = rng._BLOCK_CELLS // rng._SLICE_STEPS + 3
    for n, b in ((3, 64 * wide), (wide, 70)):
        threshold = bernoulli_threshold(np.random.default_rng(n).random(n))
        bits = _words_bits(2, 5, b, 1, threshold)
        for first, stop in ((0, 64), (64, 65), (65, b)):
            assert np.array_equal(_words_bits(2, 5 + first, stop - first, 1, threshold),
                                  bits[:, first:stop])


def test_bernoulli_words_mean():
    p = np.array([0.1, 0.5, 0.9])
    bits = _words_bits(13, 0, 200_000, 0, bernoulli_threshold(p))
    # 5 standard deviations of a mean of 2e5 Bernoulli draws is at most 0.0056
    assert np.all(np.abs(bits.mean(axis=1) - (1 - p)) < 0.0056)
