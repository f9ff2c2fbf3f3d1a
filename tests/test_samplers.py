from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmrf import samplers
from cmrf.cnf import (
    Clause,
    ConstraintSet,
    Literal,
    build_dependency_graph,
    clause,
    gamma,
    pack_rows,
    satisfies_all,
    unpack_rows,
    violated_constraints,
    violation_matrix,
)
from cmrf.model import ModelParams, marginals
from cmrf.oracle import empirical_table, exact_distribution, tv_distance
from cmrf.rng import WORD, fold_seed
from cmrf.samplers import (
    SamplerConfig,
    SamplerExhaustedError,
    _ConstraintKernel,
    _unpack_rows,
    draw_valid_rows,
    gibbs_sample,
    moser_tardos_sample,
    nelson_sample,
    sample_stream,
)

import corpus


def uniform(n):
    return ModelParams(np.zeros(n))


def _gibbs(cs, m, cfg):
    """The first batch of a Gibbs stream: chains from the stream's own starts."""
    return next(sample_stream(cs, m, "gibbs", cfg))


class TestNelson:
    def test_unconstrained_terminates_immediately(self):
        cs = ConstraintSet(n_vars=2)
        batch, stats = nelson_sample(cs, uniform(2), SamplerConfig(batch_size=20_000, seed=1))
        assert (stats.rounds_per_row == 1).all()
        assert stats.per_constraint_resamples.size == 0
        assert batch.valid_flags.all()
        table = empirical_table(batch.rows)
        assert tv_distance(table, {k: 0.25 for k in ("00", "01", "10", "11")}) < 0.02

    def test_toy_unbiased(self, toy_cs, toy_uniform):
        batch, _ = nelson_sample(
            toy_cs, toy_uniform, SamplerConfig(batch_size=100_000, seed=42)
        )
        assert batch.valid_flags.all()
        table = empirical_table(batch.rows)
        for key in ("010", "011", "101", "111"):
            assert table[key] == pytest.approx(0.25, abs=0.01)
        exact = exact_distribution(toy_cs, toy_uniform).prob_table()
        assert tv_distance(table, exact) <= 0.02

    def test_unsatisfiable_flags_all_rows(self):
        cs = ConstraintSet(n_vars=1, clauses=(clause(1), clause(-1)))
        cfg = SamplerConfig(batch_size=50, seed=0, t_tryout=25)
        batch, stats = nelson_sample(cs, uniform(1), cfg)
        assert not batch.valid_flags.any()
        assert np.count_nonzero(~batch.valid_flags) == 50
        assert (stats.rounds_per_row == 25).all()

    def test_valid_flags_imply_satisfaction(self):
        for name, cs in corpus.extremal_corpus()[:6]:
            m = corpus.uniform_params(cs)
            batch, _ = nelson_sample(cs, m, SamplerConfig(batch_size=2000, seed=3))
            good = batch.rows[batch.valid_flags]
            assert satisfies_all(cs, good).all(), name

    def test_exactly_one_groups_native(self):
        cs = ConstraintSet(
            n_vars=3, exactly_one_groups=(frozenset({0, 1}), frozenset({1, 2}))
        )
        batch, _ = nelson_sample(cs, uniform(3), SamplerConfig(batch_size=20_000, seed=9))
        good = batch.rows[batch.valid_flags]
        assert satisfies_all(cs, good).all()
        assert good.shape[0] > 0


@st.composite
def mixed_sets_and_rows(draw):
    """Clauses of unequal width mixed with exactly-one groups (size 1
    included), often leaving variables in no constraint, plus a 0/1 batch of
    up to three words of rows."""
    n = draw(st.integers(1, 7))
    clauses = []
    for _ in range(draw(st.integers(0, 4))):
        variables = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        clauses.append(Clause(tuple(Literal(v, draw(st.booleans())) for v in variables)))
    groups = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), max_size=3))
    cs = ConstraintSet(n_vars=n, clauses=tuple(clauses), exactly_one_groups=tuple(groups))
    X = draw(arrays(np.uint8, st.tuples(st.integers(0, 130), st.just(n)), elements=st.integers(0, 1)))
    return cs, X


def _words(X: np.ndarray) -> np.ndarray:
    """(b, k) 0/1 rows as (k, ceil(b / 64)) words, 64 rows to a word."""
    words = np.zeros((X.shape[1], -(-X.shape[0] // 64)), dtype=WORD)
    packed = np.packbits(X.T.astype(bool), axis=1, bitorder="little")
    words.view(np.uint8)[:, : packed.shape[1]] = packed
    return words


def _support_rows(cs, constraints):
    """(len(constraints), n) bool: row k marks the variables of constraints[k]."""
    out = np.zeros((len(constraints), cs.n_vars), dtype=bool)
    for k, j in enumerate(constraints):
        out[k, sorted(cs.constraint_variables(j))] = True
    return out


def _wide_clauses():
    """A 40-literal clause of alternating signs and an all-negated one over
    another 20 variables, on rows that falsify each, both or neither."""
    mixed = clause(*[i if i % 2 else -i for i in range(1, 41)])
    negated = clause(*range(-60, -40))
    falsify_mixed = np.arange(60) % 2
    X = np.array([np.zeros(60), np.ones(60), falsify_mixed, 1 - falsify_mixed,
                  np.r_[falsify_mixed[:40], np.ones(20)], np.r_[1 - falsify_mixed[:40], np.ones(20)]],
                 dtype=np.uint8)
    X[-1, 59] = 0
    return ConstraintSet(n_vars=60, clauses=(mixed, negated)), X


# A clause/group set for batches at word edges, and random rows for them.
_EDGE_SET = ConstraintSet(
    n_vars=5,
    clauses=(clause(1, -2, 3), clause(-3, 4), clause(5)),
    exactly_one_groups=(frozenset({0, 3}), frozenset({1, 2, 4})),
)


def _edge_rows(b):
    return (np.random.default_rng(b).random((b, 5)) < 0.5).astype(np.uint8)


def _skewed_set():
    """A 40-literal clause over a hub variable (0, in every clause) and 20
    3-clauses, a 30-member group among 1-member ones: each of the clause,
    group and variable lists is padded as more than one matrix (_split)."""
    clauses = (clause(*range(1, 41)),) + tuple(clause(1, -i, i + 1) for i in range(2, 41, 2))
    groups = (frozenset(range(10, 40)), *(frozenset({i}) for i in range(1, 9)))
    X = (np.random.default_rng(5).random((70, 41)) < 0.5).astype(np.uint8)
    X[:35, 10:40] = np.eye(30)[np.arange(35) % 30]  # the wide group holds on half the rows
    X[:20, 1:9] = 1
    return ConstraintSet(n_vars=41, clauses=clauses, exactly_one_groups=groups), X


@given(mixed_sets_and_rows())
@settings(max_examples=200, deadline=None)
@example((ConstraintSet(n_vars=3), np.array([[0, 1, 0], [1, 1, 1]], dtype=np.uint8)))
@example((
    ConstraintSet(n_vars=3, clauses=(clause(1, -2),), exactly_one_groups=(frozenset({2}),)),
    np.zeros((0, 3), dtype=np.uint8),
))
@example((_EDGE_SET, _edge_rows(63)))
@example((_EDGE_SET, _edge_rows(64)))
@example((_EDGE_SET, _edge_rows(65)))
@example(_wide_clauses())
@example(_skewed_set())
@example((  # a 257-wide group: true literal counts of 0, 1, 257 and 2
    ConstraintSet(n_vars=257, clauses=(clause(*range(1, 257)), clause(3)),
                  exactly_one_groups=(frozenset(range(257)),)),
    np.array([np.zeros(257), np.eye(257)[2], np.ones(257), np.eye(257)[0] + np.eye(257)[256]],
             dtype=np.uint8),
))
@example((
    ConstraintSet(n_vars=3, exactly_one_groups=(frozenset({0}), frozenset({1}), frozenset({2}))),
    np.array([[0, 0, 0], [1, 0, 1], [1, 1, 1]], dtype=np.uint8),
))
@example((
    ConstraintSet(
        n_vars=4,
        clauses=(clause(1, -2), clause(-1)),
        exactly_one_groups=(frozenset({1}), frozenset({0, 1})),
    ),
    np.array([[0, 0, 0, 0], [1, 1, 0, 1], [0, 1, 1, 0]], dtype=np.uint8),
))
def test_kernel_matches_reference(case):
    cs, X = case
    b = len(X)
    kernel = _ConstraintKernel(cs)
    words = _words(X)
    assert np.array_equal(_unpack_rows(words, b), X)
    table = kernel.table(words)
    # Values, negations, a zero row at 2n and an all-ones row at 2n + 1.
    constants = np.array([[0], [~np.uint64(0)]], dtype=WORD).repeat(words.shape[1], axis=1)
    assert np.array_equal(table, np.vstack([words, ~words, constants]))
    V = kernel.violations(table)
    assert V.shape == (cs.n_constraints + 1, words.shape[1]) and not V[-1].any()
    S = violation_matrix(cs, X)
    assert np.array_equal(_unpack_rows(V[:-1], b), S)
    union = np.array([_support_rows(cs, np.nonzero(s)[0]).any(axis=0) for s in S])
    marked = np.vstack([_words(S), np.zeros((1, words.shape[1]), dtype=WORD)])
    mask = kernel.union_mask(marked)
    assert np.array_equal(mask, _words(union.reshape(b, cs.n_vars)))


@pytest.mark.parametrize("lists", [
    [[1, 2], [3], [], [4, 5, 6]],
    [list(range(1000))] + [[j, j + 1, j + 2] for j in range(500)] + [[]] * 7,
    [list(range(4 ** k)) for k in range(7)],
    [[0]] * 300 + [list(range(300))] + [[1, 2]] * 300,
], ids=["uniform", "long-list", "geometric", "hub"])
def test_split_pads_each_list_once_within_the_spread(lists):
    parts = samplers._split(lists, -1, first=7)
    entries = [max(1, len(row)) for row in lists]
    places = []
    for cols, rows in parts:
        cols = np.arange(7 + len(lists))[cols]  # a slice or the places themselves
        places += (cols - 7).tolist()
        assert rows.shape[1] == cols.size
        assert rows.size <= samplers._SPREAD * sum(entries[j] for j in cols - 7)
        for column, j in zip(rows.T, cols - 7):
            width = len(lists[j])
            assert column[:width].tolist() == lists[j] and (column[width:] == -1).all()
    assert sorted(places) == list(range(len(lists)))
    # Padding to the widest stays within the spread only on the uniform lists,
    # which are then one matrix in list order.
    assert (len(parts) == 1) == (len(lists) * max(entries) <= samplers._SPREAD * sum(entries))
    assert isinstance(parts[0][0], slice) == (len(parts) == 1)


def test_kernel_is_built_once_per_constraint_set(monkeypatch):
    builds, plans = [], []

    class Counting(_ConstraintKernel):
        def __init__(self, cs):
            builds.append(cs)
            super().__init__(cs)

        @cached_property
        def gibbs_levels(self):
            plans.append(self)
            return _ConstraintKernel.gibbs_levels.func(self)

    monkeypatch.setattr(samplers, "_ConstraintKernel", Counting)
    samplers._kernel.cache_clear()
    cs = ConstraintSet(n_vars=4, clauses=(clause(1, 2), clause(-3, 4)))
    m = uniform(4)
    for seed in range(3):
        nelson_sample(cs, m, SamplerConfig(batch_size=50, seed=seed))
    moser_tardos_sample(cs, m, SamplerConfig(batch_size=50))
    assert not plans  # the resamplers never build the Gibbs plan
    chains = [_gibbs(cs, m, SamplerConfig(batch_size=5, seed=seed, gibbs_burn_in=2))[0].rows
              for seed in (1, 2, 1)]
    assert builds == [cs] and len(plans) == 1
    # A chain leaves the shared plan as it found it.
    assert np.array_equal(chains[0], chains[2]) and not np.array_equal(chains[0], chains[1])
    samplers._kernel.cache_clear()


def test_gibbs_buffers_live_per_call():
    # The sweep's buffers depend on the chain count, so each call builds its
    # own: calls of 100, 130 and 100 chains and a one-sweep call on one cached
    # kernel each give the bytes of a run on a fresh kernel.
    from cmrf.problems import gen_sinkfree

    cs = gen_sinkfree(6, 0.6, seed=2).constraints
    m = ModelParams(np.linspace(-1.0, 1.0, cs.n_vars))
    x0 = nelson_sample(cs, m, SamplerConfig(batch_size=1, seed=3))[0].rows[0]
    configs = [SamplerConfig(batch_size=b, seed=11, gibbs_burn_in=sweeps)
               for b, sweeps in ((100, 5), (130, 5), (100, 5), (100, 1))]

    def chains(cfg):
        starts = pack_rows(np.tile(x0, (cfg.batch_size, 1)))
        return gibbs_sample(cs, m, cfg, starts)[0].words.tobytes()

    fresh = []
    for cfg in configs:
        samplers._kernel.cache_clear()
        fresh.append(chains(cfg))
    samplers._kernel.cache_clear()
    kernel = samplers._kernel(cs)
    assert [chains(cfg) for cfg in configs] == fresh
    assert samplers._kernel(cs) is kernel and len(set(fresh)) == 3
    samplers._kernel.cache_clear()


def _gibbs_mixed_set():
    """The constraint set of the gibbs_mixed golden: clauses that share
    variables with two of its three exactly-one groups."""
    return ConstraintSet(
        n_vars=12,
        clauses=(clause(1, 4), clause(-2, 5, 7), clause(-4, -5), clause(6, -8, 9),
                 clause(-9, 11), clause(3, -11, 4), clause(8, 12), clause(-12, -7, 11)),
        exactly_one_groups=(frozenset({0, 1, 2}), frozenset({5, 6}), frozenset({9})),
    )


def test_gibbs_plan_leaves_out_group_members():
    # A group member never moves from a valid state, so only the variables in
    # no group get levels, and the members come after the last level.
    from cmrf.problems import gen_routes

    order, levels = _ConstraintKernel(gen_routes(4).constraints).gibbs_levels
    assert levels == [] and sorted(order.tolist()) == list(range(12))
    cs = _gibbs_mixed_set()
    order, levels = _ConstraintKernel(cs).gibbs_levels
    members = set().union(*cs.exactly_one_groups)
    planned = order[: levels[-1][1]].tolist()
    assert [start for start, *_ in levels] == [0] + [stop for _, stop, *_ in levels[:-1]]
    assert not members & set(planned) and set(order[len(planned):].tolist()) == members
    for start, stop, lits, depth in levels:
        assert sum(rows.shape[1] for _, rows in lits) == 2 * depth * (stop - start)


def test_gibbs_sweeps_draw_the_free_variables_only(monkeypatch):
    # No update reads a group member's draw, so each sweep hashes the cells
    # of the free variables alone, in plan order.
    cs = _gibbs_mixed_set()
    m = ModelParams(np.linspace(-1.0, 1.0, cs.n_vars))
    starts = draw_valid_rows(cs, m, "nelson", 50, seed=3)
    order, levels = samplers._kernel(cs).gibbs_levels
    free = order[: levels[-1][1]]
    calls, bits = [], samplers.bernoulli_bits

    def spy(row_hash, round_index, threshold, variables):
        calls.append((round_index, variables.tolist()))
        return bits(row_hash, round_index, threshold, variables)

    monkeypatch.setattr(samplers, "bernoulli_bits", spy)
    cfg = SamplerConfig(batch_size=50, seed=7, gibbs_burn_in=10)
    batch, _ = gibbs_sample(cs, m, cfg, pack_rows(starts))
    assert calls == [(sweep, free.tolist()) for sweep in range(1, 11)]
    assert not set(free.tolist()) & set().union(*cs.exactly_one_groups)
    assert satisfies_all(cs, batch.rows).all()


@st.composite
def gibbs_chains(draw):
    """A mixed clause/group set (n <= 8) built to hold at a drawn start x0,
    with weights and a seed for a chain from x0."""
    n = draw(st.integers(1, 8))
    x0 = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
    clauses = []
    for _ in range(draw(st.integers(0, 4))):
        variables = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        lits = [Literal(v, draw(st.booleans())) for v in variables]
        if all(x0[lit.variable_index] == lit.negated for lit in lits):
            lits[0] = Literal(lits[0].variable_index, not lits[0].negated)
        clauses.append(Clause(tuple(lits)))
    ones, zeros = np.flatnonzero(x0).tolist(), np.flatnonzero(x0 == 0).tolist()
    groups = []
    for _ in range(draw(st.integers(0, 3)) if ones else 0):
        rest = draw(st.frozensets(st.sampled_from(zeros))) if zeros else frozenset()
        groups.append(rest | {draw(st.sampled_from(ones))})
    cs = ConstraintSet(n_vars=n, clauses=tuple(clauses), exactly_one_groups=tuple(groups))
    theta = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return cs, theta, x0, draw(st.integers(0, 2**32))


def _site_by_site_gibbs(cs, m, seed, row, burn_in, x0):
    """The chain gibbs_sample must reproduce for global row `row`: visit sites
    in index order, test both values of each against the reference
    evaluator, and draw a 1 where the chain's uniform exceeds p_zero."""
    n = cs.n_vars
    chain_seed = fold_seed(seed, "gibbs-chain")
    p_zero = marginals(m)
    x = x0.copy()
    for sweep in range(1, burn_in + 1):
        U = corpus.uniform_field(chain_seed, [row], sweep, n)[0]
        for i in range(n):
            both = np.repeat(x[None], 2, axis=0)
            both[:, i] = (0, 1)
            ok0, ok1 = ~violation_matrix(cs, both).any(axis=1)
            assert (ok0, ok1)[x[i]]  # the current value is always feasible
            x[i] = ok1 and (not ok0 or U[i] > p_zero[i])
    return x


@given(gibbs_chains())
@settings(max_examples=150, deadline=None)
@example((ConstraintSet(n_vars=3), [0.5, -1.0, 0.0], np.array([1, 0, 1], dtype=np.uint8), 3))
@example((  # variable 2 is in no constraint
    ConstraintSet(n_vars=3, clauses=(clause(1, -2),)),
    [0.0, 1.0, -1.0], np.array([0, 0, 1], dtype=np.uint8), 4,
))
@example((  # a size-1 group pins its member
    ConstraintSet(n_vars=2, clauses=(clause(-1, 2),), exactly_one_groups=(frozenset({1}),)),
    [0.0, 0.0], np.array([1, 1], dtype=np.uint8), 5,
))
@example((  # level 0 is {0, 1}: degrees 1 and 2, widths 2 against 3 and 2, own literal
    # of variable 0 negated, and a group, so rows and slots are padded
    ConstraintSet(
        n_vars=4,
        clauses=(clause(-1, 3), clause(2, -3, 4)),
        exactly_one_groups=(frozenset({1, 3}),),
    ),
    [0.3, -0.7, 1.2, 0.0], np.array([1, 1, 1, 0], dtype=np.uint8), 7,
))
@example((  # variable 0 sees a 10-literal clause and three 2-literal ones, so its
    # level is padded as two matrices (_split)
    ConstraintSet(n_vars=13, clauses=(clause(*range(1, 11)), clause(1, 11), clause(1, 12),
                                      clause(1, -13), clause(-2, 11))),
    np.linspace(-1.0, 1.0, 13).tolist(), np.eye(13, dtype=np.uint8)[0], 8,
))
@example((  # a clause and a group sharing variables
    ConstraintSet(
        n_vars=4,
        clauses=(clause(1, -2, 4), clause(-3, 4)),
        exactly_one_groups=(frozenset({0, 1, 2}),),
    ),
    [1.0, -0.5, 0.2, 0.0], np.array([1, 0, 0, 0], dtype=np.uint8), 6,
))
def test_gibbs_matches_site_by_site_scan(case):
    cs, theta, x0, seed = case
    m = ModelParams(np.asarray(theta))
    cfg = SamplerConfig(batch_size=6, seed=seed, gibbs_burn_in=3, row_offset=seed % 100)
    batch, stats = gibbs_sample(cs, m, cfg, pack_rows(np.tile(x0, (6, 1))))
    rows = [_site_by_site_gibbs(cs, m, seed, cfg.row_offset + r, 3, x0) for r in range(6)]
    assert np.array_equal(batch.rows, np.array(rows, dtype=np.uint8))
    assert batch.valid_flags.all() and (stats.rounds_per_row == 3).all()


def test_gibbs_batch_equals_single_chains():
    # 130 chains fill two words and part of a third.
    from cmrf.problems import gen_sinkfree

    cs = gen_sinkfree(6, 0.6, seed=2).constraints
    m = ModelParams(np.linspace(-1.0, 1.0, cs.n_vars))
    x0 = nelson_sample(cs, m, SamplerConfig(batch_size=1, seed=3))[0].rows[0]
    cfg = SamplerConfig(batch_size=130, seed=11, gibbs_burn_in=4)
    batch, _ = gibbs_sample(cs, m, cfg, pack_rows(np.tile(x0, (130, 1))))
    singles = [gibbs_sample(cs, m, replace(cfg, batch_size=1, row_offset=r),
                            pack_rows(x0[None]))[0].rows[0]
               for r in range(130)]
    assert np.array_equal(batch.rows, np.array(singles))
    assert len(np.unique(batch.rows, axis=0)) > 1


class TestMoserTardos:
    def test_unconstrained_identical_to_nelson(self):
        cs = ConstraintSet(n_vars=3)
        cfg = SamplerConfig(batch_size=500, seed=5)
        bn, _ = nelson_sample(cs, uniform(3), cfg)
        bm, _ = moser_tardos_sample(cs, uniform(3), cfg)
        assert np.array_equal(bn.rows, bm.rows)

    def test_toy_unbiased(self, toy_cs, toy_uniform):
        batch, _ = moser_tardos_sample(
            toy_cs, toy_uniform, SamplerConfig(batch_size=100_000, seed=17)
        )
        exact = exact_distribution(toy_cs, toy_uniform).prob_table()
        assert tv_distance(empirical_table(batch.rows), exact) <= 0.02

    def test_never_faster_than_full_resampling(self, toy_cs, toy_uniform):
        cfg = SamplerConfig(batch_size=100_000, seed=23)
        _, sn = nelson_sample(toy_cs, toy_uniform, cfg)
        _, sm = moser_tardos_sample(toy_cs, toy_uniform, cfg)
        assert sm.rounds_per_row.mean() >= sn.rounds_per_row.mean()

    def test_strictly_slower_with_parallel_violations(self):
        cs = corpus.disjoint_pairs(4)
        m = corpus.uniform_params(cs)
        cfg = SamplerConfig(batch_size=30_000, seed=29)
        _, sn = nelson_sample(cs, m, cfg)
        _, sm = moser_tardos_sample(cs, m, cfg)
        assert sm.rounds_per_row.mean() > sn.rounds_per_row.mean()

    def test_single_tally_per_round(self):
        cs = corpus.disjoint_pairs(3)
        cfg = SamplerConfig(batch_size=1000, seed=31)
        _, sm = moser_tardos_sample(cs, corpus.uniform_params(cs), cfg)
        resample_rounds = (sm.rounds_per_row - 1).sum()
        assert sm.per_constraint_resamples.sum() == resample_rounds


class TestDeterminism:
    def test_identical_config_identical_output(self, toy_cs, toy_uniform):
        cfg = SamplerConfig(batch_size=300, seed=77)
        b1, s1 = nelson_sample(toy_cs, toy_uniform, cfg)
        b2, s2 = nelson_sample(toy_cs, toy_uniform, cfg)
        assert np.array_equal(b1.rows, b2.rows)
        assert np.array_equal(s1.rounds_per_row, s2.rounds_per_row)
        assert np.array_equal(s1.per_constraint_resamples, s2.per_constraint_resamples)

    def test_batch_equals_sequential(self, toy_cs, toy_uniform):
        b = 64
        batch, stats = nelson_sample(toy_cs, toy_uniform, SamplerConfig(batch_size=b, seed=4))
        for row_index in range(b):
            single, single_stats = nelson_sample(
                toy_cs,
                toy_uniform,
                SamplerConfig(batch_size=1, seed=4, row_offset=row_index),
            )
            assert np.array_equal(single.rows[0], batch.rows[row_index])
            assert single_stats.rounds_per_row[0] == stats.rounds_per_row[row_index]

    @pytest.mark.parametrize("sampler", [nelson_sample, moser_tardos_sample])
    @pytest.mark.parametrize("instance", ["mixed", "routes3"])
    def test_word_edge_batches_equal_single_rows(self, sampler, instance):
        # Batches that end on, before and after a 64-row word edge, against
        # the same rows drawn one at a time; t_tryout = 50 leaves INVALID rows
        # on routes(3).
        if instance == "mixed":
            cs, m = _EDGE_SET, ModelParams([0.3, -0.5, 0.0, 1.0, -1.0])
        else:
            from cmrf.problems import gen_routes, instance_theta

            inst = gen_routes(3, seed=0)
            cs, m = inst.constraints, instance_theta(inst)
        cfg = SamplerConfig(batch_size=1, seed=8, t_tryout=50)
        singles = [sampler(cs, m, replace(cfg, row_offset=r)) for r in range(129)]
        rows = np.vstack([batch.rows for batch, _ in singles])
        valid = np.concatenate([batch.valid_flags for batch, _ in singles])
        rounds = np.concatenate([stats.rounds_per_row for _, stats in singles])
        tallies = np.array([stats.per_constraint_resamples for _, stats in singles])
        assert instance == "mixed" or not valid.all()
        for b in (1, 63, 64, 65, 127, 128, 129):
            batch, stats = sampler(cs, m, replace(cfg, batch_size=b))
            assert np.array_equal(batch.rows, rows[:b]), b
            assert np.array_equal(batch.valid_flags, valid[:b]), b
            assert np.array_equal(stats.rounds_per_row, rounds[:b]), b
            assert np.array_equal(stats.per_constraint_resamples, tallies[:b].sum(axis=0)), b
            assert np.count_nonzero(batch.valid_flags) == valid[:b].sum()

    @pytest.mark.parametrize("sampler", [nelson_sample, moser_tardos_sample, gibbs_sample])
    def test_rows_unpack_the_returned_words(self, sampler):
        # A batch is returned packed; its rows are unpacked on first use.
        cs, m = _EDGE_SET, ModelParams([0.3, -0.5, 0.0, 1.0, -1.0])
        cfg = SamplerConfig(batch_size=130, seed=6, gibbs_burn_in=3)
        if sampler is gibbs_sample:
            starts = pack_rows(draw_valid_rows(cs, m, "nelson", 130, seed=6))
            batch, _ = sampler(cs, m, cfg, starts)
        else:
            batch, _ = sampler(cs, m, cfg)
        assert batch.words.dtype == WORD and batch.words.shape == (cs.n_vars, 3)
        assert "rows" not in vars(batch)
        assert np.array_equal(batch.rows, unpack_rows(batch.words, 130))
        assert batch.rows is batch.rows and batch.rows.shape == (130, cs.n_vars)

    def test_seed_changes_output(self, toy_cs, toy_uniform):
        b1, _ = nelson_sample(toy_cs, toy_uniform, SamplerConfig(batch_size=200, seed=1))
        b2, _ = nelson_sample(toy_cs, toy_uniform, SamplerConfig(batch_size=200, seed=2))
        assert not np.array_equal(b1.rows, b2.rows)


class TestRecords:
    def test_transitions_stay_in_gamma(self):
        for name, cs in corpus.extremal_corpus()[:8]:
            m = corpus.uniform_params(cs)
            _, _, records = corpus.replay_violations(
                nelson_sample, cs, m, SamplerConfig(batch_size=1500, seed=11)
            )
            g = build_dependency_graph(cs)
            for rec in records:
                for t in range(len(rec) - 1):
                    assert rec[t + 1] <= gamma(g, rec[t]), name

    @pytest.mark.parametrize("sampler", [nelson_sample, moser_tardos_sample])
    @pytest.mark.parametrize("instance", ["toy", "routes3"])
    def test_cut_run_is_a_prefix(self, sampler, instance):
        # replay_violations asserts, for every t, that the run with
        # t_tryout = t keeps the rows done by round t and returns every other
        # row invalid at round t. Each of those rows must violate a
        # constraint by the reference evaluator, so a row's replayed sets are
        # nonempty and there is one per round it was checked and failed.
        if instance == "toy":
            cs = corpus.toy_formula()
            m, cfg = corpus.uniform_params(cs), SamplerConfig(batch_size=500, seed=13)
        else:
            from cmrf.problems import gen_routes, instance_theta

            inst = gen_routes(3, seed=0)
            cs, m = inst.constraints, instance_theta(inst)
            cfg = SamplerConfig(batch_size=300, seed=8, t_tryout=50)
        batch, stats, records = corpus.replay_violations(sampler, cs, m, cfg)
        assert instance == "toy" or not batch.valid_flags.all()
        assert any(records)
        failed = stats.rounds_per_row - batch.valid_flags
        assert [len(rec) for rec in records] == failed.tolist()
        for rec in records:
            assert all(s and max(s) < cs.n_constraints for s in rec)

    @pytest.mark.parametrize("share", [1.0, -1.0], ids=["sparse", "dense"])
    @pytest.mark.parametrize("sampler", [nelson_sample, moser_tardos_sample])
    @pytest.mark.parametrize("instance", ["toy", "routes3"])
    def test_masked_round_replays_from_independent_pieces(self, instance, sampler, share,
                                                          monkeypatch):
        # One masked round rebuilt without the kernel: round 0 from the word
        # key, the violated sets from the reference evaluator, the redrawn
        # cells from the cell key at round 1, on either draw path.
        from cmrf.problems import gen_routes, instance_theta
        from cmrf.rng import bernoulli_cells, bernoulli_threshold, bernoulli_words, row_hashes

        if instance == "toy":
            cs, m = corpus.toy_formula(), ModelParams([0.4, -0.7, 1.1])
        else:
            inst = gen_routes(3, seed=0)
            cs, m = inst.constraints, instance_theta(inst)
        monkeypatch.setattr(samplers, "_DENSE_SHARE", share)
        b, seed = 150, 21
        batch, stats = sampler(cs, m, SamplerConfig(batch_size=b, seed=seed, t_tryout=2))

        threshold = bernoulli_threshold(marginals(m))
        rows = unpack_rows(bernoulli_words(seed, 0, b, 0, threshold), b)
        violated = violation_matrix(cs, rows)
        if sampler is moser_tardos_sample:  # each row's lowest-indexed violation
            violated &= np.cumsum(violated, axis=1) == 1
        members = np.zeros((cs.n_constraints, cs.n_vars), dtype=bool)
        for j, cl in enumerate(cs.clauses):
            members[j, [lit.variable_index for lit in cl.literals]] = True
        for g, group in enumerate(cs.exactly_one_groups):
            members[cs.n_clauses + g, sorted(group)] = True
        r, v = np.nonzero(violated.astype(int) @ members)
        assert r.size
        rows[r, v] = bernoulli_cells(row_hashes(seed, np.arange(b)), 1, threshold, r, v)
        failed = violated.any(axis=1)
        assert np.array_equal(batch.rows, rows)
        assert np.array_equal(stats.rounds_per_row, np.where(failed, 2, 1))
        assert np.array_equal(batch.valid_flags, ~violation_matrix(cs, rows).any(axis=1))


class TestExpectedResampleCounts:
    def test_toy_tallies_match_oracle(self, toy_cs, toy_uniform):
        from cmrf.oracle import expected_resamples

        cfg = SamplerConfig(batch_size=100_000, seed=101)
        _, stats = nelson_sample(toy_cs, toy_uniform, cfg)
        per_run = stats.per_constraint_resamples / cfg.batch_size
        expected = expected_resamples(toy_cs, toy_uniform).per_constraint_expected
        assert np.abs(per_run - expected).max() / expected.max() < 0.05


class TestGibbs:
    def test_unconstrained_uniform(self):
        cs = ConstraintSet(n_vars=3)
        cfg = SamplerConfig(batch_size=30_000, seed=3, gibbs_burn_in=100)
        batch, _ = _gibbs(cs, uniform(3), cfg)
        table = empirical_table(batch.rows)
        exact = {format(i, "03b"): 1 / 8 for i in range(8)}
        assert tv_distance(table, exact) <= 0.03

    def test_toy_close_to_exact(self, toy_cs, toy_uniform):
        cfg = SamplerConfig(batch_size=100_000, seed=19, gibbs_burn_in=1000)
        batch, stats = _gibbs(toy_cs, toy_uniform, cfg)
        exact = exact_distribution(toy_cs, toy_uniform).prob_table()
        assert tv_distance(empirical_table(batch.rows), exact) <= 0.05
        assert (stats.rounds_per_row == 1000).all()

    def test_chain_stays_valid(self, toy_cs, toy_uniform):
        cfg = SamplerConfig(batch_size=500, seed=7, gibbs_burn_in=10)
        batch, _ = _gibbs(toy_cs, toy_uniform, cfg)
        assert satisfies_all(toy_cs, batch.rows).all()

    def test_invalid_init_rejected(self, toy_cs, toy_uniform):
        # Row 2 of the starts violates a constraint; then the starts lack a variable.
        cfg = SamplerConfig(batch_size=8, seed=0)
        starts = np.tile(np.array([0, 1, 1], dtype=np.uint8), (8, 1))
        starts[2] = 0
        with pytest.raises(ValueError, match="satisfy"):
            gibbs_sample(toy_cs, toy_uniform, cfg, pack_rows(starts))
        with pytest.raises(ValueError, match="words"):
            gibbs_sample(toy_cs, toy_uniform, cfg, pack_rows(starts)[:2])

    def test_valid_init_used(self, toy_cs, toy_uniform):
        # The 56 padding rows of the word are all zeros, which the toy set
        # forbids; only the 8 chains' own rows are checked.
        cfg = SamplerConfig(batch_size=8, seed=0, gibbs_burn_in=1)
        starts = pack_rows(np.tile(np.array([0, 1, 1], dtype=np.uint8), (8, 1)))
        batch, _ = gibbs_sample(toy_cs, toy_uniform, cfg, starts)
        assert satisfies_all(toy_cs, batch.rows).all()

    def test_unsatisfiable_raises(self):
        cs = ConstraintSet(n_vars=1, clauses=(clause(1), clause(-1)))
        cfg = SamplerConfig(batch_size=2, seed=0, t_tryout=10)
        with pytest.raises(SamplerExhaustedError):
            _gibbs(cs, uniform(1), cfg)

    def test_deterministic(self, toy_cs, toy_uniform):
        cfg = SamplerConfig(batch_size=50, seed=21, gibbs_burn_in=20)
        b1, _ = _gibbs(toy_cs, toy_uniform, cfg)
        b2, _ = _gibbs(toy_cs, toy_uniform, cfg)
        assert np.array_equal(b1.rows, b2.rows)

    def test_single_site_chain_freezes_on_route_groups(self):
        # flipping any one pair-selection variable breaks two exactly-one
        # groups at once, so every single-site move is rejected: each chain
        # legally but uselessly stays at its own start
        from cmrf.problems import gen_routes

        inst = gen_routes(3, seed=1)
        cs, m = inst.constraints, uniform(inst.constraints.n_vars)
        cfg = SamplerConfig(batch_size=5, seed=2, gibbs_burn_in=5)
        batch, _ = _gibbs(cs, m, cfg)
        starts = draw_valid_rows(cs, m, "nelson", 5, seed=fold_seed(2, "gibbs-init"))
        assert satisfies_all(cs, batch.rows).all()
        assert np.array_equal(batch.rows, starts)

    def test_empty_plan_draws_nothing(self, monkeypatch):
        # Every routes variable lies in an exactly-one group, so the plan has
        # no levels and a sweep would hash draws that no update reads.
        from cmrf.problems import gen_routes, instance_theta

        inst = gen_routes(4)
        cs, theta = inst.constraints, instance_theta(inst)
        starts = draw_valid_rows(cs, theta, "nelson", 70, seed=3)

        def no_draws(*args):
            raise AssertionError("bernoulli_bits called on an empty plan")

        monkeypatch.setattr(samplers, "bernoulli_bits", no_draws)
        cfg = SamplerConfig(batch_size=70, seed=4, gibbs_burn_in=500)
        batch, stats = gibbs_sample(cs, theta, cfg, pack_rows(starts))
        assert np.array_equal(batch.rows, starts) and batch.valid_flags.all()
        assert (stats.rounds_per_row == 500).all()

    def test_start_survives_an_exhausted_first_row(self):
        # The starts are the valid rows of their nelson stream: where row 0
        # exhausts t_tryout, a later row serves. On routes(5) row 0 exhausts
        # at 19 of seeds 0-39, these four among them.
        from cmrf.problems import gen_routes, instance_theta

        inst = gen_routes(5)
        cs, theta = inst.constraints, instance_theta(inst)
        for seed in (0, 5, 9, 10):
            first_cfg = SamplerConfig(batch_size=1,
                                      seed=fold_seed(fold_seed(seed, "gibbs-init"), "draw", 0))
            first, _ = nelson_sample(cs, theta, first_cfg)
            assert not first.valid_flags[0], seed
            cfg = SamplerConfig(batch_size=1, seed=seed, gibbs_burn_in=1)
            batch, _ = _gibbs(cs, theta, cfg)
            assert satisfies_all(cs, batch.rows).all(), seed


class TestConfigValidation:
    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            SamplerConfig(batch_size=0)

    def test_bad_tryout(self):
        with pytest.raises(ValueError):
            SamplerConfig(batch_size=1, t_tryout=0)

    def test_theta_width_checked(self, toy_cs):
        with pytest.raises(ValueError, match="n_vars"):
            nelson_sample(toy_cs, ModelParams([0.0]), SamplerConfig(batch_size=1))


def test_weighted_unbiasedness_random_theta(toy_cs):
    for theta in corpus.random_thetas(3, 2, seed=555):
        batch, _ = nelson_sample(toy_cs, theta, SamplerConfig(batch_size=100_000, seed=77))
        exact = exact_distribution(toy_cs, theta).prob_table()
        assert tv_distance(empirical_table(batch.rows), exact) <= 0.02
