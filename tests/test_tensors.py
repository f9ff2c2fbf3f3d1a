from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmrf.cnf import Clause, ConstraintSet, Literal, clause, violated_constraints
from cmrf.tensors import ClauseTensors, encode_tensors, resample_mask, satisfaction_pass

import corpus


class TestEncode:
    def test_toy_golden(self, toy_cs):
        t = encode_tensors(toy_cs)
        assert t.L == 2 and t.K == 2 and t.n == 3
        assert t.W[0, 0].tolist() == [1, 0, 0]
        assert t.W[0, 1].tolist() == [0, 1, 0]
        assert t.W[1, 0].tolist() == [-1, 0, 0]
        assert t.W[1, 1].tolist() == [0, 0, 1]
        assert t.b.tolist() == [[0, 0], [1, 0]]
        assert t.V.tolist() == [[1, 1, 0], [1, 0, 1]]

    def test_padding_convention(self):
        cs = ConstraintSet(n_vars=3, clauses=(clause(1), clause(2, 3)))
        t = encode_tensors(cs)
        assert t.K == 2
        assert t.W[0, 1].tolist() == [0, 0, 0]
        assert t.b[0, 1] == 0

    def test_empty_clause_list(self):
        t = encode_tensors(ConstraintSet(n_vars=4))
        assert t.L == 0 and t.W.shape == (0, 0, 4)

    def test_rejects_groups(self):
        cs = ConstraintSet(n_vars=2, exactly_one_groups=(frozenset({0, 1}),))
        with pytest.raises(ValueError, match="clause-only"):
            encode_tensors(cs)


class TestSatisfactionPass:
    def test_toy_golden(self, toy_cs):
        t = encode_tensors(toy_cs)
        Z, S = satisfaction_pass(t, np.array([[0, 0, 1]], dtype=np.uint8))
        assert Z[0].tolist() == [[0, 0], [1, 1]]
        assert S[0].tolist() == [1, 0]

    def test_toy_satisfying(self, toy_cs):
        t = encode_tensors(toy_cs)
        _, S = satisfaction_pass(t, np.array([[0, 1, 1]], dtype=np.uint8))
        assert S[0].tolist() == [0, 0]

    def test_batch_rows_independent(self, toy_cs):
        t = encode_tensors(toy_cs)
        _, S = satisfaction_pass(t, np.array([[0, 0, 1], [0, 1, 1]], dtype=np.uint8))
        assert S.tolist() == [[1, 0], [0, 0]]

    def test_width_mismatch(self, toy_cs):
        t = encode_tensors(toy_cs)
        with pytest.raises(ValueError, match="width"):
            satisfaction_pass(t, np.zeros((2, 4), dtype=np.uint8))

    def test_zero_sum_iff_all_satisfied(self, toy_cs):
        t = encode_tensors(toy_cs)
        X = np.array(
            [[a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)], dtype=np.uint8
        )
        _, S = satisfaction_pass(t, X)
        for row, s_row in zip(X, S):
            assert (s_row.sum() == 0) == (not violated_constraints(toy_cs, row))


class TestResampleMask:
    def test_toy_golden(self, toy_cs):
        t = encode_tensors(toy_cs)
        assert resample_mask(t, np.array([[1, 0]]))[0].tolist() == [1, 1, 0]

    def test_nothing_violated(self, toy_cs):
        t = encode_tensors(toy_cs)
        assert resample_mask(t, np.array([[0, 0]]))[0].tolist() == [0, 0, 0]

    def test_second_clause(self, toy_cs):
        t = encode_tensors(toy_cs)
        assert resample_mask(t, np.array([[0, 1]]))[0].tolist() == [1, 0, 1]

    def test_shape_mismatch(self, toy_cs):
        t = encode_tensors(toy_cs)
        with pytest.raises(ValueError, match="width"):
            resample_mask(t, np.zeros((1, 3)))


@st.composite
def clause_sets(draw, max_vars=12, max_clauses=6):
    n = draw(st.integers(1, max_vars))
    n_clauses = draw(st.integers(0, max_clauses))
    clauses = []
    for _ in range(n_clauses):
        width = draw(st.integers(1, min(n, 4)))
        variables = draw(
            st.lists(st.integers(0, n - 1), min_size=width, max_size=width, unique=True)
        )
        clauses.append(
            Clause(tuple(Literal(v, draw(st.booleans())) for v in variables))
        )
    return ConstraintSet(n_vars=n, clauses=tuple(clauses))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_pipeline_matches_reference_semantics(data):
    cs = data.draw(clause_sets())
    x = np.array(
        data.draw(st.lists(st.integers(0, 1), min_size=cs.n_vars, max_size=cs.n_vars)),
        dtype=np.uint8,
    )
    t = encode_tensors(cs)
    _, S = satisfaction_pass(t, x)
    assert {j for j in range(t.L) if S[0, j]} == violated_constraints(cs, x)
    A = resample_mask(t, S)
    expected_vars = set()
    for j in violated_constraints(cs, x):
        expected_vars |= cs.clauses[j].variables()
    assert {i for i in range(t.n) if A[0, i]} == expected_vars


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_padding_soundness(data):
    cs = data.draw(clause_sets())
    x = np.array(
        data.draw(st.lists(st.integers(0, 1), min_size=cs.n_vars, max_size=cs.n_vars)),
        dtype=np.uint8,
    )
    t = encode_tensors(cs)
    padded = ClauseTensors(
        W=np.concatenate([t.W, np.zeros((t.L, 1, t.n), dtype=np.int8)], axis=1),
        b=np.concatenate([t.b, np.zeros((t.L, 1), dtype=np.int8)], axis=1),
        V=t.V,
        K=t.K + 1,
        L=t.L,
        n=t.n,
    )
    _, S = satisfaction_pass(t, x)
    _, S_padded = satisfaction_pass(padded, x)
    assert (S == S_padded).all()


def test_corpus_instances_encode_cleanly():
    for name, cs in corpus.extremal_corpus():
        t = encode_tensors(replace(cs, exactly_one_groups=()))
        assert t.L == cs.n_clauses, name
