import itertools
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmrf import cnf
from cmrf.cnf import (
    Clause,
    ConstraintSet,
    Dataset,
    DimacsError,
    Literal,
    build_dependency_graph,
    check_extremal,
    clause,
    emit_dimacs,
    encode_rows,
    encode_words,
    gamma,
    load_constraints,
    pack_rows,
    parse_dimacs,
    row_keys,
    satisfies_all,
    unpack_rows,
    violated_constraints,
    violation_matrix,
)
from cmrf.oracle import empirical_table
from cmrf.problems import gen_ksat, gen_routes, gen_sinkfree

import corpus

TOY_DIMACS = "p cnf 3 2\n1 2 0\n-1 3 0"


class TestParseDimacs:
    def test_toy(self):
        cs = parse_dimacs(TOY_DIMACS)
        assert cs.n_vars == 3
        assert cs.clauses == (clause(1, 2), clause(-1, 3))
        assert cs.exactly_one_groups == ()

    def test_no_clauses(self):
        cs = parse_dimacs("p cnf 2 0")
        assert cs.n_vars == 2 and cs.n_clauses == 0

    def test_out_of_range_literal(self):
        with pytest.raises(DimacsError, match="out of range"):
            parse_dimacs("p cnf 2 1\n3 0")

    def test_malformed_header(self):
        with pytest.raises(DimacsError, match="header"):
            parse_dimacs("p dnf 2 1\n1 0")

    @pytest.mark.parametrize("text", [
        "p cnf 5 1\n5 0\np cnf 3 1",
        "p cnf 5 1\n1 0\np cnf 8 2\n2 0",
    ])
    def test_second_header_rejected(self, text):
        with pytest.raises(DimacsError, match="second header"):
            parse_dimacs(text)

    def test_count_mismatch(self):
        with pytest.raises(DimacsError, match="mismatch"):
            parse_dimacs("p cnf 2 2\n1 0")

    def test_empty_clause(self):
        with pytest.raises(DimacsError, match="empty clause"):
            parse_dimacs("p cnf 2 1\n0")

    def test_duplicate_variable_rejected(self):
        with pytest.raises(DimacsError, match="twice"):
            parse_dimacs("p cnf 2 1\n1 -1 0")

    def test_comments_and_multiline_clauses(self):
        cs = parse_dimacs("c a comment\np cnf 3 1\n1 2\n3 0")
        assert cs.clauses == (clause(1, 2, 3),)

    def test_round_trip(self):
        cs = parse_dimacs(TOY_DIMACS)
        assert parse_dimacs(emit_dimacs(cs)) == cs


def test_constraint_set_hash_is_computed_once(monkeypatch):
    cs = ConstraintSet(n_vars=3, clauses=(clause(1, -2), clause(2, 3)),
                       exactly_one_groups=({0, 2},))
    value = hash((cs.n_vars, cs.clauses, cs.exactly_one_groups))
    assert hash(cs) == value
    walked = []
    clause_hash = Clause.__hash__
    monkeypatch.setattr(Clause, "__hash__", lambda c: walked.append(c) or clause_hash(c))
    hash(cs.clauses)
    assert walked == list(cs.clauses)  # the counter sees every clause a hash walks
    walked.clear()
    assert hash(cs) == value and not walked
    twin = ConstraintSet(n_vars=3, clauses=cs.clauses, exactly_one_groups=cs.exactly_one_groups)
    assert twin == cs and hash(twin) == hash(cs)
    assert ConstraintSet(n_vars=3, clauses=cs.clauses) != cs


class TestViolatedConstraints:
    def test_toy_violation(self, toy_cs):
        assert violated_constraints(toy_cs, (0, 0, 1)) == {0}

    def test_toy_satisfying(self, toy_cs):
        assert violated_constraints(toy_cs, (0, 1, 1)) == set()

    def test_exactly_one_group(self):
        cs = ConstraintSet(n_vars=2, exactly_one_groups=(frozenset({0, 1}),))
        assert violated_constraints(cs, (1, 1)) == {0}
        assert violated_constraints(cs, (1, 0)) == set()
        assert violated_constraints(cs, (0, 0)) == {0}

    def test_length_mismatch(self, toy_cs):
        with pytest.raises(ValueError, match="length"):
            violated_constraints(toy_cs, (0, 1))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_definitions(self, data):
        n = data.draw(st.integers(2, 8))
        n_clauses = data.draw(st.integers(0, 5))
        clauses = []
        for _ in range(n_clauses):
            width = data.draw(st.integers(1, n))
            variables = data.draw(
                st.lists(st.integers(0, n - 1), min_size=width, max_size=width, unique=True)
            )
            lits = tuple(Literal(v, data.draw(st.booleans())) for v in variables)
            clauses.append(Clause(lits))
        n_groups = data.draw(st.integers(0, 2))
        groups = tuple(
            frozenset(
                data.draw(
                    st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
                )
            )
            for _ in range(n_groups)
        )
        cs = ConstraintSet(n_vars=n, clauses=tuple(clauses), exactly_one_groups=groups)
        x = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        expected = set()
        for j, cl in enumerate(cs.clauses):
            lit_values = [x[l.variable_index] != l.negated for l in cl.literals]
            if not any(lit_values):
                expected.add(j)
        for g, group in enumerate(cs.exactly_one_groups):
            if sum(x[v] for v in group) != 1:
                expected.add(len(cs.clauses) + g)
        assert violated_constraints(cs, x) == expected
        # vectorized path agrees with the scalar reference
        assert bool(satisfies_all(cs, np.array([x]))[0]) == (not expected)


class TestDependencyGraph:
    def test_toy_single_edge(self, toy_cs):
        g = build_dependency_graph(toy_cs)
        assert g.adjacency == (frozenset({1}), frozenset({0}))

    def test_disjoint_supports(self):
        cs = ConstraintSet(n_vars=2, clauses=(clause(1), clause(2)))
        g = build_dependency_graph(cs)
        assert g.adjacency == (frozenset(), frozenset())

    def test_sinkfree_edges_follow_graph(self):
        inst = gen_sinkfree(4, seed=1)
        g = build_dependency_graph(inst.constraints)
        graph_edges = {tuple(e) for e in inst.metadata["edges"]}
        for a in range(4):
            for b in range(a + 1, 4):
                adjacent = b in g.adjacency[a]
                assert adjacent == ((a, b) in graph_edges)

    def test_groups_participate(self):
        cs = ConstraintSet(
            n_vars=3,
            clauses=(clause(1, 2),),
            exactly_one_groups=(frozenset({1, 2}),),
        )
        g = build_dependency_graph(cs)
        assert g.adjacency == (frozenset({1}), frozenset({0}))


class TestGamma:
    def test_toy(self, toy_cs):
        g = build_dependency_graph(toy_cs)
        assert gamma(g, {0}) == {0, 1}

    def test_empty(self, toy_cs):
        g = build_dependency_graph(toy_cs)
        assert gamma(g, set()) == frozenset()

    def test_no_neighbors(self):
        cs = ConstraintSet(n_vars=2, clauses=(clause(1), clause(2)))
        g = build_dependency_graph(cs)
        assert gamma(g, {0}) == {0}


@st.composite
def mixed_constraint_sets(draw):
    """Random clauses and exactly-one groups over at most 8 variables."""
    n = draw(st.integers(1, 8))
    subsets = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    clauses = tuple(
        Clause(tuple(Literal(v, draw(st.booleans())) for v in draw(subsets)))
        for _ in range(draw(st.integers(0, 3)))
    )
    groups = tuple(frozenset(draw(subsets)) for _ in range(draw(st.integers(0, 3))))
    return ConstraintSet(n_vars=n, clauses=clauses, exactly_one_groups=groups)


class TestCheckExtremal:
    def test_toy_extremal(self, toy_cs):
        assert check_extremal(toy_cs) == (True, None)

    def test_shared_polarity_not_extremal(self):
        cs = parse_dimacs("p cnf 3 2\n1 2 0\n1 3 0")
        ok, witness = check_extremal(cs)
        assert not ok
        assert witness == {0: 0, 1: 0, 2: 0}

    def test_disjoint_is_extremal(self):
        cs = ConstraintSet(n_vars=2, clauses=(clause(1), clause(2)))
        assert check_extremal(cs) == (True, None)

    def test_overlapping_groups_not_extremal(self):
        cs = ConstraintSet(
            n_vars=3,
            exactly_one_groups=(frozenset({0, 1}), frozenset({1, 2})),
        )
        ok, witness = check_extremal(cs)
        assert not ok
        x = [0] * 3
        for v, bit in witness.items():
            x[v] = bit
        assert {0, 1} <= violated_constraints(cs, x)

    def test_clause_group_witnesses_pinned(self):
        # Falsifying clause 1 v -2 puts one 1 in the group, so the highest
        # free member is set to 1 as well.
        cs = ConstraintSet(
            n_vars=4, clauses=(clause(1, -2),), exactly_one_groups=(frozenset({1, 2, 3}),)
        )
        assert check_extremal(cs) == (False, {0: 0, 1: 1, 2: 0, 3: 1})
        # Falsifying clause 2 v -3 puts no 1 in the group; its free member stays 0.
        cs = ConstraintSet(
            n_vars=3, clauses=(clause(2, -3),), exactly_one_groups=(frozenset({0, 1}),)
        )
        assert check_extremal(cs) == (False, {0: 0, 1: 0, 2: 1})

    def test_large_overlapping_groups_need_no_enumeration(self):
        g1 = frozenset(range(13))
        g2 = frozenset(range(12, 25))
        cs = ConstraintSet(n_vars=25, exactly_one_groups=(g1, g2))
        assert check_extremal(cs) == (False, dict.fromkeys(range(25), 0))

    def test_routes_14_not_extremal(self):
        ok, witness = check_extremal(gen_routes(14).constraints)
        assert not ok and witness

    def test_large_clause_group_extremal_in_closed_form(self):
        # Falsifying -1 v 2 v ... v 24 sets only x1 to 1, so it satisfies the
        # group over the same 24 variables: 2^24 assignments, none enumerated.
        cs = ConstraintSet(
            n_vars=24,
            clauses=(clause(-1, *range(2, 25)),),
            exactly_one_groups=(frozenset(range(24)),),
        )
        start = time.perf_counter()
        assert check_extremal(cs) == (True, None)
        assert time.perf_counter() - start < 0.5

    @given(mixed_constraint_sets())
    @settings(max_examples=300, deadline=None)
    def test_fast_path_matches_enumeration(self, cs):
        viol = violation_matrix(cs, list(itertools.product((0, 1), repeat=cs.n_vars)))
        adjacency = build_dependency_graph(cs).adjacency
        pairs = [(i, j) for i in range(cs.n_constraints) for j in adjacency[i] if i < j]
        extremal = not any((viol[:, i] & viol[:, j]).any() for i, j in pairs)
        ok, witness = check_extremal(cs)
        assert ok == extremal
        if ok:
            assert witness is None
            return
        x = np.zeros((1, cs.n_vars), dtype=np.uint8)
        x[0, list(witness)] = list(witness.values())
        violated = violation_matrix(cs, x)[0]
        assert any(
            set(witness) == cs.constraint_variables(i) | cs.constraint_variables(j)
            and violated[i]
            and violated[j]
            for i, j in pairs
        )

    def test_pair_order_matches_the_dependency_graph_without_building_it(self, monkeypatch):
        def graph_reference(cs):
            """The first violable pair (i, j), i < j adjacent, in the order of
            the full dependency graph: i ascending, then j ascending."""
            for i, j in itertools.combinations(range(cs.n_constraints), 2):
                if cs.constraint_variables(i) & cs.constraint_variables(j):
                    violable, witness = cnf._jointly_violable(cs, i, j)
                    if violable:
                        return False, witness
            return True, None

        rng = np.random.default_rng(7)

        def random_set():
            n = int(rng.integers(2, 10))
            support = lambda: rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist()
            clauses = tuple(Clause(tuple(Literal(v, bool(rng.integers(2))) for v in support()))
                            for _ in range(int(rng.integers(0, 6))))
            groups = tuple(frozenset(support()) for _ in range(int(rng.integers(0, 4))))
            return ConstraintSet(n_vars=n, clauses=clauses, exactly_one_groups=groups)

        base = gen_ksat(60, 60, 3, seed=1).constraints
        hubs = [ConstraintSet(n_vars=61, clauses=tuple(
            Clause(c.literals + (Literal(60, sign(j)),)) for j, c in enumerate(base.clauses)))
            for sign in (lambda j: False, lambda j: j % 2 == 1)]
        sets = ([random_set() for _ in range(120)] + hubs
                + [gen_ksat(12, 8, 3, seed=s).constraints for s in range(6)]
                + [gen_sinkfree(8, 0.4, seed=s).constraints for s in range(6)]
                + [gen_routes(c).constraints for c in (3, 4)])
        expected = [graph_reference(cs) for cs in sets]

        def refuse(cs):
            raise AssertionError("check_extremal built the dependency graph")

        monkeypatch.setattr(cnf, "build_dependency_graph", refuse)
        assert [cnf.check_extremal(cs) for cs in sets] == expected
        verdicts = Counter(ok for ok, _ in expected)
        assert verdicts[True] >= 10 and verdicts[False] >= 10


class TestSidecar:
    def test_load_with_groups(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(TOY_DIMACS + "\n")
        sidecar = tmp_path / "f.json"
        sidecar.write_text('{"exactly_one": [[0, 1]], "family": "test"}')
        cs = load_constraints(cnf, sidecar)
        assert cs.exactly_one_groups == (frozenset({0, 1}),)
        assert cs.n_clauses == 2

    def test_load_without_groups(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(TOY_DIMACS + "\n")
        cs = load_constraints(cnf)
        assert cs.exactly_one_groups == ()


class TestConstraintSetValidation:
    def test_rejects_out_of_range_clause(self):
        with pytest.raises(ValueError, match="out of range"):
            ConstraintSet(n_vars=1, clauses=(clause(2),))

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="empty"):
            ConstraintSet(n_vars=2, exactly_one_groups=(frozenset(),))

    def test_rejects_duplicate_literal(self):
        with pytest.raises(ValueError, match="twice"):
            Clause((Literal(0), Literal(0, True)))


def test_round_trip_identity_on_random_formulas():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        n_clauses = int(rng.integers(0, 6))
        clauses = []
        for _ in range(n_clauses):
            width = int(rng.integers(1, n + 1))
            variables = rng.permutation(n)[:width]
            clauses.append(
                Clause(tuple(Literal(int(v), bool(rng.integers(2))) for v in variables))
            )
        cs = ConstraintSet(n_vars=n, clauses=tuple(clauses))
        assert parse_dimacs(emit_dimacs(cs)) == cs


def test_sinkfree_generations_are_extremal():
    for name, cs in corpus.sinkfree_corpus():
        assert check_extremal(cs) == (True, None), name


@st.composite
def flagged_bit_matrices(draw):
    """A (b, n) 0/1 matrix, b and n possibly 0, with one validity flag per row."""
    b, n = draw(st.integers(0, 12)), draw(st.integers(0, 10))
    rows = draw(arrays(np.uint8, (b, n), elements=st.integers(0, 1)))
    valid = draw(arrays(np.bool_, (b,)))
    return rows, valid


def _counter_table(keys):
    """empirical_table's reference: frequencies by key, keys sorted."""
    return {key: count / len(keys) for key, count in sorted(Counter(keys).items())}


class TestRowCodec:
    @given(flagged_bit_matrices())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_row_reference(self, case):
        rows, valid = case
        keys = ["".join(map(str, row)) for row in rows]
        assert row_keys(rows) == keys
        lines = [key + ("" if ok else " INVALID") + "\n" for key, ok in zip(keys, valid)]
        assert encode_rows(rows, valid) == "".join(lines).encode("ascii")
        assert encode_rows(rows) == "".join(key + "\n" for key in keys).encode("ascii")
        assert list(empirical_table(rows).items()) == list(_counter_table(keys).items())
        kept = rows[valid]
        if kept.size:  # a dataset file holds at least one nonempty row
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "data.txt"
                Dataset(kept, n_vars=kept.shape[1]).save(path)
                assert np.array_equal(Dataset.load(path).assignments, kept)

    @pytest.mark.parametrize("b", [0, 1, 63, 64, 65, 129, 4097])
    @pytest.mark.parametrize("n", [0, 1, 8, 9, 299])
    def test_word_edges_match_per_row_reference(self, b, n):
        # Batches that end before, on and after a 64-row word, with every
        # row valid, none, or a random mix.
        rng = np.random.default_rng(1000 * b + n)
        rows = rng.integers(0, 2, size=(b, n), dtype=np.uint8)
        words = pack_rows(rows)
        assert words.shape == (n, -(-b // 64))
        assert np.array_equal(unpack_rows(words, b), rows)
        keys = ["".join(map(str, row)) for row in rows.tolist()]
        for valid in (np.ones(b, dtype=bool), np.zeros(b, dtype=bool), rng.random(b) < 0.5):
            text = "".join(key + ("" if ok else " INVALID") + "\n" for key, ok in zip(keys, valid))
            assert encode_words(words, b, valid).tobytes() == text.encode("ascii")
            assert encode_rows(rows, valid) == text.encode("ascii")
        assert encode_words(words, b).tobytes() == "".join(k + "\n" for k in keys).encode("ascii")

    @pytest.mark.parametrize("n", [64, 299])
    def test_empirical_table_on_wide_rows(self, n):
        rows = np.random.default_rng(n).integers(0, 2, size=(6, n), dtype=np.uint8)
        rows = np.concatenate([rows, rows[[4, 1, 4]]])
        table = empirical_table(rows)
        assert list(table.items()) == list(_counter_table(row_keys(rows)).items())
        assert len(table) == 6

    def test_load_counts_blank_lines(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("01\n\n0x\n")
        with pytest.raises(ValueError, match="line 3: not a bitstring"):
            Dataset.load(path)

    def test_load_crlf(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_bytes(b"01\r\n11\r\n")
        assert Dataset.load(path).assignments.tolist() == [[0, 1], [1, 1]]
