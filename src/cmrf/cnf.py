"""Constraint sets over Boolean variables: CNF clauses plus exactly-one groups.

Holds the DIMACS parser/serializer, the codec of assignment rows (packed 64
to a word, and as text) and the `Dataset` of assignment rows, reference
constraint evaluation, the dependency graph over constraints, and the
extremality check that decides whether the partial-rejection sampler is
exact on a given instance; that check decides each adjacent pair of
constraints in closed form, without enumerating assignments. This module
imports no other cmrf module.

Constraint indexing convention used everywhere in this package: clause j has
constraint index j, and exactly-one group g has constraint index L + g where
L is the clause count.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace

import numpy as np

class DimacsError(ValueError):
    """Malformed instance input: DIMACS text or the exactly-one sidecar."""


@dataclass(frozen=True)
class Literal:
    variable_index: int
    negated: bool = False

    def __str__(self) -> str:
        return ("-" if self.negated else "") + str(self.variable_index + 1)


@dataclass(frozen=True)
class Clause:
    literals: tuple[Literal, ...]

    def __post_init__(self):
        if not self.literals:
            raise ValueError("empty clause")
        seen = set()
        for lit in self.literals:
            if lit.variable_index in seen:
                raise ValueError(
                    f"variable {lit.variable_index} appears twice in one clause"
                )
            seen.add(lit.variable_index)

    def variables(self) -> frozenset[int]:
        return frozenset(lit.variable_index for lit in self.literals)


def clause(*signed: int) -> Clause:
    """Build a clause from signed 1-based literals, e.g. clause(1, -3)."""
    return Clause(tuple(Literal(abs(s) - 1, s < 0) for s in signed))


@dataclass(frozen=True)
class ConstraintSet:
    n_vars: int
    clauses: tuple[Clause, ...] = ()
    exactly_one_groups: tuple[frozenset[int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(self.clauses))
        object.__setattr__(
            self, "exactly_one_groups", tuple(frozenset(g) for g in self.exactly_one_groups)
        )
        for cl in self.clauses:
            for lit in cl.literals:
                if not 0 <= lit.variable_index < self.n_vars:
                    raise ValueError(f"literal variable {lit.variable_index} out of range")
        for g in self.exactly_one_groups:
            if not g:
                raise ValueError("empty exactly-one group")
            if any(not 0 <= v < self.n_vars for v in g):
                raise ValueError("exactly-one group variable out of range")
        fields = (self.n_vars, self.clauses, self.exactly_one_groups)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash  # the dataclass hash walks every clause on each call

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)

    @property
    def n_constraints(self) -> int:
        return len(self.clauses) + len(self.exactly_one_groups)

    def constraint_variables(self, j: int) -> frozenset[int]:
        """Variable support of constraint j (clauses first, then groups)."""
        if j < len(self.clauses):
            return self.clauses[j].variables()
        return self.exactly_one_groups[j - len(self.clauses)]


@dataclass(frozen=True)
class DependencyGraph:
    """Symmetric adjacency over constraint indices; edge iff shared variable."""
    adjacency: tuple[frozenset[int], ...]


def parse_dimacs(text: str) -> ConstraintSet:
    """Parse DIMACS CNF ("p cnf <n> <L>", 0-terminated signed literals).

    Comment lines start with 'c'. Clauses may span lines. Duplicate variables
    within a clause are rejected rather than deduplicated.
    """
    n_vars = None
    n_clauses_declared = None
    clause_tokens: list[int] = []
    clauses: list[Clause] = []

    def flush():
        if not clause_tokens:
            raise DimacsError("empty clause")
        lits = tuple(Literal(abs(t) - 1, t < 0) for t in clause_tokens)
        try:
            clauses.append(Clause(lits))
        except ValueError as exc:
            raise DimacsError(str(exc)) from exc
        clause_tokens.clear()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n_vars is not None:
                raise DimacsError(f"line {line_no}: second header {line!r}")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"line {line_no}: malformed header {line!r}")
            try:
                n_vars = int(parts[2])
                n_clauses_declared = int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {line_no}: non-integer header counts") from exc
            if n_vars < 0 or n_clauses_declared < 0:
                raise DimacsError(f"line {line_no}: negative counts in header")
            continue
        if n_vars is None:
            raise DimacsError(f"line {line_no}: clause before header")
        for tok in line.split():
            try:
                value = int(tok)
            except ValueError as exc:
                raise DimacsError(f"line {line_no}: non-integer token {tok!r}") from exc
            if value == 0:
                flush()
            else:
                if not 1 <= abs(value) <= n_vars:
                    raise DimacsError(f"line {line_no}: variable index {value} out of range")
                clause_tokens.append(value)

    if n_vars is None:
        raise DimacsError("missing header")
    if clause_tokens:
        raise DimacsError("unterminated clause at end of input")
    if len(clauses) != n_clauses_declared:
        raise DimacsError(
            f"clause count mismatch: header says {n_clauses_declared}, got {len(clauses)}"
        )
    return ConstraintSet(n_vars=n_vars, clauses=tuple(clauses))


def emit_dimacs(cs: ConstraintSet) -> str:
    """Inverse of parse_dimacs (exactly-one groups are not representable here)."""
    lines = [f"p cnf {cs.n_vars} {cs.n_clauses}"]
    for cl in cs.clauses:
        lines.append(" ".join(str(lit) for lit in cl.literals) + " 0")
    return "\n".join(lines) + "\n"


def load_constraints(cnf_path, groups_path=None) -> ConstraintSet:
    """Read a DIMACS file, merging the optional exactly-one sidecar JSON.

    Sidecar schema: {"exactly_one": [[0-based var indices], ...], ...}, the
    indices JSON integers, none twice in a group; other keys (instance
    metadata) are ignored here.
    """
    try:
        with open(cnf_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DimacsError(f"DIMACS file is not UTF-8 text: {exc}") from exc
    cs = parse_dimacs(text)
    if groups_path is not None:
        try:
            with open(groups_path, "r", encoding="utf-8") as fh:
                sidecar = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DimacsError(f"bad exactly-one sidecar: not UTF-8 JSON text: {exc}") from exc
        groups = sidecar.get("exactly_one", []) if isinstance(sidecar, dict) else None
        if not isinstance(groups, list) or not all(
                isinstance(g, list) and all(type(v) is int for v in g) for g in groups):
            raise DimacsError("bad exactly-one sidecar: exactly_one must be a list of lists "
                              "of integers in an object")
        for g in groups:
            if len(set(g)) < len(g):
                raise DimacsError(f"bad exactly-one sidecar: a variable appears twice in {g}")
        try:
            cs = replace(cs, exactly_one_groups=tuple(frozenset(g) for g in groups))
        except ValueError as exc:
            raise DimacsError(f"bad exactly-one sidecar: {exc}") from exc
    return cs


def violation_matrix(cs: ConstraintSet, X) -> np.ndarray:
    """(rows, n_constraints) bool matrix: row r violates constraint j.

    The reference semantics, evaluated straight from the definitions: a
    clause is violated iff all of its literals are false; an exactly-one
    group is violated iff its member sum differs from 1. It shares no code
    with the samplers' kernel, so it can serve as an independent check of it.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != cs.n_vars:
        raise ValueError(f"expected (rows, {cs.n_vars}) matrix, got {X.shape}")
    X = X.astype(bool)
    out = np.zeros((X.shape[0], cs.n_constraints), dtype=bool)
    for j, cl in enumerate(cs.clauses):
        sat = np.zeros(X.shape[0], dtype=bool)
        for lit in cl.literals:
            col = X[:, lit.variable_index]
            sat |= ~col if lit.negated else col
        out[:, j] = ~sat
    for g, group in enumerate(cs.exactly_one_groups):
        out[:, cs.n_clauses + g] = X[:, sorted(group)].sum(axis=1) != 1
    return out


def violated_constraints(cs: ConstraintSet, x) -> set[int]:
    """Indices of constraints violated by assignment x (see violation_matrix)."""
    if len(x) != cs.n_vars:
        raise ValueError(f"assignment length {len(x)} != n_vars {cs.n_vars}")
    row = violation_matrix(cs, np.asarray(x).reshape(1, -1))[0]
    return set(np.nonzero(row)[0].tolist())


def satisfies_all(cs: ConstraintSet, X: np.ndarray) -> np.ndarray:
    """Per row of a (rows, n) 0/1 matrix: does it satisfy every constraint?"""
    return ~violation_matrix(cs, X).any(axis=1)


# The packed layout of a batch: bit j of word w of a variable holds row
# 64w + j, so a word holds 64 rows of one variable.
WORD = np.dtype("<u8")

# Byte x (8 rows of one variable) -> its 8 ASCII digits, row 0 first in memory.
_DIGITS = (np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
           + np.uint8(ord("0"))).view(WORD).reshape(256)
_INVALID = np.frombuffer(b" INVALID", dtype=np.uint8)


def pack_rows(rows) -> np.ndarray:
    """(n, ceil(b / 64)) packed words of (b, n) 0/1 rows, the inverse of
    unpack_rows; bits past row b are 0."""
    rows = np.asarray(rows, dtype=np.uint8)
    b, n = rows.shape
    words = np.zeros((n, -(-b // 64)), dtype=WORD)
    words.view(np.uint8)[:, : -(-b // 8)] = np.packbits(rows.T, axis=1, bitorder="little")
    return words


def unpack_rows(words: np.ndarray, b: int) -> np.ndarray:
    """(b, n) uint8 rows of (n, words) packed values. The transpose is done on
    bytes, an eighth of the bits."""
    rows = np.ascontiguousarray(words.view(np.uint8).T)
    return np.unpackbits(rows, axis=0, count=b, bitorder="little")


def encode_words(words: np.ndarray, b: int, valid=None) -> np.ndarray:
    """The text of the first b rows of (n, words) packed values as a uint8
    array: each row's bits as ASCII digits, then ' INVALID' on rows whose
    `valid` flag is False, then a newline. valid=None means every row is
    valid.

    Each byte of the words holds 8 rows of one variable, and _DIGITS turns
    it into their 8 digits in one gather; a strided copy then puts the
    digits of byte k in rows 8k..8k+7 of an (8 * bytes, n + 1) line buffer.
    """
    n, width = words.shape
    digits = _DIGITS[np.ascontiguousarray(words.view(np.uint8).T)].view(np.uint8)
    buf = np.empty((64 * width, n + 1), dtype=np.uint8)
    buf[:, :n].reshape(8 * width, 8, n)[...] = digits.reshape(8 * width, n, 8).transpose(0, 2, 1)
    buf[:, n] = ord("\n")
    text = buf[:b].reshape(-1)
    if valid is None:
        return text
    ends = np.flatnonzero(~np.asarray(valid, dtype=bool)) * (n + 1) + n
    if not ends.size:  # np.insert copies through a boolean mask even when it inserts nothing
        return text
    return np.insert(text, ends.repeat(_INVALID.size), np.tile(_INVALID, ends.size))


def encode_rows(rows, valid=None) -> bytes:
    """encode_words of a (b, n) 0/1 matrix, as bytes."""
    return encode_words(pack_rows(rows), len(rows), valid).tobytes()


def row_keys(rows) -> list[str]:
    """One '0'/'1' string per row of a (b, n) 0/1 matrix ('' when n = 0)."""
    return encode_rows(rows).decode("ascii").splitlines()


@dataclass
class Dataset:
    assignments: np.ndarray  # (N, n) uint8
    n_vars: int

    def __post_init__(self):
        self.assignments = np.asarray(self.assignments, dtype=np.uint8)
        if self.assignments.ndim != 2 or self.assignments.shape[1] != self.n_vars:
            raise ValueError("assignments must be an (N, n_vars) matrix")

    def __len__(self) -> int:
        return self.assignments.shape[0]

    @classmethod
    def load(cls, path, constraint_set: ConstraintSet | None = None) -> "Dataset":
        """Read one '0'/'1' bitstring per line; optionally validate every row."""
        lines = []
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                if set(line) - {"0", "1"}:
                    raise ValueError(f"line {line_no}: not a bitstring: {line!r}")
                lines.append(line)
        if not lines:
            raise ValueError("empty dataset file")
        widths = {len(line) for line in lines}
        if len(widths) != 1:
            raise ValueError("inconsistent bitstring widths")
        bits = np.frombuffer("".join(lines).encode("ascii"), dtype=np.uint8) - ord("0")
        ds = cls(bits.reshape(len(lines), -1), n_vars=widths.pop())
        if constraint_set is not None:
            ds.validate(constraint_set)
        return ds

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(encode_rows(self.assignments))

    def validate(self, cs: ConstraintSet) -> None:
        if self.n_vars != cs.n_vars:
            raise ValueError("dataset width does not match constraint set")
        if not len(self):
            raise ValueError("dataset has no rows")
        ok = satisfies_all(cs, self.assignments)
        if not ok.all():
            bad = int(np.nonzero(~ok)[0][0])
            raise ValueError(f"dataset row {bad} violates the constraints")


def _supports(cs: ConstraintSet):
    """Each constraint's variables, and for each variable the ascending
    indices of the constraints that hold it."""
    supports = [cs.constraint_variables(j) for j in range(cs.n_constraints)]
    containing: dict[int, list[int]] = {}
    for j, sup in enumerate(supports):
        for v in sup:
            containing.setdefault(v, []).append(j)
    return supports, containing


def build_dependency_graph(cs: ConstraintSet) -> DependencyGraph:
    """Edge (i, j) iff constraints i != j share at least one variable."""
    neighbors: list[set[int]] = [set() for _ in range(cs.n_constraints)]
    for members in _supports(cs)[1].values():
        for i, j in itertools.combinations(members, 2):
            neighbors[i].add(j)
            neighbors[j].add(i)
    return DependencyGraph(adjacency=tuple(frozenset(s) for s in neighbors))


def gamma(g: DependencyGraph, S) -> frozenset[int]:
    """S together with all direct dependency-graph neighbors of S."""
    out = set(S)
    for j in S:
        out |= g.adjacency[j]
    return frozenset(out)


def _jointly_violable(cs: ConstraintSet, i: int, j: int):
    """(violable, witness) for constraints i < j that share a variable.

    Clauses come before groups in the constraint order, so the pair is two
    clauses, two groups, or clause i with group j.
    """
    if j < cs.n_clauses:
        return _jointly_violable_clauses(cs.clauses[i], cs.clauses[j])
    group = cs.exactly_one_groups[j - cs.n_clauses]
    if i >= cs.n_clauses:
        return _jointly_violable_groups(cs.exactly_one_groups[i - cs.n_clauses], group)
    return _jointly_violable_clause_group(cs.clauses[i], group)


def _jointly_violable_clauses(ci: Clause, cj: Clause):
    """Two clauses can be violated together iff every shared variable carries
    the same polarity in both; the witness then falsifies every literal."""
    pol_i = {lit.variable_index: lit.negated for lit in ci.literals}
    for lit in cj.literals:
        if lit.variable_index in pol_i and pol_i[lit.variable_index] != lit.negated:
            return False, None
    witness = {lit.variable_index: int(lit.negated) for lit in ci.literals}
    witness.update({lit.variable_index: int(lit.negated) for lit in cj.literals})
    return True, witness


def _jointly_violable_groups(gi: frozenset[int], gj: frozenset[int]):
    """Two exactly-one groups that share a variable are always violable
    together: all zeros on the union puts a sum of 0 in both."""
    return True, dict.fromkeys(sorted(gi | gj), 0)


def _jointly_violable_clause_group(c: Clause, g: frozenset[int]):
    """A clause and an exactly-one group can be violated together unless
    g is a subset of vars(c) and falsifying c sets exactly one member of g
    to 1.

    Falsifying c fixes every variable of c; the members of g outside c stay
    free. The witness sets the free members to 0, and if exactly one fixed
    member is 1, sets the highest-indexed free member to 1 as well, so the
    group sums to 0 or at least 2. It is the lexicographically smallest
    assignment of the union that violates both.
    """
    values = {lit.variable_index: int(lit.negated) for lit in c.literals}
    ones = sum(values[v] for v in g if v in values)
    free = sorted(g - values.keys())
    if ones == 1 and not free:
        return False, None
    values.update(dict.fromkeys(free, 0))
    if ones == 1:
        values[free[-1]] = 1
    return True, {v: values[v] for v in sorted(values)}


def check_extremal(cs: ConstraintSet):
    """Decide whether no assignment violates two variable-sharing constraints.

    Returns (True, None) when the set is extremal, else (False, witness) with
    an assignment of the union of two adjacent constraints' variables that
    violates both. Each adjacent pair is decided in closed form (see
    _jointly_violable), so no assignment is enumerated however many
    variables a pair spans. Pairs go i, then j, ascending, over a variable ->
    constraints index, without building the dependency graph: a variable in
    d constraints gives it d^2 / 2 edges before the first pair is decided.
    """
    supports, containing = _supports(cs)
    for i, sup in enumerate(supports):
        for j in sorted({k for v in sup for k in containing[v] if k > i}):
            violable, witness = _jointly_violable(cs, i, j)
            if violable:
                return False, witness
    return True, None
