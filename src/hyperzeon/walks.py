"""Nilpotent adjacency matrices for hypergraphs and walk extraction from their powers.

The path/cycle context labels vertex i with an index-2 nilpotent generator and
edge l with an idempotent one; entry (i, j) of the adjacency matrix is the
vertex label of j times the sum of labels of edges containing both endpoints.
Powers of the matrix then count walks whose surviving terms are exactly the
self-avoiding ones: repeated vertices square to zero, repeated edges collapse
idempotently and merely shrink the recorded edge set.  Trails swap the roles
(idempotent vertices, nilpotent edges) so edge repetition cancels instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Element, Signature, mul_into
from .errors import InvariantError
from .hypergraph import Hypergraph


@dataclass(frozen=True)
class WalkRecord:
    """One surviving basis term: the walk's vertex set, edge set, and multiplicity."""

    vertex_set: frozenset
    edge_set: frozenset
    count: int


class AlgebraMatrix:
    """Dense matrix of kernel elements sharing one signature."""

    __slots__ = ("signature", "entries")

    def __init__(self, signature: Signature, entries):
        self.signature = signature
        rows = tuple(tuple(row) for row in entries)
        width = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged matrix")
            for x in row:
                if not isinstance(x, Element) or x.signature != signature:
                    raise ValueError("entries must be elements of the matrix signature")
        self.entries = rows

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, idx):
        return self.entries[idx]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraMatrix)
            and self.signature == other.signature
            and self.entries == other.entries
        )

    def __mul__(self, other: "AlgebraMatrix") -> "AlgebraMatrix":
        if not isinstance(other, AlgebraMatrix):
            return NotImplemented
        if self.signature != other.signature:
            raise ValueError("matrix signatures differ")
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        rows = [_row_times_matrix(row, other) for row in self.entries]
        return AlgebraMatrix(self.signature, rows)

    def power(self, k: int) -> "AlgebraMatrix":
        if k < 0:
            raise ValueError(f"power must be >= 0, got {k}")
        if k == 0:
            if self.rows != self.cols:
                raise ValueError("power 0 requires a square matrix")
            one, zero = self.signature.one(), self.signature.zero()
            rows = [
                [one if a == b else zero for b in range(self.cols)]
                for a in range(self.rows)
            ]
            return AlgebraMatrix(self.signature, rows)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out


# -- matrix builders ------------------------------------------------------------


def walk_signature(h: Hypergraph) -> Signature:
    """Vertices 1..n as index-2 nilpotents (ids 0..n-1), edges as idempotents (ids n..n+m-1)."""
    return Signature.zeons(h.n) + Signature.idempotents(h.m)


def trail_signature(h: Hypergraph) -> Signature:
    """Role swap: vertices idempotent, edges index-2 nilpotent."""
    return Signature.idempotents(h.n, "ε") + Signature.zeons(h.m, "ζ")


def _adjacency(h: Hypergraph, sig: Signature) -> AlgebraMatrix:
    """(i, j) -> label of vertex j times the sum of labels of edges containing i and j."""
    n = h.n
    incident = [frozenset(h.incident_edges(v)) for v in range(1, n + 1)]
    zero = sig.zero()
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            shared = incident[i] & incident[j]
            terms = [(((j, 1), (n + idx, 1)), 1) for idx in shared]
            row.append(Element(sig, terms) if shared else zero)
        rows.append(row)
    return AlgebraMatrix(sig, rows)


def build_omega(h: Hypergraph) -> AlgebraMatrix:
    """The n x n nilpotent adjacency matrix: (i, j) -> zeta_j * sum of shared edge labels."""
    return _adjacency(h, walk_signature(h))


def build_trail_matrix(h: Hypergraph) -> AlgebraMatrix:
    """The trail matrix: same layout as Omega over the role-swapped signature."""
    return _adjacency(h, trail_signature(h))


def build_blocks(h: Hypergraph) -> tuple[AlgebraMatrix, AlgebraMatrix]:
    """The factor matrices X (n x m, idempotent edge labels) and Z (m x n, vertex labels)."""
    sig = walk_signature(h)
    n = h.n
    X = [
        [
            sig.gen(n + l) if v in e else sig.zero()
            for l, e in enumerate(h.edges)
        ]
        for v in range(1, h.n + 1)
    ]
    Z = [
        [
            sig.gen(j - 1) if j in e else sig.zero()
            for j in range(1, h.n + 1)
        ]
        for e in h.edges
    ]
    return AlgebraMatrix(sig, X), AlgebraMatrix(sig, Z)


def build_bipartite(h: Hypergraph) -> AlgebraMatrix:
    """The (n+m) x (n+m) block matrix [[0, X], [Z, 0]]; its square is diag(XZ, ZX)."""
    X, Z = build_blocks(h)
    sig = X.signature
    zero = sig.zero()
    size = h.n + h.m
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            if i < h.n and j >= h.n:
                row.append(X.entries[i][j - h.n])
            elif i >= h.n and j < h.n:
                row.append(Z.entries[i - h.n][j])
            else:
                row.append(zero)
        rows.append(row)
    return AlgebraMatrix(sig, rows)


# -- walk extraction --------------------------------------------------------------


def _row_times_matrix(row, mat: AlgebraMatrix) -> tuple:
    """The row vector times the matrix, each entry summed in place by mul_into."""
    sig = mat.signature
    accs = [{} for _ in range(mat.cols)]
    for rv, mat_row in zip(row, mat.entries):
        if rv:
            for acc, b in zip(accs, mat_row):
                if b:
                    mul_into(acc, rv, b)
    return tuple(Element.from_packed(sig, acc) for acc in accs)


def _row_power(mat: AlgebraMatrix, i: int, k: int, start: Element | None) -> tuple:
    """Row i of mat**k, with ``start`` multiplied into the first row when given.

    Stops once the row is all zero: every later power's row is zero too.
    """
    row = mat.entries[i - 1]
    if start is not None:
        row = tuple(start * x for x in row)
    for _ in range(k - 1):
        if not any(row):
            break
        row = _row_times_matrix(row, mat)
    return row


def _extract_records(element: Element, n: int) -> list[WalkRecord]:
    records = []
    decode = element.signature.decode
    for key, coeff in element.packed.items():
        monomial = decode(key)
        vs = frozenset(g + 1 for g, _ in monomial if g < n)
        es = frozenset(g - n + 1 for g, _ in monomial if g >= n)
        records.append(WalkRecord(vs, es, coeff))
    records.sort(key=lambda r: (sorted(r.vertex_set), sorted(r.edge_set)))
    return records


def _check_vertex(h: Hypergraph, v: int):
    if not 1 <= v <= h.n:
        raise ValueError(f"vertex {v} outside 1..{h.n}")


def k_paths(h: Hypergraph, i: int, j: int, k: int) -> list[WalkRecord]:
    """Self-avoiding k-step walks from i to j, grouped by (vertex set, edge set).

    Each record's vertex set has size k+1 and contains both endpoints; the
    count is the number of distinct walks realizing that pair of sets.
    """
    _check_vertex(h, i)
    _check_vertex(h, j)
    if i == j:
        raise ValueError("closed walks are cycles; use k_cycles")
    if k < 1:
        raise ValueError(f"paths need k >= 1, got {k}")
    omega = build_omega(h)
    entry = _row_power(omega, i, k, omega.signature.gen(i - 1))[j - 1]
    records = _extract_records(entry, h.n)
    for r in records:
        if len(r.vertex_set) != k + 1 or i not in r.vertex_set or j not in r.vertex_set:
            raise InvariantError(f"path record {sorted(r.vertex_set)} for {i}->{j}, k={k}")
    return records


def k_cycles(h: Hypergraph, i: int, k: int) -> list[WalkRecord]:
    """Closed k-step walks at i with distinct non-base vertices.

    An out-and-back walk reusing one edge counts: the idempotent edge label
    absorbs the repetition instead of canceling it.  Vertex sets have size k.
    """
    _check_vertex(h, i)
    if k < 2:
        raise ValueError(f"cycles need k >= 2, got {k}")
    entry = _row_power(build_omega(h), i, k, None)[i - 1]
    records = _extract_records(entry, h.n)
    for r in records:
        if len(r.vertex_set) != k or i not in r.vertex_set:
            raise InvariantError(f"cycle record {sorted(r.vertex_set)} at {i}, k={k}")
    return records


def k_trails(h: Hypergraph, i: int, j: int, k: int) -> list[WalkRecord]:
    """Edge-distinct k-step walks from i to j (i == j allowed), grouped by sets.

    Vertices may repeat, including stationary steps that spend an unused
    incident edge without moving.  Every edge set has size exactly k and the
    vertex set always includes the start vertex.
    """
    _check_vertex(h, i)
    _check_vertex(h, j)
    if k < 1:
        raise ValueError(f"trails need k >= 1, got {k}")
    mat = build_trail_matrix(h)
    entry = _row_power(mat, i, k, mat.signature.gen(i - 1))[j - 1]
    records = _extract_records(entry, h.n)
    for r in records:
        if len(r.edge_set) != k or i not in r.vertex_set:
            raise InvariantError(f"trail record {sorted(r.edge_set)} from {i}, k={k}")
    return records
