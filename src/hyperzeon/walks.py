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

from typing import NamedTuple

from .algebra import Element, Signature, mul_into
from .errors import ContextError, InvariantError
from .hypergraph import Hypergraph


class WalkRecord(NamedTuple):
    """One surviving basis term: the walk's vertex set, edge set, and multiplicity.

    The sets are tuples of ids in ascending order.
    """

    vertex_set: tuple
    edge_set: tuple
    count: int


class AlgebraMatrix:
    """Matrix of kernel elements sharing one signature, kept as sparse packed rows.

    Row r is a dict {column: packed terms} over its nonzero entries only, so
    a walk matrix takes space in proportion to its nonzero entries, not to
    rows x cols.  ``m[r]`` builds row r's elements when it is read.
    """

    __slots__ = ("signature", "rows", "cols", "_packed")

    def __init__(self, signature: Signature, rows: list[dict], cols: int):
        """The matrix of sparse packed ``rows``; it takes ownership of ``rows``."""
        self.signature, self.rows, self.cols, self._packed = signature, len(rows), cols, rows

    def __getitem__(self, r: int) -> tuple[Element, ...]:
        sig, row = self.signature, self._packed[r]
        return tuple(Element.from_packed(sig, row.get(c, {})) for c in range(self.cols))

    def __eq__(self, other) -> bool:
        # a product of signed entries can leave zero coefficients in a row;
        # the row's elements drop them
        return (
            isinstance(other, AlgebraMatrix)
            and self.signature == other.signature
            and (self.rows, self.cols) == (other.rows, other.cols)
            and all(self[r] == other[r] for r in range(self.rows))
        )

    def __mul__(self, other: "AlgebraMatrix") -> "AlgebraMatrix":
        if not isinstance(other, AlgebraMatrix):
            return NotImplemented
        if self.signature != other.signature:
            raise ContextError("matrix signatures differ")
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        sig, rows = self.signature, other._packed
        return AlgebraMatrix(
            sig, [_row_times_matrix(sig, row, rows) for row in self._packed], other.cols
        )

    def power(self, k: int) -> "AlgebraMatrix":
        """The k-th power of a square matrix: each unit row takes k steps of the walk row loop."""
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {k!r}")
        if self.rows != self.cols:
            raise ValueError(f"power of a non-square {self.rows}x{self.cols} matrix")
        sig, rows = self.signature, self._packed
        return AlgebraMatrix(
            sig, [_row_steps(sig, {r: {0: 1}}, rows, k) for r in range(self.rows)], self.cols
        )


# -- matrix builders ------------------------------------------------------------


def walk_signature(h: Hypergraph) -> Signature:
    """Block 0: vertices 1..n as index-2 nilpotents; block 1: edges as idempotents."""
    return Signature.zeons(h.n) + Signature.idempotents(h.m)


def trail_signature(h: Hypergraph) -> Signature:
    """Role swap: vertices (block 0) idempotent, edges (block 1) index-2 nilpotent."""
    return Signature.idempotents(h.n, "ε") + Signature.zeons(h.m, "ζ")


def _adjacency(h: Hypergraph, sig: Signature) -> list[dict]:
    """Sparse rows: (i, j) -> label of vertex j times the sum of labels of edges containing i and j.

    Filled edge by edge over each edge's vertex pairs, so only nonzero entries
    are stored.  Keys are written by block id (vertex v of block 0, edge l of
    block 1); row and column indices are 0-based.  The rows equal X·Z of
    :func:`_block_rows`, but forming that product through
    :func:`_row_times_matrix` costs 3-6 times this fill.
    """
    mask = sig.mask
    rows = [{} for _ in range(h.n)]
    for l, e in enumerate(h.edges, 1):
        ebit = mask((l,), 1)
        keys = [(v - 1, mask((v,), 0) | ebit) for v in e]
        for a, _ in keys:
            row = rows[a]
            for b, key in keys:
                row.setdefault(b, {})[key] = 1
    return rows


def _block_rows(h: Hypergraph, sig: Signature) -> list[dict]:
    """Sparse rows of [[0, X], [Z, 0]]: X holds edge labels (v, n+l), Z vertex labels (n+l, v)."""
    n, mask = h.n, sig.mask
    rows = [{} for _ in range(n + h.m)]
    for l, e in enumerate(h.edges, 1):
        ebit, r = mask((l,), 1), n + l - 1
        for v in e:
            rows[v - 1][r] = {ebit: 1}
            rows[r][v - 1] = {mask((v,), 0): 1}
    return rows


def build_omega(h: Hypergraph) -> AlgebraMatrix:
    """The n x n nilpotent adjacency matrix: (i, j) -> zeta_j * sum of shared edge labels."""
    sig = walk_signature(h)
    return AlgebraMatrix(sig, _adjacency(h, sig), h.n)


def build_trail_matrix(h: Hypergraph) -> AlgebraMatrix:
    """The trail matrix: same layout as Omega over the role-swapped signature."""
    sig = trail_signature(h)
    return AlgebraMatrix(sig, _adjacency(h, sig), h.n)


def build_blocks(h: Hypergraph) -> tuple[AlgebraMatrix, AlgebraMatrix]:
    """The factor matrices X (n x m, idempotent edge labels) and Z (m x n, vertex labels)."""
    sig = walk_signature(h)
    n = h.n
    rows = _block_rows(h, sig)
    X = [{c - n: x for c, x in row.items()} for row in rows[:n]]
    return AlgebraMatrix(sig, X, h.m), AlgebraMatrix(sig, rows[n:], n)


def build_bipartite(h: Hypergraph) -> AlgebraMatrix:
    """The (n+m) x (n+m) block matrix [[0, X], [Z, 0]]; its square is diag(XZ, ZX)."""
    sig = walk_signature(h)
    return AlgebraMatrix(sig, _block_rows(h, sig), h.n + h.m)


# -- walk extraction --------------------------------------------------------------


def _row_times_matrix(sig: Signature, row: dict, rows: list[dict]) -> dict:
    """A sparse row times the matrix of sparse ``rows``, summed by mul_into; nonzero entries only."""
    out: dict = {}
    for l, a in row.items():
        for c, b in rows[l].items():
            acc = out.get(c)
            if acc is None:
                out[c] = acc = {}
            mul_into(sig, acc, a, b)
    return {c: acc for c, acc in out.items() if acc}


def _row_steps(sig: Signature, row: dict, rows: list[dict], steps: int) -> dict:
    """``row`` times the matrix of ``rows``, ``steps`` times; it stops once the row is empty."""
    for _ in range(steps):
        if not row:
            break  # every later step's row is empty too
        row = _row_times_matrix(sig, row, rows)
    return row


def _row_power(sig: Signature, rows: list[dict], i: int, k: int, start: int, col: int) -> dict:
    """Packed terms of entry (i, col) of the k-th power of ``rows``, times the monomial ``start``.

    The one-entry row {i: start} takes k-1 steps of :func:`_row_steps`; the
    last step is the same row step, over column ``col`` alone.  Ids are 0-based.
    """
    row = _row_steps(sig, {i: {start: 1}}, rows, k - 1)
    column = {l: {col: rows[l][col]} if col in rows[l] else {} for l in row}
    return _row_times_matrix(sig, row, column).get(col, {})


def _extract_records(sig: Signature, entry: dict) -> list[WalkRecord]:
    """One record per term (vertex ids from block 0, edge ids from block 1), sorted.

    Each distinct vertex part and edge part of the keys is read through
    ``support`` once, and records with equal parts share its tuple.  A part
    is the key ANDed with the block's first-power bits from ``Signature.mask``,
    which is the whole part only because every walk and trail generator is an
    index-2 nilpotent or an idempotent, whose value field is one bit wide.
    """
    support, vertex_sets, edge_sets = sig.support, {}, {}
    vmask, emask = (sig.mask(range(1, len(sig.blocks[b]) + 1), b) for b in (0, 1))
    records = []
    for key, c in entry.items():
        v, e = key & vmask, key & emask
        vs = vertex_sets.get(v)
        if vs is None:
            vs = vertex_sets[v] = support(v, 0)
        es = edge_sets.get(e)
        if es is None:
            es = edge_sets[e] = support(e, 1)
        records.append(WalkRecord(vs, es, c))
    records.sort()
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
    sig = walk_signature(h)
    entry = _row_power(sig, _adjacency(h, sig), i - 1, k, sig.mask((i,), 0), j - 1)
    records = _extract_records(sig, entry)
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
    sig = walk_signature(h)
    entry = _row_power(sig, _adjacency(h, sig), i - 1, k, 0, i - 1)
    records = _extract_records(sig, entry)
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
    sig = trail_signature(h)
    entry = _row_power(sig, _adjacency(h, sig), i - 1, k, sig.mask((i,), 0), j - 1)
    records = _extract_records(sig, entry)
    for r in records:
        if len(r.edge_set) != k or i not in r.vertex_set:
            raise InvariantError(f"trail record {sorted(r.edge_set)} from {i}, k={k}")
    return records
