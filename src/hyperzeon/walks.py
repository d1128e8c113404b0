"""Nilpotent adjacency matrices for hypergraphs and walk extraction from their powers.

The path/cycle context labels vertex i with an index-2 nilpotent generator and
edge l with an idempotent one; entry (i, j) of the adjacency matrix is the
vertex label of j times the sum of labels of edges containing both endpoints.
Powers of the matrix then count walks whose surviving terms are exactly the
self-avoiding ones: repeated vertices square to zero, repeated edges collapse
idempotently and merely shrink the recorded edge set.  Trails swap the roles
(idempotent vertices, nilpotent edges) so edge repetition cancels instead.

The enumerators work on sparse packed rows from :mod:`~hyperzeon.kernel`
alone: each takes one row of the matrix through k steps of the row loop and
reads its target entry's terms.  The row loop is directed at that entry: one
breadth-first search from the target column over the rows' nonzero pattern
gives d(c), the fewest steps from column c to the target, and step t of k
forms products into column c only when d(c) <= k - t.  A dropped column
cannot reach the target in the steps left, so it adds nothing to the entry.
The same matrices as elements, with their products and powers, are
:mod:`~hyperzeon.algebra`'s ``AlgebraMatrix`` and ``build_*`` functions,
which share this module's rows and row loop and keep every column.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantError
from .hypergraph import Hypergraph
from .kernel import Signature, mul_into


class WalkRecord(NamedTuple):
    """One surviving basis term: the walk's vertex set, edge set, and multiplicity.

    The sets are tuples of ids in ascending order.
    """

    vertex_set: tuple
    edge_set: tuple
    count: int


# -- matrix rows ----------------------------------------------------------------


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
    ``algebra._block_rows``, but forming that product through
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


# -- walk extraction --------------------------------------------------------------


def _row_times_matrix(
    sig: Signature, row: dict, rows: list[dict], dist: list | None = None, left: int = 0
) -> dict:
    """A sparse row times the matrix of sparse ``rows``, summed by mul_into; nonzero entries only.

    With ``dist``, products go only into columns c with ``dist[c] <= left``;
    without it, into every column.
    """
    out: dict = {}
    for l, a in row.items():
        for c, b in rows[l].items():
            if dist is not None and dist[c] > left:
                continue
            acc = out.get(c)
            if acc is None:
                out[c] = acc = {}
            mul_into(sig, acc, a, b)
    return {c: acc for c, acc in out.items() if acc}


def _row_steps(sig: Signature, row: dict, rows: list[dict], steps: int, dist: list | None = None) -> dict:
    """``row`` times the matrix of ``rows``, ``steps`` times; it stops once the row is empty.

    With ``dist``, the step that leaves s steps to go keeps only the columns
    c with ``dist[c] <= s`` (see :func:`_row_power`).
    """
    for left in range(steps, 0, -1):
        if not row:
            break  # every later step's row is empty too
        row = _row_times_matrix(sig, row, rows, dist, left)
    return row


def _distances(rows: list[dict], col: int, k: int) -> list[int]:
    """d[c]: the fewest steps from column c to ``col`` over the nonzero pattern of ``rows``.

    A breadth-first search from ``col`` over the reverse adjacency; it stops
    when its frontier is empty or its depth reaches k - 1, the most steps a
    row step of :func:`_row_power` leaves, and columns it does not reach get k.
    """
    preds: list[list[int]] = [[] for _ in rows]
    for l, row in enumerate(rows):
        for c in row:
            preds[c].append(l)
    dist = [k] * len(rows)
    dist[col], frontier, depth = 0, [col], 0
    while frontier and depth < k - 1:
        depth += 1
        nxt = []
        for c in frontier:
            for l in preds[c]:
                if dist[l] == k:
                    dist[l] = depth
                    nxt.append(l)
        frontier = nxt
    return dist


def _row_power(sig: Signature, rows: list[dict], i: int, k: int, start: int, col: int) -> dict:
    """Packed terms of entry (i, col) of the k-th power of ``rows``, times the monomial ``start``.

    The one-entry row {i: start} takes k-1 steps of :func:`_row_steps`,
    directed at ``col``: with d(c) the fewest steps from column c to ``col``
    (:func:`_distances`), step t of k forms products into column c only if
    d(c) <= k - t, so a column with no distance below k is never formed.
    When the target's vertex label (block 0) is nilpotent, as in paths and
    cycles, a walk that enters ``col`` before its last step squares it to
    zero, so column ``col`` is dropped before the last step too; a trail's
    idempotent target keeps it.  The result is exact: a dropped column
    cannot reach ``col`` in the steps left, or reaches it only by entering
    the nilpotent target twice, so it adds nothing to the entry.  The last
    step is the same row step, over column ``col`` alone.  Ids are 0-based.
    """
    dist = _distances(rows, col, k)
    if sig.caps[sig.blocks[0][col]] is not None:
        dist[col] = k  # a nilpotent target is entered on the last step only
    row = _row_steps(sig, {i: {start: 1}}, rows, k - 1, dist)
    column = {l: {col: rows[l][col]} if col in rows[l] else {} for l in row}
    return _row_times_matrix(sig, row, column).get(col, {})


def _extract_records(sig: Signature, entry: dict) -> list[WalkRecord]:
    """One record per term (vertex ids from block 0, edge ids from block 1), sorted.

    Each distinct vertex part and edge part of the keys is read through
    ``support`` once, and records with equal parts share its tuple.  A part
    is the key ANDed with the block's first-power bits from ``Signature.mask``,
    which is the whole part only because every walk and trail generator is an
    index-2 nilpotent or an idempotent, whose value field is one bit wide.
    It consumes ``entry``: each term is popped as its record is built, so the
    entry shrinks while the records grow, and ``entry`` is empty afterwards.
    """
    support, vertex_sets, edge_sets = sig.support, {}, {}
    vmask, emask = (sig.mask(range(1, len(sig.blocks[b]) + 1), b) for b in (0, 1))
    records = []
    while entry:
        key, c = entry.popitem()
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
    if k > h.n - 1:
        return []  # a path of k steps visits k + 1 distinct vertices
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
    if k > h.n:
        return []  # a cycle's vertex set has k vertices
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
    if k > h.m:
        return []  # a trail uses k distinct edges
    sig = trail_signature(h)
    entry = _row_power(sig, _adjacency(h, sig), i - 1, k, sig.mask((i,), 0), j - 1)
    records = _extract_records(sig, entry)
    for r in records:
        if len(r.edge_set) != k or i not in r.vertex_set:
            raise InvariantError(f"trail record {sorted(r.edge_set)} from {i}, k={k}")
    return records
