"""Brute-force reference enumerators for every structure the algebraic pipeline computes.

Everything here works by exhaustive scan straight from the combinatorial
definitions and shares no code with the algebra kernel, so any disagreement
points at a real bug rather than a shared misunderstanding.  Walk conventions
match the algebraic ones exactly: a path never repeats a vertex but may repeat
an edge, a cycle's non-base vertices are distinct (so an out-and-back over a
single shared edge is a valid 2-cycle), and a trail never repeats an edge but
may revisit vertices, including staying put for one step inside an incident
unused edge.

All functions are exponential; inputs are capped at n <= 10 and m <= 10.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .errors import BudgetError
from .hypergraph import Hypergraph

MAX_N = 10
MAX_M = 10


def _guard(h: Hypergraph):
    if h.n > MAX_N or h.m > MAX_M:
        raise BudgetError(f"oracle limited to n <= {MAX_N}, m <= {MAX_M}; got n={h.n}, m={h.m}")


def _check_vertex(h: Hypergraph, v: int):
    if not 1 <= v <= h.n:
        raise ValueError(f"vertex {v} outside 1..{h.n}")


# -- walks ---------------------------------------------------------------------


def _walk_records(counts: Counter) -> list[tuple]:
    """(ascending vertex ids, ascending edge ids, count) per (vertex set, edge set) key, sorted."""
    return sorted((tuple(sorted(vs)), tuple(sorted(es)), c) for (vs, es), c in counts.items())


def brute_paths(h: Hypergraph, i: int, j: int, k: int) -> list[tuple]:
    """Every k-step vertex-distinct walk i -> j, counted per (vertex set, edge set).

    Edge ids are 1-based.  Each record is (vertex ids, edge ids, count), both
    ascending, and the count is the number of distinct alternating sequences
    realizing the two sets.
    """
    if k < 1:
        raise ValueError(f"paths need k >= 1, got {k}")
    if i == j:
        raise ValueError("closed walks are cycles; use brute_cycles")
    _guard(h)
    _check_vertex(h, i)
    _check_vertex(h, j)
    counts: Counter = Counter()

    def dfs(v, visited, edges_used, steps):
        if steps == k:
            if v == j:
                counts[(frozenset(visited), frozenset(edges_used))] += 1
            return
        for idx, e in enumerate(h.edges):
            if v in e:
                for w in e:
                    if w not in visited:
                        dfs(w, visited | {w}, edges_used + (idx + 1,), steps + 1)

    dfs(i, {i}, (), 0)
    return _walk_records(counts)


def brute_cycles(h: Hypergraph, i: int, k: int) -> list[tuple]:
    """Closed k-step walks at i with distinct interior, as :func:`brute_paths` records."""
    _guard(h)
    _check_vertex(h, i)
    if k < 2:
        raise ValueError(f"cycles need k >= 2, got {k}")
    counts: Counter = Counter()

    def dfs(v, interior, edges_used, steps):
        last = steps == k - 1
        for idx, e in enumerate(h.edges):
            if v in e:
                for w in e:
                    if last:
                        if w == i:
                            counts[
                                (frozenset({i}) | interior, frozenset(edges_used + (idx + 1,)))
                            ] += 1
                    elif w != i and w not in interior:
                        dfs(w, interior | {w}, edges_used + (idx + 1,), steps + 1)

    dfs(i, frozenset(), (), 0)
    return _walk_records(counts)


def brute_trails(h: Hypergraph, i: int, j: int, k: int) -> list[tuple]:
    """k-step edge-distinct walks i -> j, as :func:`brute_paths` records.

    Vertices may repeat; a step may stay at the same vertex provided it spends
    an unused incident edge.  The start vertex is part of every vertex set.
    """
    if k < 1:
        raise ValueError(f"trails need k >= 1, got {k}")
    _guard(h)
    _check_vertex(h, i)
    _check_vertex(h, j)
    counts: Counter = Counter()

    def dfs(v, vset, used, steps):
        if steps == k:
            if v == j:
                counts[(frozenset(vset), frozenset(used))] += 1
            return
        for idx, e in enumerate(h.edges):
            if idx + 1 not in used and v in e:
                for w in e:
                    dfs(w, vset | {w}, used | {idx + 1}, steps + 1)

    dfs(i, {i}, frozenset(), 0)
    return _walk_records(counts)


# -- vertex subset structures ---------------------------------------------------


def brute_independent(h: Hypergraph, mode: str, size: int, k: int | None = None) -> list[tuple]:
    """All vertex sets of the given size passing the mode's literal predicate, as ascending tuples.

    Modes: 'weak' (contains no hyperedge), 'strong' (meets every edge at most
    once), 'k-independent' (meets every edge at most k times; requires k),
    'graph' (no 2-element edge inside; loops ignored), 'clique' and
    'pairwise-adjacent' (every vertex pair shares an edge).  Rejected as the
    kernel rejects them: a size below 1, an edge of more than two vertices in
    the 'graph' and 'clique' modes, and an isolated vertex in the 'strong' and
    'k-independent' modes.  'weak' lets an isolated vertex join any set.
    """
    _guard(h)
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if mode in ("graph", "clique"):
        for e in h.edges:
            if len(e) > 2:
                raise ValueError(f"not a graph: edge {sorted(e)} has more than two vertices")
    if mode in ("strong", "k-independent") and h.isolated_vertices():
        raise ValueError(f"isolated vertices {list(h.isolated_vertices())} in mode {mode}")

    if mode == "weak":
        pred = lambda s: not any(e <= s for e in h.edges)
    elif mode == "strong":
        pred = lambda s: all(len(e & s) <= 1 for e in h.edges)
    elif mode == "k-independent":
        if k is None or k < 1:
            raise ValueError("k-independent mode needs k >= 1")
        pred = lambda s: all(len(e & s) <= k for e in h.edges)
    elif mode == "graph":
        pred = lambda s: not any(e <= s for e in h.edges if len(e) == 2)
    elif mode in ("clique", "pairwise-adjacent"):
        pred = lambda s: all(h.adjacent(u, v) for u, v in combinations(sorted(s), 2))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if size > h.n:
        return []  # combinations() would allocate `size` indices before finding none
    hits = [c for c in combinations(range(1, h.n + 1), size) if pred(frozenset(c))]
    return sorted(hits)


def _check_distinct_edges(h: Hypergraph):
    # the kernel would merge repeated edges into one blade, so it refuses them
    if len(set(h.edges)) != h.m:
        raise ValueError("matching enumeration requires pairwise distinct hyperedges")


def brute_matchings(h: Hypergraph, k: int) -> list[tuple]:
    """All sets of k pairwise-disjoint edges, as ascending tuples of 1-based edge ids.

    Disjoint edges meet in at most 0 vertices; repeated edges are refused.
    """
    _guard(h)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_distinct_edges(h)
    return brute_j_intersecting(h, 0, k)


def brute_j_intersecting(h: Hypergraph, j: int, k: int) -> list[tuple]:
    """All sets of k edges whose pairwise intersections have size <= j (1-based ids)."""
    _guard(h)
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > h.m:
        return []  # as in brute_independent
    hits = []
    for combo in combinations(range(h.m), k):
        edges = [h.edges[i] for i in combo]
        if all(len(a & b) <= j for a, b in combinations(edges, 2)):
            hits.append(tuple(i + 1 for i in combo))
    return sorted(hits)


def brute_max_matching_size(h: Hypergraph) -> int:
    """The most pairwise-disjoint edges; a repeated edge's copies count as distinct edges."""
    _guard(h)
    for k in range(h.m, 0, -1):
        if brute_j_intersecting(h, 0, k):
            return k
    return 0


def brute_perfect_matchings(h: Hypergraph) -> int:
    """Number of pairwise-disjoint edge families covering every vertex; refuses repeated edges."""
    _guard(h)
    _check_distinct_edges(h)
    count = 0
    for k in range(h.m + 1):
        for combo in combinations(range(h.m), k):
            edges = [h.edges[i] for i in combo]
            if sum(len(e) for e in edges) != h.n:
                continue
            union = frozenset().union(*edges) if edges else frozenset()
            if len(union) == h.n and all(not (a & b) for a, b in combinations(edges, 2)):
                count += 1
    return count


def brute_transversals(h: Hypergraph) -> tuple[int, list[tuple]]:
    """(tau, all minimum-cardinality vertex sets meeting every edge)."""
    _guard(h)
    # every edge is non-empty, so the loop returns at size n at the latest
    for size in range(h.n + 1):
        hits = [
            c for c in combinations(range(1, h.n + 1), size) if all(e & set(c) for e in h.edges)
        ]
        if hits:
            return size, sorted(hits)
