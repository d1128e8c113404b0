"""Matching enumeration from the zeon incidence element's edge blades.

The incidence element sums one square-free blade of index-2 vertex generators
per hyperedge.  The paper reads k-matchings from its k-th power divided by k!;
here the products of all k-subsets of the edge blades are formed directly
(:func:`~hyperzeon.algebra.subset_products`), each subset once.  A product
survives exactly when its k edges are pairwise disjoint (a shared vertex
squares to zero), so its coefficient counts the k-matchings covering its
vertex set.  Edge-subset views come from independent sets of the
intersection graph, which also yields j-intersecting matchings.
"""

from __future__ import annotations

from collections import Counter

from .algebra import Element, Signature, subset_level, subset_products
from .hypergraph import Hypergraph
from .independent_sets import graph_independent_sets


def _check_distinct_edges(h: Hypergraph):
    # duplicate edges would merge into one blade with coefficient 2
    if len(set(h.edges)) != h.m:
        raise ValueError("matching enumeration requires pairwise distinct hyperedges")


def incidence_signature(h: Hypergraph) -> Signature:
    return Signature.zeons(h.n)


def incidence_representation(h: Hypergraph) -> Element:
    """γ: the unit blade of each hyperedge's vertices (block 0); a repeated edge gets coefficient 2."""
    sig = incidence_signature(h)
    return Element.from_packed(sig, dict(Counter(sig.mask(e, 0) for e in h.edges)))


def k_matchings(h: Hypergraph, k: int) -> list[tuple[tuple, int]]:
    """Sorted (ascending vertex id tuple, count) for every union of k pairwise-disjoint edges."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_distinct_edges(h)
    gamma = incidence_representation(h)
    support = gamma.signature.support
    level = subset_level(gamma.signature, gamma.packed, k)
    return sorted((support(key, 0), count) for key, count in level.items())


def perfect_matching_count(h: Hypergraph) -> int:
    """Number of pairwise-disjoint edge families covering every vertex.

    Reads the full-blade coefficient among the products of subsets of the
    edge blades, with that blade as the levels' target: a family is dropped
    as soon as a vertex it misses lies in no later edge.  An r-uniform input
    reads level n/r alone, as the paper's γ^(n/r)/(n/r)! does, and has no
    perfect matching when r does not divide n; any other input sums the
    coefficient over every level.
    """
    _check_distinct_edges(h)
    if h.n == 0:
        return 1  # the empty family covers no vertex
    gamma = incidence_representation(h)
    sig = gamma.signature
    full = sig.mask(range(1, h.n + 1), 0)
    r = h.uniform_rank()
    if r is None:
        return sum(level.get(full, 0) for _, level in subset_products(sig, gamma.packed, target=full))
    if h.n % r:
        return 0
    return subset_level(sig, gamma.packed, h.n // r, full).get(full, 0)


def j_intersecting_matchings(h: Hypergraph, j: int, k: int) -> list[tuple]:
    """Sets of k edges (ascending 1-based ids) whose pairwise intersections have size at most j.

    Independent k-sets of the intersection graph whose threshold is j+1 shared
    vertices; j=0 recovers ordinary matchings as edge subsets.
    """
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return graph_independent_sets(h.intersection_graph(j), k)
