"""Matching enumeration from the zeon incidence element's edge blades.

The incidence element sums one square-free blade of index-2 vertex generators
per hyperedge.  The paper reads k-matchings from its k-th power divided by k!;
here the products of all k-subsets of the edge blades are formed directly
(:func:`~hyperzeon.kernel.subset_products`), each subset once.  A product
survives exactly when its k edges are pairwise disjoint (a shared vertex
squares to zero), so its coefficient counts the k-matchings covering its
vertex set.  Perfect matchings sum the full-vertex-blade terms of the levels
whose target is that blade.  Edge-subset views come from independent sets of the
intersection graph, which also yields j-intersecting matchings.  The
enumerators read γ's packed terms from :func:`incidence_terms`; only
:func:`incidence_representation` wraps them as an element.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from typing import TYPE_CHECKING

from .hypergraph import Hypergraph
from .independent_sets import graph_independent_sets
from .kernel import Signature, subset_level, subset_products

if TYPE_CHECKING:
    from .algebra import Element


def _check_distinct_edges(h: Hypergraph):
    # duplicate edges would merge into one blade with coefficient 2
    if len(set(h.edges)) != h.m:
        raise ValueError("matching enumeration requires pairwise distinct hyperedges")


def incidence_signature(h: Hypergraph) -> Signature:
    return Signature.zeons(h.n)


def incidence_terms(h: Hypergraph) -> tuple[Signature, dict]:
    """γ: the unit blade of each hyperedge's vertices (block 0); a repeated edge gets coefficient 2."""
    sig = incidence_signature(h)
    return sig, dict(Counter(sig.mask(e, 0) for e in h.edges))


def incidence_representation(h: Hypergraph) -> Element:
    """:func:`incidence_terms` as an element."""
    from .algebra import Element

    return Element.from_packed(*incidence_terms(h))


def k_matchings(h: Hypergraph, k: int) -> list[tuple[tuple, int]]:
    """Sorted (ascending vertex id tuple, count) for every union of k pairwise-disjoint edges."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_distinct_edges(h)
    sig, gamma = incidence_terms(h)
    support = sig.support
    level = subset_level(sig, gamma, k)
    return sorted((support(key, 0), count) for key, count in level.items())


def perfect_matching_count(h: Hypergraph) -> int:
    """Number of pairwise-disjoint edge families covering every vertex.

    Disjoint edges cover a multiple of the gcd of the edge sizes, so there is
    none unless it divides n.  Otherwise it sums the full-blade coefficient
    over the levels of subset products of the edge blades that target that
    blade: a family is dropped once a vertex it misses lies in no later edge.
    On an r-uniform input only level n/r carries the blade, the paper's
    γ^(n/r)/(n/r)!.
    """
    _check_distinct_edges(h)
    if h.n == 0:
        return 1  # the empty family covers no vertex
    if h.m == 0 or h.n % gcd(*map(len, h.edges)):
        return 0
    sig, gamma = incidence_terms(h)
    full = sig.mask(range(1, h.n + 1), 0)
    return sum(level.get(full, 0) for _, level in subset_products(sig, gamma, target=full))


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
