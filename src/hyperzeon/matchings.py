"""Matching enumeration via the zeon incidence element and its powers.

The incidence element sums one square-free blade of index-2 vertex generators
per hyperedge.  Its k-th power keeps exactly the products of k pairwise
disjoint edges (any shared vertex squares to zero), each counted k! times for
the orderings, so dividing coefficients by k! counts k-matchings per covered
vertex set.  Edge-subset views come from independent sets of the intersection
graph, which also yields j-intersecting matchings.
"""

from __future__ import annotations

import warnings
from math import factorial

from .algebra import Element, Signature
from .errors import InvariantError
from .hypergraph import Hypergraph
from .independent_sets import graph_independent_sets


def _check_distinct_edges(h: Hypergraph):
    # duplicate edges merge into one blade with coefficient 2 and break the k! count
    if len(set(h.edges)) != h.m:
        raise ValueError("matching enumeration requires pairwise distinct hyperedges")


def incidence_signature(h: Hypergraph) -> Signature:
    return Signature.zeons(h.n)


def incidence_representation(h: Hypergraph) -> Element:
    """Sum of one unit blade per hyperedge over index-2 vertex generators."""
    return Element(incidence_signature(h), [(tuple((v - 1, 1) for v in e), 1) for e in h.edges])


def k_matchings(h: Hypergraph, k: int) -> list[tuple[frozenset, int]]:
    """(vertex set, count) for every union of k pairwise-disjoint edges."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_distinct_edges(h)
    gamma = incidence_representation(h)
    decode = gamma.signature.decode
    kf = factorial(k)
    out = []
    for key, coeff in (gamma**k).packed.items():
        count, remainder = divmod(coeff, kf)
        if remainder:
            raise InvariantError(f"coefficient {coeff} not divisible by {k}!")
        out.append((frozenset(g + 1 for g, _ in decode(key)), count))
    out.sort(key=lambda t: sorted(t[0]))
    return out


def perfect_matching_count(h: Hypergraph) -> int:
    """Number of pairwise-disjoint edge families covering every vertex, for uniform inputs.

    Reads the full-blade coefficient of the (n/r)-th power of the incidence
    element.  Non-uniform inputs, or vertex counts not divisible by the edge
    size, return 0 with a warning; spanning_matching_count handles the general
    case.
    """
    _check_distinct_edges(h)
    r = h.uniform_rank()
    if r is None:
        warnings.warn("hypergraph is not uniform; reporting 0 perfect matchings")
        return 0
    if h.n % r:
        warnings.warn(f"vertex count {h.n} is not a multiple of edge size {r}; reporting 0")
        return 0
    k = h.n // r
    if k == 0:
        return 1 if h.n == 0 else 0
    gamma = incidence_representation(h)
    full = gamma.signature.encode((g, 1) for g in range(h.n))
    coeff = (gamma**k).packed.get(full, 0)
    count, remainder = divmod(coeff, factorial(k))
    if remainder:
        raise InvariantError(f"coefficient {coeff} not divisible by {k}!")
    return count


def spanning_matching_count(h: Hypergraph) -> int:
    """Perfect-matching count without the uniformity assumption.

    Sums the full-blade coefficient of every feasible power of the incidence
    element (at most one power contributes for uniform inputs).
    """
    _check_distinct_edges(h)
    if h.n == 0:
        return 1
    gamma = incidence_representation(h)
    full = gamma.signature.encode((g, 1) for g in range(h.n))
    total = 0
    power = gamma
    for k in range(1, h.n + 1):
        if not power:
            break
        coeff = power.packed.get(full, 0)
        count, remainder = divmod(coeff, factorial(k))
        if remainder:
            raise InvariantError(f"coefficient {coeff} not divisible by {k}!")
        total += count
        power = power * gamma
    return total


def j_intersecting_matchings(h: Hypergraph, j: int, k: int) -> list[frozenset]:
    """Sets of k edges (1-based ids) whose pairwise intersections have size at most j.

    Independent k-sets of the intersection graph whose threshold is j+1 shared
    vertices; j=0 recovers ordinary matchings as edge subsets.
    """
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return [ids for ids, _ in graph_independent_sets(h.intersection_graph(j), k)]
