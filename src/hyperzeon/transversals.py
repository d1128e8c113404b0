"""Minimum-cardinality transversal enumeration over an all-idempotent context.

Each non-isolated vertex contributes the product of its incident edge labels
times its own label, everything idempotent.  The paper raises the sum σ of
these factors to successive powers until the expansion contains the full edge
blade.  Here the products of all j-subsets of the factors are formed for
j = 1, 2, ... (:func:`~hyperzeon.algebra.subset_products`): the first level
that carries the full edge blade is the first such power of σ, its j is the
transversal number, and the vertex index sets attached to that blade are
exactly the minimum transversals.  Isolated vertices can never help cover an
edge, so they are dropped up front and reported.

Generator ids: edge labels 0..m-1 ("ε", 1-based subscripts), vertex labels
m..m+n-1 ("x").
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Element, Signature, subset_products
from .errors import InvariantError
from .hypergraph import Hypergraph


@dataclass(frozen=True)
class TransversalRepresentation:
    element: Element
    edge_count: int
    n: int
    removed_isolated: tuple[int, ...]


def transversal_signature(h: Hypergraph) -> Signature:
    return Signature.idempotents(h.m, "ε") + Signature.idempotents(h.n, "x")


def transversal_representation(h: Hypergraph) -> TransversalRepresentation:
    sig = transversal_signature(h)
    isolated = h.isolated_vertices()
    terms = {}
    for v in range(1, h.n + 1):
        if v in isolated:
            continue
        monomial = tuple((idx, 1) for idx in h.incident_edges(v)) + ((h.m + v - 1, 1),)
        terms[monomial] = 1
    return TransversalRepresentation(Element(sig, terms), h.m, h.n, isolated)


def minimum_transversals(h: Hypergraph) -> tuple[int, list[frozenset]]:
    """(tau, every minimum-cardinality vertex set meeting all edges).

    Forms the products of j-subsets of the vertex factors, level by level,
    until one carries the full edge blade.  At that first level every
    full-blade vertex set has size exactly j: a smaller one would have covered
    every edge at a lower level.
    """
    if h.m < 1:
        raise ValueError("transversal search needs at least one edge")
    rep = transversal_representation(h)
    sig = rep.element.signature
    support = sig.support
    full_edges = sig.mask(range(h.m))
    for j, level in subset_products(sig, rep.element.packed):
        hits = []
        for key in level:
            if key & full_edges == full_edges:
                vs = [g - h.m + 1 for g in support(key & ~full_edges)]
                if len(vs) != j:
                    raise InvariantError(f"full-blade vertex set {vs} at level {j}")
                hits.append(vs)
        if hits:
            hits.sort()
            return j, [frozenset(vs) for vs in hits]
    raise InvariantError("no transversal found, yet every edge is non-empty")


def transversal_number(h: Hypergraph) -> int:
    return 0 if h.m == 0 else minimum_transversals(h)[0]
