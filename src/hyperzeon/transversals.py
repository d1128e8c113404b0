"""Minimum-cardinality transversal enumeration over an all-idempotent context.

Each non-isolated vertex contributes the product of its incident edge labels
times its own label, everything idempotent.  Powers of that sum accumulate
coverage: the first power whose expansion contains the full edge blade yields
the transversal number, and the vertex index sets attached to that blade are
exactly the minimum transversals.  Isolated vertices can never help cover an
edge, so they are dropped up front and reported.  Each power is kept whole:
dropping the terms that another term dominates (more edges covered with no
more vertices) never changes the result, and on the conjecture harness's
instances it cost several times what it saved.

Generator ids: edge labels 0..m-1 ("ε", 1-based subscripts), vertex labels
m..m+n-1 ("x").
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Element, Signature
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

    Iterates powers of the representation until a term carries the full edge
    blade.  At that first power k every full-blade vertex set has size exactly
    k: a smaller one would have produced the full blade at a smaller power.
    """
    if h.m < 1:
        raise ValueError("transversal search needs at least one edge")
    rep = transversal_representation(h)
    sig = rep.element.signature
    full_edges = sig.mask(range(h.m))
    power = rep.element
    active = len(rep.element.terms)
    for k in range(1, active + 1):
        hits = []
        for key in power.packed:
            if key & full_edges == full_edges:
                vs = frozenset(g - h.m + 1 for g, _ in sig.decode(key & ~full_edges))
                if len(vs) != k:
                    raise InvariantError(f"full-blade vertex set {sorted(vs)} at power {k}")
                hits.append(vs)
        if hits:
            return k, sorted(hits, key=sorted)
        if k < active:
            power = power * rep.element
    raise InvariantError("no transversal found, yet every edge is non-empty")


def transversal_number(h: Hypergraph) -> int:
    return 0 if h.m == 0 else minimum_transversals(h)[0]
