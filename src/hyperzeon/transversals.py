"""Minimum-cardinality transversal enumeration over an all-idempotent context.

The transversal element σ is φ (:func:`~hyperzeon.independent_sets.phi`) with
idempotent edge labels: each non-isolated vertex contributes the product of its
incident edge labels times its own label, everything idempotent.  The paper
raises σ to successive powers until the expansion contains the full edge
blade.  Here the products of all j-subsets of the factors are formed for
j = 1, 2, ... (:func:`~hyperzeon.algebra.subset_products`): the first level
that carries the full edge blade is the first such power of σ, its j is the
transversal number, and the vertex index sets attached to that blade are
exactly the minimum transversals.  Isolated vertices can never help cover an
edge, so they get no factor; the CLI reports them from the hypergraph itself.

Generator ids: edge labels 0..m-1 ("ε", 1-based subscripts), vertex labels
m..m+n-1 ("x").
"""

from __future__ import annotations

from .algebra import Signature, subset_products
from .errors import InvariantError
from .hypergraph import Hypergraph
from .independent_sets import PhiRepresentation, phi


def transversal_signature(h: Hypergraph) -> Signature:
    return Signature.idempotents(h.m, "ε") + Signature.idempotents(h.n, "x")


def transversal_representation(h: Hypergraph) -> PhiRepresentation:
    return phi(h, transversal_signature(h), skip=h.isolated_vertices())


def minimum_transversals(h: Hypergraph) -> tuple[int, list[tuple]]:
    """(tau, every minimum-cardinality vertex set meeting all edges, sorted).

    Forms the products of j-subsets of the vertex factors, level by level,
    until one carries the full edge blade.  At that first level every
    full-blade vertex set has size exactly j: a smaller one would have covered
    every edge at a lower level.  An edgeless hypergraph has the one
    transversal (), of size 0.
    """
    if h.m == 0:
        return 0, [()]
    rep = transversal_representation(h)
    sig = rep.element.signature
    full_edges = sig.mask(range(h.m))
    for j, level in subset_products(sig, rep.element.packed):
        full = {key: c for key, c in level.items() if key & full_edges == full_edges}
        hits = rep.index_sets(full, j)
        if hits:
            return j, hits
    raise InvariantError("no transversal found, yet every edge is non-empty")


def transversal_number(h: Hypergraph) -> int:
    return minimum_transversals(h)[0]
