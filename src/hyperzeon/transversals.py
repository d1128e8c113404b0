"""Minimum-cardinality transversal enumeration over an all-idempotent context.

The transversal element σ is φ (:func:`~hyperzeon.independent_sets.phi`) with
idempotent edge labels: each non-isolated vertex contributes the product of its
incident edge labels times its own label, everything idempotent.  The paper
raises σ to successive powers until the expansion contains the full edge
blade.  Here the products of all j-subsets of the factors are formed for
j = 1, 2, ... (:func:`~hyperzeon.kernel.subset_products`): the first level
that carries the full edge blade is the first such power of σ, its j is the
transversal number, and the vertex index sets attached to that blade are
exactly the minimum transversals.  No other term is read, so the full edge
blade is the levels' target: a subset is dropped as soon as some edge it
misses has no vertex among the factors after its last one.  Isolated vertices
can never help cover an edge, so they get no factor; the CLI reports them from
the hypergraph itself.

Signature blocks: edge labels ("ε"), then vertex labels ("x"), read back as
vertex sets by :func:`~hyperzeon.independent_sets.index_sets`.  The
enumeration reads σ's packed terms from :func:`transversal_terms`; only
:func:`transversal_representation` wraps them as an element.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import InvariantError
from .hypergraph import Hypergraph
from .independent_sets import index_sets, phi
from .kernel import Signature, subset_products

if TYPE_CHECKING:
    from .algebra import Element


def transversal_signature(h: Hypergraph) -> Signature:
    return Signature.idempotents(h.m, "ε") + Signature.idempotents(h.n, "x")


def transversal_terms(h: Hypergraph) -> tuple[Signature, dict]:
    """σ: φ over the all-idempotent signature, with no factor for an isolated vertex."""
    sig = transversal_signature(h)
    return sig, phi(h, sig, skip=h.isolated_vertices())


def transversal_representation(h: Hypergraph) -> Element:
    """:func:`transversal_terms` as an element."""
    from .algebra import Element

    return Element.from_packed(*transversal_terms(h))


def minimum_transversals(h: Hypergraph) -> tuple[int, list[tuple]]:
    """(tau, every minimum-cardinality vertex set meeting all edges, sorted).

    Forms the products of j-subsets of the vertex factors that can still
    meet every edge, level by level, until one carries the full edge blade.
    At that first level every
    full-blade vertex set has size exactly j: a smaller one would have covered
    every edge at a lower level.  An edgeless hypergraph has the one
    transversal (), of size 0.
    """
    if h.m == 0:
        return 0, [()]
    sig, sigma = transversal_terms(h)
    full_edges = sig.mask(range(1, h.m + 1), 0)
    for j, level in subset_products(sig, sigma, target=full_edges):
        full = {key: c for key, c in level.items() if key & full_edges == full_edges}
        hits = index_sets(sig, full, j)
        if hits:
            return j, hits
    raise InvariantError("no transversal found, yet every edge is non-empty")


def transversal_number(h: Hypergraph) -> int:
    return minimum_transversals(h)[0]
