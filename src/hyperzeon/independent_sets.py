"""Independent-set enumeration through nilpotent edge labels and idempotent vertex labels.

Each vertex contributes one factor: the product of its incident edge labels
with its own idempotent label.  The paper sums the factors and reads k-sets
from the k-th power divided by k!; here the products of all k-subsets of the
factors are formed directly (:func:`~hyperzeon.algebra.subset_level`),
each subset once with coefficient 1.  A product vanishes when the subset
overuses an edge: with index-2 edge labels on a graph this enforces pairwise
non-adjacency, with index-|e| labels it forbids containing a whole hyperedge
(weak independence), and with index k+1 labels it caps every edge's
intersection at k.  The surviving idempotent index sets are exactly the
independent k-sets.  The transversal element σ is the same :func:`phi` with
idempotent edge labels (:mod:`~hyperzeon.transversals`), read by the same
:func:`index_sets`.

Every representation's signature has two blocks: the edge labels in edge order
(for graphs, appended loop edges follow the original edges), then the vertex
labels, so a key's block-1 read is its vertex id set.  Graph mode gives each
isolated vertex a loop, as the paper does; a representation keeps no record of
which vertices were isolated, and the CLI reports them from the hypergraph itself.
"""

from __future__ import annotations

from .algebra import Element, Signature, subset_level
from .errors import InvariantError
from .hypergraph import Hypergraph


def index_sets(signature: Signature, level: dict, k: int) -> list[tuple]:
    """The sorted block-1 reads (vertex id tuples) of a level's terms (packed key -> coefficient).

    Each term must carry exactly k vertex labels with coefficient 1, and no set may repeat.
    """
    support = signature.support
    out = []
    for key, coeff in level.items():
        xs = support(key, 1)
        if len(xs) != k or coeff != 1:
            raise InvariantError(f"index set {list(xs)} with coefficient {coeff} at level {k}")
        out.append(xs)
    out.sort()
    if any(a == b for a, b in zip(out, out[1:])):
        raise InvariantError(f"an index set appeared twice at level {k}")
    return out


def level_sets(element: Element, k: int) -> list[tuple]:
    """The index sets of the k-subset products of a φ element's factors, sorted."""
    return index_sets(element.signature, subset_level(element.signature, element.packed, k), k)


def phi(h: Hypergraph, signature: Signature, skip=()) -> Element:
    """φ: the sum over vertices not in ``skip`` of (incident edge labels) x (the vertex's label).

    Each vertex's packed key starts as its own label; each edge ORs its exponent-1
    label (not its multi-bit mask) into the keys of its vertices.
    """
    m, encode = h.m, signature.encode
    keys = [encode(((m + v, 1),)) for v in range(h.n)]
    for l, e in enumerate(h.edges):
        bit = encode(((l, 1),))
        for v in e:
            keys[v - 1] |= bit
    return Element.from_packed(signature, {key: 1 for v, key in enumerate(keys, 1) if v not in skip})


# -- graphs ----------------------------------------------------------------------


def _check_graph(g: Hypergraph):
    for e in g.edges:
        if len(e) > 2:
            raise ValueError(f"not a graph: edge {sorted(e)} has more than two vertices")


def _with_isolated_loops(g: Hypergraph) -> Hypergraph:
    loops = g.isolated_vertices()
    return Hypergraph(g.n, [sorted(e) for e in g.edges] + [[v] for v in loops])


def independent_set_representation(g: Hypergraph) -> Element:
    """The index-2 labeled sum for an ordinary graph, after adding loops to isolated vertices."""
    _check_graph(g)
    g2 = _with_isolated_loops(g)
    sig = Signature.zeons(g2.m) + Signature.idempotents(g2.n, "x")
    return phi(g2, sig)


def graph_independent_sets(g: Hypergraph, k: int) -> list[tuple]:
    """All independent k-sets of a graph.

    Loops make a vertex self-adjacent for counting purposes but do not exclude
    it from independent sets.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return level_sets(independent_set_representation(g), k)


def graph_cliques(g: Hypergraph, k: int) -> list[tuple]:
    """All k-cliques of a graph: independent sets of its complement."""
    _check_graph(g)
    return graph_independent_sets(g.non_adjacency_graph(), k)


# -- hypergraphs -------------------------------------------------------------------


def _check_no_isolated(h: Hypergraph):
    isolated = h.isolated_vertices()
    if isolated:
        raise ValueError(
            f"isolated vertices {list(isolated)} have no incident edge label; "
            "strip them first (they join any independent set freely)"
        )


def weak_representation(h: Hypergraph) -> Element:
    """Edge labels nilpotent of index |e|, so a selection containing an edge vanishes.

    Vertices lying in a singleton edge are omitted: their label would need
    nilpotency index 1, i.e. it is already zero, and indeed no weak independent
    set can contain them.  The singleton edge keeps its id slot.
    """
    _check_no_isolated(h)
    indices = [max(len(e), 2) for e in h.edges]
    sig = Signature.generalized_zeons(indices, "ν") + Signature.idempotents(h.n, "ε")
    skip = {v for e in h.edges if len(e) == 1 for v in e}
    return phi(h, sig, skip)


def weak_independent_sets(h: Hypergraph, k: int) -> list[tuple]:
    """All k-sets of vertices containing no hyperedge.

    Only size k is reported.  The paper's k-th power also leaves smaller
    index sets behind, from choosing a vertex twice; they are not the k-sets
    asked for, and the subset products never form them.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return level_sets(weak_representation(h), k)


def k_independent_representation(h: Hypergraph, k: int) -> Element:
    """Every edge label nilpotent of index k+1: selections meet each edge at most k times."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_no_isolated(h)
    sig = Signature.generalized_zeons([k + 1] * h.m, "ν") + Signature.idempotents(h.n, "ε")
    return phi(h, sig)


def k_independent_sets(h: Hypergraph, size: int, k: int) -> list[tuple]:
    """All vertex sets of the given size meeting every hyperedge in at most k vertices.

    Strong independent sets are k=1.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    return level_sets(k_independent_representation(h, k), size)


def strong_independent_sets(h: Hypergraph, size: int) -> list[tuple]:
    return k_independent_sets(h, size, 1)


def pairwise_adjacent_sets(h: Hypergraph, k: int) -> list[tuple]:
    """Vertex k-sets of h in which every pair shares some hyperedge.

    These are the independent sets of the non-adjacency graph, with the
    representation built on that graph directly.
    """
    return graph_independent_sets(h.non_adjacency_graph(), k)
