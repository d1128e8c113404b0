"""Independent-set enumeration through nilpotent edge labels and idempotent vertex labels.

The shared construction sums, over the vertices, the product of a vertex's
incident edge labels with its own idempotent label.  Raising that element to
the k-th power kills every selection that overuses an edge: with index-2 edge
labels on a graph this enforces pairwise non-adjacency, with index-|e| labels
it forbids containing a whole hyperedge (weak independence), and with index
k+1 labels it caps every edge's intersection at k.  Surviving idempotent index
sets of full size are exactly the independent sets; smaller index sets can
also appear (repeated vertices collapse idempotently) and are reported but not
advertised as complete.

Generator id layout in every representation: edge labels occupy ids 0..m-1 in
edge order (for graphs, appended loop edges follow the original edges), vertex
labels occupy ids m..m+n-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .algebra import Element, Signature
from .errors import InvariantError
from .hypergraph import Hypergraph


@dataclass(frozen=True)
class PhiRepresentation:
    """A vertices-to-labels sum, with enough layout to read index sets back out."""

    element: Element
    edge_count: int
    n: int
    loops_added: tuple[int, ...] = ()

    def x_set(self, monomial) -> frozenset:
        """1-based vertex ids carried by a monomial's idempotent part."""
        return frozenset(g - self.edge_count + 1 for g, _ in monomial if g >= self.edge_count)

    def packed_x_sets(self, element: Element):
        """(x_set, coefficient) per term of an element over this representation's signature."""
        sig = self.element.signature
        vertices = sig.mask(range(self.edge_count, len(sig)))
        for key, coeff in element.packed.items():
            yield self.x_set(sig.decode(key & vertices)), coeff


def _phi(h: Hypergraph, signature: Signature, skip=()) -> Element:
    m = h.m
    terms = {}
    for v in range(1, h.n + 1):
        if v in skip:
            continue
        incident = h.incident_edges(v)
        monomial = tuple((idx, 1) for idx in incident) + ((m + v - 1, 1),)
        terms[monomial] = 1
    return Element(signature, terms)


def _expand_by_size(rep: PhiRepresentation, k: int) -> dict[int, list[frozenset]]:
    power = rep.element**k
    by_size: dict[int, set] = {}
    kf = factorial(k)
    seen_full = set()
    for xs, coeff in rep.packed_x_sets(power):
        if len(xs) == k:
            # at full size the coefficient of each surviving index set is exactly k!
            if xs in seen_full:
                raise InvariantError(f"index set {sorted(xs)} appeared twice")
            if coeff != kf:
                raise InvariantError(f"coefficient {coeff} != {k}! for {sorted(xs)}")
            seen_full.add(xs)
        by_size.setdefault(len(xs), set()).add(xs)
    return {size: sorted(sets, key=sorted) for size, sets in sorted(by_size.items())}


# -- graphs ----------------------------------------------------------------------


def _check_graph(g: Hypergraph):
    for e in g.edges:
        if len(e) > 2:
            raise ValueError(f"not a graph: edge {sorted(e)} has more than two vertices")


def _with_isolated_loops(g: Hypergraph) -> tuple[Hypergraph, tuple[int, ...]]:
    loops = g.isolated_vertices()
    return Hypergraph(g.n, [sorted(e) for e in g.edges] + [[v] for v in loops]), loops


def independent_set_representation(g: Hypergraph) -> PhiRepresentation:
    """The index-2 labeled sum for an ordinary graph, after adding loops to isolated vertices."""
    _check_graph(g)
    g2, loops = _with_isolated_loops(g)
    sig = Signature.zeons(g2.m) + Signature.idempotents(g2.n, "x")
    return PhiRepresentation(_phi(g2, sig), g2.m, g2.n, loops)


def graph_independent_sets(g: Hypergraph, k: int) -> list[tuple[frozenset, int]]:
    """All independent k-sets of a graph, each with count 1.

    Loops make a vertex self-adjacent for counting purposes but do not exclude
    it from independent sets.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rep = independent_set_representation(g)
    kf = factorial(k)
    out = []
    for xs, coeff in rep.packed_x_sets(rep.element**k):
        # index-2 edge labels force k distinct vertices
        if len(xs) != k:
            raise InvariantError(f"unexpected index set size {len(xs)}")
        count, remainder = divmod(coeff, kf)
        if remainder or count != 1:
            raise InvariantError(f"coefficient {coeff} != {k}!")
        out.append((xs, count))
    out.sort(key=lambda t: sorted(t[0]))
    return out


def graph_cliques(g: Hypergraph, k: int) -> list[tuple[frozenset, int]]:
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


def weak_representation(h: Hypergraph) -> PhiRepresentation:
    """Edge labels nilpotent of index |e|, so a selection containing an edge vanishes.

    Vertices lying in a singleton edge are omitted: their label would need
    nilpotency index 1, i.e. it is already zero, and indeed no weak independent
    set can contain them.  The singleton edge keeps its id slot.
    """
    _check_no_isolated(h)
    indices = [max(len(e), 2) for e in h.edges]
    sig = Signature.generalized_zeons(indices, "ν") + Signature.idempotents(h.n, "ε")
    skip = {v for e in h.edges if len(e) == 1 for v in e}
    return PhiRepresentation(_phi(h, sig, skip), h.m, h.n)


def weak_independent_sets(h: Hypergraph, k: int) -> dict[int, list[frozenset]]:
    """Vertex sets containing no hyperedge, from the k-th power, keyed by size.

    The size-k entry is complete; smaller sizes arise from repeated vertex
    choices and are reported as-is.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _expand_by_size(weak_representation(h), k)


def k_independent_representation(h: Hypergraph, k: int) -> PhiRepresentation:
    """Every edge label nilpotent of index k+1: selections meet each edge at most k times."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_no_isolated(h)
    sig = Signature.generalized_zeons([k + 1] * h.m, "ν") + Signature.idempotents(h.n, "ε")
    return PhiRepresentation(_phi(h, sig), h.m, h.n)


def k_independent_sets(h: Hypergraph, size: int, k: int) -> list[frozenset]:
    """All vertex sets of the given size meeting every hyperedge in at most k vertices.

    Strong independent sets are k=1.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    rep = k_independent_representation(h, k)
    return _expand_by_size(rep, size).get(size, [])


def strong_independent_sets(h: Hypergraph, size: int) -> list[frozenset]:
    return k_independent_sets(h, size, 1)


def pairwise_adjacent_sets(h: Hypergraph, k: int) -> list[frozenset]:
    """Vertex k-sets of h in which every pair shares some hyperedge.

    These are the independent sets of the non-adjacency graph, with the
    representation built on that graph directly.
    """
    return [vs for vs, _ in graph_independent_sets(h.non_adjacency_graph(), k)]
