"""φ, σ and γ against their definitions, rebuilt from tuple monomials.

Each expected element is a sum of unit blades built through
``incident_edges`` in ``conftest`` (a vertex's incident edge labels times its
own label) or through the edges' vertex sets, over a signature written out
from the caps each representation documents.
"""

import random
from itertools import combinations

import pytest

from conftest import incident_edges, random_graph, random_hypergraph, strip_isolated, vertex_set
from hyperzeon.algebra import Element, Signature
from hyperzeon.conjectures import gamma_element
from hyperzeon.hypergraph import Hypergraph
from hyperzeon.independent_sets import (
    independent_set_representation,
    k_independent_representation,
    weak_representation,
)
from hyperzeon.matchings import incidence_representation
from hyperzeon.transversals import transversal_representation

EDGE_CASES = {
    "isolated vertex": Hypergraph(4, [{1, 2}, {2, 3}]),
    "singleton edge": Hypergraph(3, [{1}, {1, 2}, {2, 3}]),
    "repeated edge": Hypergraph(3, [{1, 2}, {1, 2}, {2, 3}]),
    "4-vertex edge": Hypergraph(5, [{1, 2, 3, 4}, {4, 5}]),
}


def phi_by_definition(h, edge_caps, skip=()):
    """Σ over v not in skip of (labels of the edges containing v) x x_v, from tuple monomials."""
    sig = Signature(edge_caps) + Signature.idempotents(h.n)
    want = sig.zero()
    for v in range(1, h.n + 1):
        if v not in skip:
            want = want + Element.blade(sig, [*incident_edges(h, v), h.m + v - 1])
    return want


def with_loops(g):
    return Hypergraph(g.n, [sorted(e) for e in g.edges] + [[v] for v in g.isolated_vertices()])


def gamma_by_definition(h):
    sig = Signature.zeons(h.n)
    want = sig.zero()
    for e in h.edges:
        want = want + Element.blade(sig, [v - 1 for v in e])
    return want


def blades_meeting_every_edge(h):
    """Σ of the square-free vertex blades whose vertex set meets every edge."""
    sig = Signature.zeons(h.n)
    want = sig.zero()
    for size in range(h.n + 1):
        for s in combinations(range(1, h.n + 1), size):
            if all(e & set(s) for e in h.edges):
                want = want + Element.blade(sig, [v - 1 for v in s])
    return want


def check_hypergraph(h):
    """Every representation of h equals its definition; the ones h's shape admits."""
    sigma = transversal_representation(h)
    assert sigma == phi_by_definition(h, [None] * h.m, h.isolated_vertices())
    assert sigma.signature.blocks[0] == range(h.m)
    assert incidence_representation(h) == gamma_by_definition(h)
    assert gamma_element(h) == blades_meeting_every_edge(h)
    if h.isolated_vertices():
        return
    singles = {v for e in h.edges if len(e) == 1 for v in e}
    weak = weak_representation(h)
    assert weak == phi_by_definition(h, [max(len(e), 2) for e in h.edges], singles)
    assert weak.signature.blocks[0] == range(h.m)
    for k in (1, 2, 3):
        rep = k_independent_representation(h, k)
        assert rep == phi_by_definition(h, [k + 1] * h.m)
        assert rep.signature.blocks[0] == range(h.m)


def check_graph(g):
    g2 = with_loops(g)
    rep = independent_set_representation(g)
    assert rep == phi_by_definition(g2, [2] * g2.m)
    assert rep.signature.blocks[0] == range(g2.m)


def test_sample7(sample7):
    check_hypergraph(sample7)


@pytest.mark.parametrize("name", EDGE_CASES)
def test_edge_cases(name):
    h = EDGE_CASES[name]
    check_hypergraph(h)
    check_hypergraph(strip_isolated(h))
    if all(len(e) <= 2 for e in h.edges):
        check_graph(h)


def test_edge_cases_show_their_feature():
    iso = transversal_representation(EDGE_CASES["isolated vertex"])
    assert len(iso.packed) == 3  # no factor for vertex 4
    assert set().union(*(vertex_set(iso, key) for key in iso.packed)) == {1, 2, 3}
    single = weak_representation(EDGE_CASES["singleton edge"])
    assert len(single.packed) == 2  # vertex 1 lies in the singleton edge
    gamma = incidence_representation(EDGE_CASES["repeated edge"])
    assert gamma.terms == {((0, 1), (1, 1)): 2, ((1, 1), (2, 1)): 1}
    wide = weak_representation(EDGE_CASES["4-vertex edge"])
    assert wide.signature.caps[:2] == (4, 2)
    assert wide.terms[((0, 1), (1, 1), (5, 1))] == 1  # vertex 4


def test_random_hypergraphs():
    rng = random.Random(2020)
    for _ in range(60):
        h = random_hypergraph(rng)
        check_hypergraph(h)
        check_hypergraph(strip_isolated(h))


def test_random_graphs():
    rng = random.Random(2021)
    for _ in range(40):
        check_graph(random_graph(rng))
