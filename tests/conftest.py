"""Shared fixtures and seeded generators for the test suite."""

import warnings
from pathlib import Path

import pytest

from hyperzeon.algebra import Element
from hyperzeon.hypergraph import Hypergraph, parse
from hyperzeon.kernel import Signature

DATA = Path(__file__).parent / "data"

SAMPLE7_TEXT = (DATA / "sample7.hg").read_text(encoding="utf-8")


@pytest.fixture(autouse=True)
def _warnings_are_errors():
    """Fail any test that raises a Python warning, as ``pytest -W error`` would."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.fixture(scope="session")
def sample7() -> Hypergraph:
    """The running 7-vertex, 6-edge example used by every worked expansion."""
    return parse(SAMPLE7_TEXT)


def random_hypergraph(rng, max_n=7, max_m=7, max_edge=4, min_n=1) -> Hypergraph:
    n = rng.randint(min_n, max_n)
    m = rng.randint(0, max_m)
    edges = [
        rng.sample(range(1, n + 1), rng.randint(1, min(max_edge, n))) for _ in range(m)
    ]
    return Hypergraph(n, edges)


def random_graph(rng, max_n=6, edge_prob=0.4, max_m=10) -> Hypergraph:
    n = rng.randint(1, max_n)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = [list(p) for p in pairs if rng.random() < edge_prob]
    return Hypergraph(n, edges[:max_m])


def random_signature(rng, max_gens=12) -> Signature:
    caps = []
    for _ in range(rng.randint(1, max_gens)):
        roll = rng.random()
        if roll < 0.4:
            caps.append(2)
        elif roll < 0.7:
            caps.append(rng.randint(2, 4))
        else:
            caps.append(None)
    return Signature(caps)


def random_element(rng, sig: Signature, max_terms=5, max_coeff=3) -> Element:
    terms = []
    width = len(sig)
    for _ in range(rng.randint(0, max_terms)):
        gids = rng.sample(range(width), rng.randint(0, min(3, width)))
        monomial = []
        for g in gids:
            cap = sig.caps[g]
            exp = 1 if cap is None else rng.randint(1, cap - 1)
            monomial.append((g, exp))
        coeff = rng.choice([c for c in range(-max_coeff, max_coeff + 1) if c])
        terms.append((tuple(sorted(monomial)), coeff))
    return Element(sig, terms)


def strip_isolated(h: Hypergraph) -> Hypergraph:
    """Relabel away isolated vertices; edge order is preserved."""
    iso = set(h.isolated_vertices())
    keep = [v for v in range(1, h.n + 1) if v not in iso]
    relabel = {v: i + 1 for i, v in enumerate(keep)}
    return Hypergraph(len(keep), [[relabel[v] for v in e] for e in h.edges])


def incident_edges(h: Hypergraph, v: int) -> tuple[int, ...]:
    """0-based indices of the edges of h containing vertex v."""
    return tuple(i for i, e in enumerate(h.edges) if v in e)


def vertex_set(rep, key: int) -> frozenset:
    """1-based vertex ids in a packed key of a φ or σ element: its block-1 read."""
    return frozenset(rep.signature.support(key, 1))


def records_to_dict(records) -> dict:
    return {(frozenset(r.vertex_set), frozenset(r.edge_set)): r.count for r in records}
