"""Finite hypergraphs on vertices 1..n with parsing, emission and derived graphs.

Two interchangeable input formats are supported:

* text: a header line ``n m`` followed by m lines, each listing the vertices
  of one edge as space-separated 1-based ids;
* JSON: an object ``{"n": <int>, "edges": [[...], ...]}``.

Edges are unordered, non-empty vertex sets.  Duplicate edges are representable
(operations that require distinct edges validate on their own); a repeated
vertex inside one edge is rejected as a likely typo.  A vertex count above
:data:`MAX_SIZE` raises BudgetError in :class:`Hypergraph`, and the parsers
raise it for an input edge count above the same limit, each before anything
is allocated for the oversized count.  The command line reads at most
:data:`MAX_INPUT_CHARS` characters of input.  A parse error quotes the
offending input cut to :data:`ECHO_CHARS` characters.
"""

from __future__ import annotations

import json
from typing import Iterable

from .errors import BudgetError, ParseError

# Largest vertex count n, and largest edge count m of an input, accepted.  Every
# enumeration is exact and exponential in some size, so larger inputs could only
# exhaust memory or time.  Graphs derived from an input (complements,
# intersection graphs, added loops) may carry more edges than this, but never
# more vertices than the input has vertices or edges, so only n is checked on
# construction.
MAX_SIZE = 1000

# Longest input text accepted, in characters.  The largest input within
# MAX_SIZE, n = m = 1000 with every vertex in every edge, is about 5 MB of text.
MAX_INPUT_CHARS = 2**26

# Longest quote of the input that an error message carries.
ECHO_CHARS = 80


def _echo(value) -> str:
    """``repr(value)``, cut to ECHO_CHARS characters ending in ``...`` when longer."""
    text = repr(value)
    return text if len(text) <= ECHO_CHARS else text[: ECHO_CHARS - 3] + "..."


class Hypergraph:
    """Immutable hypergraph: vertices 1..n, edges as a tuple of frozensets."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()):
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"vertex count must be an integer, got {_echo(n)}")
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {_echo(n)}")
        if n > MAX_SIZE:
            raise BudgetError(f"vertex count {_echo(n)} exceeds the limit of {MAX_SIZE}")
        out = []
        for e in edges:
            e = frozenset(e)
            if not e:
                raise ValueError("edges must be non-empty")
            for v in e:
                if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= n:
                    raise ValueError(f"vertex {_echo(v)} outside 1..{n}")
            out.append(e)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(out))

    def __setattr__(self, name, value):
        raise AttributeError(f"Hypergraph is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Hypergraph is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle would otherwise restore the slots through __setattr__
        return (Hypergraph, (self.n, self.edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        # Edge ids are positional, so edge order matters for equality.
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        body = ", ".join("{" + ",".join(map(str, sorted(e))) + "}" for e in self.edges)
        return f"Hypergraph(n={self.n}, edges=[{body}])"

    # -- local structure ---------------------------------------------------

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def adjacent(self, u: int, v: int) -> bool:
        return any(u in e and v in e for e in self.edges)

    def isolated_vertices(self) -> tuple[int, ...]:
        degs = [0] * (self.n + 1)
        for e in self.edges:
            for v in e:
                degs[v] += 1
        return tuple(v for v in range(1, self.n + 1) if degs[v] == 0)

    def uniform_rank(self) -> int | None:
        """Common edge size if every edge has the same size, else None."""
        sizes = {len(e) for e in self.edges}
        return sizes.pop() if len(sizes) == 1 else None

    def is_r_uniform(self, r: int) -> bool:
        return all(len(e) == r for e in self.edges)

    def is_r_partite(self, r: int, parts: Iterable[Iterable[int]]) -> bool:
        """True when parts is an r-way partition of 1..n and no edge meets a part twice."""
        parts = [frozenset(p) for p in parts]
        if len(parts) != r:
            return False
        seen: set[int] = set()
        for p in parts:
            if p & seen:
                return False
            seen |= p
        if seen != set(range(1, self.n + 1)):
            return False
        return all(all(len(e & p) <= 1 for p in parts) for e in self.edges)

    def is_union_closed(self) -> bool:
        """True when the union of any two edges is again an edge."""
        present = set(self.edges)
        es = list(present)
        for i, a in enumerate(es):
            for b in es[i:]:
                if a | b not in present:
                    return False
        return True

    # -- derived graphs ------------------------------------------------------

    def intersection_graph(self, j: int = 0) -> "Hypergraph":
        """Graph on edge indices 1..m; two edges are joined when they share > j vertices."""
        if j < 0:
            raise ValueError(f"intersection threshold must be >= 0, got {j}")
        pairs = [
            [a + 1, b + 1]
            for a in range(self.m)
            for b in range(a + 1, self.m)
            if len(self.edges[a] & self.edges[b]) > j
        ]
        return Hypergraph(self.m, pairs)

    def non_adjacency_graph(self) -> "Hypergraph":
        """Graph on 1..n joining vertex pairs that share no edge."""
        # near[v]: v and every vertex that shares an edge with it
        near = [set() for _ in range(self.n + 1)]
        for e in self.edges:
            for v in e:
                near[v] |= e
        pairs = [
            [u, v]
            for u in range(1, self.n + 1)
            for v in range(u + 1, self.n + 1)
            if v not in near[u]
        ]
        return Hypergraph(self.n, pairs)


# -- parsing and emission -----------------------------------------------------


def parse_text(text: str) -> Hypergraph:
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln]
    if not lines:
        raise ParseError("empty input")
    no, header = lines[0]
    fields = header.split()
    if len(fields) != 2:
        raise ParseError(f"header must be 'n m', got {_echo(header)}", line=no)
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(f"header must be two integers, got {_echo(header)}", line=no) from None
    if n < 0 or m < 0:
        raise ParseError("n and m must be >= 0", line=no)
    if m > MAX_SIZE:
        raise BudgetError(f"edge count {_echo(m)} exceeds the limit of {MAX_SIZE}")
    body = lines[1:]
    if len(body) != m:
        raise ParseError(f"expected {m} edge lines, found {len(body)}")
    edges = []
    for no, ln in body:
        verts = []
        for tok in ln.split():
            try:
                verts.append(int(tok))
            except ValueError:
                raise ParseError(f"expected integer vertex id, got {_echo(tok)}", line=no) from None
        if len(set(verts)) != len(verts):
            raise ParseError("repeated vertex in edge", line=no)
        for v in verts:
            if not 1 <= v <= n:
                raise ParseError(f"vertex {_echo(v)} outside 1..{n}", line=no)
        edges.append(verts)
    return Hypergraph(n, edges)


def parse_json(text: str) -> Hypergraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    if "n" not in obj or "edges" not in obj:
        raise ParseError("JSON object must have 'n' and 'edges'")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError("'n' must be an integer")
    edges = obj["edges"]
    if not isinstance(edges, list) or not all(isinstance(e, list) for e in edges):
        raise ParseError("'edges' must be a list of lists")
    if len(edges) > MAX_SIZE:
        raise BudgetError(f"edge count {len(edges)} exceeds the limit of {MAX_SIZE}")
    for e in edges:
        for v in e:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParseError(f"vertex ids must be integers, got {_echo(v)} in edge {_echo(e)}")
        if len(set(e)) != len(e):
            raise ParseError(f"repeated vertex in edge {_echo(e)}")
    try:
        return Hypergraph(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse(text: str) -> Hypergraph:
    """Auto-detect: JSON when the first non-space character is '{', else text."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_json(text)
    return parse_text(text)


def emit(h: Hypergraph) -> str:
    lines = [f"{h.n} {h.m}"]
    lines.extend(" ".join(map(str, sorted(e))) for e in h.edges)
    return "\n".join(lines) + "\n"


def to_json_dict(h: Hypergraph) -> dict:
    return {"n": h.n, "edges": [sorted(e) for e in h.edges]}
