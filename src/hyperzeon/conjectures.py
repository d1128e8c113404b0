"""Empirical checkers for two matching/covering conjectures, stated algebraically.

The first bounds the transversal number of an r-uniform r-partite hypergraph
by (r-1) times the matching number, with both sides read off the incidence
element: the matching number is its nilpotency index minus one, and the
transversal number is the first power of the transversal representation σ
whose expansion carries the full edge blade (equivalently, the minimal grade
of the sum of annihilating blades, computed on request).  The second says a union-closed family has an element in at least half its sets;
per vertex, multiplying the incidence element by that vertex's generator and
taking the scalar sum counts the edges missing it, so the claim becomes the
existence of a vertex whose product's scalar sum is at most half the family
size.  Random instance generators plus an append-only violation log make the
checks repeatable; the expected violation count is zero.  A failed internal
identity (nilpotency, kernel/degree agreement) raises InvariantError.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from itertools import product

from .algebra import Element, annihilates, nilpotency_index
from .errors import BudgetError, InvariantError
from .hypergraph import Hypergraph, to_json_dict
from .matchings import incidence_representation, incidence_signature
from .transversals import transversal_number

GAMMA_MAX_N = 20


def gamma_element(h: Hypergraph) -> Element:
    """Sum of every square-free vertex blade that multiplies the incidence element to zero.

    A blade annihilates it exactly when the blade's vertex set meets every
    edge, so the minimal grade equals the transversal number; that equivalence
    is a tested invariant, and this function stays honest by running the 2^n
    kernel multiplications rather than a hitting-set scan.
    """
    if h.n > GAMMA_MAX_N:
        raise BudgetError(f"gamma scan is 2^n; limited to n <= {GAMMA_MAX_N}, got {h.n}")
    gamma = incidence_representation(h)
    sig = incidence_signature(h)
    terms = {}
    for mask in range(2**h.n):
        gids = tuple(g for g in range(h.n) if mask >> g & 1)
        if annihilates(gids, gamma):
            terms[tuple((g, 1) for g in gids)] = 1
    return Element(sig, terms)


@dataclass(frozen=True)
class RyserReport:
    r: int
    matching_number: int
    transversal_number: int
    bound_ok: bool
    gamma_min_grade: int | None = None


@dataclass(frozen=True)
class FranklReport:
    condition_f: bool
    m: int
    best_vertex: int
    best_count: int
    holds: bool


def check_ryser(h: Hypergraph, r: int, partition, gamma_limit: int = 0) -> RyserReport:
    """Test transversal number <= (r-1) * matching number on an r-uniform r-partite input.

    The matching number comes from the incidence element's nilpotency index;
    when gamma_limit >= n the annihilator sum is also computed and its minimal
    grade reported (it must equal the transversal number).  The transversal
    number comes from the plain power loop of the transversal representation.
    """
    if not h.is_r_uniform(r):
        raise ValueError(f"hypergraph is not {r}-uniform")
    if not h.is_r_partite(r, partition):
        raise ValueError(f"partition is not a valid {r}-partition")
    gamma = incidence_representation(h)
    kappa = nilpotency_index(gamma, h.n + 1)
    if kappa is None:
        raise InvariantError("incidence element must be nilpotent")
    matching = kappa - 1
    tau = transversal_number(h)
    grade = gamma_element(h).min_grade() if 0 < h.n <= gamma_limit else None
    return RyserReport(r, matching, tau, tau <= (r - 1) * matching, grade)


def check_frankl(h: Hypergraph) -> FranklReport:
    """Test that some vertex lies in at least half the edges of a union-closed family.

    Every vertex's count is evaluated twice, through the kernel product and
    through the degree identity (edges missing v = m - degree(v)); the two
    routes must agree exactly.
    """
    if not h.is_union_closed():
        raise ValueError("edge family is not closed under unions")
    if h.m == 0:
        raise ValueError("needs at least one edge")
    gamma = incidence_representation(h)
    sig = incidence_signature(h)
    best_vertex, best_missing = None, None
    for v in range(1, h.n + 1):
        missing = (sig.gen(v - 1) * gamma).scalar_sum()
        if missing != h.m - h.degree(v):
            raise InvariantError(f"kernel/degree mismatch at vertex {v}")
        if best_missing is None or missing < best_missing:
            best_vertex, best_missing = v, missing
    best_count = h.m - best_missing
    return FranklReport(True, h.m, best_vertex, best_count, 2 * best_count >= h.m)


# -- instance generators --------------------------------------------------------


def ryser_partition(r: int, part_size: int) -> list[list[int]]:
    """Consecutive blocks of part_size vertices, one block per part."""
    return [
        list(range(p * part_size + 1, (p + 1) * part_size + 1)) for p in range(r)
    ]


def generate_ryser_instance(r: int, part_size: int, edge_count: int, seed) -> Hypergraph:
    """A random r-uniform r-partite hypergraph with distinct edges, one vertex per part.

    Deterministic for a fixed seed; vertices of part p are the p-th block of
    ryser_partition(r, part_size).
    """
    if r < 1 or part_size < 1 or edge_count < 1:
        raise ValueError("r, part_size and edge_count must be >= 1")
    space = part_size**r
    if space > 10**6:
        raise BudgetError(f"edge space {part_size}^{r} too large to sample")
    if edge_count > space:
        raise ValueError(f"cannot pick {edge_count} distinct edges from {space}")
    rng = random.Random(seed)
    choices = rng.sample(sorted(product(range(part_size), repeat=r)), edge_count)
    edges = [
        [p * part_size + c + 1 for p, c in enumerate(choice)] for choice in choices
    ]
    return Hypergraph(r * part_size, edges)


def generate_union_closed(ground_size: int, seed_count: int, seed, max_edges: int = 4096) -> Hypergraph:
    """Close random seed sets under pairwise unions (fixpoint), deterministically.

    The closure of s seeds has at most 2^s - 1 members (unions of nonempty
    seed subfamilies); max_edges is a hard stop for safety.
    """
    if ground_size < 1 or seed_count < 1:
        raise ValueError("ground_size and seed_count must be >= 1")
    rng = random.Random(seed)
    family = set()
    for _ in range(seed_count):
        mask = rng.randrange(1, 2**ground_size)
        family.add(frozenset(v + 1 for v in range(ground_size) if mask >> v & 1))
    while True:
        new = set()
        for a in family:
            for b in family:
                u = a | b
                if u not in family:
                    new.add(u)
        if not new:
            break
        family |= new
        if len(family) > max_edges:
            raise BudgetError(f"union closure exceeded {max_edges} edges")
    edges = sorted(family, key=lambda e: (len(e), sorted(e)))
    return Hypergraph(ground_size, edges)


# -- randomized harness -----------------------------------------------------------


def append_violation(path: str, record: dict):
    """Append one JSON line; violations are persisted, never silently dropped."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def run_ryser_trials(trials: int, seed, max_n: int = 12, log_path: str | None = None) -> dict:
    """Check seeded random instances with r in {2, 3}; returns a summary dict."""
    master = random.Random(seed)
    violations = 0
    for trial in range(trials):
        r = master.choice([2, 3])
        part_size = master.randint(1, max(1, max_n // r))
        edge_count = master.randint(1, min(part_size**r, 3 * part_size))
        inst_seed = master.randrange(2**32)
        h = generate_ryser_instance(r, part_size, edge_count, inst_seed)
        report = check_ryser(h, r, ryser_partition(r, part_size))
        if not report.bound_ok:
            violations += 1
            if log_path:
                append_violation(
                    log_path,
                    {
                        "kind": "ryser",
                        "trial": trial,
                        "r": r,
                        "part_size": part_size,
                        "seed": inst_seed,
                        "hypergraph": to_json_dict(h),
                        "report": asdict(report),
                    },
                )
    return {"kind": "ryser", "trials": trials, "violations": violations}


def run_frankl_trials(trials: int, seed, max_ground: int = 8, log_path: str | None = None) -> dict:
    master = random.Random(seed)
    violations = 0
    for trial in range(trials):
        ground = master.randint(1, max_ground)
        seed_count = master.randint(1, 4)
        inst_seed = master.randrange(2**32)
        h = generate_union_closed(ground, seed_count, inst_seed)
        report = check_frankl(h)
        if not report.holds:
            violations += 1
            if log_path:
                append_violation(
                    log_path,
                    {
                        "kind": "frankl",
                        "trial": trial,
                        "ground": ground,
                        "seed_count": seed_count,
                        "seed": inst_seed,
                        "hypergraph": to_json_dict(h),
                        "report": asdict(report),
                    },
                )
    return {"kind": "frankl", "trials": trials, "violations": violations}
